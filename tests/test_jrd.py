"""Quadratic Renyi entropy and the Jensen-Renyi divergence.

Expected values are frozen from the numeric-integration oracle, which is an
independent route to the same quantities.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penn_mpc import jrd
from penn_mpc.errors import ShapeError


def comp(mean, var):
    return jrd.GaussianComponent(np.atleast_1d(np.asarray(mean, dtype=float)),
                                 np.atleast_1d(np.asarray(var, dtype=float)))


STD_NORMAL = comp(0.0, 1.0)
SHIFTED = comp(2.0, 1.0)
PAIR = jrd.MixtureSummary([STD_NORMAL, SHIFTED])

# oracle-verified constants for the (0,2)/unit-variance pair
CROSS_SAME = 0.2820947917738782        # 1/sqrt(4 pi)
CROSS_SHIFTED = 0.1037768743551487     # 1/sqrt(4 pi) * e^-1
H2_STD_NORMAL = 1.2655121234846454     # 0.5 ln(4 pi)
JRD_PAIR = 0.3798854930417224          # H2(mix) - mean H2, via integration oracle


def test_cross_term_identical_components():
    assert jrd.gaussian_cross_term(STD_NORMAL, STD_NORMAL) == \
        pytest.approx(CROSS_SAME, abs=1e-12)


def test_cross_term_separated_means():
    # exponent is -(2-0)^2 / (2 * (1+1)) = -1
    assert jrd.gaussian_cross_term(STD_NORMAL, SHIFTED) == \
        pytest.approx(CROSS_SHIFTED, abs=1e-12)


def test_cross_term_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = comp(rng.normal(size=3), rng.uniform(0.1, 4.0, 3))
        b = comp(rng.normal(size=3), rng.uniform(0.1, 4.0, 3))
        assert jrd.gaussian_cross_term(a, b) == jrd.gaussian_cross_term(b, a)


def test_cross_term_rejects_nonpositive_cov():
    with pytest.raises(ValueError):
        comp(0.0, 0.0)
    with pytest.raises(ValueError):
        comp(0.0, -1.0)


def test_entropy_standard_normal():
    assert jrd.renyi2_entropy_gaussian(STD_NORMAL) == \
        pytest.approx(H2_STD_NORMAL, abs=1e-12)


def test_entropy_zero_crossing_variance():
    c = comp(3.0, 1.0 / (4.0 * np.pi))
    assert jrd.renyi2_entropy_gaussian(c) == pytest.approx(0.0, abs=1e-12)


def test_entropy_additive_over_dims():
    c = comp([0.0, 0.0], [1.0, 1.0])
    assert jrd.renyi2_entropy_gaussian(c) == pytest.approx(2 * H2_STD_NORMAL,
                                                           abs=1e-12)


def test_mixture_entropy_single_component():
    m = jrd.MixtureSummary([STD_NORMAL])
    assert jrd.renyi2_entropy_mixture(m) == \
        pytest.approx(jrd.renyi2_entropy_gaussian(STD_NORMAL), abs=1e-12)


def test_mixture_entropy_collapses_for_identical_components():
    m = jrd.MixtureSummary([STD_NORMAL, comp(0.0, 1.0)])
    assert jrd.renyi2_entropy_mixture(m) == \
        pytest.approx(jrd.renyi2_entropy_gaussian(STD_NORMAL), abs=1e-12)


def test_mixture_entropy_pair():
    expect = -np.log(0.25 * (2 * CROSS_SAME + 2 * CROSS_SHIFTED))
    assert jrd.renyi2_entropy_mixture(PAIR) == pytest.approx(expect, abs=1e-12)


def test_jrd_zero_at_consensus():
    m = jrd.MixtureSummary([comp([1.0, -2.0], [0.5, 3.0]) for _ in range(4)])
    assert abs(jrd.jrd(m)) < 1e-12


def test_jrd_single_component_convention():
    assert jrd.jrd(jrd.MixtureSummary([STD_NORMAL])) == 0.0


def test_jrd_pair_fixture():
    assert jrd.jrd(PAIR) == pytest.approx(JRD_PAIR, abs=1e-9)


def test_jrd_permutation_invariant():
    rng = np.random.default_rng(3)
    comps = [comp(rng.normal(size=2), rng.uniform(0.2, 2.0, 2)) for _ in range(4)]
    base = jrd.jrd(jrd.MixtureSummary(comps))
    for perm in ([3, 1, 0, 2], [2, 3, 1, 0]):
        assert jrd.jrd(jrd.MixtureSummary([comps[i] for i in perm])) == \
            pytest.approx(base, abs=1e-13)


def test_jrd_translation_invariant():
    rng = np.random.default_rng(4)
    comps = [comp(rng.normal(size=3), rng.uniform(0.2, 2.0, 3)) for _ in range(3)]
    base = jrd.jrd(jrd.MixtureSummary(comps))
    shift = np.array([10.0, -4.0, 0.5])
    shifted = [comp(c.mean + shift, c.diag_cov) for c in comps]
    assert jrd.jrd(jrd.MixtureSummary(shifted)) == pytest.approx(base, abs=1e-12)


def test_jrd_equal_covariance_positive_and_monotone():
    # shared covariance, distinct means: positive; grows as one mean recedes
    cov = [0.7]
    prev = 0.0
    for d in (0.5, 1.0, 2.0, 4.0):
        m = jrd.MixtureSummary([comp(0.0, cov), comp(d, cov)])
        val = jrd.jrd(m)
        assert val > prev
        prev = val


def test_jrd_can_go_negative_with_heterogeneous_variances():
    # documented behavior, not a bug: strongly mismatched variances
    m = jrd.MixtureSummary([comp(0.0, 0.01), comp(0.0, 100.0)])
    val = jrd.jrd(m)
    assert val < -0.9
    assert jrd.jrd_oracle_1d(m) == pytest.approx(val, abs=1e-6)


def test_oracle_agrees_on_fixture():
    assert jrd.jrd_oracle_1d(PAIR) == pytest.approx(JRD_PAIR, abs=1e-9)


def test_oracle_identical_components_near_zero():
    m = jrd.MixtureSummary([comp(0.3, 0.8), comp(0.3, 0.8)])
    assert abs(jrd.jrd_oracle_1d(m)) < 1e-9


def test_oracle_grid_convergence():
    coarse = jrd.jrd_oracle_1d(PAIR, step=2e-3)
    fine = jrd.jrd_oracle_1d(PAIR, step=1e-3)
    assert abs(coarse - fine) < 1e-8


def test_oracle_rejects_multidim():
    m = jrd.MixtureSummary([comp([0.0, 0.0], [1.0, 1.0])])
    with pytest.raises(ShapeError):
        jrd.jrd_oracle_1d(m)


def test_closed_form_matches_oracle_randomized():
    rng = np.random.default_rng(12345)
    for _ in range(100):
        b = int(rng.integers(2, 6))
        comps = [comp(rng.uniform(-3, 3), rng.uniform(0.1, 4.0)) for _ in range(b)]
        m = jrd.MixtureSummary(comps)
        assert abs(jrd.jrd(m) - jrd.jrd_oracle_1d(m)) < 1e-6


def test_batch_matches_scalar_path():
    rng = np.random.default_rng(6)
    n, b, d = 40, 5, 3
    means = rng.normal(size=(n, b, d))
    varis = rng.uniform(0.05, 3.0, size=(n, b, d))
    batch = jrd.jrd_batch(means, varis)
    for i in range(n):
        m = jrd.MixtureSummary([comp(means[i, j], varis[i, j]) for j in range(b)])
        assert batch[i] == pytest.approx(jrd.jrd(m), abs=1e-10)


def test_batch_single_member_is_zero():
    out = jrd.jrd_batch(np.zeros((7, 1, 3)), np.ones((7, 1, 3)))
    assert np.array_equal(out, np.zeros(7))


def test_mixture_requires_shared_dim():
    with pytest.raises(ShapeError):
        jrd.MixtureSummary([STD_NORMAL, comp([0.0, 1.0], [1.0, 1.0])])


def _reference_jrd_batch(means, variances):
    """``jrd_batch`` with the d-axis sums by ``np.sum`` and the quadratic
    term out of place, as it was first written."""
    n, b, d = means.shape
    s = variances[:, :, None, :] + variances[:, None, :, :]
    diff = means[:, :, None, :] - means[:, None, :, :]
    log_z = (-0.5 * d * jrd.LOG_2PI
             - 0.5 * np.sum(np.log(s), axis=-1)
             - 0.5 * np.sum(diff * diff / s, axis=-1))
    flat = log_z.reshape(n, b * b)
    peak = np.max(flat, axis=1)
    h_mix = -(peak + np.log(np.sum(np.exp(flat - peak[:, None]), axis=1))) + 2.0 * np.log(b)
    h_comp = 0.5 * d * np.log(4.0 * np.pi) + 0.5 * np.sum(np.log(variances), axis=-1)
    return h_mix - np.mean(h_comp, axis=1)


def _laid_out(a, layout):
    """``a`` (N, B, d) as the same values in another memory layout."""
    if layout == "member_major":  # (B, N, d) transposed, as the rollout passes it
        return np.ascontiguousarray(a.transpose(1, 0, 2)).transpose(1, 0, 2)
    if layout == "strided":
        n, b, d = a.shape
        big = np.zeros((2 * n, b, d + 2))
        big[::2, :, 1:d + 1] = a
        return big[::2, :, 1:d + 1]
    return np.ascontiguousarray(a)


_LAYOUTS = ["member_major", "contiguous", "strided"]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 512]),
       b=st.integers(2, 6), d=st.integers(1, 7),
       layouts=st.tuples(st.sampled_from(_LAYOUTS), st.sampled_from(_LAYOUTS)),
       bad_rows=st.booleans())
def test_batch_matches_reference_formula(seed, n, b, d, layouts, bad_rows):
    """Bit-identical to the ``np.sum`` formula, NaN-equal, in every memory
    layout of either argument, with NaN and inf rows."""
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=rng.uniform(0.01, 5.0), size=(n, b, d))
    varis = np.exp(rng.uniform(-12.0, 3.0, size=(n, b, d)))
    if bad_rows:
        rows = rng.integers(0, n, size=4)
        means[rows[0], 0, 0] = np.nan
        means[rows[1], -1, -1] = np.inf
        varis[rows[2], 0, -1] = np.inf
        varis[rows[3], -1, 0] = np.nan
    means = _laid_out(means, layouts[0])
    varis = _laid_out(varis, layouts[1])
    m_before, v_before = means.copy(), varis.copy()
    with np.errstate(all="ignore"):
        got = jrd.jrd_batch(means, varis)
        want = _reference_jrd_batch(means, varis)
    assert got.shape == (n,)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(means, m_before, equal_nan=True)
    assert np.array_equal(varis, v_before, equal_nan=True)
