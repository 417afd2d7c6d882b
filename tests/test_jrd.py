"""Quadratic Renyi entropy and the Jensen-Renyi divergence.

``jrd_batch`` is the package's one closed form. It is checked against the
numeric-integration oracle ``jrd_oracle_1d`` (``jrd_oracle.py`` beside this
file), an independent route to the same quantity, and by properties that
need no second closed form. Expected values are frozen from the oracle.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jrd_oracle import jrd_oracle_1d

from penn_mpc import jrd
from penn_mpc.errors import ShapeError


def jrd1(means, variances):
    """``jrd_batch`` of one mixture: (B,) or (B, d) arrays, as (1, B, d)."""
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if means.ndim == 1:
        means, variances = means[:, None], variances[:, None]
    return float(jrd.jrd_batch(means[None], variances[None])[0])


# the (0, 2) / unit-variance pair
PAIR = (np.array([0.0, 2.0]), np.array([1.0, 1.0]))
JRD_PAIR = 0.3798854930417224          # H2(mix) - mean H2, via integration oracle


def test_cross_term_separated_means():
    """Two members with equal variances v: each cross term is the self term
    times exp(-sum (mu_a - mu_b)^2 / (4 v)), so the divergence is
    ln 2 - ln(1 + that factor), in any dimension."""
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        var = rng.uniform(0.1, 4.0, d)
        a, b = rng.normal(size=d), rng.normal(size=d)
        factor = np.exp(-np.sum((a - b) ** 2 / (4.0 * var)))
        assert jrd1([a, b], [var, var]) == \
            pytest.approx(np.log(2.0) - np.log1p(factor), abs=1e-12)


def test_jrd_zero_at_consensus():
    means = np.tile([1.0, -2.0], (4, 1))
    varis = np.tile([0.5, 3.0], (4, 1))
    assert abs(jrd1(means, varis)) < 1e-12


def test_jrd_single_component_convention():
    assert jrd1([0.0], [1.0]) == 0.0


def test_jrd_pair_fixture():
    assert jrd1(*PAIR) == pytest.approx(JRD_PAIR, abs=1e-9)


def _mixtures(seed, n, b, d):
    """(n, b, d) means and variances spanning several orders of magnitude."""
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=rng.uniform(0.1, 3.0), size=(n, b, d))
    varis = np.exp(rng.uniform(-4.0, 2.0, size=(n, b, d)))
    return rng, means, varis


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       b=st.integers(2, 5), d=st.integers(2, 5))
def test_entropy_additive_over_dims(seed, n, b, d):
    """Order-2 entropies add over the dims of a diagonal Gaussian, so dims
    on which every member has the same mean and variance add the same
    amount to the mixture and the member entropies. An (N, B, d) mixture
    whose members agree on dims 1..d-1 therefore has the divergence of its
    dim-0 marginal, which the oracle computes independently."""
    rng = np.random.default_rng(seed)
    means = np.repeat(rng.normal(scale=10.0, size=(n, 1, d)), b, axis=1)
    varis = np.repeat(np.exp(rng.uniform(-6.0, 3.0, size=(n, 1, d))), b, axis=1)
    means[:, :, 0] = rng.uniform(-3.0, 3.0, size=(n, b))
    varis[:, :, 0] = rng.uniform(0.1, 4.0, size=(n, b))
    got = jrd.jrd_batch(means, varis)
    marginal = jrd.jrd_batch(means[:, :, :1], varis[:, :, :1])
    assert np.allclose(got, marginal, rtol=0.0, atol=1e-12)
    for i in range(n):
        oracle = jrd_oracle_1d(means[i, :, 0], varis[i, :, 0])
        assert abs(got[i] - oracle) < 1e-9


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       b=st.integers(2, 6), d=st.integers(1, 5))
def test_jrd_affine_invariant(seed, n, b, d):
    """A per-coordinate map x_k -> a_k x_k + c_k (a_k != 0) shifts every
    entropy term by the same sum of ln |a_k|, so the divergence is
    unchanged."""
    rng, means, varis = _mixtures(seed, n, b, d)
    scale = rng.choice([-1.0, 1.0], size=d) * np.exp(rng.uniform(-3.0, 3.0, d))
    shift = rng.uniform(-50.0, 50.0, d)
    base = jrd.jrd_batch(means, varis)
    moved = jrd.jrd_batch(means * scale + shift, varis * scale**2)
    assert np.allclose(moved, base, rtol=0.0, atol=1e-11)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       b=st.integers(2, 6), d=st.integers(1, 5))
def test_jrd_permutation_invariant(seed, n, b, d):
    """The members of an equal-weight mixture have no order."""
    rng, means, varis = _mixtures(seed, n, b, d)
    perm = rng.permutation(b)
    base = jrd.jrd_batch(means, varis)
    assert np.allclose(jrd.jrd_batch(means[:, perm], varis[:, perm]), base,
                       rtol=0.0, atol=1e-12)


def test_jrd_equal_covariance_positive_and_monotone():
    # shared covariance, distinct means: positive; grows as one mean recedes
    prev = 0.0
    for d in (0.5, 1.0, 2.0, 4.0):
        val = jrd1([0.0, d], [0.7, 0.7])
        assert val > prev
        prev = val


def test_jrd_can_go_negative_with_heterogeneous_variances():
    # documented behavior, not a bug: strongly mismatched variances
    mixture = ([0.0, 0.0], [0.01, 100.0])
    val = jrd1(*mixture)
    assert val < -0.9
    assert jrd_oracle_1d(*mixture) == pytest.approx(val, abs=1e-6)


def test_oracle_agrees_on_fixture():
    assert jrd_oracle_1d(*PAIR) == pytest.approx(JRD_PAIR, abs=1e-9)


def test_oracle_identical_components_near_zero():
    assert abs(jrd_oracle_1d([0.3, 0.3], [0.8, 0.8])) < 1e-9


def test_oracle_grid_convergence():
    coarse = jrd_oracle_1d(*PAIR, step=2e-3)
    fine = jrd_oracle_1d(*PAIR, step=1e-3)
    assert abs(coarse - fine) < 1e-8


def test_oracle_rejects_multidim():
    with pytest.raises(ShapeError):
        jrd_oracle_1d(np.zeros((2, 2)), np.ones((2, 2)))
    with pytest.raises(ShapeError):
        jrd_oracle_1d([0.0, 1.0], [1.0, 1.0, 1.0])


def test_closed_form_matches_oracle_randomized():
    rng = np.random.default_rng(12345)
    for _ in range(100):
        b = int(rng.integers(2, 6))
        means = rng.uniform(-3, 3, b)
        varis = rng.uniform(0.1, 4.0, b)
        assert abs(jrd1(means, varis) - jrd_oracle_1d(means, varis)) < 1e-6


def test_batch_single_member_is_zero():
    out = jrd.jrd_batch(np.zeros((7, 1, 3)), np.ones((7, 1, 3)))
    assert np.array_equal(out, np.zeros(7))


def test_mixture_requires_shared_dim():
    """Means and variances must be matching (N, B, d) arrays."""
    with pytest.raises(ShapeError):
        jrd.jrd_batch(np.zeros((1, 2, 1)), np.ones((1, 2, 2)))
    with pytest.raises(ShapeError):
        jrd.jrd_batch(np.zeros((2, 1)), np.ones((2, 1)))


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
@example(seed=20261020, n=512, b=5, d=3,
         layouts=("member_major", "member_major"), bad_rows=False)
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
