"""Quadratic Renyi entropy for equal-weight diagonal-Gaussian mixtures and
the Jensen-Renyi divergence used as the ensemble-disagreement signal.

``jrd_batch`` is the one closed form; ``jrd_oracle_1d`` integrates the same
quantity numerically for d=1 and is the independent reference it is tested
against.

All entropies are in nats. Order-2 Renyi entropy has a closed form for
Gaussian mixtures: the integral of a squared mixture density reduces to
pairwise Gaussian cross terms. Note the divergence is NOT nonnegative in
general; with strongly heterogeneous component variances it can go below
zero (see tests for a witness case).
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

LOG_2PI = float(np.log(2.0 * np.pi))


def jrd_oracle_1d(means, variances, span: float = 12.0,
                  step: float = 1e-3) -> float:
    """Numeric-integration oracle for one d=1 mixture of B members.

    ``means`` and ``variances`` are 1-D arrays of length B. Both entropy
    terms are recomputed by trapezoid integration of squared densities on a
    uniform grid covering every component mean +- span standard deviations,
    so the value is independent of the closed form in ``jrd_batch``. With the
    default grid the absolute error is far below 1e-8 for variances in
    [0.05, 10] and means within a few units of each other. Returns 0.0 for a
    single member, as ``jrd_batch`` does.
    """
    means = np.asarray(means, dtype=np.float64)
    sds = np.sqrt(np.asarray(variances, dtype=np.float64))
    if means.shape != sds.shape or means.ndim != 1:
        raise ShapeError("oracle expects matching 1-D (B,) arrays, d=1 only")
    if means.size < 2:
        return 0.0
    lo = float(np.min(means - span * sds))
    hi = float(np.max(means + span * sds))
    x = np.arange(lo, hi + step, step)

    def h2_of(density: np.ndarray) -> float:
        return float(-np.log(np.trapezoid(density * density, x)))

    pdf_each = [np.exp(-0.5 * (x - mu) ** 2 / sd**2) / (np.sqrt(2 * np.pi) * sd)
                for mu, sd in zip(means, sds)]
    mix = sum(pdf_each) / means.size
    return h2_of(mix) - sum(h2_of(p) for p in pdf_each) / means.size


def _sum_last(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis by explicit adds, left to right.

    For lengths up to 7 this is bit-identical to ``np.sum(x, axis=-1)``
    (numpy's pairwise summation starts at 8) and about ten times faster on a
    short axis. ``order="K"`` keeps the memory layout numpy's own reduction
    would give, on which the add order of later reductions depends.
    """
    out = x[..., 0].copy(order="K")
    for k in range(1, x.shape[-1]):
        out += x[..., k]
    return out


def jrd_batch(means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Vectorized divergence for N mixtures at once.

    ``means`` and ``variances`` have shape (N, B, d) with strictly positive
    variances. Computed in log space for robustness to far-separated
    components. Sums over the d axis add its terms left to right
    (x_0 + x_1 + ... + x_{d-1}). Returns shape (N,).
    """
    means = np.asarray(means, dtype=np.float64)
    variances = np.asarray(variances, dtype=np.float64)
    if means.shape != variances.shape or means.ndim != 3:
        raise ShapeError("expected matching (N, B, d) arrays")
    n, b, d = means.shape
    if b == 1:
        return np.zeros(n)
    # log z_ij over all ordered pairs: (N, B, B)
    s = variances[:, :, None, :] + variances[:, None, :, :]
    quad = means[:, :, None, :] - means[:, None, :, :]
    quad *= quad
    quad /= s
    log_z = (-0.5 * d * LOG_2PI
             - 0.5 * _sum_last(np.log(s, out=s))
             - 0.5 * _sum_last(quad))
    flat = log_z.reshape(n, b * b)
    peak = np.max(flat, axis=1)
    h_mix = -(peak + np.log(np.sum(np.exp(flat - peak[:, None]), axis=1))) + 2.0 * np.log(b)
    h_comp = 0.5 * d * np.log(4.0 * np.pi) + 0.5 * _sum_last(np.log(variances))
    return h_mix - np.mean(h_comp, axis=1)
