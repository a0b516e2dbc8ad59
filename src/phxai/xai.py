"""Observational feature attribution over similarity cohorts.

All attribution here is computed from rows that actually exist in the
dataset: the value of a feature subset is the mean output over rows similar
to the explanation target on every feature in the subset. Small feature
counts get exact Shapley values by subset enumeration; high-dimensional
targets use integrated gradients along the diagonal of the multilinearly
interpolated cohort value: O(steps * n) for the quadrature steps plus one
(n x d) product.

The target's own row is required to be in the dataset, so every cohort is
non-empty and every denominator is at least 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EXACT_SHAPLEY_MAX_FEATURES = 25
DEFAULT_STEPS = 50
DEFAULT_RATIO = 0.01


class CohortSizeError(ValueError):
    """Too many features for exact subset enumeration; use igcs instead."""


@dataclass(frozen=True)
class SimilaritySpec:
    """Similarity rule applied to every feature: continuous features match
    within ratio * (column max - column min); categorical features match
    exactly."""

    kind: str = "continuous"
    ratio: float = DEFAULT_RATIO

    def __post_init__(self):
        if self.kind not in ("continuous", "categorical"):
            raise ValueError(f"unknown similarity kind {self.kind!r}")
        if not 0 < self.ratio <= 1:
            raise ValueError("ratio must be in (0, 1]")


@dataclass
class CohortIndicatorMatrix:
    """n x d indicators, stored as bool: S[i, j] iff row i is similar to the
    target on feature j; the target row is all true by construction. Values
    other than 0 and 1 are rejected as given, before any cast."""

    S: np.ndarray
    target_row: int

    def __post_init__(self):
        S = np.asarray(self.S)
        if S.ndim != 2:
            raise ValueError("S must be 2-D")
        if S.dtype != bool and not np.isin(S, (0, 1)).all():
            raise ValueError("S entries must be 0 or 1")
        if not S[self.target_row].all():
            raise ValueError("target row must be all ones")
        self.S = S.astype(bool, copy=False)

    @property
    def n_rows(self) -> int:
        return self.S.shape[0]

    @property
    def n_features(self) -> int:
        return self.S.shape[1]


@dataclass
class Attribution:
    """Per-feature values plus the endpoints they are meant to bridge:
    values sum to total - baseline up to the method's stated tolerance."""

    values: np.ndarray
    baseline: float
    total: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)


def similarity_matrix(X, target_row: int, spec: SimilaritySpec = SimilaritySpec()
                      ) -> CohortIndicatorMatrix:
    """Mark every row's per-feature similarity to the target row.

    Continuous thresholds are ratio * column range over the whole dataset;
    a constant column therefore marks every row similar.
    """
    X = np.asarray(X)
    n, _ = X.shape
    if not 0 <= target_row < n:
        raise ValueError("target_row out of range")
    if spec.kind == "categorical":
        S = X == X[target_row]
    else:
        X = X.astype(float, copy=False)
        S = np.abs(X - X[target_row]) <= spec.ratio * (X.max(axis=0) - X.min(axis=0))
    return CohortIndicatorMatrix(S, target_row)


def _weighted_mean(weights: np.ndarray, y: np.ndarray) -> float:
    """Shared evaluation kernel so subset values and multilinear corner
    values are computed through the identical float path."""
    mask = weights > 0
    w = weights[mask]
    return float(np.dot(w, y[mask]) / w.sum())


def cohort_value(cohort: CohortIndicatorMatrix, y, subset) -> float:
    """Mean output over rows similar to the target on every feature in
    `subset`; the target row always qualifies."""
    y = np.asarray(y, dtype=float)
    subset = list(subset)
    if len(subset) == 0:
        weights = np.ones(cohort.n_rows)
    else:
        weights = cohort.S[:, subset].all(axis=1).astype(float)
    return _weighted_mean(weights, y)


def _subset_values(cohort: CohortIndicatorMatrix, y: np.ndarray) -> np.ndarray:
    """Cohort value for every one of the 2^d feature subsets (bitmask order)."""
    d = cohort.n_features
    row_masks = (cohort.S.astype(np.int64) << np.arange(d, dtype=np.int64)).sum(axis=1)
    v = np.empty(1 << d)
    for mask in range(1 << d):
        weights = ((row_masks & mask) == mask).astype(float)
        v[mask] = _weighted_mean(weights, y)
    return v


def cohort_shapley(cohort: CohortIndicatorMatrix, y) -> Attribution:
    """Exact Shapley values of the cohort value function.

    Enumerates all subsets, so it refuses more than
    EXACT_SHAPLEY_MAX_FEATURES features. Per-feature sums use exact
    (order-independent) summation, which makes the symmetry and dummy
    axioms hold bitwise, not just approximately.
    """
    d = cohort.n_features
    if d > EXACT_SHAPLEY_MAX_FEATURES:
        raise CohortSizeError(
            f"{d} features exceed the exact enumeration budget"
            f" ({EXACT_SHAPLEY_MAX_FEATURES}); use igcs for high-dimensional targets")
    y = np.asarray(y, dtype=float)
    v = _subset_values(cohort, y)
    weight = [math.factorial(t) * math.factorial(d - t - 1) / math.factorial(d)
              for t in range(d)]
    phi = np.zeros(d)
    full = (1 << d) - 1
    for j in range(d):
        bit = 1 << j
        terms = [weight[mask.bit_count()] * (v[mask | bit] - v[mask])
                 for mask in range(1 << d) if not mask & bit]
        phi[j] = math.fsum(terms)
    return Attribution(phi, baseline=float(v[0]), total=float(v[full]))


def _check_w(w, d: int) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (d,):
        raise ValueError(f"w must have length {d}")
    if (w < 0).any() or (w > 1).any():
        raise ValueError("w components must lie in [0, 1]")
    return w


def multilinear_value(cohort: CohortIndicatorMatrix, y, w) -> float:
    """Soft-cohort value at w in [0,1]^d: row i weighs
    prod_j (1 - w_j * (1 - S[i,j])), so w_j interpolates feature j from
    ignored (0) to hard similarity filter (1). Binary w reproduces
    cohort_value exactly."""
    y = np.asarray(y, dtype=float)
    w = _check_w(w, cohort.n_features)
    factors = 1.0 - w[None, :] * (1.0 - cohort.S)
    return _weighted_mean(factors.prod(axis=1), y)


def multilinear_gradient(cohort: CohortIndicatorMatrix, y, w) -> np.ndarray:
    """Closed-form gradient of multilinear_value via the quotient rule.

    d(weight_i)/dw_j = -(1 - S[i,j]) * prod_{k != j} factor_ik; exclusion
    products are formed from the row product with zero factors handled
    exactly rather than by division.
    """
    y = np.asarray(y, dtype=float)
    w = _check_w(w, cohort.n_features)
    Z = (1.0 - cohort.S).astype(float)
    factors = 1.0 - w[None, :] * Z
    zero = factors == 0.0
    n_zero = zero.sum(axis=1)
    prod_nonzero = np.prod(np.where(zero, 1.0, factors), axis=1)
    excl = np.zeros_like(factors)
    rows_clean = n_zero == 0
    excl[rows_clean] = prod_nonzero[rows_clean, None] / factors[rows_clean]
    rows_one = n_zero == 1
    excl[rows_one] = np.where(zero[rows_one], prod_nonzero[rows_one, None], 0.0)
    dweights = -Z * excl
    weights = np.where(n_zero > 0, 0.0, prod_nonzero)
    den = weights.sum()
    num = float(np.dot(weights, y))
    dden = dweights.sum(axis=0)
    dnum = y @ dweights
    return (dnum * den - num * dden) / den ** 2


def igcs(cohort: CohortIndicatorMatrix, y, steps: int = DEFAULT_STEPS) -> Attribution:
    """Integrated-gradients attribution along the diagonal of the
    multilinear cohort value, from all-zeros to all-ones, midpoint rule.

    On the diagonal w = t*1 the row weight collapses to (1-t)^m_i with m_i
    the row's dissimilar-feature count, and the gradient at step k is
    Z^T w_k with Z = 1 - S and the row weights
    w_k[i] = u1_k[i] * (num_k - den_k * y_i) / den_k^2. So the steps touch
    only n-vectors, O(steps * n), and Z is read in one (n x d) product.
    Completeness (sum of values = total - baseline) holds up to the
    quadrature error, which shrinks as 1/steps^2.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    y = np.asarray(y, dtype=float)
    Z = 1.0 - cohort.S
    m = Z.sum(axis=1)
    t = (np.arange(1, steps + 1) - 0.5) / steps
    base = (1.0 - t)[:, None]
    u = base ** m
    u1 = np.where(m > 0, base ** np.maximum(m - 1, 0), 0.0)
    den = u.sum(axis=1, keepdims=True)
    num = u @ y[:, None]
    w = (u1 * (num - den * y) / den ** 2).sum(axis=0)
    phi = (w @ Z) / steps
    baseline = _weighted_mean(np.ones(len(y)), y)
    total = _weighted_mean((m == 0).astype(float), y)
    return Attribution(phi, baseline=baseline, total=total)
