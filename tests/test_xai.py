from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phxai import xai


def shapley_permutation_oracle(cohort, y):
    """Average marginal contribution over every feature ordering."""
    d = cohort.n_features
    phi = np.zeros(d)
    perms = list(permutations(range(d)))
    for perm in perms:
        current = []
        prev = xai.cohort_value(cohort, y, current)
        for j in perm:
            current.append(j)
            v = xai.cohort_value(cohort, y, current)
            phi[j] += v - prev
            prev = v
    return phi / len(perms)


def random_instance(rng, n, d, levels=3):
    X = rng.integers(0, levels, size=(n, d)).astype(float)
    target = int(rng.integers(0, n))
    cohort = xai.similarity_matrix(X, target)
    y = rng.normal(size=n)
    return cohort, y


# ---------------------------------------------------------------------------
# Similarity

def test_target_row_all_ones(rng):
    cohort, _ = random_instance(rng, 12, 4)
    assert (cohort.S[cohort.target_row] == 1).all()


def test_categorical_similarity_is_equality():
    X = np.array([["a", "x"], ["a", "y"], ["b", "x"]], dtype=object)
    cohort = xai.similarity_matrix(X, 0, xai.SimilaritySpec(kind="categorical"))
    assert cohort.S.tolist() == [[1, 1], [1, 0], [0, 1]]


def test_continuous_threshold_from_range():
    X = np.array([[0.0], [0.05], [0.11], [10.0]])
    cohort = xai.similarity_matrix(X, 0, xai.SimilaritySpec(ratio=0.01))
    # range 10 -> threshold 0.1: rows within 0.1 of the target are similar
    assert cohort.S[:, 0].tolist() == [1, 1, 0, 0]


def test_constant_column_all_similar():
    X = np.column_stack([np.full(5, 2.0), np.arange(5.0)])
    cohort = xai.similarity_matrix(X, 3)
    assert (cohort.S[:, 0] == 1).all()


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="ordinal"):
        xai.SimilaritySpec(kind="ordinal")


def similarity_per_column(X, target_row, spec):
    """The definition, one column at a time."""
    S = np.zeros(X.shape, dtype=np.uint8)
    for j in range(X.shape[1]):
        col = X[:, j]
        if spec.kind == "categorical":
            S[:, j] = col == col[target_row]
        else:
            col = col.astype(float)
            thr = spec.ratio * (float(col.max()) - float(col.min()))
            S[:, j] = np.abs(col - col[target_row]) <= thr
    return S


@settings(max_examples=200)
@given(st.data(), st.integers(1, 8), st.integers(0, 6))
def test_similarity_matrix_matches_per_column_definition(data, n, d):
    """Small integers with power-of-two ratios put rows exactly at the
    threshold, and the last column is constant. Categorical data is an
    object array mixing strings ("none" included) and numbers, as parameter
    tables are."""
    target = data.draw(st.integers(0, n - 1))
    if data.draw(st.booleans()):
        cell, dtype = st.sampled_from(["none", "a", 1, 1.0, 2.5]), object
        spec = xai.SimilaritySpec(kind="categorical")
    else:
        cell, dtype = st.one_of(st.integers(-4, 4).map(float), st.floats(-1e3, 1e3)), float
        spec = xai.SimilaritySpec(ratio=data.draw(st.sampled_from([0.01, 0.125, 0.25, 0.5, 1.0])))
    rows = data.draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=n, max_size=n))
    X = np.concatenate([np.array(rows, dtype=dtype).reshape(n, d),
                        np.full((n, 1), data.draw(cell), dtype=dtype)], axis=1)
    cohort = xai.similarity_matrix(X, target, spec)
    assert np.array_equal(cohort.S, similarity_per_column(X, target, spec))


# ---------------------------------------------------------------------------
# Cohort value

def test_empty_subset_is_global_mean(rng):
    cohort, y = random_instance(rng, 15, 3)
    assert xai.cohort_value(cohort, y, []) == pytest.approx(y.mean(), abs=1e-12)


def test_full_subset_unique_match_returns_target():
    S = np.array([[1, 1], [1, 0], [0, 1]], dtype=np.uint8)
    cohort = xai.CohortIndicatorMatrix(S, 0)
    y = np.array([5.0, 7.0, 9.0])
    assert xai.cohort_value(cohort, y, [0, 1]) == 5.0


def test_cohort_value_hand_dataset():
    X = np.array([[1.0, 1.0], [1.0, 2.0], [2.0, 1.0], [2.0, 2.0]])
    y = np.array([10.0, 20.0, 30.0, 40.0])
    cohort = xai.similarity_matrix(X, 0, xai.SimilaritySpec(ratio=0.01))
    assert xai.cohort_value(cohort, y, [0]) == pytest.approx(15.0)  # rows 0, 1
    assert xai.cohort_value(cohort, y, [1]) == pytest.approx(20.0)  # rows 0, 2
    assert xai.cohort_value(cohort, y, [0, 1]) == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# Exact cohort Shapley

def test_all_equal_outputs_zero(rng):
    cohort, _ = random_instance(rng, 10, 3)
    att = xai.cohort_shapley(cohort, np.full(10, 4.0))
    assert not att.values.any()


def test_symmetry_identical_columns_exact(rng):
    base = rng.normal(size=(9, 2))
    X = np.column_stack([base, base[:, 1]])
    cohort = xai.similarity_matrix(X, 4)
    y = rng.normal(size=9)
    att = xai.cohort_shapley(cohort, y)
    assert att.values[1] == att.values[2]


def test_dummy_all_ones_column_exact(rng):
    cohort, y = random_instance(rng, 10, 3)
    S = np.column_stack([cohort.S, np.ones(10, dtype=np.uint8)])
    att = xai.cohort_shapley(xai.CohortIndicatorMatrix(S, cohort.target_row), y)
    assert att.values[-1] == 0.0


def test_matches_permutation_oracle_d3(rng):
    for _ in range(25):
        cohort, y = random_instance(rng, int(rng.integers(5, 14)), 3)
        att = xai.cohort_shapley(cohort, y)
        oracle = shapley_permutation_oracle(cohort, y)
        assert np.abs(att.values - oracle).max() < 1e-9


def test_efficiency(rng):
    for _ in range(20):
        cohort, y = random_instance(rng, int(rng.integers(4, 20)), int(rng.integers(1, 7)))
        att = xai.cohort_shapley(cohort, y)
        assert abs(att.values.sum() - (att.total - att.baseline)) < 1e-9


def test_dataset_duplication_invariance(rng):
    cohort, y = random_instance(rng, 8, 4)
    att = xai.cohort_shapley(cohort, y)
    doubled = xai.CohortIndicatorMatrix(np.vstack([cohort.S, cohort.S]),
                                        cohort.target_row)
    att2 = xai.cohort_shapley(doubled, np.concatenate([y, y]))
    assert np.abs(att.values - att2.values).max() < 1e-12


@pytest.mark.parametrize("row, value", [(1, 0.5), (1, 1.7), (0, 256), (1, np.nan)])
def test_non_binary_entries_rejected_before_any_cast(row, value):
    """0.5 and 1.7 would truncate to a valid 0 or 1, 256 would wrap to 0 in
    the target row, and NaN would warn in a cast to an integer type."""
    S = np.ones((3, 2))
    S[row, 1] = value
    with pytest.raises(ValueError, match="S entries must be 0 or 1"):
        xai.CohortIndicatorMatrix(S, 0)


def test_indicators_stored_as_bool():
    cohort = xai.CohortIndicatorMatrix(np.array([[1, 1], [0, 1]], dtype=np.uint8), 0)
    assert cohort.S.dtype == bool and cohort.S.tolist() == [[True, True], [False, True]]


def test_feature_budget_error_mentions_igcs():
    S = np.ones((3, 26), dtype=np.uint8)
    with pytest.raises(xai.CohortSizeError, match="igcs"):
        xai.cohort_shapley(xai.CohortIndicatorMatrix(S, 0), np.arange(3.0))


# ---------------------------------------------------------------------------
# Multilinear extension

def test_w_zero_is_global_mean(rng):
    cohort, y = random_instance(rng, 12, 4)
    assert xai.multilinear_value(cohort, y, np.zeros(4)) == \
        xai.cohort_value(cohort, y, [])


def test_w_one_is_full_cohort_value(rng):
    cohort, y = random_instance(rng, 12, 4)
    assert xai.multilinear_value(cohort, y, np.ones(4)) == \
        xai.cohort_value(cohort, y, [0, 1, 2, 3])


def test_all_binary_corners_match_exactly(rng):
    for _ in range(5):
        cohort, y = random_instance(rng, 10, 4)
        for bits in product((0.0, 1.0), repeat=4):
            subset = [j for j, b in enumerate(bits) if b]
            assert xai.multilinear_value(cohort, y, np.array(bits)) == \
                xai.cohort_value(cohort, y, subset)


def test_single_fractional_coordinate_interpolates_moebius(rng):
    """With one fractional coordinate the numerator and denominator of the
    soft-cohort value interpolate linearly between the two corner cohorts,
    so the value itself is their ratio at every theta."""
    cohort, y = random_instance(rng, 14, 3)
    base = np.array([1.0, 0.0, 1.0])
    rows = cohort.S[:, [0, 2]].all(axis=1)
    match = rows & (cohort.S[:, 1] == 1)
    nomatch = rows & (cohort.S[:, 1] == 0)
    for theta in (0.2, 0.5, 0.9):
        w = base.copy()
        w[1] = theta
        num = y[match].sum() + (1 - theta) * y[nomatch].sum()
        den = match.sum() + (1 - theta) * nomatch.sum()
        assert xai.multilinear_value(cohort, y, w) == pytest.approx(num / den, abs=1e-12)


def test_gradient_zero_when_all_rows_match():
    cohort = xai.CohortIndicatorMatrix(np.ones((6, 3), dtype=np.uint8), 0)
    y = np.arange(6.0)
    g = xai.multilinear_gradient(cohort, y, np.array([0.3, 0.6, 0.9]))
    assert not g.any()


def test_gradient_zero_for_all_ones_column(rng):
    cohort, y = random_instance(rng, 10, 3)
    S = np.column_stack([cohort.S, np.ones(10, dtype=np.uint8)])
    g = xai.multilinear_gradient(xai.CohortIndicatorMatrix(S, cohort.target_row),
                                 y, np.array([0.4, 0.1, 0.7, 0.5]))
    assert g[-1] == 0.0


def test_gradient_matches_central_differences(rng):
    h = 1e-6
    for _ in range(15):
        n, d = int(rng.integers(5, 16)), int(rng.integers(2, 7))
        cohort, y = random_instance(rng, n, d)
        w = rng.uniform(0.05, 0.95, size=d)
        g = xai.multilinear_gradient(cohort, y, w)
        for j in range(d):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            fd = (xai.multilinear_value(cohort, y, wp)
                  - xai.multilinear_value(cohort, y, wm)) / (2 * h)
            assert abs(g[j] - fd) < 1e-5


def test_gradient_handles_hard_corners(rng):
    cohort, y = random_instance(rng, 10, 4)
    w = np.array([1.0, 0.0, 1.0, 0.5])
    g = xai.multilinear_gradient(cohort, y, w)
    assert np.isfinite(g).all()


# ---------------------------------------------------------------------------
# IGCS

def test_igcs_constant_outputs_zero(rng):
    cohort, _ = random_instance(rng, 12, 5)
    att = xai.igcs(cohort, np.full(12, 3.0), steps=50)
    assert np.abs(att.values).max() < 1e-12


def test_igcs_completeness_500_steps(rng):
    for _ in range(20):
        n, d = int(rng.integers(6, 30)), int(rng.integers(1, 9))
        cohort, y = random_instance(rng, n, d)
        att = xai.igcs(cohort, y, steps=500)
        assert abs(att.values.sum() - (att.total - att.baseline)) <= 1e-3


def test_igcs_single_feature_quadrature(rng):
    for _ in range(10):
        cohort, y = random_instance(rng, int(rng.integers(4, 25)), 1)
        y = (y - y.min()) / (y.max() - y.min())  # unit range; midpoint error scales with it
        att = xai.igcs(cohort, y, steps=500)
        assert abs(att.values[0] - (att.total - att.baseline)) <= 1e-6


def test_igcs_gradient_agrees_with_multilinear_gradient(rng):
    cohort, y = random_instance(rng, 14, 5)
    steps = 7
    acc = np.zeros(5)
    for k in range(1, steps + 1):
        t = (k - 0.5) / steps
        acc += xai.multilinear_gradient(cohort, y, np.full(5, t))
    att = xai.igcs(cohort, y, steps=steps)
    assert np.abs(att.values - acc / steps).max() < 1e-10


def igcs_oracle(cohort, y, steps):
    """Midpoint sum of the quotient-rule gradient along the diagonal."""
    d = cohort.n_features
    acc = np.zeros(d)
    for k in range(1, steps + 1):
        acc += xai.multilinear_gradient(cohort, y, np.full(d, (k - 0.5) / steps))
    return acc / steps


@settings(max_examples=150)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30), st.integers(1, 12),
       st.integers(1, 60), st.sampled_from(["random", "all_similar", "others_dissimilar"]))
@example(0, 1, 1, 1, "random")
@example(1, 1, 12, 60, "random")
@example(2, 30, 12, 60, "all_similar")
@example(3, 30, 12, 60, "others_dissimilar")
def test_igcs_equals_midpoint_sum_of_multilinear_gradient(seed, n, d, steps, shape):
    rng = np.random.default_rng(seed)
    target = int(rng.integers(0, n))
    if shape == "random":
        X = rng.integers(0, int(rng.integers(1, 4)), size=(n, d)).astype(float)
    elif shape == "all_similar":
        X = np.full((n, d), 2.0)
    else:   # every row but the target is dissimilar on every column
        X = np.ones((n, d))
        X[target] = 0.0
    cohort = xai.similarity_matrix(X, target)
    y = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
    oracle = igcs_oracle(cohort, y, steps)
    att = xai.igcs(cohort, y, steps)
    assert np.abs(att.values - oracle).max() <= 1e-10 * max(1.0, np.abs(oracle).max())

def test_igcs_agrees_with_cohort_shapley():
    rng = np.random.default_rng(404)
    for _ in range(30):
        n, d = int(rng.integers(12, 40)), int(rng.integers(2, 9))
        X = rng.integers(0, 3, (n, d)).astype(float)
        cohort = xai.similarity_matrix(X, 0)
        y = rng.normal(size=n)
        cs = xai.cohort_shapley(cohort, y)
        ig = xai.igcs(cohort, y, steps=500)
        spread = y.max() - y.min()
        assert np.abs(cs.values - ig.values).max() <= 0.05 * spread
