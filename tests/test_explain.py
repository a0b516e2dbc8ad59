import math
from itertools import permutations

import numpy as np
import pytest

from phxai import explain as ex
from phxai import geometry as geo
from phxai import persistence as ph
from phxai import vectorize as vec
from phxai import xai


def small_features(rng, n, bins=2):
    """Feature table shaped like two bins x bins images, with some variation."""
    d = 2 * bins * bins
    return rng.uniform(0, 4, size=(n, d))


# ---------------------------------------------------------------------------
# pixel_attribution

def test_identical_rows_zero_map(rng):
    X = np.tile(rng.uniform(size=8), (6, 1))
    y = rng.normal(size=6)
    att = ex.pixel_attribution(X, y, 0, steps=50)
    assert not att.values.any()


def test_pixel_completeness(rng):
    X = small_features(rng, 20)
    y = rng.normal(size=20)
    att = ex.pixel_attribution(X, y, 3, steps=500)
    assert abs(att.values.sum() - (att.total - att.baseline)) <= 1e-3


def test_constant_h2_half_gets_zero(rng):
    bins = 2
    X = small_features(rng, 15, bins)
    X[:, bins * bins:] = 7.5  # constant H2 half
    y = X[:, 0] * 2.0 + rng.normal(size=15) * 0.1
    att = ex.pixel_attribution(X, y, 2, steps=50)
    assert np.abs(vec.split_features(att.values)[1]).max() < 1e-6


def test_pixel_map_shape_matches_bins(rng):
    X = small_features(rng, 10, bins=3)
    att = ex.pixel_attribution(X, rng.normal(size=10), 0, steps=10)
    h1, h2 = vec.split_features(att.values)
    assert h1.shape == h2.shape == (3, 3)


# ---------------------------------------------------------------------------
# param_attribution

def params_instance(rng, n):
    choices = [geo.ParamVector(
        rng.choice(geo.TEMPLATES), rng.choice(geo.NODES),
        rng.choice((geo.NONE_VALUE,) + geo.NODES), rng.choice((geo.NONE_VALUE,) + geo.EDGES))
        for _ in range(n)]
    return choices


def test_shared_edge_value_is_dummy(rng):
    table = [geo.ParamVector(rng.choice(geo.TEMPLATES), rng.choice(geo.NODES),
                             rng.choice(geo.NODES), "ring4_a") for _ in range(10)]
    att = ex.param_attribution(table, rng.normal(size=10), 0)
    assert att.values[geo.PARAM_NAMES.index("edge")] == 0.0


def test_identical_outputs_zero(rng):
    table = params_instance(rng, 8)
    att = ex.param_attribution(table, np.full(8, 2.0), 0)
    assert all(v == 0.0 for v in att.values)


def test_param_attribution_matches_permutation_oracle(rng):
    for _ in range(5):
        table = params_instance(rng, 9)
        y = rng.normal(size=9)
        target = int(rng.integers(0, 9))
        att = ex.param_attribution(table, y, target)

        rows = [p.as_tuple() for p in table]
        X = np.array(rows, dtype=object)
        cohort = xai.similarity_matrix(X, target, xai.SimilaritySpec(kind="categorical"))
        phi = np.zeros(4)
        perms = list(permutations(range(4)))
        for perm in perms:
            cur = []
            prev = xai.cohort_value(cohort, y, cur)
            for j in perm:
                cur.append(j)
                v = xai.cohort_value(cohort, y, cur)
                phi[j] += v - prev
                prev = v
        phi /= len(perms)
        got = att.values
        assert np.abs(got - phi).max() < 1e-9
        assert abs(got.sum() - (att.total - att.baseline)) < 1e-9


# ---------------------------------------------------------------------------
# grid_based_explanation

def toy_scorer(cloud):
    return float(cloud.points.sum())


def toy_cloud(points):
    return geo.PointCloud(np.asarray(points, dtype=float))


SMALL_GRID = geo.GridSpec((0.0, 0.0, 0.0), 2.0, 4)


def test_cohort_of_copies_zero_attribution():
    target = toy_cloud([[1, 1, 1], [3, 3, 3], [5, 5, 5]])
    cohort = [toy_cloud(target.points.copy()) for _ in range(5)]
    att = ex.grid_based_explanation(target, cohort, toy_scorer, SMALL_GRID, steps=50)
    assert not att.cell_value.any()
    assert not att.point_value.any()


def test_even_split_within_cell(rng):
    # three points share cell (0,0,0); one point sits alone
    target = toy_cloud([[0.8, 0.9, 1.0], [0.9, 1.1, 0.8], [1.5, 0.8, 1.8], [5, 5, 5]])
    cohort = [geo.perturb(target, 0.5, seed=k) for k in range(6)]
    att = ex.grid_based_explanation(target, cohort, toy_scorer, SMALL_GRID, steps=50)
    shared_cell = att.point_cell[0]
    members = np.flatnonzero(att.point_cell == shared_cell)
    assert len(members) == 3
    vals = att.point_value[members]
    assert vals[0] == vals[1] == vals[2]
    assert vals[0] == att.value_of_cell(shared_cell) / 3
    assert math.fsum(vals) == pytest.approx(att.value_of_cell(shared_cell), rel=1e-12)


def test_grid_completeness(rng):
    target = toy_cloud(rng.uniform(1, 7, size=(8, 3)))
    cohort = [geo.perturb(target, 0.4, seed=k) for k in range(10)]
    att = ex.grid_based_explanation(target, cohort, toy_scorer, SMALL_GRID, steps=500)
    assert abs(att.cell_value.sum() - (att.total - att.baseline)) <= 1e-3


def test_empty_cohort_rejected():
    with pytest.raises(ValueError):
        ex.grid_based_explanation(toy_cloud([[1, 1, 1]]), [], toy_scorer, SMALL_GRID)


def test_overflow_points_rejected():
    target = toy_cloud([[1, 1, 1], [20, 20, 20]])
    cohort = [toy_cloud([[1, 1, 1], [2, 2, 2]])]
    with pytest.raises(ValueError, match="outside"):
        ex.grid_based_explanation(target, cohort, toy_scorer, SMALL_GRID)


def test_dropping_empty_cells_never_changes_values(rng):
    """Globally-empty cells are exact dummies: running the attribution with
    those constant zero columns retained yields the same values on the
    retained cells."""
    target = toy_cloud(rng.uniform(0.5, 7.5, size=(6, 3)))
    cohort = [geo.perturb(target, 0.5, seed=k) for k in range(8)]
    clouds = [target] + cohort
    counts = np.stack([geo.grid_counts(c, SMALL_GRID).counts for c in clouds])
    y = np.array([toy_scorer(c) for c in clouds])

    att = ex.grid_based_explanation(target, cohort, toy_scorer, SMALL_GRID, steps=50)
    cohort_full = xai.similarity_matrix(counts.astype(float), 0)
    full = xai.igcs(cohort_full, y, steps=50)
    assert np.abs(full.values[att.cell_index] - att.cell_value).max() < 1e-12
    dropped = np.setdiff1d(np.arange(SMALL_GRID.n_cells), att.cell_index)
    assert not full.values[dropped].any()


# ---------------------------------------------------------------------------
# higher_order

def test_same_params_everywhere_all_maps_zero(rng):
    n = 8
    table = [geo.ParamVector("cube", "dimer", "triad", "ring4_a")] * n
    X = small_features(rng, n)
    y = rng.normal(size=n)
    maps = ex.higher_order(table, X, y, 0, pixel_subset=[0, 3], steps=20)
    for name in geo.PARAM_NAMES:
        assert not maps.maps[name].any()


def test_per_pixel_efficiency_identity(rng):
    n = 10
    vocab = geo.iter_param_vectors()
    table = [vocab[int(i)] for i in rng.choice(len(vocab), size=n, replace=False)]
    X = rng.integers(0, 3, size=(n, 8)).astype(float)
    y = rng.normal(size=n)
    maps = ex.higher_order(table, X, y, 2, steps=30, quantile=0.5)
    computed = np.flatnonzero(maps.computed)
    assert len(computed) > 0
    total = sum(maps.maps[name] for name in geo.PARAM_NAMES)
    first = maps.first_order.values
    for p in computed:
        # unique parameter combos: the full-coalition cohort is the target
        # alone, so parameter values bridge dataset-mean -> first-order value
        assert abs(total[p] - (first[p] - maps.pixel_baseline[p])) < 1e-9


def test_single_parameter_controls_pixel(rng):
    n = 12
    edges = ["ring4_a" if i % 2 else "ring6_b" for i in range(n)]
    table = [geo.ParamVector("cube", "dimer", "triad", e) for e in edges]
    bins = 2
    X = np.ones((n, 2 * bins * bins))
    p = 3
    X[:, p] = [1.0 if e == "ring4_a" else 3.0 for e in edges]
    y = X[:, p] * 2.0
    maps = ex.higher_order(table, X, y, 0, pixel_subset=[p], steps=50)
    contributions = {name: abs(maps.maps[name][p]) for name in geo.PARAM_NAMES}
    total = sum(contributions.values())
    assert total > 0
    assert contributions["edge"] / total >= 0.95


def test_quantile_bounds_computed_pixels(rng):
    n = 9
    vocab = geo.iter_param_vectors()
    table = [vocab[int(i)] for i in rng.choice(len(vocab), size=n, replace=False)]
    X = small_features(rng, n, bins=4)
    y = rng.normal(size=n)
    maps = ex.higher_order(table, X, y, 0, steps=10, quantile=0.95)
    assert maps.computed.sum() <= 0.05 * maps.computed.size + 1


@pytest.mark.parametrize("quantile", [-0.1, 1.5, float("nan")])
def test_quantile_outside_unit_interval_rejected(rng, quantile):
    table = geo.iter_param_vectors()[:4]
    with pytest.raises(ValueError, match=r"quantile must be in \[0, 1\]"):
        ex.higher_order(table, small_features(rng, 4), rng.normal(size=4), 0,
                        quantile=quantile)


# ---------------------------------------------------------------------------
# influential_cycles

def test_empty_diagram_all_unmatched():
    values = np.concatenate([np.random.default_rng(0).uniform(size=54 * 54),
                             np.zeros(54 * 54)])
    out = ex.influential_cycles(values, ph.PersistenceDiagram(1, []), top_k=4,
                                spec=vec.default_spec(1))
    assert len(out) == 4
    assert all(m.pairs == () for m in out)


@pytest.mark.parametrize("dimension", [0, 3])
def test_influential_cycles_rejects_other_dimensions(dimension):
    with pytest.raises(ValueError, match="dimension must be 1 or 2"):
        ex.influential_cycles(np.zeros(2 * 54 * 54), ph.PersistenceDiagram(dimension, []),
                              top_k=1, spec=vec.default_spec(1))


def test_single_pair_matched_in_top_bin():
    spec = vec.default_spec(1)
    pair = ph.PersistencePair(1, 13.5, 17.9, -1, -1)  # bins (27, 26): see test_vectorize
    grid = np.zeros((54, 54))
    grid[27, 26] = 5.0
    values = np.concatenate([grid.ravel(), np.zeros(54 * 54)])
    out = ex.influential_cycles(values, ph.PersistenceDiagram(1, [pair]), top_k=1, spec=spec)
    assert out[0].pairs == (pair,)
    assert (out[0].birth_bin, out[0].persistence_bin) == (27, 26)
    assert out[0].value == 5.0


def test_circle_plus_noise_dominant_pair_matches_top_pixel(rng):
    t = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    circle = np.column_stack([4 * np.cos(t), 4 * np.sin(t), np.zeros(16)])
    noise = rng.uniform(-1, 1, size=(6, 3))
    cloud = geo.PointCloud(np.vstack([circle, noise]))
    d = geo.pairwise_distances(cloud)
    pairs = ph.reduce(ph.build_rips(d, 2, 1.2 * d.max()))
    h1 = ph.diagram(pairs, 1)
    spec = vec.default_spec(1)
    # build an attribution map whose strongest pixel is each bin's max persistence
    grid = np.zeros((54, 54))
    for p in h1.pairs:
        i = int(p.birth / spec.birth_max * 54)
        j = int((p.death - p.birth) / spec.persistence_max * 54)
        grid[i, j] = max(grid[i, j], p.persistence)
    values = np.concatenate([grid.ravel(), np.zeros(54 * 54)])
    out = ex.influential_cycles(values, h1, top_k=1, spec=spec)
    dominant = max(h1.pairs, key=lambda p: p.persistence)
    assert dominant in out[0].pairs
