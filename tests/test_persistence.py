import math
from itertools import combinations, product

import numpy as np
import pytest

from phxai import geometry as geo
from phxai import persistence as ph
from conftest import random_cloud


def unit_square():
    return geo.PointCloud(np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float))


def unit_octahedron():
    s = 1 / math.sqrt(2)
    return geo.PointCloud(np.array([[s, 0, 0], [-s, 0, 0], [0, s, 0],
                                    [0, -s, 0], [0, 0, s], [0, 0, -s]]))


def simplices(f):
    """(value, dimension, vertices) of every simplex, in global filtration
    order; every rank in range(len(f)) is filled exactly once."""
    out = [None] * len(f)
    for p in range(f.max_dim + 1):
        for pos in range(f.count(p)):
            g = f.global_index(p, pos)
            assert 0 <= g < len(f) and out[g] is None, (p, pos, g)
            out[g] = (f.value(p, pos), p, tuple(int(v) for v in f._verts[p][pos]))
    assert None not in out
    return out


def uncut_filtration(d, max_dim, r):
    """Every simplex of diameter <= r, the enclosing-radius cut not applied,
    enumerated subset by subset."""
    n = len(d)
    verts, values = {}, {}
    for p in range(max_dim + 1):
        keyed = sorted((max((d[a, b] for a, b in combinations(sub, 2)), default=0.0), sub)
                       for sub in combinations(range(n), p + 1))
        kept = [(v, sub) for v, sub in keyed if v <= r]
        verts[p] = np.array([sub for _, sub in kept], dtype=np.int64).reshape(-1, p + 1)
        values[p] = np.array([v for v, _ in kept], dtype=float)
    return ph.Filtration(verts, values, max_dim, n)


def small_generator_clouds(max_points=16):
    """Lattice clouds from the structure generator: many tied distances."""
    clouds = (geo.generate_structure(v) for v in geo.iter_param_vectors()[::17])
    return [c for c in clouds if len(c) <= max_points]


def oracle_clouds(rng):
    """(cloud, is_generated): random clouds, lattice generator clouds,
    clouds with duplicate points, and n = 0, 1, 2."""
    clouds = [random_cloud(rng, int(rng.integers(8, 15))) for _ in range(40)]
    generated = small_generator_clouds()
    assert len(generated) >= 5
    for _ in range(5):
        base = random_cloud(rng, int(rng.integers(6, 11)))
        dup = rng.integers(0, len(base), size=3)
        clouds.append(geo.PointCloud(np.vstack([base.points, base.points[dup]])))
    clouds += [geo.PointCloud(rng.normal(size=(n, 3))) for n in (0, 1, 2)]
    return [(c, False) for c in clouds] + [(c, True) for c in generated]


def oracle_radii(d):
    """max_radius below, equal to and above the enclosing radius."""
    enclosing = d.max(axis=1).min() if len(d) > 1 else math.inf
    assert ph._enclosing_radius(d) == enclosing
    radii = [r for r in (0.8 * enclosing, enclosing) if 0 < r < math.inf]
    return radii + [2.0 * d.max(initial=0.0) + 1.0]


# ---------------------------------------------------------------------------
# Filtration construction

def test_triangle_complete_complex():
    """The complex is built up to the enclosing radius (vertex 2's largest
    distance, one ulp below 1), so the unit edge and the triangle are cut."""
    pts = geo.PointCloud(np.array([[0, 0, 0], [1, 0, 0], [0.5, math.sqrt(3) / 2, 0]]))
    d = geo.pairwise_distances(pts)
    enclosing = ph._enclosing_radius(d)
    assert enclosing == pytest.approx(1.0) and enclosing < 1.0
    f = ph.build_rips(d, 2, 2.0)
    assert simplices(f) == [(0.0, 0, (0,)), (0.0, 0, (1,)), (0.0, 0, (2,)),
                            (enclosing, 1, (0, 2)), (enclosing, 1, (1, 2))]


def test_cutoff_drops_everything_but_vertices():
    pts = geo.PointCloud(np.array([[0, 0, 0], [1, 0, 0], [0.5, math.sqrt(3) / 2, 0]]))
    f = ph.build_rips(geo.pairwise_distances(pts), 2, 0.5)
    assert len(f) == 3


def test_simplex_count_matches_subset_enumeration(rng):
    for _ in range(5):
        cloud = random_cloud(rng, 10)
        d = geo.pairwise_distances(cloud)
        r = 0.8 * d.max()
        f = ph.build_rips(d, 3, r)
        cut = min(r, ph._enclosing_radius(d))
        expected = 10
        for k in (2, 3, 4):
            for sub in combinations(range(10), k):
                diam = max(d[a, b] for a, b in combinations(sub, 2))
                if diam <= cut:
                    expected += 1
        assert len(f) == expected


def test_faces_precede_cofaces(rng):
    cloud = random_cloud(rng, 9)
    f = ph.build_rips(geo.pairwise_distances(cloud), 3, 10.0)
    sims = simplices(f)
    position = {verts: g for g, (_, _, verts) in enumerate(sims)}
    for g, (_, dim, verts) in enumerate(sims):
        if dim == 0:
            continue
        for face in combinations(verts, dim):
            assert position[face] < g


def test_filtration_order_is_sorted(rng):
    """The generator's lattice clouds tie many values within and across
    dimensions, where the side of each rank's binary search matters."""
    for cloud in [random_cloud(rng, 8)] + small_generator_clouds():
        f = ph.build_rips(geo.pairwise_distances(cloud), 3, 10.0)
        keys = simplices(f)
        assert keys == sorted(keys)


def test_build_rips_equals_subset_oracle(rng):
    """Clique expansion gives exactly the subsets of diameter <= min(r,
    enclosing radius), with equal vertex and value arrays per dimension."""
    for cloud, _ in oracle_clouds(rng):
        d = geo.pairwise_distances(cloud)
        for r, max_dim in product(oracle_radii(d), (2, 3)):
            f = ph.build_rips(d, max_dim, r)
            expected = uncut_filtration(d, max_dim, min(r, ph._enclosing_radius(d)))
            assert simplices(f) == simplices(expected)
            for p in range(max_dim + 1):
                assert np.array_equal(f._verts[p], expected._verts[p])
                assert np.array_equal(f._values[p], expected._values[p])


def test_budget_error():
    """93 points are the fewest whose C(n, 2..4) candidates exceed the
    enumeration budget; the check runs before any simplex is listed."""
    rng = np.random.default_rng(0)
    d = geo.pairwise_distances(geo.PointCloud(rng.normal(size=(93, 3))))
    with pytest.raises(ph.SimplexBudgetError):
        ph.build_rips(d, 3, 100.0)
    ph.build_rips(d[:92, :92], 3, 0.1)


# ---------------------------------------------------------------------------
# Reduction

def test_unit_square_h1_pair():
    f = ph.build_rips(geo.pairwise_distances(unit_square()), 2, 2.0)
    pairs = ph.reduce(f)
    assert len(pairs) == 1
    p = pairs[0]
    assert p.dimension == 1
    assert p.birth == pytest.approx(1.0, abs=1e-12)
    assert p.death == pytest.approx(math.sqrt(2), abs=1e-12)


def test_collinear_points_no_pairs():
    pts = geo.PointCloud(np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], float))
    f = ph.build_rips(geo.pairwise_distances(pts), 2, 5.0)
    assert ph.reduce(f) == []
    assert ph.reduce_naive(f) == []


def test_octahedron_h2_pair():
    f = ph.build_rips(geo.pairwise_distances(unit_octahedron()), 3, 2.0)
    pairs = ph.reduce(f)
    h2 = [p for p in pairs if p.dimension == 2]
    assert len(h2) == 1
    assert h2[0].birth == pytest.approx(1.0, abs=1e-12)
    assert h2[0].death == pytest.approx(math.sqrt(2), abs=1e-12)


def test_reduce_matches_naive_on_random_clouds(rng):
    """`build_rips` stops at the enclosing radius; `reduce_naive` on the uncut
    complex must still give the same pairs, simplex indices included, at
    max_radius below, equal to and above that radius."""
    for cloud, is_generated in oracle_clouds(rng):
        d = geo.pairwise_distances(cloud)
        for r, max_dim in product(oracle_radii(d), (2, 3)):
            f = ph.build_rips(d, max_dim, r)
            uncut = uncut_filtration(d, max_dim, r)
            pairs = ph.reduce(f)
            assert pairs == ph.reduce_naive(uncut)
            if is_generated:
                for pair in pairs:
                    cycle = ph.representative_cycle(f, pair)
                    assert cycle == ph.representative_cycle(uncut, pair)
                    assert boundary_is_zero(cycle.simplices)


def test_naive_empty_filtration():
    f = ph.build_rips(np.zeros((1, 1)), 2, 1.0)
    assert ph.reduce_naive(f) == []


def test_all_pairs_within_radius(rng):
    cloud = random_cloud(rng, 12)
    d = geo.pairwise_distances(cloud)
    r = 0.9 * d.max()
    f = ph.build_rips(d, 3, r)
    for p in ph.reduce(f):
        assert 0 <= p.birth < p.death <= r


# ---------------------------------------------------------------------------
# Diagram

def test_diagram_filters_dimension():
    f = ph.build_rips(geo.pairwise_distances(unit_square()), 2, 2.0)
    pairs = ph.reduce(f)
    assert len(ph.diagram(pairs, 1)) == 1
    assert len(ph.diagram(pairs, 2)) == 0


def test_diagram_empty_input():
    assert len(ph.diagram([], 1)) == 0


def test_diagram_sorted(rng):
    cloud = random_cloud(rng, 14)
    d = geo.pairwise_distances(cloud)
    pairs = ph.reduce(ph.build_rips(d, 3, 2.0 * d.max()))
    dg = ph.diagram(pairs, 1)
    keys = [(p.birth, p.death) for p in dg.pairs]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# Representative cycles

def boundary_is_zero(chain):
    faces = set()
    for simplex in chain:
        for face in combinations(simplex, len(simplex) - 1):
            faces ^= {face}
    return not faces


def test_square_cycle_is_all_corners():
    f = ph.build_rips(geo.pairwise_distances(unit_square()), 2, 2.0)
    pair = ph.reduce(f)[0]
    cyc = ph.representative_cycle(f, pair)
    assert cyc.vertex_set == {0, 1, 2, 3}
    assert boundary_is_zero(cyc.simplices)


def test_circle_cycle_within_points_and_closed():
    t = np.linspace(0, 2 * np.pi, 20, endpoint=False)
    cloud = geo.PointCloud(np.column_stack([np.cos(t), np.sin(t), np.zeros(20)]))
    f = ph.build_rips(geo.pairwise_distances(cloud), 2, 4.0)
    h1 = ph.diagram(ph.reduce(f), 1)
    main = max(h1.pairs, key=lambda p: p.persistence)
    cyc = ph.representative_cycle(f, main)
    assert cyc.vertex_set <= set(range(20))
    assert boundary_is_zero(cyc.simplices)


def test_octahedron_cycle_is_all_vertices():
    f = ph.build_rips(geo.pairwise_distances(unit_octahedron()), 3, 2.0)
    pair = [p for p in ph.reduce(f) if p.dimension == 2][0]
    cyc = ph.representative_cycle(f, pair)
    assert cyc.vertex_set == {0, 1, 2, 3, 4, 5}
    assert boundary_is_zero(cyc.simplices)


def test_cycle_boundary_zero_on_random_clouds(rng):
    for _ in range(10):
        cloud = random_cloud(rng, 12)
        d = geo.pairwise_distances(cloud)
        f = ph.build_rips(d, 3, 2.0 * d.max())
        for pair in ph.reduce(f):
            cyc = ph.representative_cycle(f, pair)
            assert boundary_is_zero(cyc.simplices)
            assert cyc.vertex_set


def test_unknown_pair_rejected():
    f = ph.build_rips(geo.pairwise_distances(unit_square()), 2, 2.0)
    ph.reduce(f)
    bogus = ph.PersistencePair(1, 0.5, 0.9, 0, 1)
    with pytest.raises(KeyError):
        ph.representative_cycle(f, bogus)


# ---------------------------------------------------------------------------
# Stability smoke property

def test_stability_smoke(rng):
    for eps in (0.01, 0.05):
        for _ in range(8):
            cloud = random_cloud(rng, 12)
            d = geo.pairwise_distances(cloud)
            r = 2.0 * d.max() + 1.0
            base = ph.reduce(ph.build_rips(d, 3, r))
            moved = geo.perturb(cloud, eps, seed=7)
            other = ph.reduce(ph.build_rips(geo.pairwise_distances(moved), 3, r))
            for dim in (1, 2):
                a = [(p.birth, p.death) for p in base if p.dimension == dim]
                b = [(p.birth, p.death) for p in other if p.dimension == dim]
                for (x, y) in a:
                    cost = (y - x) / 2
                    for (u, v) in b:
                        cost = min(cost, max(abs(x - u), abs(y - v)))
                    assert cost <= 2 * eps + 1e-9, (cloud.points, (x, y))
