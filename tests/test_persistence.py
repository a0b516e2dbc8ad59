import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def faces_oracle(f, p):
    """Facet positions of every p-simplex, column c the facet without vertex
    c, looked up by vertex tuple."""
    position = {v: i for i, v in enumerate(map(tuple, f._verts[p - 1].tolist()))}
    return [[position[v[:c] + v[c + 1:]] for c in range(p + 1)]
            for v in map(tuple, f._verts[p].tolist())]


def joining_edges_oracle(f):
    """Positions of the edges that join two components when the edges are
    added in filtration order (Kruskal's union-find): the deaths of H0."""
    root = list(range(f.n_points))
    joining = set()
    for e, (a, b) in enumerate(f._verts[1].tolist()):
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a != b:
            root[a] = b
            joining.add(e)
    return joining


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
    """92 points at max_dim 3 and 262 at max_dim 2 are the largest clouds
    the enumeration budget admits; one point more is over it, and the check
    runs before any simplex is listed. At the largest, the facet table has
    n**max_dim entries, and the complex still reduces."""
    rng = np.random.default_rng(0)
    for n, max_dim in ((92, 3), (262, 2)):
        d = geo.pairwise_distances(geo.PointCloud(rng.normal(size=(n + 1, 3))))
        with pytest.raises(ph.SimplexBudgetError):
            ph.build_rips(d, max_dim, 100.0)
        f = ph.build_rips(d[:n, :n], max_dim, 0.8)
        assert f.count(max_dim) > 0
        for p in range(1, max_dim + 1):
            assert f.faces(p).tolist() == faces_oracle(f, p)
        assert ph.reduce(f) == ph.reduce_naive(f)


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


def homology_chains_oracle(f):
    """{(dimension, death simplex): chain} of every pair of positive
    persistence: each whole boundary block reduced top-down, every column
    visited, no clearing, facets found by vertex tuple."""
    chains = {}
    for p in range(2, f.max_dim + 1):
        low_of, reduced = {}, {}
        for j, faces in enumerate(faces_oracle(f, p)):
            col = 0
            for r in faces:
                col |= 1 << r
            while col:
                low = col.bit_length() - 1
                k = low_of.get(low)
                if k is None:
                    low_of[low], reduced[j] = j, col
                    break
                col ^= reduced[k]
        for low, j in low_of.items():
            if f.value(p, j) > f.value(p - 1, low):
                rows = [r for r in range(reduced[j].bit_length()) if reduced[j] >> r & 1]
                chains[p - 1, f.global_index(p, j)] = tuple(
                    tuple(int(v) for v in f._verts[p - 1][r]) for r in rows)
    return chains


# the 3 x 3 x 3 lattice box without its centre: its subsets hold holes
# and voids (the six face centres are an octahedron)
SHELL = [v for v in product(range(3), repeat=3) if v != (1, 1, 1)]


@st.composite
def tied_clouds(draw):
    """Distances of 0 to 11 points on a small integer lattice, with many
    ties and duplicate points, and a radius taken from those distances (so
    below, at or above the enclosing radius) or above all of them."""
    n = draw(st.integers(0, 11))
    if draw(st.booleans()):
        points = draw(st.lists(st.sampled_from(SHELL), min_size=n, max_size=n, unique=True))
    else:
        points = draw(st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=n, max_size=n))
    d = geo.pairwise_distances(geo.PointCloud(np.array(points, float).reshape(n, 3)))
    radii = sorted({float(x) for x in d[np.triu_indices(n, 1)] if x > 0})
    return d, draw(st.sampled_from(radii + [2.0 * d.max(initial=0.0) + 1.0]))


OCTAHEDRON = geo.pairwise_distances(geo.PointCloud(np.array(
    [(0, 1, 1), (2, 1, 1), (1, 0, 1), (1, 2, 1), (1, 1, 0), (1, 1, 2)], float)))


@settings(max_examples=300)
@given(tied_clouds(), st.sampled_from([2, 3]))
@example((OCTAHEDRON, 2.0), 3)
def test_reduce_and_cycles_match_oracles_on_tied_clouds(cloud, max_dim):
    """Cohomology pairs equal the naive reduction of the uncut complex, the
    facet table and the H0 deaths that clear the H1 block equal their
    vertex-tuple and union-find oracles, and each on-demand chain equals the
    whole-block homology chain."""
    d, r = cloud
    f = ph.build_rips(d, max_dim, r)
    pairs = ph.reduce(f)
    assert pairs == ph.reduce_naive(uncut_filtration(d, max_dim, r))
    for p in range(1, max_dim + 1):
        assert f.faces(p).tolist() == faces_oracle(f, p)
    assert f._deaths[1].tolist() == sorted(joining_edges_oracle(f))
    chains = homology_chains_oracle(f)
    assert sorted(chains) == sorted((q.dimension, q.death_simplex) for q in pairs)
    for pair in pairs:
        assert ph.representative_cycle(f, pair).simplices == chains[pair.dimension,
                                                                    pair.death_simplex]


def test_cycle_on_fresh_filtration_and_at_max_dim_2():
    """`representative_cycle` reduces on its own when `reduce` has not run,
    and works where there is no tetrahedron block."""
    checked = {2: 0, 3: 0}
    for cloud in [unit_square(), unit_octahedron()] + small_generator_clouds():
        d = geo.pairwise_distances(cloud)
        for max_dim in (2, 3):
            pairs = ph.reduce(ph.build_rips(d, max_dim, 2.0 * d.max()))
            fresh = ph.build_rips(d, max_dim, 2.0 * d.max())
            chains = homology_chains_oracle(fresh)
            for pair in pairs:
                assert ph.representative_cycle(fresh, pair).simplices == chains[
                    pair.dimension, pair.death_simplex]
            checked[max_dim] += len(pairs)
    assert checked[2] and checked[3]


def test_pair_dying_at_a_birth_column_rejected():
    """The octahedron's H2 class is born at a triangle, a positive column of
    the H1 block, so no H1 cycle dies there."""
    f = ph.build_rips(geo.pairwise_distances(unit_octahedron()), 3, 2.0)
    h2 = [p for p in ph.reduce(f) if p.dimension == 2][0]
    bogus = ph.PersistencePair(1, 0.5, h2.birth, 0, h2.birth_simplex)
    with pytest.raises(KeyError):
        ph.representative_cycle(f, bogus)


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
