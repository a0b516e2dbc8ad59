import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from phxai import geometry as geo
from conftest import random_cloud


# ---------------------------------------------------------------------------
# XYZ I/O

def test_load_single_point(tmp_path):
    p = tmp_path / "one.xyz"
    p.write_text("1\n\nC 0 0 0\n")
    cloud = geo.load_xyz(p)
    assert len(cloud) == 1
    assert np.allclose(cloud.points[0], [0, 0, 0])
    assert cloud.labels == ("C",)


def test_load_short_file_names_line(tmp_path):
    p = tmp_path / "short.xyz"
    p.write_text("3\ncomment\nC 0 0 0\nC 1 1 1\n")
    with pytest.raises(geo.XYZFormatError, match="line 5"):
        geo.load_xyz(p)


def test_load_bad_count(tmp_path):
    p = tmp_path / "bad.xyz"
    p.write_text("x\n\n")
    with pytest.raises(geo.XYZFormatError, match="line 1"):
        geo.load_xyz(p)


def test_load_non_numeric_coordinate(tmp_path):
    p = tmp_path / "bad.xyz"
    p.write_text("1\n\nC 0 zero 0\n")
    with pytest.raises(geo.XYZFormatError, match="line 3"):
        geo.load_xyz(p)


def test_save_empty_cloud(tmp_path):
    p = tmp_path / "empty.xyz"
    geo.save_xyz(geo.PointCloud(np.zeros((0, 3))), p)
    assert p.read_text() == "0\n\n"
    assert len(geo.load_xyz(p)) == 0


def test_save_format_line(tmp_path):
    p = tmp_path / "pt.xyz"
    geo.save_xyz(geo.PointCloud(np.array([[1.5, 2.0, -0.25]])), p)
    assert p.read_text().splitlines()[2] == "X 1.500000 2.000000 -0.250000"


def test_roundtrip_random_clouds(tmp_path):
    for seed in range(25):
        rng = np.random.default_rng(seed)
        cloud = geo.PointCloud(rng.uniform(-100, 100, size=(50, 3)))
        p = tmp_path / f"c{seed}.xyz"
        geo.save_xyz(cloud, p)
        back = geo.load_xyz(p)
        assert np.abs(back.points - cloud.points).max() < 1e-6


# ---------------------------------------------------------------------------
# Structure generation

def test_generate_deterministic():
    params = geo.ParamVector("cube", "triad", "quad", "ring5_a")
    a = geo.generate_structure(params)
    b = geo.generate_structure(params)
    assert np.array_equal(a.points, b.points)
    assert a.labels == b.labels


def test_edge_changes_only_linker_points():
    base = geo.ParamVector("hex", "dimer", "penta", "ring4_a")
    other = geo.ParamVector("hex", "dimer", "penta", "ring6_b")
    a = geo.generate_structure(base)
    b = geo.generate_structure(other)
    n_fixed = sum(1 for lbl in a.labels if lbl != "C")
    assert a.labels[:n_fixed] == b.labels[:n_fixed]
    assert np.array_equal(a.points[:n_fixed], b.points[:n_fixed])
    assert not np.array_equal(a.points[n_fixed:], b.points[n_fixed:])


def test_vocabulary_size():
    vocab = geo.iter_param_vectors()
    assert len(vocab) == len(set(vocab)) >= 1000
    assert len(geo.TEMPLATES) >= 4 and len(geo.NODES) >= 6 and len(geo.EDGES) >= 8


def test_unknown_category_rejected():
    with pytest.raises(ValueError):
        geo.generate_structure(geo.ParamVector("cube", "nonsense"))
    with pytest.raises(ValueError):
        geo.generate_structure(geo.ParamVector("spiral", "dimer"))


def test_structures_fit_grid():
    spec = geo.SyntheticSpec()
    lo = np.array(spec.grid.origin)
    hi = lo + spec.grid.side
    for params in geo.iter_param_vectors()[::97]:
        c = geo.generate_structure(params, spec)
        assert (c.points >= lo).all() and (c.points < hi).all()


# ---------------------------------------------------------------------------
# Synthetic target

def test_target_empty_cloud_is_zero():
    assert geo.synthetic_target(geo.PointCloud(np.zeros((0, 3))), 2.0) == 0.0


def test_target_dense_lattice_near_zero():
    spec = geo.GridSpec((0.0, 0.0, 0.0), 2.0, 8)
    ax = np.arange(8) * 2.0 + 1.0
    gx, gy, gz = np.meshgrid(ax, ax, ax, indexing="ij")
    dense = geo.PointCloud(np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()]))
    assert geo.synthetic_target(dense, 2.0, spec) == 0.0


def test_target_single_point_matches_cell_scan():
    spec = geo.GridSpec((0.0, 0.0, 0.0), 2.0, 9)
    center = np.full(3, spec.side / 2)
    cloud = geo.PointCloud(center[None, :])
    r = 2.0
    # oracle: direct enumeration over every cell center
    count = 0
    total = 0
    for i in range(9):
        for j in range(9):
            for k in range(9):
                c = np.array([i, j, k]) * 2.0 + 1.0
                d = math.dist(c, center)
                total += 1
                if r <= d < 2 * r:
                    count += 1
    expected = 100.0 * count / total
    assert geo.synthetic_target(cloud, r, spec) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30), st.floats(0.25, 8.0),
       st.sampled_from([geo.GridSpec((-6.0, -6.0, -6.0), 1.5, 10),
                        geo.GridSpec((2.0, -3.0, 0.5), 0.75, 23)]))
def test_target_equals_dense_query(seed, n, probe_radius, spec):
    """Querying only the centers near the cloud changes no bit of the target:
    oracle is a query at every cell center, some points outside the cube and
    some on cell faces."""
    rng = np.random.default_rng(seed)
    origin = np.array(spec.origin)
    pts = rng.uniform(origin - 0.3 * spec.side, origin + 1.3 * spec.side, size=(n, 3))
    on_face = rng.random((n, 3)) < 0.3
    faces = origin + rng.integers(-2, spec.cells_per_axis + 3, size=(n, 3)) * spec.cell_size
    pts[on_face] = faces[on_face]
    assert geo.synthetic_target(geo.PointCloud(pts), probe_radius, spec) == \
        dense_target(pts, probe_radius, spec)


@pytest.mark.parametrize("probe_radius", [2.0, 0.5])
def test_target_equals_dense_query_on_generated_clouds(probe_radius):
    """Lattice clouds have many tied distances from the cell centers."""
    spec = geo.SyntheticSpec().grid
    for params in geo.iter_param_vectors()[::24]:
        cloud = geo.generate_structure(params)
        assert geo.synthetic_target(cloud, probe_radius, spec) == \
            dense_target(cloud.points, probe_radius, spec)


def test_target_on_shell_edges_equals_dense_query():
    """A probe radius equal to some center's nearest distance, or half of
    one, puts that center exactly on a shell edge, where the order the
    squares are added in decides whether it counts."""
    rng = np.random.default_rng(7)
    spec = geo.GridSpec((-6.0, -6.0, -6.0), 1.5, 10)
    for _ in range(20):
        pts = rng.uniform(-6.0, 9.0, size=(rng.integers(1, 30), 3))
        for d in rng.choice(dense_distances(pts, spec), 5):
            for probe_radius in (d, d / 2):
                assert geo.synthetic_target(geo.PointCloud(pts), probe_radius, spec) == \
                    dense_target(pts, probe_radius, spec)


def dense_distances(pts, spec):
    """Nearest-point distance of every cell center, from a KD-tree query."""
    origin = np.array(spec.origin)
    c = spec.cells_per_axis
    ax = origin[:, None] + (np.arange(c) + 0.5) * spec.cell_size
    gx, gy, gz = np.meshgrid(ax[0], ax[1], ax[2], indexing="ij")
    return cKDTree(pts).query(np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()]))[0]


def dense_target(pts, probe_radius, spec):
    """The target from a KD-tree query at every cell center."""
    dist = dense_distances(pts, spec)
    shell = np.count_nonzero((dist >= probe_radius) & (dist < 2.0 * probe_radius))
    return 100.0 * (shell / len(dist))


def test_target_permutation_invariant(rng):
    cloud = random_cloud(rng, 30, scale=5.0)
    shuffled = geo.PointCloud(cloud.points[rng.permutation(30)])
    spec = geo.GridSpec((-20.0, -20.0, -20.0), 2.0, 20)
    assert geo.synthetic_target(cloud, 2.0, spec) == geo.synthetic_target(shuffled, 2.0, spec)


# ---------------------------------------------------------------------------
# Perturbation

def test_perturb_displacement_length(rng):
    cloud = random_cloud(rng, 40, scale=10.0)
    moved = geo.perturb(cloud, 1.0, seed=3)
    norms = np.linalg.norm(moved.points - cloud.points, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-9
    assert len(moved) == len(cloud)


@settings(max_examples=20)
@given(st.floats(1e-6, 10.0), st.integers(0, 10 ** 6))
def test_perturb_norm_property(length, seed):
    rng = np.random.default_rng(99)
    cloud = geo.PointCloud(rng.normal(size=(15, 3)))
    moved = geo.perturb(cloud, length, seed)
    norms = np.linalg.norm(moved.points - cloud.points, axis=1)
    assert np.abs(norms - length).max() < 1e-9 * max(1.0, length)


def test_perturb_seed_determinism(rng):
    cloud = random_cloud(rng, 20)
    a = geo.perturb(cloud, 1.0, seed=11)
    b = geo.perturb(cloud, 1.0, seed=11)
    c = geo.perturb(cloud, 1.0, seed=12)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


# ---------------------------------------------------------------------------
# Grid counts

def test_single_point_single_cell():
    spec = geo.GridSpec((0.0, 0.0, 0.0), 2.0, 4)
    gc = geo.grid_counts(geo.PointCloud(np.array([[1.0, 1.0, 1.0]])), spec)
    assert gc.counts.sum() == 1 and gc.counts[0] == 1 and gc.overflow == 0


def test_boundary_point_goes_to_higher_cell():
    spec = geo.GridSpec((0.0, 0.0, 0.0), 2.0, 4)
    gc = geo.grid_counts(geo.PointCloud(np.array([[2.0, 0.5, 0.5]])), spec)
    flat = 1 * 16 + 0 * 4 + 0  # cell (1, 0, 0)
    assert gc.counts[flat] == 1


def test_default_grid_covers_114_cube():
    spec = geo.GridSpec()
    assert spec.cells_per_axis == 57 and spec.cell_size == 2.0
    assert spec.side == pytest.approx(114.0)
    assert spec.n_cells == 185_193


@settings(max_examples=20)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 60))
def test_counts_plus_overflow_conserved(seed, n):
    rng = np.random.default_rng(seed)
    cloud = geo.PointCloud(rng.uniform(-4, 12, size=(n, 3)))
    spec = geo.GridSpec((0.0, 0.0, 0.0), 2.0, 4)
    gc = geo.grid_counts(cloud, spec)
    assert gc.counts.sum() + gc.overflow == n


# ---------------------------------------------------------------------------
# Grid occupancy of the synthetic data

def test_occupancy_synthetic_dataset_heavily_skewed():
    vocab = geo.iter_param_vectors()
    rng = np.random.default_rng(4)
    spec = geo.SyntheticSpec()
    occupied = np.zeros(spec.grid.n_cells, dtype=bool)
    for i in rng.permutation(len(vocab))[:200]:
        occupied |= geo.grid_counts(geo.generate_structure(vocab[int(i)], spec),
                                    spec.grid).counts > 0
    assert np.count_nonzero(~occupied) > 0.8 * spec.grid.n_cells


@pytest.mark.parametrize("cell_size", [float("nan"), 0.0, -1.0])
def test_grid_spec_rejects_non_positive_cell_size(cell_size):
    with pytest.raises(ValueError, match="cell_size must be positive"):
        geo.GridSpec((0.0, 0.0, 0.0), cell_size, 4)


# ---------------------------------------------------------------------------
# Distances

def test_three_four_five():
    d = geo.pairwise_distances(geo.PointCloud(np.array([[0, 0, 0], [3, 4, 0]], float)))
    assert d[0, 1] == d[1, 0] == 5.0


def test_single_point_distance_matrix():
    d = geo.pairwise_distances(geo.PointCloud(np.array([[1.0, 2.0, 3.0]])))
    assert d.shape == (1, 1) and d[0, 0] == 0.0


def test_distances_match_naive_loop(rng):
    cloud = random_cloud(rng, 10)
    d = geo.pairwise_distances(cloud)
    for i in range(10):
        for j in range(10):
            dx, dy, dz = cloud.points[i] - cloud.points[j]
            assert d[i, j] == math.sqrt(dx * dx + dy * dy + dz * dz)
