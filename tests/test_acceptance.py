"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
report. The learnability criterion trains the full 500-tree model on a
1000-item dataset and takes several minutes.
"""

import math
import time
from itertools import permutations, product

import numpy as np
import pytest

from phxai import cli
from phxai import explain as ex
from phxai import forest as fr
from phxai import geometry as geo
from phxai import persistence as ph
from phxai import vectorize as vec
from phxai import xai

from conftest import random_cloud


def report(n, msg):
    print(f"\n[PASS] criterion {n}: {msg}")


def key_multiset(pairs):
    return sorted((p.dimension, p.birth, p.death) for p in pairs)


def test_criterion_1_reduction_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    for _ in range(200):
        n = int(rng.integers(8, 15))
        cloud = random_cloud(rng, n)
        d = geo.pairwise_distances(cloud)
        f = ph.build_rips(d, 3, 2.0 * d.max())
        assert key_multiset(ph.reduce(f)) == key_multiset(ph.reduce_naive(f))
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(1, f"reduce == reduce_naive on 200 clouds in {elapsed:.1f}s (< 60s)")


def test_criterion_2_known_topology():
    # 20-point unit circle: one dominant H1 pair
    t = np.linspace(0, 2 * np.pi, 20, endpoint=False)
    circle = geo.PointCloud(np.column_stack([np.cos(t), np.sin(t), np.zeros(20)]))
    d = geo.pairwise_distances(circle)
    h1 = [p for p in ph.reduce_naive(ph.build_rips(d, 3, 2.0 * d.max()))
          if p.dimension == 1]
    dominant = max(h1, key=lambda p: p.persistence)
    for p in h1:
        if p is not dominant:
            assert dominant.persistence >= 3.0 * p.persistence

    # unit square: single H1 pair (1, sqrt2)
    square = geo.PointCloud(np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float))
    pairs = ph.reduce_naive(ph.build_rips(geo.pairwise_distances(square), 2, 2.0))
    assert len(pairs) == 1
    assert abs(pairs[0].birth - 1.0) <= 1e-9
    assert abs(pairs[0].death - math.sqrt(2)) <= 1e-9

    # unit-edge octahedron: single H2 pair (1, sqrt2)
    s = 1 / math.sqrt(2)
    octa = geo.PointCloud(np.array([[s, 0, 0], [-s, 0, 0], [0, s, 0],
                                    [0, -s, 0], [0, 0, s], [0, 0, -s]]))
    pairs = ph.reduce_naive(ph.build_rips(geo.pairwise_distances(octa), 3, 2.0))
    h2 = [p for p in pairs if p.dimension == 2]
    assert len(h2) == 1
    assert abs(h2[0].birth - 1.0) <= 1e-9
    assert abs(h2[0].death - math.sqrt(2)) <= 1e-9
    report(2, "circle / unit square / octahedron diagrams match to 1e-9")


def test_criterion_3_stability_smoke():
    rng = np.random.default_rng(303)
    checked = 0
    for trial in range(50):
        n = int(rng.integers(9, 14))
        cloud = random_cloud(rng, n)
        d = geo.pairwise_distances(cloud)
        r = 2.0 * d.max() + 0.5
        base = ph.reduce(ph.build_rips(d, 3, r))
        for eps in (0.01, 0.05):
            moved = geo.perturb(cloud, eps, seed=trial)
            other = ph.reduce(ph.build_rips(geo.pairwise_distances(moved), 3, r))
            for dim in (1, 2):
                a = [(p.birth, p.death) for p in base if p.dimension == dim]
                b = [(p.birth, p.death) for p in other if p.dimension == dim]
                for (x, y) in a:
                    cost = (y - x) / 2  # matching to the diagonal
                    for (u, v) in b:
                        cost = min(cost, max(abs(x - u), abs(y - v)))
                    checked += 1
                    assert cost <= 2 * eps + 1e-9, (
                        f"pair ({x}, {y}) moved {cost} > 2*{eps};"
                        f" cloud={cloud.points.tolist()}")
    report(3, f"{checked} matched pairs moved <= 2*eps for eps in {{0.01, 0.05}}")


def test_criterion_4_vectorization_conservation():
    rng = np.random.default_rng(404)
    spec1 = vec.default_spec(1)
    for _ in range(50):
        n = int(rng.integers(0, 60))
        births = rng.uniform(0, 40, n)
        deaths = births + rng.uniform(0, 12, n)
        dg = ph.PersistenceDiagram(1, [ph.PersistencePair(1, b, dd, -1, -1)
                                       for b, dd in zip(births, deaths)])
        img = vec.histogram(dg, spec1)
        assert img.values.sum() + img.dropped == len(dg)

    # interior masses: blur preserves total to 1e-6
    for _ in range(20):
        n = int(rng.integers(1, 40))
        births = rng.uniform(2.0, 25.0, n)
        deaths = births + rng.uniform(1.0, 7.5, n)
        dg = ph.PersistenceDiagram(1, [ph.PersistencePair(1, b, dd, -1, -1)
                                       for b, dd in zip(births, deaths)])
        img = vec.histogram(dg, spec1)
        blurred = vec.gaussian_blur(img)
        assert abs(blurred.values.sum() - img.values.sum()) <= 1e-6
    report(4, "histogram mass + drop tally exact; interior blur mass to 1e-6")


def test_criterion_5_shapley_axioms():
    rng = np.random.default_rng(505)
    for _ in range(100):
        n, d = int(rng.integers(4, 16)), int(rng.integers(1, 7))
        X = rng.integers(0, 3, size=(n, d)).astype(float)
        target = int(rng.integers(0, n))
        cohort = xai.similarity_matrix(X, target)
        y = rng.normal(size=n)
        att = xai.cohort_shapley(cohort, y)
        # efficiency
        assert abs(att.values.sum() - (att.total - att.baseline)) <= 1e-9
        # permutation-enumeration oracle
        phi = np.zeros(d)
        perms = list(permutations(range(d)))
        for perm in perms:
            cur = []
            prev = xai.cohort_value(cohort, y, cur)
            for j in perm:
                cur.append(j)
                v = xai.cohort_value(cohort, y, cur)
                phi[j] += v - prev
                prev = v
        assert np.abs(att.values - phi / len(perms)).max() <= 1e-9

    # dummy: an all-similar feature gets exactly zero
    X = rng.integers(0, 3, size=(10, 3)).astype(float)
    cohort = xai.similarity_matrix(X, 0)
    S = np.column_stack([cohort.S, np.ones(10, dtype=np.uint8)])
    y = rng.normal(size=10)
    att = xai.cohort_shapley(xai.CohortIndicatorMatrix(S, 0), y)
    assert att.values[-1] == 0.0
    # symmetry: identical indicator columns get exactly equal values
    S2 = np.column_stack([cohort.S, cohort.S[:, 1]])
    att2 = xai.cohort_shapley(xai.CohortIndicatorMatrix(S2, 0), y)
    assert att2.values[1] == att2.values[-1]
    report(5, "efficiency 1e-9, exact dummy/symmetry, 100 oracle matches")


def test_criterion_6_igcs_quadrature():
    rng = np.random.default_rng(606)
    worst500 = worst50 = 0.0
    for _ in range(40):
        n, d = int(rng.integers(8, 32)), int(rng.integers(1, 9))
        X = rng.integers(0, 3, size=(n, d)).astype(float)
        cohort = xai.similarity_matrix(X, int(rng.integers(0, n)))
        y = rng.normal(size=n)
        for steps in (500, 50):
            att = xai.igcs(cohort, y, steps)
            gap = abs(att.values.sum() - (att.total - att.baseline))
            if steps == 500:
                worst500 = max(worst500, gap)
            else:
                worst50 = max(worst50, gap)
    assert worst500 <= 1e-3 and worst50 <= 1e-2

    # corner consistency is exact
    for _ in range(10):
        n, d = 12, 4
        X = rng.integers(0, 2, size=(n, d)).astype(float)
        cohort = xai.similarity_matrix(X, 0)
        y = rng.normal(size=n)
        for bits in product((0.0, 1.0), repeat=d):
            subset = [j for j, b in enumerate(bits) if b]
            assert xai.multilinear_value(cohort, y, np.array(bits)) == \
                xai.cohort_value(cohort, y, subset)

    # analytic gradient vs central differences
    h = 1e-6
    for _ in range(20):
        n, d = int(rng.integers(6, 20)), int(rng.integers(2, 7))
        X = rng.integers(0, 3, size=(n, d)).astype(float)
        cohort = xai.similarity_matrix(X, 0)
        y = rng.normal(size=n)
        w = rng.uniform(0.05, 0.95, size=d)
        g = xai.multilinear_gradient(cohort, y, w)
        for j in range(d):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            fd = (xai.multilinear_value(cohort, y, wp)
                  - xai.multilinear_value(cohort, y, wm)) / (2 * h)
            assert abs(g[j] - fd) <= 1e-5
    report(6, f"completeness gaps {worst500:.1e} @500 / {worst50:.1e} @50;"
              " corners exact; gradient to 1e-5")


def _featurize(cloud):
    pairs = ph.reduce(ph.build_rips(geo.pairwise_distances(cloud), 3, ph.DEFAULT_MAX_RADIUS))
    return vec.features(*vec.landscapes(pairs, vec.default_spec(1), vec.default_spec(2)))


def _extract_features(param_indices, probe_radius=2.0):
    vocab = geo.iter_param_vectors()
    X = np.empty((len(param_indices), 2 * vec.BINS ** 2))
    y = np.empty(len(param_indices))
    params = []
    for k, vi in enumerate(param_indices):
        p = vocab[int(vi)]
        cloud = geo.generate_structure(p)
        X[k] = _featurize(cloud)
        y[k] = geo.synthetic_target(cloud, probe_radius)
        params.append(p)
    return params, X, y


@pytest.mark.slow
def test_criterion_7_pipeline_learnability():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    idx = rng.permutation(len(geo.iter_param_vectors()))[:1000]
    _, X, y = _extract_features(idx)
    model = fr.train(X[:800], y[:800], fr.TrainConfig(n_trees=500, seed=0))
    score = fr.r2(fr.predict_batch(model, X[800:]), y[800:])
    elapsed = time.monotonic() - t0
    assert score >= 0.75, f"holdout R^2 {score:.4f} below 0.75"
    assert elapsed < 600.0, f"took {elapsed:.0f}s, budget 600s"
    report(7, f"1000-item run: holdout R^2 {score:.3f} (>= 0.75) in {elapsed:.0f}s (< 600s)")


@pytest.mark.slow
def test_criterion_8_grid_based_explanation():
    t0 = time.monotonic()
    rng = np.random.default_rng(808)
    # small training set for the scorer model
    train_idx = rng.permutation(len(geo.iter_param_vectors()))[:60]
    _, X, y = _extract_features(train_idx)
    model = fr.train(X, y, fr.TrainConfig(n_trees=40, seed=1))

    def scorer(cloud):
        return fr.predict(model, _featurize(cloud))

    target = geo.generate_structure(geo.ParamVector("cube", "penta", "quad", "ring6_b"))
    assert len(target) <= 60
    cohort = [geo.perturb(target, 1.0, seed=k) for k in range(100)]
    spec = geo.GridSpec()
    att = ex.grid_based_explanation(target, cohort, scorer, spec, steps=500)

    # completeness at the 500-step tolerance
    gap = abs(att.cell_value.sum() - (att.total - att.baseline))
    assert gap <= 1e-3
    # even split: within-cell equality and per-point value == cell / k, exactly
    for cell in np.unique(att.point_cell):
        members = np.flatnonzero(att.point_cell == cell)
        vals = att.point_value[members]
        assert (vals == vals[0]).all()
        assert vals[0] == att.value_of_cell(cell) / len(members)
    # dropped globally-empty cells report zero attribution
    dropped = np.setdiff1d(np.arange(spec.n_cells)[::3001], att.cell_index)
    for cell in dropped:
        assert att.value_of_cell(int(cell)) == 0.0
    assert att.n_dropped + len(att.cell_index) == spec.n_cells
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"took {elapsed:.0f}s, budget 300s"
    report(8, f"grid attribution: completeness gap {gap:.1e}, even split exact,"
              f" {att.n_dropped} empty cells dropped, {elapsed:.0f}s (< 300s)")


def test_criterion_9_higher_order_decomposition():
    rng = np.random.default_rng(909)
    # part 1: efficiency identity on a dataset of distinct parameter vectors
    vocab = geo.iter_param_vectors()
    take = rng.choice(len(vocab), size=12, replace=False)
    params = [vocab[int(i)] for i in take]
    X = rng.integers(0, 3, size=(12, 18)).astype(float)  # 2 * 3^2 pixel features
    y = rng.normal(size=12)
    maps = ex.higher_order(params, X, y, 0, steps=40, quantile=0.5)
    computed = np.flatnonzero(maps.computed)
    assert len(computed) > 0
    total = sum(maps.maps[name] for name in geo.PARAM_NAMES)
    first = maps.first_order.values
    for p in computed:
        assert abs(total[p] - (first[p] - maps.pixel_baseline[p])) <= 1e-9

    # part 2: a single parameter controlling a single pixel concentrates there
    n = 16
    edges = ["ring4_a" if i % 2 else "ring6_c" for i in range(n)]
    params = [geo.ParamVector("hex", "triad", "quad", e) for e in edges]
    Xc = np.ones((n, 8))
    pixel = 5
    Xc[:, pixel] = [1.0 if e == "ring4_a" else 3.0 for e in edges]
    yc = 2.0 * Xc[:, pixel]
    maps = ex.higher_order(params, Xc, yc, 0, pixel_subset=[pixel], steps=50)
    magnitudes = {name: abs(maps.maps[name][pixel]) for name in geo.PARAM_NAMES}
    share = magnitudes["edge"] / sum(magnitudes.values())
    assert share >= 0.95
    report(9, f"per-pixel efficiency to 1e-9 on {len(computed)} pixels;"
              f" controlling parameter carries {100 * share:.1f}% (>= 95%)")


def test_criterion_10_cli_reproducibility(tmp_path):
    def run(*argv):
        code = cli.main([str(a) for a in argv])
        assert code == 0, argv
        return code

    outputs = {}
    for tag in ("a", "b"):
        root = tmp_path / tag
        run("gen-data", "--count", 10, "--seed", 77, "--out", root)
        run("pipeline", root / "manifest.json", "--stages", "ph,vectorize,train,predict",
            "--trees", 12, "--holdout", 2, "--seed", 5)
        run("explain", root / "manifest.json", "--mode", "params", "--target", "item_0004")
        run("explain", root / "manifest.json", "--mode", "pixels", "--target", "item_0004",
            "--steps", 10, "--top-k", 2)
        run("explain", root / "manifest.json", "--mode", "grid", "--target", "item_0001",
            "--cohort-size", 4, "--steps", 10)
        run("explain", root / "manifest.json", "--mode", "higher", "--target", "item_0002",
            "--pixel-quantile", 0.99, "--steps", 5)
        run("render", root / "attributions" / "pixels_item_0004_h1.csv",
            root / "map.pgm", "--palette", "diverging")
        files = {}
        for f in sorted(root.rglob("*")):
            if f.is_file() and f.name != "run_log.jsonl":
                files[str(f.relative_to(root))] = f.read_bytes()
        outputs[tag] = files

    assert outputs["a"].keys() == outputs["b"].keys()
    diffs = [k for k in outputs["a"] if outputs["a"][k] != outputs["b"][k]]
    assert not diffs, f"artifacts differ between identical runs: {diffs}"
    report(10, f"{len(outputs['a'])} artifacts byte-identical across repeated runs")
