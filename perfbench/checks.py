"""Output checks for the benchmark's workloads.

Every check compares a CLI artifact against a computation written here,
apart from the program, or against a property the method must have. None
compares against a stored copy of earlier output. A check raises
`CheckFailed` with a message naming what differs; it returns None when the
output is right.
"""

from __future__ import annotations

import json
from itertools import combinations, permutations
from pathlib import Path

import numpy as np

FEATURE_WIDTH = 5832           # 2 * 54 * 54 pixels
GRID_CELLS = 57 ** 3
IGCS_50_STEP_TOL = 1e-2        # completeness tolerance of criterion 6 at 50 steps
EXACT_TOL = 1e-9
DIAGRAM_TOL = 1e-9
TARGET_CELL_TOL = 2            # brute-force target may differ by this many boundary cells


class CheckFailed(AssertionError):
    """A benchmark output check found a wrong output."""


def _fail(msg: str):
    raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# File readers (formats documented in the top-level README)

def read_xyz(path) -> np.ndarray:
    lines = Path(path).read_text().splitlines()
    count = int(lines[0])
    return np.array([[float(v) for v in line.split()[1:4]]
                     for line in lines[2:2 + count]]).reshape(count, 3)


def read_diagram(path) -> list[tuple[int, float, float]]:
    return [(int(r["dim"]), float(r["birth"]), float(r["death"]))
            for r in json.loads(Path(path).read_text())]


def read_features(path) -> tuple[list[str], np.ndarray]:
    lines = Path(path).read_text().splitlines()
    ids, rows = [], []
    for line in lines[1:]:
        parts = line.split(",")
        ids.append(parts[0])
        rows.append([float(v) for v in parts[1:]])
    return ids, np.array(rows)


def read_grid(path) -> np.ndarray:
    return np.array([[float(v) for v in line.split(",")]
                     for line in Path(path).read_text().splitlines() if line.strip()])


# ---------------------------------------------------------------------------
# featurize

def distances(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


def full_rips_diagram(points: np.ndarray) -> list[tuple[int, float, float]]:
    """H1 and H2 pairs of the complete Vietoris-Rips filtration.

    Every simplex up to dimension 3 is enumerated, valued by its diameter,
    with no truncation radius, and the boundary matrix is reduced left to
    right without clearing: the textbook algorithm, as in
    `persistence.reduce_naive`, kept here so the check does not depend on
    the program's filtration internals.
    """
    dist = distances(np.asarray(points, dtype=float))
    n = len(dist)
    simplices = []
    for k in range(1, 5):
        for s in combinations(range(n), k):
            value = max((dist[a, b] for a, b in combinations(s, 2)), default=0.0)
            simplices.append((value, k - 1, s))
    simplices.sort()
    index = {s: i for i, (_, _, s) in enumerate(simplices)}
    low_of: dict[int, int] = {}
    reduced: dict[int, int] = {}
    pairs = []
    for j, (value, dim, s) in enumerate(simplices):
        if dim == 0:
            continue
        col = 0
        for face in combinations(s, dim):
            col |= 1 << index[face]
        while col:
            low = col.bit_length() - 1
            k = low_of.get(low)
            if k is None:
                low_of[low] = j
                reduced[j] = col
                birth_value, birth_dim, _ = simplices[low]
                if birth_dim in (1, 2):
                    pairs.append((birth_dim, birth_value, value))
                break
            col ^= reduced[k]
    return pairs


def _significant(pairs):
    """Pairs with persistence above the float tolerance, sorted; zero-length
    pairs come from tied diameters and their presence depends on rounding."""
    return sorted(p for p in pairs if p[2] - p[1] > DIAGRAM_TOL)


def same_diagram(got, want, what: str) -> None:
    got, want = _significant(got), _significant(want)
    if len(got) != len(want):
        _fail(f"{what}: {len(got)} pairs, expected {len(want)}")
    for g, w in zip(got, want):
        if g[0] != w[0] or abs(g[1] - w[1]) > DIAGRAM_TOL or abs(g[2] - w[2]) > DIAGRAM_TOL:
            _fail(f"{what}: pair {g} differs from {w}")


def check_full_complex(points, diagram) -> None:
    """Diagram equals the reduction of the full, unpruned complex."""
    same_diagram(diagram, full_rips_diagram(points), "diagram vs full complex")


def check_relabel_invariance(points, diagram, featurize_cloud, rng) -> None:
    """Diagram of the same cloud with its points in another order is unchanged.

    `featurize_cloud(points)` returns the program's (dim, birth, death) list."""
    perm = rng.permutation(len(points))
    same_diagram(featurize_cloud(np.asarray(points)[perm]), diagram,
                 "diagram of relabelled cloud")


def enclosing_radius(points) -> float:
    """Smallest, over all points, of the point's largest distance to the others.
    Above it the Rips complex is a cone, so no H1 or H2 class is alive."""
    return float(distances(np.asarray(points, dtype=float)).max(axis=1).min())


def check_deaths_within_enclosing_radius(points, diagram) -> None:
    radius = enclosing_radius(points)
    worst = max((d for dim, _, d in diagram if dim in (1, 2)), default=0.0)
    if worst > radius + DIAGRAM_TOL:
        _fail(f"death {worst} exceeds the enclosing radius {radius}")


def brute_force_target_cells(points, probe_radius: float, origin, cell_size: float,
                             cells_per_axis: int) -> int:
    """Grid-cell centres whose nearest point lies in [r, 2r), counted with a
    dense numpy distance computation instead of a k-d tree."""
    pts = np.asarray(points, dtype=float)
    ax = (np.arange(cells_per_axis) + 0.5) * cell_size
    count = 0
    for x in ax + origin[0]:
        gy, gz = np.meshgrid(ax + origin[1], ax + origin[2], indexing="ij")
        centres = np.column_stack([np.full(gy.size, x), gy.ravel(), gz.ravel()])
        d2 = ((centres[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1).min(axis=1)
        near = np.sqrt(d2)
        count += int(np.count_nonzero((near >= probe_radius) & (near < 2 * probe_radius)))
    return count


def check_target(points, target: float, probe_radius: float, grid: dict) -> None:
    n_cells = grid["cells_per_axis"] ** 3
    want = brute_force_target_cells(points, probe_radius, grid["origin"],
                                    grid["cell_size"], grid["cells_per_axis"])
    got = target / 100.0 * n_cells
    if abs(got - want) > TARGET_CELL_TOL:
        _fail(f"target {target} is {got:.2f} cells, brute force counts {want}")


def check_features(ids, X, item_ids) -> None:
    if list(ids) != list(item_ids):
        _fail("features.csv rows do not follow the manifest items")
    if X.ndim != 2 or X.shape[1] != FEATURE_WIDTH:
        _fail(f"features.csv has shape {X.shape}, expected (n, {FEATURE_WIDTH})")
    if not np.isfinite(X).all() or (X < 0).any():
        _fail("features.csv holds non-finite or negative values")


# ---------------------------------------------------------------------------
# train

def walk_forest(model: dict, X: np.ndarray) -> np.ndarray:
    """Mean leaf value over the trees of `model.json`, one row at a time,
    summed in tree order like the program's batch predictor."""
    out = np.empty(len(X))
    trees = model["trees"]
    for i, x in enumerate(X):
        acc = 0.0
        for t in trees:
            node = 0
            while t["feature"][node] >= 0:
                node = (t["left"][node] if x[t["feature"][node]] <= t["threshold"][node]
                        else t["right"][node])
            acc += t["value"][node]
        out[i] = acc / len(trees)
    return out


def check_predictions(model: dict, X: np.ndarray, predictions) -> None:
    want = walk_forest(model, X)
    got = np.asarray(predictions, dtype=float)
    bad = np.flatnonzero(got != want)
    if len(bad):
        _fail(f"{len(bad)} predictions differ from the tree walk, first at row {bad[0]}:"
              f" {got[bad[0]]!r} vs {want[bad[0]]!r}")


def check_tree_counts(model: dict, n_train: int) -> None:
    for k, t in enumerate(model["trees"]):
        n = t["n_samples"]
        if n[0] != n_train:
            _fail(f"tree {k}: root holds {n[0]} samples, expected {n_train}")
        for node, (l, r) in enumerate(zip(t["left"], t["right"])):
            if t["feature"][node] >= 0 and n[l] + n[r] != n[node]:
                _fail(f"tree {k} node {node}: children hold {n[l]} + {n[r]}"
                      f" samples, parent {n[node]}")


def check_leaf_range(model: dict, y_train) -> None:
    """Leaf values are means of training targets; the float mean of equal
    values may land an ulp outside them, hence the relative slack."""
    lo, hi = float(np.min(y_train)), float(np.max(y_train))
    slack = EXACT_TOL * max(1.0, abs(lo), abs(hi))
    lo, hi = lo - slack, hi + slack
    for k, t in enumerate(model["trees"]):
        for node, f in enumerate(t["feature"]):
            v = t["value"][node]
            if f < 0 and not lo <= v <= hi:
                _fail(f"tree {k} leaf {node} value {v} outside [{lo}, {hi}]")


def r2(predictions, targets) -> float:
    p, t = np.asarray(predictions, float), np.asarray(targets, float)
    return 1.0 - float(((t - p) ** 2).sum()) / float(((t - t.mean()) ** 2).sum())


def check_holdout_r2(reported: float, predictions, targets) -> None:
    """The R^2 the CLI reports is that of its holdout predictions. There is
    no floor: at the benchmark's 40 training rows a working forest scored
    below -1 on some draws, the level of predictions with no signal."""
    own = r2(predictions, targets)
    if abs(own - reported) > EXACT_TOL:
        _fail(f"reported holdout R^2 {reported} differs from {own} of the predictions")


def check_training_fit(predictions, targets, floor: float) -> None:
    """Fully grown trees fit their own training rows closely; a forest whose
    splits carry no signal does not."""
    fit = r2(predictions, targets)
    if fit < floor:
        _fail(f"R^2 on the training rows {fit:.4f} below the floor {floor}")


# ---------------------------------------------------------------------------
# explain

def similarity(X: np.ndarray, target: int, ratio: float) -> np.ndarray:
    """Row i similar to the target on column j iff within ratio * column range."""
    thr = ratio * (X.max(axis=0) - X.min(axis=0))
    return (np.abs(X - X[target]) <= thr).astype(np.uint8)


def check_completeness(values, baseline: float, total: float, tol: float,
                       what: str) -> None:
    gap = abs(float(np.sum(values)) - (total - baseline))
    if not gap <= tol:
        _fail(f"{what}: sum differs from total - baseline by {gap:.3g} (tolerance {tol})")


def igcs_oracle(X: np.ndarray, y, target: int, ratio: float, steps: int,
                multilinear_gradient, cohort_matrix) -> np.ndarray:
    """Midpoint sum of the multilinear cohort gradient along the diagonal."""
    cohort = cohort_matrix(similarity(X, target, ratio), target)
    acc = np.zeros(X.shape[1])
    for k in range(1, steps + 1):
        acc += multilinear_gradient(cohort, y, np.full(X.shape[1], (k - 0.5) / steps))
    return acc / steps


def check_igcs(values, oracle) -> None:
    values, oracle = np.asarray(values, float), np.asarray(oracle, float)
    tol = 1e-8 * max(1.0, float(np.abs(oracle).max()))
    diff = float(np.abs(values - oracle).max())
    if not diff <= tol:
        _fail(f"pixel attributions differ from the gradient oracle by {diff:.3g}")


def cohort_mean(params_rows, y, target: int, subset) -> float:
    rows = [i for i, p in enumerate(params_rows)
            if all(p[j] == params_rows[target][j] for j in subset)]
    return float(np.mean(np.asarray(y, float)[rows]))


def check_params(record: dict, params_rows, y, target: int) -> None:
    """Efficiency, and agreement with the average marginal contribution over
    all 4! parameter orders."""
    values = np.asarray(record["values"], float)
    check_completeness(values, record["baseline"], record["total"], EXACT_TOL,
                       "params efficiency")
    d = len(values)
    phi = np.zeros(d)
    orders = list(permutations(range(d)))
    for order in orders:
        prev = cohort_mean(params_rows, y, target, [])
        for k in range(d):
            cur = cohort_mean(params_rows, y, target, order[:k + 1])
            phi[order[k]] += cur - prev
            prev = cur
    phi /= len(orders)
    diff = float(np.abs(values - phi).max())
    if not diff <= EXACT_TOL:
        _fail(f"params values differ from the {len(orders)}-order oracle by {diff:.3g}")


def check_higher(param_maps: dict, pixel_map: np.ndarray, computed, pixel_baseline) -> None:
    """At each computed pixel the parameter maps add up to the first-order
    pixel value minus that pixel's baseline."""
    total = sum(np.asarray(m, float) for m in param_maps.values())
    for p, base in zip(computed, pixel_baseline):
        gap = abs(total[p] - (pixel_map[p] - base))
        if not gap <= EXACT_TOL:
            _fail(f"higher-order maps miss pixel {p} by {gap:.3g}")


def check_grid(record: dict, n_points: int) -> None:
    cells = record["cells"]
    check_completeness([c["value"] for c in cells], record["baseline"], record["total"],
                       IGCS_50_STEP_TOL, "grid completeness")
    if record["dropped_cells"] + len(cells) != GRID_CELLS:
        _fail(f"{record['dropped_cells']} dropped + {len(cells)} kept cells"
              f" != {GRID_CELLS}")
    points = record["points"]
    if len(points) != n_points:
        _fail(f"grid record has {len(points)} points, the cloud {n_points}")
    seen = []
    for c in cells:
        for p in c["point_indices"]:
            seen.append(p)
            if points[p]["value"] != c["value"] / len(c["point_indices"]):
                _fail(f"point {p} holds {points[p]['value']}, its cell"
                      f" {c['value']} / {len(c['point_indices'])}")
    if sorted(seen) != list(range(n_points)):
        _fail("grid cells do not cover every point exactly once")

