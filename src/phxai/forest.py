"""From-scratch random-forest regressor.

Trees are grown CART-style on bootstrap samples with the squared-error
criterion; split points are midpoints between consecutive distinct sorted
feature values, with impurity ties broken by lowest feature index and then
lowest threshold so training is a pure function of (X, y, config). Trees
are grown on the columns that vary over the training rows, the only ones
that can split, and their split features index the full feature layout.
The forest is one table of node arrays, all trees concatenated, so a walk
takes one numpy step per tree level for every tree and row at once, and the
model file is a plain JSON document of the per-tree slices.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .parallel import map_in_order

MODEL_FORMAT = "phxai-forest-v1"


@dataclass(frozen=True)
class TrainConfig:
    n_trees: int = 500
    max_features_fraction: float = 1.0
    min_samples_leaf: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if not 0 < self.max_features_fraction <= 1:
            raise ValueError("max_features_fraction must be in (0, 1]")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")

    def to_dict(self) -> dict:
        return {"n_trees": self.n_trees,
                "max_features_fraction": self.max_features_fraction,
                "min_samples_leaf": self.min_samples_leaf,
                "bootstrap": True,  # every tree is grown on a bootstrap sample
                "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(int(d["n_trees"]), float(d["max_features_fraction"]),
                   int(d["min_samples_leaf"]), int(d["seed"]))


# A tree's node arrays, in model.json's field order, with their dtypes
_NODE_ARRAYS = {"feature": np.int64, "threshold": float, "left": np.int64, "right": np.int64,
                "value": float, "n_samples": np.int64, "decrease": float}
Nodes = namedtuple("Nodes", _NODE_ARRAYS)


@dataclass
class Forest:
    """The node arrays of all trees, concatenated in tree order; tree k's
    nodes are `start[k]:start[k + 1]`. `feature` is -1 at leaves, `value` is
    the leaf mean, and `left` and `right` index nodes of their own tree, -1
    at leaves, as `model.json` stores them. `decrease` is an internal node's
    weighted impurity decrease (split gain over the training sample count)."""

    nodes: Nodes
    start: np.ndarray
    config: TrainConfig
    feature_count: int

    @classmethod
    def from_trees(cls, trees, config: TrainConfig, feature_count: int) -> "Forest":
        """Join per-tree node arrays, each tree a dict from the names in
        `_NODE_ARRAYS` to numbers. Reject a table that a walk could loop on
        or index past: an internal node's children must follow it in its
        tree (the grower appends them after it), a leaf has none, and split
        features lie in [0, feature_count). A fault names the lowest tree
        with one."""
        if not trees:
            raise ValueError("model has no trees")
        per_tree = []
        for k, tree in enumerate(trees):
            if not isinstance(tree, dict):
                raise ValueError(f"tree {k}: not an object")
            try:
                arrays = [np.asarray(tree[name], dtype=dtype)
                          for name, dtype in _NODE_ARRAYS.items()]
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"tree {k}: node arrays must hold numbers: {exc}") from None
            if not len(arrays[0]) or any(a.ndim != 1 or len(a) != len(arrays[0]) for a in arrays):
                raise ValueError(f"tree {k}: node arrays must be non-empty and of equal length")
            per_tree.append(arrays)
        nodes = Nodes(*map(np.concatenate, zip(*per_tree)))
        sizes = np.array([len(arrays[0]) for arrays in per_tree])
        start = np.concatenate(([0], np.cumsum(sizes)))
        tree = np.repeat(np.arange(len(sizes)), sizes)
        node, size, internal = np.arange(start[-1]) - start[tree], sizes[tree], nodes.feature >= 0
        faults = [fault for child in (nodes.left, nodes.right) for fault in (
            (internal & ((child <= node) | (child >= size)),
             "an internal node's child does not lie after it"),
            (~internal & (child != -1), "a leaf has a child"))]
        faults.append(((nodes.feature < -1) | (nodes.feature >= feature_count),
                       f"a split feature is outside [0, {feature_count})"))
        found = [(tree[bad.argmax()], i) for i, (bad, _) in enumerate(faults) if bad.any()]
        if found:
            k, i = min(found)
            raise ValueError(f"tree {k}: {faults[i][1]}")
        return cls(nodes, start, config, feature_count)

    @property
    def trees(self) -> list[Nodes]:
        """Each tree's node arrays, views into the table."""
        return [Nodes(*(a[lo:hi] for a in self.nodes))
                for lo, hi in zip(self.start, self.start[1:])]

    def to_dict(self) -> dict:
        bounds = self.start.tolist()
        return {
            "format": MODEL_FORMAT,
            "config": self.config.to_dict(),
            "feature_count": self.feature_count,
            "trees": [{name: a[lo:hi].tolist() for name, a in zip(Nodes._fields, self.nodes)}
                      for lo, hi in zip(bounds, bounds[1:])],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Forest":
        if d.get("format") != MODEL_FORMAT:
            raise ValueError(f"unsupported model format {d.get('format')!r}")
        return cls.from_trees(d["trees"], TrainConfig.from_dict(d["config"]),
                              int(d["feature_count"]))


def _best_split(Xn: np.ndarray, yn: np.ndarray, cols: np.ndarray, min_leaf: int):
    """Exhaustive best split over the given columns.

    Returns (feature, threshold, gain) or None. Gain is the SSE decrease of
    the node; ties go to the lowest feature index, then lowest threshold.
    """
    n = len(yn)
    order = np.argsort(Xn, axis=0, kind="stable")
    Xs = np.take_along_axis(Xn, order, axis=0)
    ys = yn[order]
    cy = np.cumsum(ys, axis=0)
    tot = cy[-1]
    nl = np.arange(1, n, dtype=float)[:, None]
    nr = n - nl
    # minimizing child SSE == maximizing cy^2/nl + (tot-cy)^2/nr
    score = cy[:-1] ** 2 / nl + (tot - cy[:-1]) ** 2 / nr
    valid = Xs[1:] > Xs[:-1]
    if min_leaf > 1:
        ok = (nl >= min_leaf) & (nr >= min_leaf)
        valid = valid & ok
    if not valid.any():
        return None
    score = np.where(valid, score, -np.inf)
    best = score.max()
    ks, fs = np.nonzero(score == best)
    # lowest real feature index first, then lowest threshold (lowest k)
    pick = np.lexsort((ks, cols[fs]))[0]
    k, f = int(ks[pick]), int(fs[pick])
    threshold = (Xs[k, f] + Xs[k + 1, f]) / 2.0
    y_sq = float(np.dot(yn, yn))
    sse_parent = y_sq - float(yn.sum()) ** 2 / n
    sse_children = y_sq - float(best)
    return int(cols[f]), float(threshold), sse_parent - sse_children


def _grow_tree(Xv: np.ndarray, y: np.ndarray, sample_idx: np.ndarray, cols: np.ndarray,
               d: int, config: TrainConfig, rng: np.random.Generator) -> dict:
    """Grow one tree on `Xv`, the columns `cols` (ascending) of a table `d`
    wide that vary over the training rows; split features index the full
    table. With `max_features_fraction < 1` each node draws from all `d`
    columns and keeps the drawn ones in `cols`: a constant column never
    splits, so the tree and the random stream are those of the full table.
    Returns the tree's node arrays by name, as `Forest.from_trees` takes them."""
    n_total = len(sample_idx)
    n_sub = max(1, int(np.ceil(config.max_features_fraction * d)))
    position = np.full(d, -1)  # full column index -> column of Xv
    position[cols] = np.arange(len(cols))
    tree = Nodes(*([] for _ in _NODE_ARRAYS))

    def leaf(idx) -> int:  # a node is a leaf until it splits
        for column, v in zip(tree, (-1, 0.0, -1, -1, float(y[idx].mean()), len(idx), 0.0)):
            column.append(v)
        return len(tree.feature) - 1

    stack = [(sample_idx, leaf(sample_idx))]
    while stack:
        idx, slot = stack.pop()
        yn = y[idx]
        if len(idx) < max(2, 2 * config.min_samples_leaf) or yn.min() == yn.max():
            continue
        if config.max_features_fraction < 1.0:
            drawn = position[np.sort(rng.choice(d, size=n_sub, replace=False))]
            local = drawn[drawn >= 0]
            Xn, node_cols = Xv[np.ix_(idx, local)], cols[local]
        else:
            Xn, node_cols = Xv[idx], cols
        varying = Xn.min(axis=0) < Xn.max(axis=0)
        if not varying.any():
            continue
        split = _best_split(Xn[:, varying], yn, node_cols[varying], config.min_samples_leaf)
        if split is None:
            continue
        f, thr, gain = split
        go_left = Xv[idx, position[f]] <= thr
        if not go_left.any() or go_left.all():  # adjacent-float midpoint degeneracy
            continue
        tree.feature[slot], tree.threshold[slot], tree.decrease[slot] = f, thr, gain / n_total
        tree.left[slot], tree.right[slot] = leaf(idx[go_left]), leaf(idx[~go_left])
        stack.append((idx[~go_left], tree.right[slot]))
        stack.append((idx[go_left], tree.left[slot]))
    return tree._asdict()


def train(X, y, config: TrainConfig = TrainConfig()) -> Forest:
    """Grow `config.n_trees` trees on bootstrap samples of (X, y).

    Per-tree randomness is derived from config.seed, so training is
    reproducible and trees are independent of evaluation order; the trees
    are grown on every CPU the process may use and joined in seed order.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError("X must be a non-empty 2-D table")
    n, d = X.shape
    if n < 2 or len(y) != n:
        raise ValueError("need at least 2 samples and matching targets")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in the training data")
    cols = np.flatnonzero(X.min(axis=0) < X.max(axis=0))
    Xv = X[:, cols]

    def grow(ss: np.random.SeedSequence) -> dict:
        rng = np.random.default_rng(ss)
        return _grow_tree(Xv, y, rng.integers(0, n, size=n), cols, d, config, rng)

    seeds = np.random.SeedSequence(config.seed).spawn(config.n_trees)
    return Forest.from_trees(map_in_order(grow, seeds), config, d)


def predict(forest: Forest, x) -> float:
    """Mean of the per-tree leaf values for a single sample, the same float
    `predict_batch` gives for that sample as a row."""
    x = np.asarray(x, dtype=float)
    if x.shape != (forest.feature_count,):
        raise ValueError(f"expected {forest.feature_count} features, got {x.shape}")
    return float(predict_batch(forest, x[None, :])[0])


def predict_batch(forest: Forest, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != forest.feature_count:
        raise ValueError(f"expected (n, {forest.feature_count}) features")
    nodes, roots = forest.nodes, forest.start[:-1]
    node = np.repeat(roots, len(X))  # per (tree, row) pair, tree-major
    active = np.arange(len(node))
    while len(active):  # one level of every tree per step
        at = node[active]
        inner = nodes.feature[at] >= 0
        active, at = active[inner], at[inner]
        go_left = X[active % len(X), nodes.feature[at]] <= nodes.threshold[at]
        node[active] = roots[active // len(X)] + np.where(go_left, nodes.left[at],
                                                          nodes.right[at])
    acc = np.zeros(len(X))
    for leaves in nodes.value[node].reshape(len(roots), len(X)):  # tree order: a loop's sums
        acc += leaves
    return acc / len(roots)


def depths(forest: Forest) -> np.ndarray:
    """Edges on each tree's longest root-to-leaf path, 0 for a lone leaf."""
    nodes, roots = forest.nodes, forest.start[:-1]
    out = np.zeros(len(roots), dtype=np.int64)
    level, tree, depth = roots, np.arange(len(roots)), 0
    while len(level):  # one level of every tree per step
        inner = nodes.feature[level] >= 0
        level, tree, depth = level[inner], np.tile(tree[inner], 2), depth + 1
        out[tree] = depth
        level = roots[tree] + np.concatenate((nodes.left[level], nodes.right[level]))
    return out


def r2(predictions, targets) -> float:
    """Coefficient of determination, 1 - SSres/SStot."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape or p.ndim != 1 or len(p) < 2:
        raise ValueError("predictions and targets must be equal-length vectors of size >= 2")
    ss_tot = float(((t - t.mean()) ** 2).sum())
    if ss_tot == 0:
        raise ValueError("targets are constant; R^2 is undefined")
    ss_res = float(((t - p) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def impurity_importance(forest: Forest) -> np.ndarray:
    """Per-feature impurity decrease summed within trees, averaged across
    trees, normalized to sum to 1 (zero vector if no tree ever splits)."""
    total = np.zeros(forest.feature_count)
    internal = forest.nodes.feature >= 0
    np.add.at(total, forest.nodes.feature[internal], forest.nodes.decrease[internal])
    total /= len(forest.start) - 1
    s = total.sum()
    return total / s if s > 0 else total


def permutation_importance(forest: Forest, X, y, repeats: int = 5,
                           seed: int = 0) -> np.ndarray:
    """Mean R^2 drop when each column is independently shuffled.

    A column no tree splits on leaves every prediction unchanged, so its
    drop is exactly 0 and is not re-predicted; its permutations are still
    drawn, so every other column sees the same random stream.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    rng = np.random.default_rng(seed)
    base = r2(predict_batch(forest, X), y)
    split = np.isin(np.arange(X.shape[1]), forest.nodes.feature)
    out = np.zeros(X.shape[1])
    for j in range(X.shape[1]):
        perms = [rng.permutation(len(X)) for _ in range(repeats)]
        if not split[j]:
            continue
        drops = []
        for perm in perms:
            Xp = X.copy()
            Xp[:, j] = X[perm, j]
            drops.append(base - r2(predict_batch(forest, Xp), y))
        out[j] = float(np.mean(drops))
    return out
