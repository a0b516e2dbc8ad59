"""From-scratch random-forest regressor.

Trees are grown CART-style on bootstrap samples with the squared-error
criterion; split points are midpoints between consecutive distinct sorted
feature values, with impurity ties broken by lowest feature index and then
lowest threshold so training is a pure function of (X, y, config). Trees
are grown on the columns that vary over the training rows, the only ones
that can split, and their split features index the full feature layout.
Trees are stored as flat arrays, which keeps prediction vectorizable and
the model file a plain JSON document.
"""

from __future__ import annotations

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


@dataclass
class Tree:
    """Flat node arrays; `feature` is -1 at leaves and `value` is the leaf mean.

    `decrease` holds each internal node's weighted impurity decrease
    (split gain divided by the training sample count), the raw material of
    impurity importance.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    decrease: np.ndarray

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(len(X), dtype=np.int64)
        internal = self.feature[node] >= 0
        while internal.any():
            idx = np.flatnonzero(internal)
            f = self.feature[node[idx]]
            go_left = X[idx, f] <= self.threshold[node[idx]]
            node[idx] = np.where(go_left, self.left[node[idx]], self.right[node[idx]])
            internal = self.feature[node] >= 0
        return self.value[node]

    def depth(self) -> int:
        """Edges on the longest root-to-leaf path, 0 for a lone leaf."""
        level, depth = np.zeros(1, dtype=np.int64), 0
        while True:
            level = level[self.feature[level] >= 0]
            if not len(level):
                return depth
            level = np.concatenate((self.left[level], self.right[level]))
            depth += 1


# Tree's node arrays, in field order, with their dtypes
_TREE_ARRAYS = {"feature": np.int64, "threshold": float, "left": np.int64, "right": np.int64,
                "value": float, "n_samples": np.int64, "decrease": float}


def _tree(arrays) -> Tree:
    return Tree(*(np.array(a, dtype=dtype) for a, dtype in zip(arrays, _TREE_ARRAYS.values())))


def _check_tree(k: int, tree: Tree, feature_count: int) -> None:
    """Reject node arrays that a tree walk could loop on or index past:
    internal nodes must point strictly forward (the grower always appends
    children after their parent), leaves must have no children, and split
    features must lie in [0, feature_count)."""
    n = len(tree.feature)
    arrays = [getattr(tree, name) for name in _TREE_ARRAYS]
    if n == 0 or any(a.ndim != 1 or len(a) != n for a in arrays):
        raise ValueError(f"tree {k}: node arrays must be non-empty and of equal length")
    internal = tree.feature >= 0
    nodes = np.flatnonzero(internal)
    for child in (tree.left, tree.right):
        if ((child[internal] <= nodes) | (child[internal] >= n)).any():
            raise ValueError(f"tree {k}: an internal node's child does not lie after it")
        if (child[~internal] != -1).any():
            raise ValueError(f"tree {k}: a leaf has a child")
    if (tree.feature < -1).any() or (tree.feature >= feature_count).any():
        raise ValueError(f"tree {k}: a split feature is outside [0, {feature_count})")


@dataclass
class Forest:
    trees: list[Tree]
    config: TrainConfig
    feature_count: int

    def to_dict(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "config": self.config.to_dict(),
            "feature_count": self.feature_count,
            "trees": [{name: getattr(t, name).tolist() for name in _TREE_ARRAYS}
                      for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Forest":
        if d.get("format") != MODEL_FORMAT:
            raise ValueError(f"unsupported model format {d.get('format')!r}")
        trees = [_tree(t[name] for name in _TREE_ARRAYS) for t in d["trees"]]
        feature_count = int(d["feature_count"])
        if not trees:
            raise ValueError("model has no trees")
        for k, tree in enumerate(trees):
            _check_tree(k, tree, feature_count)
        return cls(trees, TrainConfig.from_dict(d["config"]), feature_count)


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
               d: int, config: TrainConfig, rng: np.random.Generator) -> Tree:
    """Grow one tree on `Xv`, the columns `cols` (ascending) of a table `d`
    wide that vary over the training rows; split features index the full
    table. With `max_features_fraction < 1` each node draws from all `d`
    columns and keeps the drawn ones in `cols`: a constant column never
    splits, so the tree and the random stream are those of the full table."""
    n_total = len(sample_idx)
    n_sub = max(1, int(np.ceil(config.max_features_fraction * d)))
    position = np.full(d, -1)  # full column index -> column of Xv
    position[cols] = np.arange(len(cols))
    feature, threshold, left, right, value, n_samples, decrease = [], [], [], [], [], [], []

    def new_node():
        for a in (feature, threshold, left, right, value, n_samples, decrease):
            a.append(0)
        return len(feature) - 1

    stack = [(sample_idx, new_node())]
    while stack:
        idx, slot = stack.pop()
        yn = y[idx]
        n_samples[slot] = len(idx)
        value[slot] = float(yn.mean())
        feature[slot] = -1
        threshold[slot] = 0.0
        left[slot] = right[slot] = -1
        decrease[slot] = 0.0
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
        feature[slot] = f
        threshold[slot] = thr
        decrease[slot] = gain / n_total
        l_slot, r_slot = new_node(), new_node()
        left[slot], right[slot] = l_slot, r_slot
        stack.append((idx[~go_left], r_slot))
        stack.append((idx[go_left], l_slot))
    return _tree((feature, threshold, left, right, value, n_samples, decrease))


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

    def grow(ss: np.random.SeedSequence) -> Tree:
        rng = np.random.default_rng(ss)
        return _grow_tree(Xv, y, rng.integers(0, n, size=n), cols, d, config, rng)

    seeds = np.random.SeedSequence(config.seed).spawn(config.n_trees)
    return Forest(map_in_order(grow, seeds), config, d)


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
    acc = np.zeros(len(X))
    for t in forest.trees:
        acc += t.predict_batch(X)
    return acc / len(forest.trees)


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
    for t in forest.trees:
        internal = t.feature >= 0
        np.add.at(total, t.feature[internal], t.decrease[internal])
    total /= len(forest.trees)
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
    split = np.zeros(X.shape[1], dtype=bool)
    for t in forest.trees:
        split[t.feature[t.feature >= 0]] = True
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
