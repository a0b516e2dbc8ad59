import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phxai import forest as fr


def test_constant_targets_predict_constant(rng):
    X = rng.normal(size=(30, 4))
    y = np.full(30, 2.5)
    model = fr.train(X, y, fr.TrainConfig(n_trees=10, seed=1))
    for i in range(5):
        assert fr.predict(model, X[i]) == 2.5


def test_step_function_high_r2(rng):
    X = rng.uniform(-1, 1, size=(200, 1))
    y = (X[:, 0] > 0).astype(float)
    model = fr.train(X, y, fr.TrainConfig(n_trees=30, seed=0))
    preds = fr.predict_batch(model, X)
    assert fr.r2(preds, y) >= 0.99


def test_same_seed_identical_predictions(rng):
    X = rng.normal(size=(60, 5))
    y = rng.normal(size=60)
    probe = rng.normal(size=(10, 5))
    a = fr.train(X, y, fr.TrainConfig(n_trees=12, seed=7))
    b = fr.train(X, y, fr.TrainConfig(n_trees=12, seed=7))
    assert np.array_equal(fr.predict_batch(a, probe), fr.predict_batch(b, probe))


def test_degenerate_input_rejected(rng):
    with pytest.raises(ValueError):
        fr.train(np.zeros((1, 3)), np.zeros(1))
    with pytest.raises(ValueError):
        fr.train(np.zeros((5, 0)), np.zeros(5))
    X = rng.normal(size=(5, 2))
    X[0, 0] = np.nan
    with pytest.raises(ValueError):
        fr.train(X, np.zeros(5))


def test_single_tree_prediction_is_leaf_value(rng):
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    model = fr.train(X, y, fr.TrainConfig(n_trees=1, seed=3))
    probes = rng.normal(size=(10, 3))
    tree = model.trees[0]
    for x, row_pred in zip(probes, fr.predict_batch(model, probes)):
        assert fr.predict(model, x) == row_pred
        assert row_pred in tree.value[tree.feature < 0]


def test_prediction_within_target_range(rng):
    X = rng.normal(size=(80, 4))
    y = rng.uniform(5.0, 9.0, size=80)
    model = fr.train(X, y, fr.TrainConfig(n_trees=20, seed=2))
    probes = rng.normal(size=(50, 4)) * 10
    preds = fr.predict_batch(model, probes)
    assert (preds >= 5.0).all() and (preds <= 9.0).all()


def test_predict_matches_naive_traversal(rng):
    X = rng.normal(size=(50, 4))
    y = rng.normal(size=50)
    model = fr.train(X, y, fr.TrainConfig(n_trees=8, seed=5))
    x = rng.normal(size=4)

    def traverse(tree, x):
        node = 0
        while tree.feature[node] != -1:
            if x[tree.feature[node]] <= tree.threshold[node]:
                node = tree.left[node]
            else:
                node = tree.right[node]
        return tree.value[node]

    expected = np.mean([traverse(t, x) for t in model.trees])
    assert fr.predict(model, x) == pytest.approx(expected, abs=1e-15)


def test_predict_length_mismatch(rng):
    model = fr.train(rng.normal(size=(10, 3)), rng.normal(size=10),
                     fr.TrainConfig(n_trees=2, seed=0))
    with pytest.raises(ValueError):
        fr.predict(model, np.zeros(4))


# ---------------------------------------------------------------------------
# R^2

def test_r2_perfect():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert fr.r2(y, y) == 1.0


def test_r2_mean_prediction_zero():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert fr.r2(np.full(4, y.mean()), y) == 0.0


def test_r2_hand_computed():
    targets = np.array([1.0, 2.0, 3.0, 4.0])
    preds = np.array([1.5, 2.0, 2.5, 4.5])
    # SSres = 0.25 + 0 + 0.25 + 0.25 = 0.75; SStot = 5.0
    assert fr.r2(preds, targets) == pytest.approx(1 - 0.75 / 5.0, abs=1e-12)


def test_r2_constant_targets_error():
    with pytest.raises(ValueError):
        fr.r2(np.array([1.0, 2.0]), np.array([3.0, 3.0]))


# ---------------------------------------------------------------------------
# Importances

def test_unused_feature_zero_importance(rng):
    X = np.column_stack([rng.normal(size=100), np.zeros(100)])
    y = X[:, 0] * 2.0
    model = fr.train(X, y, fr.TrainConfig(n_trees=10, seed=4))
    imp = fr.impurity_importance(model)
    assert imp[1] == 0.0
    assert imp.sum() == pytest.approx(1.0, abs=1e-12)


def test_importance_concentrates_on_driving_feature(rng):
    X = rng.normal(size=(150, 5))
    y = X[:, 0]
    model = fr.train(X, y, fr.TrainConfig(n_trees=25, seed=6))
    imp = fr.impurity_importance(model)
    assert imp[0] > 0.9
    assert (imp >= 0).all()


def test_importance_zero_vector_without_splits():
    X = np.zeros((10, 3))
    y = np.full(10, 1.0)
    model = fr.train(X, y, fr.TrainConfig(n_trees=5, seed=0))
    assert not fr.impurity_importance(model).any()


def test_permutation_importance_properties(rng):
    X = np.column_stack([rng.normal(size=120), np.full(120, 3.0)])
    y = X[:, 0]
    model = fr.train(X, y, fr.TrainConfig(n_trees=20, seed=8))
    imp = fr.permutation_importance(model, X, y, repeats=3, seed=0)
    assert abs(imp[1]) < 0.01       # constant column is irrelevant
    assert imp[0] >= 0.5            # shuffling the driver collapses R^2
    again = fr.permutation_importance(model, X, y, repeats=3, seed=0)
    assert np.array_equal(imp, again)


def permutation_importance_oracle(forest, X, y, repeats, seed):
    """Re-predict every column on every repeat, split on or not."""
    rng = np.random.default_rng(seed)
    base = fr.r2(fr.predict_batch(forest, X), y)
    out = np.zeros(X.shape[1])
    for j in range(X.shape[1]):
        drops = []
        for _ in range(repeats):
            Xp = X.copy()
            Xp[:, j] = Xp[rng.permutation(len(X)), j]
            drops.append(base - fr.r2(fr.predict_batch(forest, Xp), y))
        out[j] = float(np.mean(drops))
    return out


def test_permutation_importance_skips_unsplit_columns(monkeypatch):
    rng = np.random.default_rng(3)
    n = 40
    X = np.column_stack([rng.normal(size=n), rng.normal(size=n),
                         rng.integers(0, 2, n).astype(float), np.full(n, 1.0),
                         rng.normal(size=n), np.zeros(n)])
    y = 3 * X[:, 0] + X[:, 1]
    model = fr.train(X, y, fr.TrainConfig(n_trees=4, max_features_fraction=0.5,
                                          min_samples_leaf=6, seed=2))
    split = sorted({int(f) for t in model.trees for f in t.feature[t.feature >= 0]})
    assert split == [0, 1, 4]   # column 2 varies but no tree reads it
    expected = permutation_importance_oracle(model, X, y, repeats=3, seed=7)

    calls = []
    predict_batch = fr.predict_batch

    def counting_predict_batch(forest, X):
        calls.append(1)
        return predict_batch(forest, X)

    monkeypatch.setattr(fr, "predict_batch", counting_predict_batch)
    imp = fr.permutation_importance(model, X, y, repeats=3, seed=7)
    assert np.array_equal(imp, expected)
    assert not np.signbit(imp[[2, 3, 5]]).any() and not imp[[2, 3, 5]].any()
    assert len(calls) == 1 + 3 * len(split)


# ---------------------------------------------------------------------------
# Split search

def best_split_oracle(Xn, yn, cols, min_leaf):
    """Try every (column, distinct-value gap) candidate one by one; keep
    the first best in (feature index, threshold) order."""
    n = len(yn)
    tot = float(yn.sum())
    best = None
    for f in np.argsort(cols, kind="stable"):
        values = np.unique(Xn[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            left = Xn[:, f] <= lo
            nl, nr = float(left.sum()), float(n - left.sum())
            if nl < min_leaf or nr < min_leaf:
                continue
            cl = float(yn[left].sum())
            score = cl ** 2 / nl + (tot - cl) ** 2 / nr
            if best is None or score > best[0]:
                best = (score, int(cols[f]), (lo + hi) / 2.0)
    if best is None:
        return None
    y_sq = float(np.dot(yn, yn))
    sse_parent = y_sq - tot ** 2 / n
    return best[1], float(best[2]), sse_parent - (y_sq - best[0])


@settings(max_examples=200)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 14), st.integers(1, 5),
       st.integers(1, 3), st.integers(1, 4), st.booleans())
@example(0, 3, 1, 1, 3, False)
def test_best_split_matches_brute_force(seed, n, d, min_leaf, levels, duplicates):
    """Integer targets keep every sum exact, so the fast search and the
    brute force must agree bit for bit, ties included: few value levels
    tie thresholds and scores, one level makes a column constant, and
    `duplicates` repeats whole rows and copies the first column last.
    Each example checks ten draws, as a tie decides only about one in a
    hundred."""
    rng = np.random.default_rng(seed)
    for _ in range(10):
        X = rng.integers(0, levels, size=(n, d)).astype(float) * 0.5
        y = rng.integers(-2, 3, size=n).astype(float)
        if duplicates:
            rows = rng.integers(0, max(1, n // 2), size=n)
            X, y = X[rows], y[rows]
            X[:, -1] = X[:, 0]
        cols = np.sort(rng.choice(3 * d, size=d, replace=False))
        assert fr._best_split(X, y, cols, min_leaf) == best_split_oracle(X, y, cols, min_leaf)


# ---------------------------------------------------------------------------
# Tree growth

def grow_tree_oracle(X, y, sample_idx, config, rng):
    """Grow one tree on every column of X: each node copies and scans all
    of them (or all it drew) and keeps those that vary over its rows."""
    d = X.shape[1]
    n_total = len(sample_idx)
    n_sub = max(1, int(np.ceil(config.max_features_fraction * d)))
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
            cols = np.sort(rng.choice(d, size=n_sub, replace=False))
        else:
            cols = np.arange(d)
        Xn = X[np.ix_(idx, cols)]
        varying = Xn.min(axis=0) < Xn.max(axis=0)
        if not varying.any():
            continue
        split = fr._best_split(Xn[:, varying], yn, cols[varying], config.min_samples_leaf)
        if split is None:
            continue
        f, thr, gain = split
        go_left = X[idx, f] <= thr
        if not go_left.any() or go_left.all():
            continue
        feature[slot] = f
        threshold[slot] = thr
        decrease[slot] = gain / n_total
        l_slot, r_slot = new_node(), new_node()
        left[slot], right[slot] = l_slot, r_slot
        stack.append((idx[~go_left], r_slot))
        stack.append((idx[go_left], l_slot))
    return dict(feature=feature, threshold=threshold, left=left, right=right, value=value,
                n_samples=n_samples, decrease=decrease)


def train_oracle(X, y, config):
    """`train` with every tree grown by `grow_tree_oracle`, from the same
    per-tree seeds, joined by the constructor `train` uses."""
    trees = []
    for ss in np.random.SeedSequence(config.seed).spawn(config.n_trees):
        rng = np.random.default_rng(ss)
        trees.append(grow_tree_oracle(X, y, rng.integers(0, len(X), size=len(X)), config, rng))
    return fr.Forest.from_trees(trees, config, X.shape[1])


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 24), st.integers(1, 12),
       st.integers(1, 3), st.sampled_from([0.05, 0.3, 1.0]), st.integers(1, 4),
       st.booleans())
@example(0, 6, 5, 1, 0.3, 1, False)
def test_train_matches_full_table_oracle(seed, n, d, min_leaf, fraction, levels, duplicates):
    """Trees grown on the varying columns equal trees grown on the full
    table, node array for node array. Few value levels tie values and
    make columns constant, about a third of the columns are constant by
    construction, `duplicates` repeats whole rows, and the targets are
    floats."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n, d)).astype(float) * 0.5
    X[:, rng.random(d) < 0.35] = rng.normal()
    y = rng.normal(size=n)
    if duplicates:
        rows = rng.integers(0, max(1, n // 2), size=n)
        X, y = X[rows], y[rows]
    config = fr.TrainConfig(n_trees=4, max_features_fraction=fraction,
                            min_samples_leaf=min_leaf, seed=seed)
    assert fr.train(X, y, config).to_dict() == train_oracle(X, y, config).to_dict()


def test_all_constant_columns_grow_single_leaves():
    """With no column varying, every tree is its root leaf, as the full-table
    grower makes it."""
    X = np.column_stack([np.full(12, 1.5), np.zeros(12), np.full(12, -2.0)])
    y = np.arange(12, dtype=float)
    for fraction in (0.3, 1.0):
        config = fr.TrainConfig(n_trees=5, max_features_fraction=fraction, seed=3)
        model = fr.train(X, y, config)
        assert all(len(t.feature) == 1 and t.feature[0] == -1 for t in model.trees)
        assert model.to_dict() == train_oracle(X, y, config).to_dict()


# ---------------------------------------------------------------------------
# The node table against per-tree walks

def tree_predict_oracle(tree, X):
    """One tree's leaf values for the rows of X, walked level by level."""
    node = np.zeros(len(X), dtype=np.int64)
    internal = tree.feature[node] >= 0
    while internal.any():
        idx = np.flatnonzero(internal)
        f = tree.feature[node[idx]]
        go_left = X[idx, f] <= tree.threshold[node[idx]]
        node[idx] = np.where(go_left, tree.left[node[idx]], tree.right[node[idx]])
        internal = tree.feature[node] >= 0
    return tree.value[node]


def predict_batch_oracle(forest, X):
    acc = np.zeros(len(X))
    for tree in forest.trees:
        acc += tree_predict_oracle(tree, X)
    return acc / len(forest.trees)


def tree_depth_oracle(tree):
    level, depth = np.zeros(1, dtype=np.int64), 0
    while True:
        level = level[tree.feature[level] >= 0]
        if not len(level):
            return depth
        level = np.concatenate((tree.left[level], tree.right[level]))
        depth += 1


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 30), st.integers(1, 6),
       st.integers(1, 40), st.sampled_from([0.3, 1.0]), st.integers(1, 4),
       st.integers(1, 4), st.sampled_from([1, 25]))
@example(0, 2, 1, 3, 1.0, 1, 1, 1)    # two rows, one column of one level: lone leaves
@example(1, 30, 6, 40, 0.3, 3, 4, 25)
def test_predict_batch_matches_per_tree_walks(seed, n, d, n_trees, fraction, min_leaf,
                                              levels, rows):
    """The one walk over the node table gives every row the float the
    per-tree walks summed in tree order give, bit for bit, and each tree
    the depth of its own level walk. Few value levels make constant
    columns and lone-leaf trees; the probe rows reach far outside the
    training range and also sit exactly on split thresholds."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n, d)).astype(float) * 0.5
    y = rng.normal(size=n)
    model = fr.train(X, y, fr.TrainConfig(n_trees=n_trees, max_features_fraction=fraction,
                                          min_samples_leaf=min_leaf, seed=seed))
    probes = rng.normal(size=(rows, d)) * 5
    thresholds = model.nodes.threshold[model.nodes.feature >= 0]
    if len(thresholds):
        probes[: rows // 2] = rng.choice(thresholds, size=(rows // 2, d))
    for P in (probes, probes[:1]):
        assert fr.predict_batch(model, P).tobytes() == predict_batch_oracle(model, P).tobytes()
    assert fr.depths(model).tolist() == [tree_depth_oracle(t) for t in model.trees]


def test_impurity_importance_matches_per_tree_sums(rng):
    X = rng.normal(size=(60, 8))
    y = X[:, 0] + 0.5 * X[:, 3] ** 2 + rng.normal(size=60) * 0.1
    model = fr.train(X, y, fr.TrainConfig(n_trees=12, max_features_fraction=0.5, seed=2))
    total = np.zeros(model.feature_count)
    for t in model.trees:
        internal = t.feature >= 0
        np.add.at(total, t.feature[internal], t.decrease[internal])
    total /= len(model.trees)
    assert fr.impurity_importance(model).tobytes() == (total / total.sum()).tobytes()


def test_structural_fault_names_the_lowest_tree(rng):
    """Tree 1 has a split feature out of range and tree 2 a child that loops
    to its root: the lower tree is named, though its check comes later."""
    model = fr.train(rng.normal(size=(30, 3)), rng.normal(size=30),
                     fr.TrainConfig(n_trees=3, seed=1))
    d = model.to_dict()
    d["trees"][1]["feature"][0] = 3
    d["trees"][2]["left"][0] = 0
    with pytest.raises(ValueError, match=r"^tree 1: a split feature is outside \[0, 3\)$"):
        fr.Forest.from_dict(d)
    d["trees"][1]["feature"][0] = 0
    with pytest.raises(ValueError, match="^tree 2: an internal node's child does not lie"):
        fr.Forest.from_dict(d)


# ---------------------------------------------------------------------------
# Serialization

def test_model_roundtrip(rng):
    X = rng.normal(size=(40, 4))
    y = rng.normal(size=40)
    model = fr.train(X, y, fr.TrainConfig(n_trees=6, seed=9))
    back = fr.Forest.from_dict(model.to_dict())
    probe = rng.normal(size=(20, 4))
    assert np.array_equal(fr.predict_batch(model, probe), fr.predict_batch(back, probe))


def test_model_format_tag_checked():
    with pytest.raises(ValueError):
        fr.Forest.from_dict({"format": "something-else", "config": {}, "trees": [],
                             "feature_count": 1})
