import numpy as np
import pytest

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
