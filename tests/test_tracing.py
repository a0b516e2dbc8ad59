"""The benchmark's tracing plan names functions that exist in phxai, and its
hooks read counts from what those functions return, so a deleted or renamed
traced function, or a forest the train hook cannot read, fails here, not
only in a traced run."""

import sys
from pathlib import Path

import numpy as np

import phxai

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.tracing import Tracer, _forest, install  # noqa: E402


def test_tracing_plan_finds_every_function():
    igcs = phxai.explain.igcs
    tracer = Tracer()
    install(tracer, phxai)
    try:
        tracer.check()
    finally:
        tracer.uninstall()
    assert phxai.explain.igcs is igcs   # later tests run untraced


def test_forest_hook_reads_the_node_table():
    """The traced train benchmark's counts come from `forest.trees`: the
    tree count, the nodes of all trees and the sum of their depths."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 6))
    X[:, 2] = 1.0
    forest = phxai.forest.train(X, X[:, 0] + rng.normal(size=40) * 0.1,
                                phxai.forest.TrainConfig(n_trees=7, max_features_fraction=0.5,
                                                         seed=3))
    counts = {}
    _forest(counts, (X,), forest)
    assert counts == {"varying": 5 / 6, "trees": 7, "nodes": int(forest.start[-1]),
                      "depth": int(phxai.forest.depths(forest).sum())}
    assert counts["depth"] > 7
