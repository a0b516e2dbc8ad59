"""Tests of the benchmark's own output checks: each passes on a real CLI
output and fails on a deliberately wrong one.

    python3 -m pytest perfbench/test_checks.py -q
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from phxai import cli, xai  # noqa: E402
from phxai.geometry import PARAM_NAMES  # noqa: E402

from perfbench import checks, run, tracing, workloads  # noqa: E402
from perfbench.checks import CheckFailed  # noqa: E402

def phxai(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(a) for a in argv]) == 0, argv


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """A small dataset run through every command the benchmark uses."""
    out = tmp_path_factory.mktemp("bench")
    manifest = out / "manifest.json"
    phxai("gen-data", "--count", 10, "--seed", 3, "--out", out)
    phxai("pipeline", manifest, "--stages", "ph,vectorize,train,predict",
          "--trees", 6, "--holdout", 3, "--seed", 1)
    m = json.loads(manifest.read_text())
    target = m["items"][2]["id"]
    for mode in ("pixels", "params", "higher"):
        phxai("explain", manifest, "--mode", mode, "--target", target)
    phxai("explain", manifest, "--mode", "grid", "--target", target, "--cohort-size", 4)
    return out, m


def expect_failure(fn, *args):
    with pytest.raises(CheckFailed):
        fn(*args)


def item_files(data, k=2):
    out, m = data
    item = m["items"][k]
    return (checks.read_xyz(out / item["cloud"]),
            checks.read_diagram(out / "diagrams" / f"{item['id']}.json"), item)


# ---------------------------------------------------------------------------
# featurize

def test_full_complex(data):
    pts, dg, _ = item_files(data)
    checks.check_full_complex(pts, dg)
    longest = max(range(len(dg)), key=lambda i: dg[i][2] - dg[i][1])
    expect_failure(checks.check_full_complex, pts, dg[:longest] + dg[longest + 1:])
    moved = list(dg)
    d, b, e = moved[longest]
    moved[longest] = (d, b, e + 1e-3)
    expect_failure(checks.check_full_complex, pts, moved)


def test_relabel_invariance(data):
    pts, dg, _ = item_files(data)
    radius = data[1]["rips"]["max_radius"]
    checks.check_relabel_invariance(pts, dg, lambda p: workloads.program_diagram(p, radius),
                                    np.random.default_rng(0))
    # an order-dependent featurizer: drops whichever point comes last
    expect_failure(checks.check_relabel_invariance, pts, dg,
                   lambda p: workloads.program_diagram(p[:-1], radius),
                   np.random.default_rng(0))


def test_deaths_within_enclosing_radius(data):
    pts, dg, _ = item_files(data)
    checks.check_deaths_within_enclosing_radius(pts, dg)
    radius = checks.enclosing_radius(pts)
    expect_failure(checks.check_deaths_within_enclosing_radius, pts,
                   dg + [(1, radius - 1.0, radius + 0.5)])


def test_target(data):
    pts, _, item = item_files(data)
    m = data[1]
    checks.check_target(pts, item["target"], m["probe_radius"], m["grid"])
    three_cells = 3 * 100.0 / m["grid"]["cells_per_axis"] ** 3
    expect_failure(checks.check_target, pts, item["target"] + three_cells,
                   m["probe_radius"], m["grid"])


def test_features(data):
    out, m = data
    ids, X = checks.read_features(out / "features.csv")
    item_ids = [it["id"] for it in m["items"]]
    checks.check_features(ids, X, item_ids)
    bad = X.copy()
    bad[1, 7] = -1e-3
    expect_failure(checks.check_features, ids, bad, item_ids)
    bad[1, 7] = np.nan
    expect_failure(checks.check_features, ids, bad, item_ids)
    expect_failure(checks.check_features, ids, X[:, :-1], item_ids)
    expect_failure(checks.check_features, ids[::-1], X, item_ids)


# ---------------------------------------------------------------------------
# train

@pytest.fixture(scope="module")
def trained(data):
    out, _ = data
    model = json.loads((out / "model.json").read_text())
    items = json.loads((out / "manifest.json").read_text())["items"]
    X = checks.read_features(out / "features.csv")[1]
    preds = [it["prediction"] for it in items]
    y = np.array([it["target"] for it in items])
    return model, X, preds, y


def test_predictions(trained):
    model, X, preds, _ = trained
    checks.check_predictions(model, X, preds)
    off = list(preds)
    off[4] = float(np.nextafter(off[4], np.inf))
    expect_failure(checks.check_predictions, model, X, off)


def test_tree_counts(trained):
    model = trained[0]
    checks.check_tree_counts(model, 7)
    expect_failure(checks.check_tree_counts, model, 8)
    bad = copy.deepcopy(model)
    t = bad["trees"][0]
    node = next(i for i, f in enumerate(t["feature"]) if f >= 0)
    t["n_samples"][t["left"][node]] += 1
    expect_failure(checks.check_tree_counts, bad, 7)


def test_leaf_range(trained):
    model, _, _, y = trained
    checks.check_leaf_range(model, y[:7])
    bad = copy.deepcopy(model)
    t = bad["trees"][1]
    leaf = next(i for i, f in enumerate(t["feature"]) if f < 0)
    t["value"][leaf] = float(y[:7].max()) + 0.01
    expect_failure(checks.check_leaf_range, bad, y[:7])


def test_holdout_r2(data, trained):
    _, _, preds, y = trained
    reported = workloads.last_holdout_r2(data[0])
    checks.check_holdout_r2(reported, preds[7:], y[7:])
    expect_failure(checks.check_holdout_r2, reported + 1e-6, preds[7:], y[7:])


def test_training_fit(trained):
    _, _, preds, y = trained
    checks.check_training_fit(preds[:7], y[:7], 0.0)
    expect_failure(checks.check_training_fit, np.full(7, y[:7].mean() + 1.0), y[:7], 0.0)


# ---------------------------------------------------------------------------
# explain

@pytest.fixture(scope="module")
def explained(data, trained):
    out, m = data
    att = out / "attributions"
    target = m["items"][2]["id"]
    flat = np.concatenate([checks.read_grid(att / f"pixels_{target}_h{k}.csv").ravel()
                           for k in (1, 2)])
    return att, target, flat


def test_pixel_completeness(explained):
    att, target, flat = explained
    meta = json.loads((att / f"pixels_{target}.json").read_text())
    checks.check_completeness(flat, meta["baseline"], meta["total"],
                              checks.IGCS_50_STEP_TOL, "pixels")
    bad = flat.copy()
    bad[100] += 0.1
    expect_failure(checks.check_completeness, bad, meta["baseline"], meta["total"],
                   checks.IGCS_50_STEP_TOL, "pixels")


def test_igcs_oracle(trained, explained):
    _, X, preds, _ = trained
    _, _, flat = explained
    oracle = checks.igcs_oracle(X, np.array(preds), 2, workloads.RATIO, workloads.IGCS_STEPS,
                                xai.multilinear_gradient, xai.CohortIndicatorMatrix)
    checks.check_igcs(flat, oracle)
    bad = flat.copy()
    k = int(np.argmax(np.abs(flat)))
    bad[k] *= 1.001
    expect_failure(checks.check_igcs, bad, oracle)


def test_params(data, trained, explained):
    _, m = data
    att, target, _ = explained
    params = [tuple(it["params"][k] for k in PARAM_NAMES) for it in m["items"]]
    y = np.array(trained[2])
    record = json.loads((att / f"params_{target}.json").read_text())
    checks.check_params(record, params, y, 2)
    swapped = dict(record, values=record["values"][::-1])
    if swapped["values"] != record["values"]:
        expect_failure(checks.check_params, swapped, params, y, 2)
    nudged = dict(record, values=[record["values"][0] + 1e-6] + record["values"][1:])
    expect_failure(checks.check_params, nudged, params, y, 2)


def test_higher(explained):
    att, target, flat = explained
    meta = json.loads((att / f"higher_{target}.json").read_text())
    maps = {name: np.concatenate([
                checks.read_grid(att / f"higher_{target}_{name}_h{k}.csv").ravel()
                for k in (1, 2)])
            for name in PARAM_NAMES}
    checks.check_higher(maps, flat, meta["computed_pixels"], meta["pixel_baseline"])
    bad = dict(maps, edge=maps["edge"].copy())
    bad["edge"][meta["computed_pixels"][0]] += 1e-6
    expect_failure(checks.check_higher, bad, flat, meta["computed_pixels"],
                   meta["pixel_baseline"])


def test_grid(data, explained):
    out, m = data
    att, target, _ = explained
    record = json.loads((att / f"grid_{target}.json").read_text())
    n = workloads.point_count(out / m["items"][2]["cloud"])
    checks.check_grid(record, n)
    bad = copy.deepcopy(record)
    cell = next(c for c in bad["cells"] if c["point_indices"])
    bad["points"][cell["point_indices"][0]]["value"] += 1e-9
    expect_failure(checks.check_grid, bad, n)
    bad = dict(record, dropped_cells=record["dropped_cells"] + 1)
    expect_failure(checks.check_grid, bad, n)
    bad = copy.deepcopy(record)
    bad["cells"][0]["value"] += 0.1
    expect_failure(checks.check_grid, bad, n)


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what the runner reports

def test_benchmark_json_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = dict(run.command_figures([]))
    layers.update({k: (0.0, u) for k, u in run.ARTIFACT_FIGURES.items()})
    layers.update(run.layer_metrics(run.Layers(tracing.Tracer(), 1)))
    layers.update({"trace.overhead_pct": (0.0, "%"), "trace.rounds": (0.0, "count"),
                   "trace.spans_per_round": (0.0, "count")})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: u for k, (_, u) in layers.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# The benchmark's own machinery

def test_replay_draw(data):
    """balanced_seed relies on replaying gen-data's draw of items."""
    out, m = data
    params = workloads.vocabulary()[0]
    assert [it["params"] for it in m["items"]] == \
        [params[i] for i in workloads.replay_draw(m["seed"], len(m["items"]))]


def test_balanced_seed():
    n = workloads.vocabulary()[1]
    c4 = n * (n - 1) * (n - 2) * (n - 3)
    s = workloads.balanced_seed(1, 12, 1, 0)
    assert s == workloads.balanced_seed(1, 12, 1, 0)
    chosen = workloads.replay_draw(s, 12)
    assert abs(c4[chosen].mean() / c4.mean() - 1) <= workloads.DRAW_TOL
    assert abs(n[chosen].mean() / n.mean() - 1) <= workloads.DRAW_TOL


def test_tracing_reports_what_it_cannot_trace():
    import types
    module = types.ModuleType("phxai.fake")
    module.f = lambda x: x
    tracer = tracing.Tracer()
    tracer.wrap(module, "f", "fake.f", lambda counts, args, result: result.missing)
    tracer.wrap(module, "gone", "fake.gone")
    assert module.f(3) == 3     # a failing hook does not reach the caller
    with pytest.raises(AssertionError) as err:
        tracer.check()
    assert "phxai.fake.gone" in str(err.value) and "counts of fake.f" in str(err.value)
    tracer.check()              # errors are reported once
    tracer.uninstall()
