import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phxai import cli
from phxai import explain as ex
from phxai import forest as forest_mod
from phxai import geometry as geo
from phxai import parallel
from phxai import persistence as ph
from phxai import vectorize as vec


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    assert run("gen-data", "--count", 12, "--seed", 3, "--out", out) == 0
    assert run("pipeline", out / "manifest.json", "--stages",
               "ph,vectorize,train,predict", "--trees", 15, "--seed", 1) == 0
    return out


def test_gen_data_writes_clouds_and_manifest(tmp_path):
    out = tmp_path / "d"
    assert run("gen-data", "--count", 4, "--seed", 9, "--out", out) == 0
    m = json.loads((out / "manifest.json").read_text())
    assert len(m["items"]) == 4
    assert len({i["id"] for i in m["items"]}) == 4
    for item in m["items"]:
        assert (out / item["cloud"]).exists()
        assert item["target"] >= 0


def test_gen_data_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run("gen-data", "--count", 5, "--seed", 4, "--out", a)
    run("gen-data", "--count", 5, "--seed", 4, "--out", b)
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    for f in sorted((a / "clouds").iterdir()):
        assert f.read_bytes() == (b / "clouds" / f.name).read_bytes()


def test_gen_data_count_over_vocabulary(tmp_path):
    assert run("gen-data", "--count", 99999, "--seed", 0, "--out", tmp_path / "x") == 2


def test_gen_data_distinct_params(tmp_path):
    out = tmp_path / "d"
    run("gen-data", "--count", 40, "--seed", 11, "--out", out)
    m = json.loads((out / "manifest.json").read_text())
    combos = {tuple(sorted(i["params"].items())) for i in m["items"]}
    assert len(combos) == 40


def test_pipeline_outputs_exist(dataset):
    assert (dataset / "features.csv").exists()
    assert (dataset / "model.json").exists()
    m = json.loads((dataset / "manifest.json").read_text())
    assert all(i["prediction"] is not None for i in m["items"])
    assert len(list((dataset / "diagrams").iterdir())) == 12
    assert len(list((dataset / "landscapes").iterdir())) == 24


def test_pipeline_rerun_byte_identical(dataset, tmp_path):
    before = (dataset / "features.csv").read_bytes()
    model_before = (dataset / "model.json").read_bytes()
    assert run("pipeline", dataset / "manifest.json", "--stages",
               "ph,vectorize,train,predict", "--trees", 15, "--seed", 1) == 0
    assert (dataset / "features.csv").read_bytes() == before
    assert (dataset / "model.json").read_bytes() == model_before


def test_features_csv_matches_in_memory_featurize_and_scorer(dataset):
    """The diagram-JSON round trip loses nothing: every features.csv row is
    the in-memory PH -> landscapes -> features vector of its cloud, and the
    grid scorer reproduces the manifest's predictions bit for bit."""
    m = cli.load_manifest(dataset / "manifest.json")
    ids, X = cli._load_features(m)
    h1s, h2s = cli._manifest_specs(m)
    score = cli._pipeline_scorer(m, cli._load_model(m))
    assert ids == [item["id"] for item in m["items"]]
    for item, row in zip(m["items"], X):
        cloud = geo.load_xyz(dataset / item["cloud"])
        pairs = ph.reduce(ph.build_rips(geo.pairwise_distances(cloud),
                                        m["rips"]["max_dim"], m["rips"]["max_radius"]))
        assert np.array_equal(vec.features(*vec.landscapes(pairs, h1s, h2s)), row)
        assert score(cloud) == item["prediction"]


@pytest.mark.parametrize("stages, parses", [("train,predict", 1),
                                             ("vectorize,train,predict", 0)])
def test_pipeline_parses_features_csv_at_most_once(dataset, tmp_path, monkeypatch,
                                                   stages, parses):
    copy = tmp_path / "d"
    shutil.copytree(dataset, copy)
    calls = []
    read = cli._read_features

    def counting_read(path):
        calls.append(path)
        return read(path)

    monkeypatch.setattr(cli, "_read_features", counting_read)
    assert run("pipeline", copy / "manifest.json", "--stages", stages,
               "--trees", 3, "--holdout", 2) == 0
    assert len(calls) == parses


def _edit_json(path, edit):
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def _edit_csv_line(path, lineno, edit):
    lines = path.read_text().splitlines()
    lines[lineno - 1] = edit(lines[lineno - 1])
    path.write_text("\n".join(lines) + "\n")


def _set_first_tree(key, pos, value):
    def edit(model):
        model["trees"][0][key][pos] = value
    return edit


def _leaf_with_child(model):
    tree = model["trees"][0]
    leaf = tree["feature"].index(-1)
    tree["left"][leaf] = len(tree["feature"]) - 1


def _feature_out_of_range(model):
    tree = model["trees"][0]
    tree["feature"][0] = model["feature_count"]


BAD_INPUTS = {
    "features_short_row": ("train,predict", "features.csv, line 3", lambda d: _edit_csv_line(
        d / "features.csv", 3, lambda line: line.rsplit(",", 1)[0])),
    "features_non_numeric": ("train,predict", "features.csv, line 2", lambda d: _edit_csv_line(
        d / "features.csv", 2, lambda line: line + "x")),
    "manifest_format_version": ("predict", "format_version", lambda d: _edit_json(
        d / "manifest.json", lambda m: m.update(format_version="2"))),
    "manifest_no_items": ("predict", "missing key 'items'", lambda d: _edit_json(
        d / "manifest.json", lambda m: m.pop("items"))),
    "manifest_empty_items": ("ph,vectorize", "no items", lambda d: _edit_json(
        d / "manifest.json", lambda m: m.update(items=[]))),
    "manifest_no_rips": ("predict", "missing key 'rips'", lambda d: _edit_json(
        d / "manifest.json", lambda m: m.pop("rips"))),
    "manifest_no_histograms": ("predict", "missing key 'histograms'", lambda d: _edit_json(
        d / "manifest.json", lambda m: m.pop("histograms"))),
    "manifest_no_rips_max_dim": ("ph", "manifest.json: missing key 'rips.max_dim'",
                                 lambda d: _edit_json(
        d / "manifest.json", lambda m: m["rips"].pop("max_dim"))),
    "manifest_no_rips_max_radius": ("ph", "manifest.json: missing key 'rips.max_radius'",
                                    lambda d: _edit_json(
        d / "manifest.json", lambda m: m["rips"].pop("max_radius"))),
    "manifest_no_histograms_h1": ("vectorize", "manifest.json: missing key 'histograms.h1'",
                                  lambda d: _edit_json(
        d / "manifest.json", lambda m: m["histograms"].pop("h1"))),
    "manifest_no_histograms_h2": ("ph,vectorize", "manifest.json: missing key 'histograms.h2'",
                                  lambda d: _edit_json(
        d / "manifest.json", lambda m: m["histograms"].pop("h2"))),
    "manifest_rips_not_object": ("ph", "manifest.json: 'rips' is not an object",
                                 lambda d: _edit_json(
        d / "manifest.json", lambda m: m.update(rips=[3, 35.8]))),
    "manifest_histograms_not_object": ("vectorize", "manifest.json: 'histograms' is not an object",
                                       lambda d: _edit_json(
        d / "manifest.json", lambda m: m.update(histograms="h1"))),
    "manifest_rips_max_dim_not_int": ("ph,vectorize", "manifest.json: 'rips.max_dim' must be an integer",
                                      lambda d: _edit_json(
        d / "manifest.json", lambda m: m["rips"].update(max_dim="3"))),
    "manifest_rips_max_radius_not_number": ("ph,vectorize",
                                            "manifest.json: 'rips.max_radius' must be a number",
                                            lambda d: _edit_json(
        d / "manifest.json", lambda m: m["rips"].update(max_radius="x"))),
    "manifest_rips_max_radius_nan": ("ph", "max_radius must be positive", lambda d: _edit_json(
        d / "manifest.json", lambda m: m["rips"].update(max_radius=float("nan")))),
    "manifest_rips_max_radius_inf": ("ph", "'rips.max_radius' is inf; max_radius must be positive",
                                     lambda d: _edit_json(
        d / "manifest.json", lambda m: m["rips"].update(max_radius=float("inf")))),
    "manifest_no_grid": ("predict", "manifest.json: missing key 'grid'", lambda d: _edit_json(
        d / "manifest.json", lambda m: m.pop("grid"))),
    "manifest_grid_cell_size_not_number": (
        "predict", "manifest.json: 'grid.cell_size' must be a finite number",
        lambda d: _edit_json(d / "manifest.json", lambda m: m["grid"].update(cell_size="x"))),
    "manifest_item_no_params": ("predict", "manifest.json: missing key 'items.1.params'",
                                lambda d: _edit_json(
        d / "manifest.json", lambda m: m["items"][1].pop("params"))),
    "manifest_item_params_no_edge": ("predict",
                                     "manifest.json: missing key 'items.1.params.edge'",
                                     lambda d: _edit_json(
        d / "manifest.json", lambda m: m["items"][1]["params"].pop("edge"))),
    "manifest_item_no_target": ("predict", "manifest.json: missing key 'items.1.target'",
                                lambda d: _edit_json(
        d / "manifest.json", lambda m: m["items"][1].pop("target"))),
    "manifest_item_target_not_number": ("predict",
                                        "manifest.json: 'items.1.target' must be a finite number",
                                        lambda d: _edit_json(
        d / "manifest.json", lambda m: m["items"][1].update(target="abc"))),
    "manifest_item_prediction_not_number": ("predict", "manifest.json: 'items.1.prediction'"
                                            " must be null or a finite number",
                                            lambda d: _edit_json(
        d / "manifest.json", lambda m: m["items"][1].update(prediction="abc"))),
    "manifest_histogram_no_bins": ("ph,vectorize",
                                   "manifest.json: missing key 'histograms.h1.bins_per_axis'",
                                   lambda d: _edit_json(
        d / "manifest.json", lambda m: m["histograms"]["h1"].pop("bins_per_axis"))),
    "manifest_item_not_object": ("ph,vectorize", "manifest.json: 'items.0' is not an object",
                                 lambda d: _edit_json(
        d / "manifest.json", lambda m: m.update(items=[1]))),
    "manifest_items_not_list": ("ph,vectorize", "manifest.json: 'items' must be a list",
                                lambda d: _edit_json(
        d / "manifest.json", lambda m: m.update(items=5))),
    "manifest_item_id_not_string": ("ph,vectorize", "manifest.json: 'items.1.id' must be a string",
                                    lambda d: _edit_json(
        d / "manifest.json", lambda m: m["items"][1].update(id=7))),
    "manifest_item_cloud_not_string": ("ph,vectorize",
                                       "manifest.json: 'items.1.cloud' must be a string",
                                       lambda d: _edit_json(
        d / "manifest.json", lambda m: m["items"][1].update(cloud=5))),
    "manifest_item_no_id": ("predict", "manifest.json: missing key 'items.1.id'", lambda d: _edit_json(
        d / "manifest.json", lambda m: m["items"][1].pop("id"))),
    "manifest_item_no_cloud": ("predict", "manifest.json: missing key 'items.1.cloud'", lambda d: _edit_json(
        d / "manifest.json", lambda m: m["items"][1].pop("cloud"))),
    "manifest_histogram_birth_max_not_number": (
        "ph,vectorize", "manifest.json: 'histograms.h1.birth_max' must be a finite number",
        lambda d: _edit_json(d / "manifest.json",
                             lambda m: m["histograms"]["h1"].update(birth_max="x"))),
    "manifest_histogram_bins_float": (
        "ph,vectorize", "manifest.json: 'histograms.h1.bins_per_axis' must be an integer",
        lambda d: _edit_json(d / "manifest.json",
                             lambda m: m["histograms"]["h1"].update(bins_per_axis=54.7))),
    "manifest_histogram_bins_string": (
        "ph,vectorize", "manifest.json: 'histograms.h1.bins_per_axis' must be an integer",
        lambda d: _edit_json(d / "manifest.json",
                             lambda m: m["histograms"]["h1"].update(bins_per_axis="54"))),
    "manifest_histogram_persistence_max_bool": (
        "ph,vectorize", "manifest.json: 'histograms.h2.persistence_max' must be a finite number",
        lambda d: _edit_json(d / "manifest.json",
                             lambda m: m["histograms"]["h2"].update(persistence_max=True))),
    "manifest_histogram_blur_sigma_inf": (
        "ph,vectorize", "manifest.json: 'histograms.h1.blur_sigma' must be a finite number",
        lambda d: _edit_json(d / "manifest.json",
                             lambda m: m["histograms"]["h1"].update(blur_sigma=float("inf")))),
    "manifest_histogram_dimension_swapped": (
        "ph,vectorize", "manifest.json: 'histograms.h1.dimension' must be 1, not 2",
        lambda d: _edit_json(d / "manifest.json",
                             lambda m: m["histograms"]["h1"].update(dimension=2))),
    "manifest_histogram_birth_max_negative": (
        "ph,vectorize", "manifest.json: 'histograms.h1': birth_max must be positive",
        lambda d: _edit_json(d / "manifest.json",
                             lambda m: m["histograms"]["h1"].update(birth_max=-1.0))),
    "manifest_histogram_bins_differ": (
        "ph,vectorize", "manifest.json: 'histograms.h2.bins_per_axis' is 40",
        lambda d: _edit_json(d / "manifest.json",
                             lambda m: m["histograms"]["h2"].update(bins_per_axis=40))),
    "manifest_item_params_not_object": ("predict", "manifest.json: 'items.1.params' is not an object",
                                        lambda d: _edit_json(
        d / "manifest.json", lambda m: m["items"][1].update(params="cube"))),
    "features_nan_predict": ("predict", "features.csv, line 3", lambda d: _edit_csv_line(
        d / "features.csv", 3, lambda line: line.rsplit(",", 1)[0] + ",nan")),
    "features_inf_train": ("train", "features.csv, line 4", lambda d: _edit_csv_line(
        d / "features.csv", 4, lambda line: line.rsplit(",", 1)[0] + ",inf")),
    "cloud_non_numeric": ("ph", "item_0003.xyz: line 4: non-numeric coordinate",
                          lambda d: _edit_csv_line(
        d / "clouds" / "item_0003.xyz", 4, lambda line: line.rsplit(" ", 1)[0] + " x")),
    "cloud_nan": ("ph", "item_0003.xyz: point coordinates must be finite",
                  lambda d: _edit_csv_line(
        d / "clouds" / "item_0003.xyz", 4, lambda line: line.rsplit(" ", 1)[0] + " nan")),
    "model_child_loops_to_root": ("predict", "does not lie after it", lambda d: _edit_json(
        d / "model.json", _set_first_tree("left", 0, 0))),
    "model_child_out_of_range": ("predict", "does not lie after it", lambda d: _edit_json(
        d / "model.json", _set_first_tree("right", 0, 10 ** 6))),
    "model_ragged_arrays": ("predict", "equal length", lambda d: _edit_json(
        d / "model.json", lambda model: model["trees"][0]["value"].pop())),
    "model_leaf_with_child": ("predict", "leaf", lambda d: _edit_json(
        d / "model.json", _leaf_with_child)),
    "model_feature_out_of_range": ("predict", "split feature", lambda d: _edit_json(
        d / "model.json", _feature_out_of_range)),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_inputs_exit_2_with_message(dataset, tmp_path, case):
    """Each corrupt input fails fast with exit code 2 and a message naming
    the culprit; run in a child process so a hang fails the test."""
    stages, message, corrupt = BAD_INPUTS[case]
    copy = tmp_path / "d"
    shutil.copytree(dataset, copy)
    corrupt(copy)
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "phxai.cli", "pipeline",
                           str(copy / "manifest.json"), "--stages", stages, "--trees", "3"],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr


def test_cli_import_leaves_scipy_out():
    """The runtime needs numpy alone: importing the CLI loads no scipy."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c",
                           "import phxai.cli, sys; sys.exit('scipy' in sys.modules)"],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr


def tree_depth(tree: dict) -> int:
    """Depth of a model.json tree, node by node: children follow their parent."""
    depth = [0] * len(tree["feature"])
    for node, f in enumerate(tree["feature"]):
        if f >= 0:
            depth[tree["left"][node]] = depth[tree["right"][node]] = depth[node] + 1
    return max(depth)


def test_pipeline_run_log_records_stage_counts(dataset, tmp_path):
    """The pipeline records of run_log.jsonl carry the ph and vectorize
    counts, summed over the items: recomputed here cloud by cloud, with
    histogram windows narrow enough that pairs are dropped. A record with
    train carries each tree's node count and depth and the size of
    model.json."""
    copy = tmp_path / "d"
    shutil.copytree(dataset, copy)
    assert run("pipeline", copy / "manifest.json", "--stages", "vectorize",
               "--h1-pers-max", 1.0, "--h2-pers-max", 0.5) == 0
    records = [r for r in map(json.loads, (copy / "run_log.jsonl").read_text().splitlines())
               if r["command"] == "pipeline"]
    ph_record, vectorize_record = records[0], records[-1]
    assert "ph" not in vectorize_record and "train" not in vectorize_record
    model = json.loads((copy / "model.json").read_text())
    assert ph_record["train"] == {"nodes": [len(t["feature"]) for t in model["trees"]],
                                  "depth": [tree_depth(t) for t in model["trees"]],
                                  "model_bytes": (copy / "model.json").stat().st_size}
    assert max(ph_record["train"]["depth"]) > 1
    assert len(ph_record["train"]["nodes"]) == 15
    m = cli.load_manifest(copy / "manifest.json")
    h1s, h2s = cli._manifest_specs(m)
    simplices = [0] * 4
    pairs = {"h1": 0, "h2": 0}
    dropped = {"h1": 0, "h2": 0}
    for item in m["items"]:
        cloud = geo.load_xyz(dataset / item["cloud"])
        f = ph.build_rips(geo.pairwise_distances(cloud), 3, m["rips"]["max_radius"])
        simplices = [total + f.count(d) for d, total in enumerate(simplices)]
        item_pairs = ph.reduce(f)
        for dim in (1, 2):
            pairs[f"h{dim}"] += len(ph.diagram(item_pairs, dim))
        img1, img2 = vec.landscapes(item_pairs, h1s, h2s)
        dropped["h1"] += img1.dropped
        dropped["h2"] += img2.dropped
    assert ph_record["ph"] == {"points": simplices[0], "simplices": simplices, "pairs": pairs}
    assert vectorize_record["vectorize"] == {"dropped": dropped}
    assert dropped["h1"] > 0 and dropped["h2"] > 0
    assert simplices[0] == sum(len(geo.load_xyz(dataset / i["cloud"])) for i in m["items"])


@pytest.fixture(scope="module")
def dataset14(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds14")
    assert run("gen-data", "--count", 14, "--seed", 6, "--out", out) == 0
    return out


def _pipeline_with_cpus(monkeypatch, capsys, dataset, copy, cpus):
    """Copy `dataset` to `copy` and run every pipeline stage on it with
    map_in_order seeing `cpus` CPUs: the exit code and standard error, with
    `copy` in it written as <dir>."""
    shutil.copytree(dataset, copy)
    monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
    capsys.readouterr()
    code = run("pipeline", copy / "manifest.json", "--stages", "ph,vectorize,train,predict",
               "--trees", 9, "--holdout", 3, "--seed", 4)
    assert multiprocessing.active_children() == []
    return code, capsys.readouterr().err.replace(str(copy), "<dir>")


def test_pipeline_outputs_do_not_depend_on_the_cpu_count(dataset14, tmp_path, monkeypatch,
                                                          capsys):
    """Per-item persistence and per-tree training in one process or spread
    over two: every file the pipeline writes, the run log included, is the
    same byte for byte."""
    files = {}
    for cpus in (1, 2):
        out = tmp_path / f"cpus{cpus}"
        assert _pipeline_with_cpus(monkeypatch, capsys, dataset14, out, cpus) == (0, "")
        files[cpus] = {str(f.relative_to(out)): f.read_bytes()
                       for f in sorted(out.rglob("*")) if f.is_file()}
    assert len(files[1]) == 14 * 4 + 4  # clouds, diagrams, 2 landscapes per item
    assert files[1] == files[2]


def test_pipeline_bad_clouds_fail_alike_in_one_and_two_processes(dataset14, tmp_path,
                                                                 monkeypatch, capsys):
    """With two corrupt clouds, both runs exit 2 with the error of the
    earlier item, whichever process met the later one first."""
    bad = tmp_path / "bad"
    shutil.copytree(dataset14, bad)
    _edit_csv_line(bad / "clouds" / "item_0003.xyz", 4,
                   lambda line: line.rsplit(" ", 1)[0] + " x")
    _edit_csv_line(bad / "clouds" / "item_0009.xyz", 3,
                   lambda line: line.rsplit(" ", 1)[0] + " nan")
    outcomes = {cpus: _pipeline_with_cpus(monkeypatch, capsys, bad, tmp_path / f"cpus{cpus}",
                                          cpus) for cpus in (1, 2)}
    assert outcomes[1] == outcomes[2]
    code, err = outcomes[2]
    assert code == 2
    assert err == "error: <dir>/clouds/item_0003.xyz: line 4: non-numeric coordinate\n"


def test_pipeline_blur_wider_than_axis(dataset, tmp_path):
    """At --h2-pers-max 0.2 the H2 persistence-axis blur kernel reaches 121
    bins, past the 54-bin axis."""
    copy = tmp_path / "d"
    shutil.copytree(dataset, copy)
    assert run("pipeline", copy / "manifest.json", "--stages", "vectorize",
               "--h2-pers-max", 0.2) == 0


def test_pipeline_histogram_flag_keeps_other_spec_fields(tmp_path):
    """An override flag changes only its own field: the H2 spec keeps its
    own blur_sigma, which no flag names, and H1 is left as it was."""
    out = tmp_path / "d"
    assert run("gen-data", "--count", 3, "--seed", 2, "--out", out) == 0
    _edit_json(out / "manifest.json", lambda m: m["histograms"]["h2"].update(blur_sigma=0.3))
    h1 = json.loads((out / "manifest.json").read_text())["histograms"]["h1"]
    assert run("pipeline", out / "manifest.json", "--stages", "ph,vectorize",
               "--h2-pers-max", 3.0) == 0
    histograms = json.loads((out / "manifest.json").read_text())["histograms"]
    assert histograms["h2"]["blur_sigma"] == 0.3
    assert histograms["h2"]["persistence_max"] == 3.0
    assert histograms["h1"] == h1


def _set_dotted(obj, key, value):
    *parents, last = key.split(".")
    for step in parents:
        obj = obj[int(step)] if isinstance(obj, list) else obj[step]
    if value is None:
        del obj[last]
    else:
        obj[last] = value


_TABLE_KEYS = ([".".join(steps) for steps in cli.MANIFEST_FIELDS]
               + [".".join(("items", "1") + steps) for steps in cli.ITEM_FIELDS])


@pytest.mark.parametrize("key", _TABLE_KEYS)
def test_manifest_field_table_names_the_dotted_key(dataset, tmp_path, key):
    """Every field of the table, left out or given a value of no JSON type
    it allows, is a data error naming its dotted key; only `prediction` may
    be left out."""
    manifest = json.loads((dataset / "manifest.json").read_text())
    (tmp_path / "clouds").symlink_to(dataset / "clouds")
    for value, message in ((None, f"missing key '{key}'"), ({}, f"'{key}' must be ")):
        _set_dotted(manifest, key, value)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        if key == "items.1.prediction" and value is None:
            assert "prediction" not in cli.load_manifest(tmp_path / "manifest.json")["items"][1]
            continue
        with pytest.raises(cli.DataError) as err:
            cli.load_manifest(tmp_path / "manifest.json")
        assert f"manifest.json: {message}" in str(err.value)


NAN_FLAGS = {
    "probe_radius": (["gen-data", "--count", 2, "--seed", 2, "--out", "{d}/g",
                      "--probe-radius", "nan"], "probe_radius must be positive"),
    "probe_radius_inf": (["gen-data", "--count", 2, "--seed", 2, "--out", "{d}/g",
                          "--probe-radius", "inf"], "probe_radius must be positive"),
    "max_radius": (["gen-data", "--count", 2, "--seed", 2, "--out", "{d}/g",
                    "--max-radius", "nan"], "max_radius must be positive"),
    "max_radius_negative": (["gen-data", "--count", 2, "--seed", 2, "--out", "{d}/g",
                             "--max-radius", -1], "max_radius must be positive"),
    "max_radius_inf": (["gen-data", "--count", 2, "--seed", 2, "--out", "{d}/g",
                        "--max-radius", "inf"], "max_radius must be positive"),
    "pipeline_max_radius_inf": (["pipeline", "{d}/manifest.json", "--stages", "ph",
                                 "--max-radius", "inf"], "max_radius must be positive"),
    "h1_pers_max": (["pipeline", "{d}/manifest.json", "--stages", "ph,vectorize",
                     "--h1-pers-max", "nan"], "persistence_max must be positive"),
    "sigma": (["pipeline", "{d}/manifest.json", "--stages", "vectorize",
               "--sigma", "nan"], "blur_sigma must be >= 0"),
    "sigma_inf": (["pipeline", "{d}/manifest.json", "--stages", "vectorize",
                   "--sigma", "inf"], "blur_sigma must be >= 0"),
    "sigma_overflows_in_bins": (["pipeline", "{d}/manifest.json", "--stages", "vectorize",
                                 "--sigma", "1e308"], "blur_sigma must be >= 0"),
    "h1_birth_max_inf": (["pipeline", "{d}/manifest.json", "--stages", "vectorize",
                          "--h1-birth-max", "inf"], "birth_max must be positive"),
    "pixel_quantile": (["explain", "{d}/manifest.json", "--mode", "higher",
                        "--target", "item_0000", "--pixel-quantile", 2],
                       "quantile must be in [0, 1]"),
    "pixel_quantile_nan": (["explain", "{d}/manifest.json", "--mode", "higher",
                            "--target", "item_0000", "--pixel-quantile", "nan"],
                           "quantile must be in [0, 1]"),
    "ratio": (["explain", "{d}/manifest.json", "--mode", "pixels", "--target", "item_0000",
               "--ratio", "nan"], "ratio must be in (0, 1]"),
    "perturb_length": (["explain", "{d}/manifest.json", "--mode", "grid",
                        "--target", "item_0000", "--cohort-size", 2,
                        "--perturb-length", "nan"], "length must be positive"),
}


@pytest.mark.parametrize("case", sorted(NAN_FLAGS))
def test_nan_flag_exits_2_naming_the_parameter(dataset, tmp_path, capsys, case):
    """NaN fails every `x > 0` comparison, so it must not pass a positivity
    check written as `x <= 0`; a probe radius must be finite as well."""
    argv, message = NAN_FLAGS[case]
    copy = tmp_path / "d"
    shutil.copytree(dataset, copy)
    assert run(*(str(a).format(d=copy) for a in argv)) == 2
    assert message in capsys.readouterr().err


def test_gen_data_bad_probe_radius_writes_nothing(tmp_path):
    out = tmp_path / "g"
    assert run("gen-data", "--count", 2, "--seed", 2, "--out", out,
               "--probe-radius", "inf") == 2
    assert not out.exists()


def test_pipeline_run_log_records_every_flag(dataset, tmp_path):
    """The pipeline record holds every flag, with the parsed stages and the
    effective radius and histograms laid over them; the keys it held
    before keep their values."""
    copy = tmp_path / "d"
    shutil.copytree(dataset, copy)
    assert run("pipeline", copy / "manifest.json", "--stages", "vectorize,train",
               "--trees", 3, "--holdout", 2, "--max-features", 0.4, "--min-leaf", 2,
               "--importance", "impurity", "--sigma", 0.2, "--h2-pers-max", 3.0) == 0
    record = json.loads((copy / "run_log.jsonl").read_text().splitlines()[-1])
    m = json.loads((copy / "manifest.json").read_text())
    flags = {"max_features": 0.4, "min_leaf": 2, "importance": "impurity", "sigma": 0.2,
             "h2_pers_max": 3.0, "bins": None, "h1_birth_max": None, "h1_pers_max": None,
             "h2_birth_max": None}
    assert {k: record[k] for k in flags} == flags
    old = {"command": "pipeline", "stages": ["vectorize", "train"], "trees": 3,
           "seed": 0, "holdout": 2, "max_radius": m["rips"]["max_radius"],
           "histograms": m["histograms"], "format_version": cli.FORMAT_VERSION}
    assert {k: record[k] for k in old} == old
    assert m["histograms"]["h2"]["persistence_max"] == 3.0
    assert set(record) == set(flags) | set(old) | {"vectorize", "train", "holdout_r2"}


def test_pipeline_feature_subsampling_and_min_leaf(dataset, tmp_path):
    copy = tmp_path / "d"
    shutil.copytree(dataset, copy)
    argv = ("pipeline", copy / "manifest.json", "--stages", "ph,vectorize,train",
            "--max-features", 0.3, "--min-leaf", 3, "--trees", 5)
    assert run(*argv) == 0
    first = (copy / "model.json").read_bytes()
    model = json.loads(first)
    assert model["config"]["max_features_fraction"] == 0.3
    assert model["config"]["min_samples_leaf"] == 3
    for tree in model["trees"]:
        n_samples = tree["n_samples"]
        internal = [k for k, f in enumerate(tree["feature"]) if f >= 0]
        assert internal
        for k in internal:
            assert n_samples[tree["left"][k]] >= 3 and n_samples[tree["right"][k]] >= 3
    assert run(*argv) == 0
    assert (copy / "model.json").read_bytes() == first

def test_explain_uses_the_stored_predictions(dataset, tmp_path, capsys):
    """`train` clears the predictions of the model it replaces, explain
    modes that read them exit 2 until `predict` runs again, and the pixel
    maps then explain exactly what `predict` stored."""
    copy = tmp_path / "d"
    shutil.copytree(dataset, copy)
    manifest = copy / "manifest.json"
    assert run("pipeline", manifest, "--stages", "train", "--trees", 4, "--seed", 2) == 0
    assert all(item["prediction"] is None
               for item in json.loads(manifest.read_text())["items"])
    for mode in ("pixels", "params", "higher"):
        capsys.readouterr()
        assert run("explain", manifest, "--mode", mode, "--target", "item_0001") == 2
        assert "pipeline --stages predict" in capsys.readouterr().err
    assert run("pipeline", manifest, "--stages", "predict") == 0
    assert run("explain", manifest, "--mode", "pixels", "--target", "item_0001",
               "--steps", 10, "--top-k", 1) == 0
    m = cli.load_manifest(manifest)
    _, X = cli._load_features(m)
    att = ex.pixel_attribution(X, forest_mod.predict_batch(cli._load_model(m), X), 1,
                               steps=10)
    for dim, grid in enumerate(vec.split_features(att.values), start=1):
        cli._write_grid_csv(tmp_path / "expected.csv", grid)
        written = copy / "attributions" / f"pixels_item_0001_h{dim}.csv"
        assert written.read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_pipeline_missing_stage_inputs(tmp_path):
    out = tmp_path / "d"
    run("gen-data", "--count", 3, "--seed", 2, "--out", out)
    assert run("pipeline", out / "manifest.json", "--stages", "vectorize") == 2


def test_pipeline_sigma_zero_equals_raw_histograms(tmp_path):
    out = tmp_path / "d"
    run("gen-data", "--count", 3, "--seed", 6, "--out", out)
    assert run("pipeline", out / "manifest.json", "--stages", "ph,vectorize",
               "--sigma", 0) == 0
    m = cli.load_manifest(out / "manifest.json")
    item = m["items"][0]
    records = json.loads((out / "diagrams" / f"{item['id']}.json").read_text())
    spec = vec.HistogramSpec(1, 27.0, 8.8, 54, 0.0)
    pairs = [ph.PersistencePair(r["dim"], r["birth"], r["death"], -1, -1)
             for r in records if r["dim"] == 1]
    raw = vec.histogram(ph.diagram(pairs, 1), spec)
    written = cli.read_grid_csv(out / "landscapes" / f"{item['id']}_h1.csv")
    assert np.array_equal(written, raw.values)


def test_staged_equals_single_invocation(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run("gen-data", "--count", 5, "--seed", 8, "--out", out)
    assert run("pipeline", a / "manifest.json", "--stages", "ph,vectorize,train",
               "--trees", 8) == 0
    for stage in ("ph", "vectorize", "train"):
        assert run("pipeline", b / "manifest.json", "--stages", stage,
                   "--trees", 8) == 0
    assert (a / "features.csv").read_bytes() == (b / "features.csv").read_bytes()
    assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()


def test_train_importance_flag(tmp_path):
    out = tmp_path / "d"
    run("gen-data", "--count", 6, "--seed", 13, "--out", out)
    assert run("pipeline", out / "manifest.json", "--stages", "ph,vectorize,train",
               "--trees", 5, "--importance", "impurity") == 0
    vals = [float(v) for v in (out / "importance_impurity.csv").read_text().split()]
    assert len(vals) == 5832
    assert all(v >= 0 for v in vals)


def test_explain_params_efficiency(dataset):
    assert run("explain", dataset / "manifest.json", "--mode", "params",
               "--target", "item_0002") == 0
    rec = json.loads((dataset / "attributions" / "params_item_0002.json").read_text())
    assert len(rec["values"]) == 4
    assert sum(rec["values"]) == pytest.approx(rec["total"] - rec["baseline"], abs=1e-9)


def test_explain_pixels_writes_grids_and_cycles(dataset):
    assert run("explain", dataset / "manifest.json", "--mode", "pixels",
               "--target", "item_0001", "--steps", 25, "--top-k", 2) == 0
    h1 = cli.read_grid_csv(dataset / "attributions" / "pixels_item_0001_h1.csv")
    assert h1.shape == (54, 54)
    meta = json.loads((dataset / "attributions" / "pixels_item_0001.json").read_text())
    assert meta["steps"] == 25
    cycles = json.loads((dataset / "attributions" / "cycles_item_0001.json").read_text())
    assert cycles, "expected at least one influential-pixel record"


def test_explain_grid_cohort(dataset):
    assert run("explain", dataset / "manifest.json", "--mode", "grid",
               "--target", "item_0000", "--cohort-size", 5, "--steps", 25) == 0
    rec = json.loads((dataset / "attributions" / "grid_item_0000.json").read_text())
    cell_sum = sum(c["value"] for c in rec["cells"])
    assert cell_sum == pytest.approx(rec["total"] - rec["baseline"], abs=1e-2)
    for cell in rec["cells"]:
        if cell["point_indices"]:
            per_point = [rec["points"][i]["value"] for i in cell["point_indices"]]
            assert len(set(per_point)) == 1


def test_explain_higher_quantile_contract(dataset):
    assert run("explain", dataset / "manifest.json", "--mode", "higher",
               "--target", "item_0000", "--pixel-quantile", 0.95, "--steps", 10) == 0
    rec = json.loads((dataset / "attributions" / "higher_item_0000.json").read_text())
    assert len(rec["computed_pixels"]) <= 0.05 * 5832 + 1
    for name in ("template", "node1", "node2", "edge"):
        grid = cli.read_grid_csv(dataset / "attributions" / f"higher_item_0000_{name}_h1.csv")
        assert grid.shape == (54, 54)


def test_explain_unknown_target(dataset):
    assert run("explain", dataset / "manifest.json", "--mode", "params",
               "--target", "item_9999") == 2


def test_explain_reproducible(dataset):
    run("explain", dataset / "manifest.json", "--mode", "params", "--target", "item_0003")
    first = (dataset / "attributions" / "params_item_0003.json").read_bytes()
    run("explain", dataset / "manifest.json", "--mode", "params", "--target", "item_0003")
    assert (dataset / "attributions" / "params_item_0003.json").read_bytes() == first


# ---------------------------------------------------------------------------
# render

def test_render_all_zero_diverging_is_midgray(tmp_path):
    src = tmp_path / "z.csv"
    src.write_text("\n".join(",".join("0.0" for _ in range(54)) for _ in range(54)) + "\n")
    out = tmp_path / "z.pgm"
    assert run("render", src, out, "--palette", "diverging") == 0
    data = out.read_bytes()
    header, rest = data.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    assert dims == b"54 54"
    _, pixels = rest.split(b"\n", 1)
    assert set(pixels) == {128}


def test_render_dimensions_and_sidecar(tmp_path, rng):
    grid = rng.normal(size=(54, 54))
    src = tmp_path / "g.csv"
    src.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in grid) + "\n")
    out = tmp_path / "g.pgm"
    assert run("render", src, out, "--palette", "sequential") == 0
    payload = out.read_bytes()
    assert payload.startswith(b"P5\n54 54\n255\n")
    assert len(payload) == len(b"P5\n54 54\n255\n") + 54 * 54
    side = json.loads((tmp_path / "g.pgm.json").read_text())
    assert side["min"] == grid.min() and side["max"] == grid.max()


def test_render_color_ppm(tmp_path):
    src = tmp_path / "c.csv"
    src.write_text("1.0,-1.0\n0.0,0.5\n")
    out = tmp_path / "c.ppm"
    assert run("render", src, out, "--palette", "diverging", "--color") == 0
    assert out.read_bytes().startswith(b"P6\n2 2\n255\n")


def test_render_bad_input(tmp_path):
    src = tmp_path / "bad.csv"
    src.write_text("1,2\n3\n")
    assert run("render", src, tmp_path / "x.pgm") == 2


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "x"])
def test_render_bad_cell_names_file_and_line(tmp_path, capsys, cell):
    src = tmp_path / "bad.csv"
    src.write_text(f"1.0,2.0\n\n3.0,{cell}\n")
    assert run("render", src, tmp_path / "x.pgm") == 2
    assert f"bad.csv, line 3: expected 2 finite numbers" in capsys.readouterr().err
    assert not (tmp_path / "x.pgm").exists()


def test_usage_error_exit_code():
    assert run("explain") == 1
