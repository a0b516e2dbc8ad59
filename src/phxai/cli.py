"""Command-line driver.

Subcommands compose through files: `gen-data` writes clouds and a manifest,
`pipeline` runs the persistence / vectorize / train / predict stages over
them, `explain` produces attribution artifacts, and `render` turns any grid
CSV into a portable PGM/PPM image. Every command is deterministic given its
flags and seeds, and every run appends its effective configuration to a run
log next to the manifest.

Exit codes: 0 success, 1 usage error, 2 data error, 3 resource error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import explain as explain_mod
from . import forest as forest_mod
from . import geometry as geo
from . import persistence as ph
from . import vectorize as vec
from .parallel import map_in_order
from .xai import DEFAULT_RATIO, DEFAULT_STEPS, CohortSizeError, SimilaritySpec

FORMAT_VERSION = "1"
DEFAULT_MAX_RADIUS = ph.DEFAULT_MAX_RADIUS
DEFAULT_PROBE_RADIUS = 2.0


class DataError(ValueError):
    """Bad or missing input data; maps to exit code 2."""


# ---------------------------------------------------------------------------
# File helpers

def _atomic_write_bytes(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _write_json(path: Path, obj) -> None:
    _atomic_write_bytes(path, (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode())


def _csv_row(row: np.ndarray) -> str:
    return ",".join(map(repr, row.tolist()))


def _write_grid_csv(path: Path, grid: np.ndarray) -> list[str]:
    """Write one CSV line per grid row; return the lines."""
    lines = [_csv_row(row) for row in grid]
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())
    return lines


def _write_pixel_grids(stem: Path, flat: np.ndarray) -> list[str]:
    """Write a flat vector in `features` order as `<stem>_h1.csv` and
    `<stem>_h2.csv`, one bins x bins grid each; return their lines, H1 then
    H2, which joined by commas are `_csv_row(flat)`."""
    return [line for dim, grid in enumerate(vec.split_features(flat), start=1)
            for line in _write_grid_csv(Path(f"{stem}_h{dim}.csv"), grid)]


def _parse_rows(path, numbered_lines, width: int, skip: int = 0) -> np.ndarray:
    """The `(line number, line)` pairs of a CSV file as an array `width`
    wide, the first `skip` cells of each line left out. A row of another
    width, or a cell that is not a finite number, is a data error naming
    the file and the line."""
    def bad(lineno):
        return DataError(f"{path}, line {lineno}: expected {width} finite numbers")
    linenos, rows = [], []
    for lineno, line in numbered_lines:
        cells = line.split(",")[skip:]
        try:
            if len(cells) != width:
                raise ValueError
            rows.append(np.array(cells, dtype=float))
        except ValueError:
            raise bad(lineno) from None
        linenos.append(lineno)
    values = np.array(rows, dtype=float).reshape(len(rows), width)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise bad(linenos[int(np.argmin(finite))])
    return values


def _read_text(path: Path) -> str:
    """An input file's text; a missing file or non-UTF-8 bytes are a data error."""
    try:
        return Path(path).read_text()
    except FileNotFoundError:
        raise DataError(f"{path}: not found") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None


def read_grid_csv(path) -> np.ndarray:
    lines = [(lineno, line) for lineno, line in
             enumerate(_read_text(path).splitlines(), start=1) if line.strip()]
    if not lines:
        raise DataError(f"{path}: empty grid")
    return _parse_rows(path, lines, len(lines[0][1].split(",")))


def _check_max_radius(max_radius: float, where: str = "") -> None:
    if not 0 < max_radius < math.inf:  # NaN too; inf is not valid JSON
        raise DataError(f"{where}max_radius must be positive and finite")


def _flags(args) -> dict:
    """The command's flags for its run-log record, paths left out."""
    return {k: v for k, v in vars(args).items() if k not in ("func", "out", "manifest")}


def _append_run_log(out_dir: Path, record: dict) -> None:
    record = dict(record, format_version=FORMAT_VERSION)
    with open(out_dir / "run_log.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    return _is_number(v) and -math.inf < v < math.inf  # NaN fails both


def _by_steps(fields: dict) -> dict:
    return {tuple(key.split(".")): check for key, check in fields.items()}


_FINITE, _INT, _STR = ((_is_finite, "a finite number"), (_is_int, "an integer"),
                       (lambda v: isinstance(v, str), "a string"))
# Each manifest field by dotted key: a check of its JSON type and what the
# check asks for. JSON has no NaN or Infinity, but Python's parser reads
# both. Value rules (positive, >= 1) are the spec constructors' and
# `_check_max_radius`'s, so manifest values and CLI flags meet the same rule.
MANIFEST_FIELDS = _by_steps({
    "rips.max_dim": (lambda v: _is_int(v) and v in (2, 3), "an integer 2 or 3"),
    "rips.max_radius": (_is_number, "a number"),
    "grid.origin": (lambda v: isinstance(v, list) and len(v) == 3 and all(map(_is_finite, v)),
                    "a list of three numbers"),
    "grid.cell_size": _FINITE, "grid.cells_per_axis": _INT,
    **{f"histograms.h{d}.{name}": check for d in (1, 2) for name, check in (
        ("dimension", (lambda v, d=d: _is_int(v) and v == d, str(d))), ("birth_max", _FINITE),
        ("persistence_max", _FINITE), ("bins_per_axis", _INT), ("blur_sigma", _FINITE))},
    "items": (lambda v: isinstance(v, list), "a list"),
})
# The fields of each item, below `items.<k>`. A field whose check accepts
# null may be left out.
ITEM_FIELDS = _by_steps({
    "id": _STR, "cloud": _STR, **{f"params.{name}": _STR for name in geo.PARAM_NAMES},
    "target": _FINITE, "prediction": (lambda v: v is None or _is_finite(v),
                                      "null or a finite number"),
})
# The fields of each `diagrams/<id>.json` record, below its index.
DIAGRAM_FIELDS = _by_steps({"dim": _INT, "birth": _FINITE, "death": _FINITE})


def _check_fields(path: Path, obj: dict, fields: dict, where: tuple = ()) -> None:
    """Walk each field's steps down from `obj`, whose own dotted key is
    `where`, and check the value reached. No field repeats a step."""
    for steps, (ok, what) in fields.items():
        value = obj
        try:
            for step in steps:
                value = value[step]
        except TypeError:
            at = ".".join(where + steps[:steps.index(step)])
            raise DataError(f"{path}: '{at}' is not an object") from None
        except KeyError:
            if step != steps[-1] or not ok(None):
                at = ".".join(where + steps[:steps.index(step) + 1])
                raise DataError(f"{path}: missing key '{at}'") from None
            value = None
        if not ok(value):
            raise DataError(f"{path}: '{'.'.join(where + steps)}' must be {what},"
                            f" not {value!r}")


def _read_json(path: Path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from None


def load_manifest(path) -> dict:
    path = Path(path)
    m = _read_json(path)
    if not isinstance(m, dict):
        raise DataError(f"{path}: not a JSON object")
    if m.get("format_version") != FORMAT_VERSION:
        raise DataError(f"{path}: format_version {m.get('format_version')!r},"
                        f" expected {FORMAT_VERSION!r}")
    _check_fields(path, m, MANIFEST_FIELDS)
    max_radius = m["rips"]["max_radius"]
    _check_max_radius(max_radius, f"{path}: 'rips.max_radius' is {max_radius!r}; ")
    for key, spec, fields in (("grid", geo.GridSpec, m["grid"]),
                              ("histograms.h1", vec.HistogramSpec, m["histograms"]["h1"]),
                              ("histograms.h2", vec.HistogramSpec, m["histograms"]["h2"])):
        try:
            spec.from_dict(fields)
        except ValueError as exc:
            raise DataError(f"{path}: '{key}': {exc}") from None
    bins = {key: m["histograms"][key]["bins_per_axis"] for key in ("h1", "h2")}
    if bins["h1"] != bins["h2"]:  # the two images share one feature layout
        raise DataError(f"{path}: 'histograms.h2.bins_per_axis' is {bins['h2']}, but"
                        f" 'histograms.h1.bins_per_axis' is {bins['h1']}; they must be equal")
    if not m["items"]:
        raise DataError(f"{path}: no items")
    for k, item in enumerate(m["items"]):
        _check_fields(path, item, ITEM_FIELDS, ("items", str(k)))
    ids = [item["id"] for item in m["items"]]
    if len(set(ids)) != len(ids):
        raise DataError("manifest item ids are not unique")
    m.update(_dir=path.parent, _path=path)
    return m


def _save_manifest(m: dict) -> None:
    clean = {k: v for k, v in m.items() if not k.startswith("_")}
    _write_json(m["_path"], clean)


def _manifest_specs(m: dict):
    return [vec.HistogramSpec.from_dict(m["histograms"][key]) for key in ("h1", "h2")]


def _item_index(m: dict, item_id: str) -> int:
    for i, item in enumerate(m["items"]):
        if item["id"] == item_id:
            return i
    raise DataError(f"unknown item id {item_id!r}")


def _load_cloud(m: dict, item: dict) -> geo.PointCloud:
    path = m["_dir"] / item["cloud"]
    try:
        return geo.load_xyz(path)
    except FileNotFoundError:
        raise DataError(f"{path}: not found") from None
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def _read_features(path: Path) -> tuple[list[str], np.ndarray]:
    lines = _read_text(path).splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    X = _parse_rows(path, enumerate(lines[1:], start=2), len(lines[0].split(",")) - 1, skip=1)
    return [line.split(",", 1)[0] for line in lines[1:]], X


def _load_features(m: dict) -> tuple[list[str], np.ndarray]:
    """The feature table, parsed at most once per command: the vectorize
    stage leaves what it wrote on the manifest dict."""
    if "_features" not in m:
        path = m["_dir"] / "features.csv"
        if not path.exists():
            raise DataError("features.csv not found; run `pipeline --stages vectorize` first")
        m["_features"] = _read_features(path)
    return m["_features"]


def _load_model(m: dict) -> forest_mod.Forest:
    """The model, read and checked at most once per command: the train
    stage leaves the forest it wrote on the manifest dict."""
    if "_model" not in m:
        path = m["_dir"] / "model.json"
        if not path.exists():
            raise DataError("model.json not found; run `pipeline --stages train` first")
        model = _read_json(path)
        try:
            m["_model"] = forest_mod.Forest.from_dict(model)
        except (ValueError, KeyError) as exc:
            raise DataError(f"{path}: {exc}") from None
    return m["_model"]


def _predictions(m: dict) -> np.ndarray:
    preds = [item.get("prediction") for item in m["items"]]
    if any(p is None for p in preds):
        raise DataError("manifest has no predictions; run `pipeline --stages predict` first")
    return np.array(preds, dtype=float)


# ---------------------------------------------------------------------------
# gen-data

def cmd_gen_data(args) -> int:
    if args.count < 1:
        raise DataError("--count must be >= 1")
    _check_max_radius(args.max_radius)
    vocab = geo.iter_param_vectors()
    if args.count > len(vocab):
        raise DataError(f"--count {args.count} exceeds the {len(vocab)} distinct"
                        " parameter vectors")
    rng = np.random.default_rng(args.seed)
    chosen = rng.permutation(len(vocab))[:args.count]
    synth = geo.SyntheticSpec()
    clouds, items = [], []
    for k, vi in enumerate(chosen):  # all in memory: a bad flag leaves no files
        params = vocab[int(vi)]
        cloud = geo.generate_structure(params, synth)
        item_id = f"item_{k:04d}"
        clouds.append(cloud)
        items.append({"id": item_id, "params": params.to_dict(),
                      "cloud": f"clouds/{item_id}.xyz",
                      "target": geo.synthetic_target(cloud, args.probe_radius, synth.grid),
                      "prediction": None})
    out = Path(args.out)
    (out / "clouds").mkdir(parents=True, exist_ok=True)
    for cloud, item in zip(clouds, items):
        geo.save_xyz(cloud, out / item["cloud"], comment=item["id"])
    manifest = {
        "format_version": FORMAT_VERSION,
        "dataset_id": f"synthetic-{args.seed}",
        "seed": args.seed,
        "probe_radius": args.probe_radius,
        "grid": synth.grid.to_dict(),
        "rips": {"max_dim": 3, "max_radius": args.max_radius},
        "histograms": {"h1": vec.default_spec(1).to_dict(),
                       "h2": vec.default_spec(2).to_dict()},
        "items": items,
    }
    _write_json(out / "manifest.json", manifest)
    _append_run_log(out, _flags(args))
    print(f"wrote {len(items)} items to {out}")
    return 0


# ---------------------------------------------------------------------------
# pipeline stages

def _filtration(m: dict, cloud: geo.PointCloud) -> ph.Filtration:
    return ph.build_rips(geo.pairwise_distances(cloud), m["rips"]["max_dim"],
                         m["rips"]["max_radius"])


# Each stage returns the entries it adds to the pipeline's run-log record.

def _stage_ph(m: dict, args) -> dict:
    """Write each item's diagram, the items spread over the CPUs; log points,
    simplices per dimension and pairs per dimension, summed over the items."""
    if args.max_radius is not None:
        _check_max_radius(args.max_radius)
        m["rips"]["max_radius"] = args.max_radius
    out = m["_dir"] / "diagrams"
    out.mkdir(exist_ok=True)
    dims = range(m["rips"]["max_dim"] + 1)

    def item_counts(item: dict) -> tuple[list[int], list[int]]:
        filtration = _filtration(m, _load_cloud(m, item))
        pairs = ph.reduce(filtration)
        _write_json(out / f"{item['id']}.json", ph.diagrams_to_records(pairs))
        return ([filtration.count(d) for d in dims],
                [sum(p.dimension == d for p in pairs) for d in (1, 2)])

    simplices, pairs = [0] * len(dims), [0, 0]
    for item_simplices, item_pairs in map_in_order(item_counts, m["items"]):
        simplices = [a + b for a, b in zip(simplices, item_simplices)]
        pairs = [a + b for a, b in zip(pairs, item_pairs)]
    return {"ph": {"points": simplices[0], "simplices": simplices,
                   "pairs": {"h1": pairs[0], "h2": pairs[1]}}}


def _load_pairs(path: Path) -> list[ph.PersistencePair]:
    """The pairs of a diagram file, each record checked against
    `DIAGRAM_FIELDS`; a bad record is a data error naming its index."""
    records = _read_json(path)
    if not isinstance(records, list):
        raise DataError(f"{path}: not a list of records")
    for k, record in enumerate(records):
        _check_fields(path, record, DIAGRAM_FIELDS, (str(k),))
    return [ph.PersistencePair(r["dim"], r["birth"], r["death"], -1, -1) for r in records]


def _stage_vectorize(m: dict, args) -> dict:
    """Write landscapes and features.csv; log the pairs each histogram
    dropped beyond its window, summed over the items."""
    h1s, h2s = _manifest_specs(m)
    shared = {"bins_per_axis": args.bins, "blur_sigma": args.sigma}
    overrides = [dict(shared, birth_max=args.h1_birth_max, persistence_max=args.h1_pers_max),
                 dict(shared, birth_max=args.h2_birth_max, persistence_max=args.h2_pers_max)]
    if any(v is not None for flags in overrides for v in flags.values()):
        # a field without a flag keeps its value
        h1s, h2s = (dataclasses.replace(spec, **{k: v for k, v in flags.items() if v is not None})
                    for spec, flags in zip((h1s, h2s), overrides))
        m["histograms"] = {"h1": h1s.to_dict(), "h2": h2s.to_dict()}
    land_dir = m["_dir"] / "landscapes"
    land_dir.mkdir(exist_ok=True)
    ids, rows, lines = [], [], []
    dropped = {"h1": 0, "h2": 0}
    for item in m["items"]:
        dg_path = m["_dir"] / "diagrams" / f"{item['id']}.json"
        if not dg_path.exists():
            raise DataError(f"diagram for {item['id']} not found; run --stages ph first")
        img1, img2 = vec.landscapes(_load_pairs(dg_path), h1s, h2s)
        dropped["h1"] += img1.dropped
        dropped["h2"] += img2.dropped
        row = vec.features(img1, img2)
        grid_lines = _write_pixel_grids(land_dir / item["id"], row)
        ids.append(item["id"])
        rows.append(row)
        lines.append(item["id"] + "," + ",".join(grid_lines))
    header = "id," + ",".join(f"f{i}" for i in range(len(rows[0])))
    _atomic_write_bytes(m["_dir"] / "features.csv", ("\n".join([header, *lines]) + "\n").encode())
    m["_features"] = (ids, np.array(rows))
    return {"vectorize": {"dropped": dropped}}


def _stage_train(m: dict, args) -> dict:
    """Write model.json; log the node count and depth of each tree, the
    model's size and the holdout R^2 if there is a holdout."""
    ids, X = _load_features(m)
    y = np.array([item["target"] for item in m["items"]], dtype=float)
    if ids != [item["id"] for item in m["items"]]:
        raise DataError("features.csv does not match the manifest item order")
    holdout = args.holdout
    if holdout >= len(ids) or holdout < 0:
        raise DataError("--holdout must be in [0, n_items)")
    n_train = len(ids) - holdout
    config = forest_mod.TrainConfig(n_trees=args.trees,
                                    max_features_fraction=args.max_features,
                                    min_samples_leaf=args.min_leaf,
                                    seed=args.seed)
    model = forest_mod.train(X[:n_train], y[:n_train], config)
    # every step that can fail runs before the first file is written
    log = {"holdout_r2": forest_mod.r2(forest_mod.predict_batch(model, X[n_train:]),
                                       y[n_train:])} if holdout else {}
    if args.importance == "impurity":
        imp = forest_mod.impurity_importance(model)
    elif args.importance == "permutation":
        imp = forest_mod.permutation_importance(model, X[:n_train], y[:n_train],
                                                repeats=3, seed=args.seed)
    model_path = m["_dir"] / "model.json"
    _write_json(model_path, model.to_dict())
    m["_model"] = model
    log["train"] = {"nodes": np.diff(model.start).tolist(),
                    "depth": forest_mod.depths(model).tolist(),
                    "model_bytes": model_path.stat().st_size}
    for item in m["items"]:  # they came from the model just replaced
        item["prediction"] = None
    if args.importance != "none":
        _write_grid_csv(m["_dir"] / f"importance_{args.importance}.csv", imp[:, None])
    if holdout:
        print(f"holdout R^2 over {holdout} items: {log['holdout_r2']:.4f}")
    return log


def _stage_predict(m: dict, args) -> dict:
    ids, X = _load_features(m)
    model = _load_model(m)
    preds = forest_mod.predict_batch(model, X)
    for item, p in zip(m["items"], preds):
        item["prediction"] = float(p)
    return {}


def cmd_pipeline(args) -> int:
    m = load_manifest(args.manifest)
    stages = [s.strip() for s in args.stages.split(",") if s.strip()]
    known = {"ph": _stage_ph, "vectorize": _stage_vectorize,
             "train": _stage_train, "predict": _stage_predict}
    for s in stages:
        if s not in known:
            raise DataError(f"unknown stage {s!r}; choose from ph,vectorize,train,predict")
    entries = {}
    for s in stages:  # saved after each stage, so it describes the files written so far
        entries.update(known[s](m, args))
        _save_manifest(m)
    _append_run_log(m["_dir"], dict(_flags(args), stages=stages,
                                    max_radius=m["rips"]["max_radius"],
                                    histograms=m["histograms"], **entries))
    return 0


# ---------------------------------------------------------------------------
# explain

def _pipeline_scorer(m: dict, model: forest_mod.Forest):
    h1s, h2s = _manifest_specs(m)

    def score(cloud: geo.PointCloud) -> float:
        pairs = ph.reduce(_filtration(m, cloud))
        return forest_mod.predict(model, vec.features(*vec.landscapes(pairs, h1s, h2s)))

    return score


# Each explain handler returns the entries it adds to the run-log record.

def _gap(att) -> float:
    """How far the values miss the endpoints they bridge."""
    return float(att.values.sum()) - (att.total - att.baseline)


def _explain_pixels(m: dict, args, target_idx: int, out_dir: Path) -> dict:
    """Write the pixel maps and the matched cycles; log the gap and the
    number of feature columns that are not constant."""
    if args.top_k < 1:  # before any file is written
        raise DataError("--top-k must be >= 1")
    y = _predictions(m)
    ids, X = _load_features(m)
    filtration = _filtration(m, _load_cloud(m, m["items"][target_idx]))
    pairs = ph.reduce(filtration)
    att = explain_mod.pixel_attribution(X, y, target_idx,
                                        SimilaritySpec(ratio=args.ratio), args.steps)
    item_id = m["items"][target_idx]["id"]
    _write_pixel_grids(out_dir / f"pixels_{item_id}", att.values)
    _write_json(out_dir / f"pixels_{item_id}.json",
                {"baseline": att.baseline, "total": att.total,
                 "sum": float(att.values.sum()), "steps": args.steps,
                 "ratio": args.ratio})

    # match influential pixels back to the target's diagram pairs and dump
    # a representative cycle for each matched pair
    h1s, h2s = _manifest_specs(m)
    cycles = []
    for dim, spec in ((1, h1s), (2, h2s)):
        matches = explain_mod.influential_cycles(att.values, ph.diagram(pairs, dim),
                                                 args.top_k, spec)
        for match in matches:
            for pair in match.pairs or [None]:  # None: a bin that only the blur filled
                record = {"dim": dim, "birth": None, "death": None, "vertices": [],
                          "attribution": match.value, "birth_bin": match.birth_bin,
                          "persistence_bin": match.persistence_bin}
                if pair is not None:
                    cycle = ph.representative_cycle(filtration, pair)
                    record.update(birth=pair.birth, death=pair.death,
                                  vertices=sorted(cycle.vertex_set))
                cycles.append(record)
    _write_json(out_dir / f"cycles_{item_id}.json", cycles)
    return {"gap": _gap(att), "varying": int((X.max(axis=0) > X.min(axis=0)).sum())}


def _explain_params(m: dict, args, target_idx: int, out_dir: Path) -> dict:
    """Write the Cohort Shapley values; log their gap."""
    y = _predictions(m)
    table = [geo.ParamVector.from_dict(item["params"]) for item in m["items"]]
    att = explain_mod.param_attribution(table, y, target_idx)
    item_id = m["items"][target_idx]["id"]
    _write_json(out_dir / f"params_{item_id}.json",
                {"baseline": att.baseline, "total": att.total, "values": att.values.tolist(),
                 "feature_names": list(geo.PARAM_NAMES)})
    return {"gap": _gap(att)}


def _explain_grid(m: dict, args, target_idx: int, out_dir: Path) -> dict:
    model = _load_model(m)
    item = m["items"][target_idx]
    cloud = _load_cloud(m, item)
    cohort = [geo.perturb(cloud, args.perturb_length, seed=args.cohort_seed + k)
              for k in range(args.cohort_size)]
    spec = geo.GridSpec.from_dict(m["grid"])
    att = explain_mod.grid_based_explanation(cloud, cohort, _pipeline_scorer(m, model),
                                             spec, args.steps,
                                             SimilaritySpec(ratio=args.ratio))
    _write_json(out_dir / f"grid_{item['id']}.json", att.to_record())
    return {}


def _explain_higher(m: dict, args, target_idx: int, out_dir: Path) -> dict:
    y = _predictions(m)
    ids, X = _load_features(m)
    table = [geo.ParamVector.from_dict(item["params"]) for item in m["items"]]
    maps = explain_mod.higher_order(table, X, y, target_idx, steps=args.steps,
                                    quantile=args.pixel_quantile,
                                    similarity=SimilaritySpec(ratio=args.ratio))
    item_id = m["items"][target_idx]["id"]
    for name, flat in maps.maps.items():
        _write_pixel_grids(out_dir / f"higher_{item_id}_{name}", flat)
    computed = np.flatnonzero(maps.computed)
    _write_json(out_dir / f"higher_{item_id}.json", {
        "computed_pixels": [int(p) for p in computed],
        "pixel_baseline": [float(maps.pixel_baseline[p]) for p in computed],
        "first_order_baseline": maps.first_order.baseline,
        "first_order_total": maps.first_order.total,
        "quantile": args.pixel_quantile, "steps": args.steps,
    })
    return {}


def cmd_explain(args) -> int:
    m = load_manifest(args.manifest)
    target_idx = _item_index(m, args.target)
    out_dir = m["_dir"] / "attributions"
    out_dir.mkdir(exist_ok=True)
    handlers = {"pixels": _explain_pixels, "params": _explain_params,
                "grid": _explain_grid, "higher": _explain_higher}
    entries = handlers[args.mode](m, args, target_idx, out_dir)
    _append_run_log(m["_dir"], dict(_flags(args), **entries))
    return 0


# ---------------------------------------------------------------------------
# render

_DIVERGING_STOPS = np.array([[0, 48, 160], [255, 255, 255], [176, 16, 16]], dtype=float)


def _diverging_rgb(unit: np.ndarray) -> np.ndarray:
    """unit in [0,1] -> blue-white-red; 0.5 is white."""
    lo, mid, hi = _DIVERGING_STOPS
    t = np.clip(unit, 0.0, 1.0)[..., None]
    below = lo + (mid - lo) * (t / 0.5)
    above = mid + (hi - mid) * ((t - 0.5) / 0.5)
    return np.where(t < 0.5, below, above)


def cmd_render(args) -> int:
    grid = read_grid_csv(args.input)
    image = grid.T  # row 0 = lowest persistence bin, columns follow birth
    vmin, vmax = float(grid.min()), float(grid.max())
    if args.palette == "diverging":
        scale = max(abs(vmin), abs(vmax))
        unit = np.full_like(image, 0.5) if scale == 0 else (image / scale + 1.0) / 2.0
    else:
        span = vmax - vmin
        unit = np.zeros_like(image) if span == 0 else (image - vmin) / span
    h, w = image.shape
    out_path = Path(args.output)
    if args.color:
        rgb = np.round(_diverging_rgb(unit) if args.palette == "diverging"
                       else np.repeat((unit * 255.0)[..., None], 3, axis=2))
        payload = b"P6\n%d %d\n255\n" % (w, h) + rgb.astype(np.uint8).tobytes()
    else:
        gray = np.round(unit * 255.0).astype(np.uint8)
        payload = b"P5\n%d %d\n255\n" % (w, h) + gray.tobytes()
    _atomic_write_bytes(out_path, payload)
    _write_json(out_path.with_suffix(out_path.suffix + ".json"),
                {"min": vmin, "max": vmax, "palette": args.palette,
                 "color": bool(args.color), "rows": "persistence",
                 "columns": "birth", "midpoint_gray": 128})
    return 0


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `phxai` parser, built once per process and shared by every
    `main` call. That is safe: `parse_args` returns a new namespace each
    time, and usage, help and errors look up `sys.stdout` and `sys.stderr`
    when they print. `set_defaults` binds each `cmd_*` function when the
    parser is built, so patching a `cmd_*` later does not reach `main`."""
    p = _Parser(prog="phxai", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    train = forest_mod.TrainConfig()

    g = sub.add_parser("gen-data", help="generate a synthetic dataset")
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--probe-radius", type=float, default=DEFAULT_PROBE_RADIUS)
    g.add_argument("--max-radius", type=float, default=DEFAULT_MAX_RADIUS)
    g.set_defaults(func=cmd_gen_data)

    q = sub.add_parser("pipeline", help="run pipeline stages over a manifest")
    q.add_argument("manifest")
    q.add_argument("--stages", default="ph,vectorize,train,predict")
    q.add_argument("--max-radius", type=float)
    q.add_argument("--bins", type=int)
    q.add_argument("--sigma", type=float)
    q.add_argument("--h1-birth-max", type=float)
    q.add_argument("--h1-pers-max", type=float)
    q.add_argument("--h2-birth-max", type=float)
    q.add_argument("--h2-pers-max", type=float)
    q.add_argument("--trees", type=int, default=train.n_trees)
    q.add_argument("--max-features", type=float, default=train.max_features_fraction)
    q.add_argument("--min-leaf", type=int, default=train.min_samples_leaf)
    q.add_argument("--holdout", type=int, default=0)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--importance", choices=("none", "impurity", "permutation"), default="none")
    q.set_defaults(func=cmd_pipeline)

    e = sub.add_parser("explain", help="write attribution artifacts")
    e.add_argument("manifest")
    e.add_argument("--mode", choices=("pixels", "params", "grid", "higher"), required=True)
    e.add_argument("--target", required=True)
    e.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    e.add_argument("--ratio", type=float, default=DEFAULT_RATIO)
    e.add_argument("--perturb-length", type=float, default=1.0)
    e.add_argument("--cohort-size", type=int, default=100)
    e.add_argument("--cohort-seed", type=int, default=0)
    e.add_argument("--pixel-quantile", type=float, default=explain_mod.DEFAULT_QUANTILE)
    e.add_argument("--top-k", type=int, default=5)
    e.set_defaults(func=cmd_explain)

    r = sub.add_parser("render", help="render a grid CSV to PGM/PPM")
    r.add_argument("input")
    r.add_argument("output")
    r.add_argument("--palette", choices=("diverging", "sequential"), default="diverging")
    r.add_argument("--color", action="store_true")
    r.set_defaults(func=cmd_render)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ph.SimplexBudgetError, CohortSizeError, MemoryError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
