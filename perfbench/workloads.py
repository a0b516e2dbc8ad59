"""The benchmark's three workloads.

Each drives the `phxai` command line in-process through `Runner.cli` and
writes into its own directory under the run's work directory. A workload
has `setups` set-ups, numbered rounds of timed commands, and checks of each
round's outputs that run outside the timed region. Set-ups and rounds are
lists of steps, each a call of about a second or more, so that the runner
can time the machine's speed between them.

Sizes are fixed here, not by flags, so every run of one commit does the
same amount of work per round; the run seed only picks the inputs.
"""

from __future__ import annotations

import functools
import json
import shutil
import sys
from pathlib import Path

import numpy as np
from phxai import geometry, persistence, xai

from perfbench import checks

# featurize: items per round, and the number of distinct rounds a run cycles
# through, so that a faster program repeats the same inputs rather than
# drawing new ones. A run on the machine of the README fits 5 to 8 rounds.
FEATURIZE_ITEMS = 12
FEATURIZE_SLOTS = 5
FEATURIZE_WARMUP_ITEMS = 6
FEATURIZE_WARMUPS = 5
# train: datasets built in set-up, items per dataset, forest size, holdout.
TRAIN_DATASETS = 2
TRAIN_ITEMS = 80
TRAIN_TREES = 40
TRAIN_HOLDOUT = 40
# R^2 floor on the 40 training rows (see README). The holdout R^2 swings with
# the items drawn at this size, below -1 on some draws, so it has no floor;
# the fit to the training rows is the check that the trees learn.
TRAIN_FIT_FLOOR = 0.6
# explain: datasets, items per dataset and model size. The targets are the
# items whose clouds have the point count nearest to TARGET_POINTS. A round
# explains the first PIXEL_TARGETS of them in pixels mode, the first
# GRID_TARGETS in grid mode, the first in higher mode, and every item in
# params mode PARAMS_PASSES times. The counts are set so that each mode
# takes about a quarter of the round (see README).
EXPLAIN_DATASETS = 3
EXPLAIN_ITEMS = 12
EXPLAIN_TREES = 20
TARGET_POINTS = 24
PIXEL_TARGETS = 5
GRID_TARGETS = 4
GRID_COHORT = 2
PARAMS_PASSES = 24
IGCS_STEPS = 50      # the CLI default
RATIO = 0.01         # the CLI default
# Draws of gen-data items are held to the expected cost mix within this share.
DRAW_TOL = 0.01


def sub_seed(seed: int, *tags: int) -> int:
    """Independent seed for one input, derived from the run seed."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def point_count(xyz: Path) -> int:
    with open(xyz) as fh:
        return int(fh.readline())


@functools.cache
def vocabulary() -> tuple[list[dict], np.ndarray]:
    """gen-data's parameter vectors, in its order, and their clouds' point
    counts."""
    spec = geometry.SyntheticSpec()
    params = geometry.iter_param_vectors()
    return ([p.to_dict() for p in params],
            np.array([len(geometry.generate_structure(p, spec)) for p in params], float))


def replay_draw(gen_seed: int, count: int) -> np.ndarray:
    """The vocabulary indices that `gen-data --count count --seed gen_seed` draws."""
    return np.random.default_rng(gen_seed).permutation(len(vocabulary()[1]))[:count]


def balanced_seed(seed: int, count: int, *tags: int) -> int:
    """A gen-data seed whose draw costs what an average draw costs.

    Persistence work grows about as C(n, 4) in a cloud's point count n, and
    the target's about as n, so free draws of a few dozen items differ in
    cost by tens of percent. The candidates `sub_seed(seed, *tags, j)` are
    tried in turn, and the first whose mean C(n, 4) and mean n are both
    within DRAW_TOL of the vocabulary's is returned.
    """
    n = vocabulary()[1]
    c4 = n * (n - 1) * (n - 2) * (n - 3) / 24.0
    for j in range(100_000):
        s = sub_seed(seed, *tags, j)
        chosen = replay_draw(s, count)
        if (abs(c4[chosen].mean() / c4.mean() - 1.0) <= DRAW_TOL
                and abs(n[chosen].mean() / n.mean() - 1.0) <= DRAW_TOL):
            return s
    raise RuntimeError(f"no balanced draw of {count} items for seed {seed}")


def largest_cloud_seed(count: int) -> int:
    """The first gen-data seed whose draw of `count` items holds a cloud of
    the largest point count there is."""
    n = vocabulary()[1]
    return next(s for s in range(100_000) if n[replay_draw(s, count)].max() == n.max())


def note_redraw(items: list[dict], gen_seed: int) -> None:
    """Say so when gen-data drew other items than `replay_draw` expects:
    the run is still checked, but its cost mix is no longer held."""
    params = vocabulary()[0]
    if [it["params"] for it in items] != [params[i] for i in replay_draw(gen_seed,
                                                                          len(items))]:
        print(f"# gen-data --seed {gen_seed} drew other items than replayed;"
              " the cost mix of this run is not held", file=sys.stderr)


def program_diagram(points, max_radius: float) -> list[tuple[int, float, float]]:
    """The library's H1/H2 pairs of one cloud, as the ph stage computes them."""
    dist = geometry.pairwise_distances(geometry.PointCloud(points))
    pairs = persistence.reduce(persistence.build_rips(dist, 3, max_radius))
    return [(p.dimension, p.birth, p.death) for p in pairs]


def dataset_steps(runner, out: Path, items: int, seed: int) -> list:
    """gen-data, then the ph,vectorize pipeline, writing `out/manifest.json`."""
    return [lambda: runner.cli("gen_data", ["gen-data", "--count", items, "--seed", seed,
                                            "--out", out], items),
            lambda: runner.cli("ph_vectorize", ["pipeline", out / "manifest.json",
                                                "--stages", "ph,vectorize"], items)]


class Workload:
    setups = 3
    own_round_dirs = False   # True when no round overwrites another's outputs

    @property
    def slots(self) -> int:
        """Distinct inputs the rounds cycle through; round r takes r % slots."""
        return self.setups

    def __init__(self, runner, seed: int, work: Path):
        self.runner = runner
        self.seed = seed
        self.work = work
        self._features = {}

    def features(self, data: Path) -> np.ndarray:
        """A set-up dataset's feature matrix, parsed once for the checks."""
        if data not in self._features:
            self._features[data] = checks.read_features(data / "features.csv")[1]
        return self._features[data]

    def setup_steps(self, i: int) -> list:
        raise NotImplementedError

    def round_steps(self, r: int, tag: str) -> list:
        raise NotImplementedError

    def round(self, r: int, tag: str) -> None:
        for step in self.round_steps(r, tag):
            step()

    def round_dir(self, r: int, tag: str) -> Path:
        raise NotImplementedError

    def discard(self, r: int, tag: str) -> None:
        """Free what a checked round left behind."""

    def artifacts(self, r: int, tag: str) -> dict:
        """Figures read from a round's files before it is discarded."""
        return {}


class Featurize(Workload):
    """gen-data then pipeline --stages ph,vectorize, on new items each round."""

    name = "featurize"
    setups = FEATURIZE_WARMUPS
    slots = FEATURIZE_SLOTS
    own_round_dirs = True

    def __init__(self, runner, seed, work):
        super().__init__(runner, seed, work)
        self.slot_seeds = [balanced_seed(seed, FEATURIZE_ITEMS, 1, k)
                           for k in range(FEATURIZE_SLOTS)]
        # Persistence memory grows with the point count, so the process's
        # peak is set by the largest cloud it meets. A warm-up that holds the
        # largest cloud there is gives every seed the same peak.
        self.warmup_seed = largest_cloud_seed(FEATURIZE_WARMUP_ITEMS)

    def setup_steps(self, i: int) -> list:
        # warm-up on fixed inputs: fills the program's caches (grid cell
        # centres, simplex index tables) before anything is timed
        return dataset_steps(self.runner, self.work / f"warmup_{i}",
                             FEATURIZE_WARMUP_ITEMS, self.warmup_seed)

    def round_dir(self, r: int, tag: str) -> Path:
        return self.work / f"round_{r}_{tag}"

    def round_steps(self, r: int, tag: str) -> list:
        return dataset_steps(self.runner, self.round_dir(r, tag), FEATURIZE_ITEMS,
                             self.slot_seeds[r % FEATURIZE_SLOTS])

    def check(self, r: int, tag: str) -> None:
        out = self.round_dir(r, tag)
        run = self.runner.check
        m = json.loads((out / "manifest.json").read_text())
        items = m["items"]
        note_redraw(items, m["seed"])
        ids, X = checks.read_features(out / "features.csv")
        run(checks.check_features, ids, X, [it["id"] for it in items])
        clouds = {it["id"]: checks.read_xyz(out / it["cloud"]) for it in items}
        diagrams = {it["id"]: checks.read_diagram(out / "diagrams" / f"{it['id']}.json")
                    for it in items}
        for it in items:
            run(checks.check_deaths_within_enclosing_radius, clouds[it["id"]],
                diagrams[it["id"]])
        rng = np.random.default_rng(sub_seed(self.seed, 2, r))
        it = items[int(rng.integers(len(items)))]
        pts, dg = clouds[it["id"]], diagrams[it["id"]]
        run(checks.check_full_complex, pts, dg)
        radius = m["rips"]["max_radius"]
        run(checks.check_relabel_invariance, pts, dg,
            lambda p: program_diagram(p, radius), rng)
        run(checks.check_target, pts, it["target"], m["probe_radius"], m["grid"])

    def discard(self, r: int, tag: str) -> None:
        shutil.rmtree(self.round_dir(r, tag), ignore_errors=True)

    def artifacts(self, r: int, tag: str) -> dict:
        out = self.round_dir(r, tag)
        size = lambda paths: sum(p.stat().st_size for p in paths) / FEATURIZE_ITEMS
        return {"cli.diagrams_bytes": size((out / "diagrams").glob("*.json")),
                "cli.landscapes_bytes": size((out / "landscapes").glob("*.csv")),
                "cli.features_csv_bytes": size([out / "features.csv"])}


class Train(Workload):
    """pipeline --stages train,predict on datasets built in set-up."""

    name = "train"
    setups = TRAIN_DATASETS

    def __init__(self, runner, seed, work):
        super().__init__(runner, seed, work)
        self.data_seeds = [balanced_seed(seed, TRAIN_ITEMS, 3, i)
                           for i in range(self.setups)]

    def setup_steps(self, i: int) -> list:
        return dataset_steps(self.runner, self.work / f"data_{i}", TRAIN_ITEMS,
                             self.data_seeds[i])

    def round_dir(self, r: int, tag: str) -> Path:
        return self.work / f"data_{r % self.setups}"

    def round_steps(self, r: int, tag: str) -> list:
        return [lambda: self.runner.cli(
            "train", ["pipeline", self.round_dir(r, tag) / "manifest.json",
                      "--stages", "train,predict", "--trees", TRAIN_TREES,
                      "--holdout", TRAIN_HOLDOUT, "--seed", r], TRAIN_ITEMS)]

    def check(self, r: int, tag: str) -> None:
        data = self.round_dir(r, tag)
        run = self.runner.check
        model = json.loads((data / "model.json").read_text())
        items = json.loads((data / "manifest.json").read_text())["items"]
        if r < self.setups:
            note_redraw(items, self.data_seeds[r])
        X = self.features(data)
        preds = [it["prediction"] for it in items]
        y = np.array([it["target"] for it in items])
        n_train = len(items) - TRAIN_HOLDOUT
        run(checks.check_predictions, model, X, preds)
        run(checks.check_tree_counts, model, n_train)
        run(checks.check_leaf_range, model, y[:n_train])
        run(checks.check_holdout_r2, last_holdout_r2(data), preds[n_train:], y[n_train:])
        run(checks.check_training_fit, preds[:n_train], y[:n_train], TRAIN_FIT_FLOOR)

    def artifacts(self, r: int, tag: str) -> dict:
        data = self.round_dir(r, tag)
        return {"cli.model_bytes": float((data / "model.json").stat().st_size),
                "cli.holdout_r2": last_holdout_r2(data)}


def last_holdout_r2(data: Path) -> float:
    """The holdout R^2 of the latest training run, from the run log."""
    for line in reversed((data / "run_log.jsonl").read_text().splitlines()):
        record = json.loads(line)
        if "holdout_r2" in record:
            return float(record["holdout_r2"])
    raise checks.CheckFailed("no holdout R^2 in the run log")


class Explain(Workload):
    """explain in modes pixels and grid for several targets, higher for one,
    and params for every item, on datasets and models built in set-up."""

    name = "explain"
    setups = EXPLAIN_DATASETS

    def __init__(self, runner, seed, work):
        super().__init__(runner, seed, work)
        self.data_seeds = [balanced_seed(seed, EXPLAIN_ITEMS, 4, i)
                           for i in range(self.setups)]
        self._data = {}

    def setup_steps(self, i: int) -> list:
        data = self.work / f"data_{i}"
        return dataset_steps(self.runner, data, EXPLAIN_ITEMS, self.data_seeds[i]) + [
            lambda: self.runner.cli("train", ["pipeline", data / "manifest.json",
                                              "--stages", "train,predict",
                                              "--trees", EXPLAIN_TREES, "--seed", i],
                                    EXPLAIN_ITEMS),
            lambda: self._pick_targets(data)]

    def _pick_targets(self, data: Path) -> None:
        # Pixels and grid mode run persistence on the target's cloud, at a
        # cost that grows about as C(n, 4), so the targets are the items
        # whose point count is nearest TARGET_POINTS, whatever the draw.
        items = json.loads((data / "manifest.json").read_text())["items"]
        counts = [point_count(data / it["cloud"]) for it in items]
        targets = sorted(range(len(items)), key=lambda k: (abs(counts[k] - TARGET_POINTS), k))
        self._data[data] = {"items": items, "counts": counts,
                            "targets": targets[:PIXEL_TARGETS]}

    def round_dir(self, r: int, tag: str) -> Path:
        return self.work / f"data_{r % self.setups}"

    def round_steps(self, r: int, tag: str) -> list:
        data = self.round_dir(r, tag)
        manifest = data / "manifest.json"
        items = self._data[data]["items"]
        targets = [items[t]["id"] for t in self._data[data]["targets"]]

        def explain(kind, mode, item_ids, *extra):
            def step():
                for item_id in item_ids:
                    self.runner.cli(kind, ["explain", manifest, "--mode", mode,
                                           "--target", item_id, *extra], 1)
            return step

        return [explain("explain_pixels", "pixels", targets),
                explain("explain_grid", "grid", targets[:GRID_TARGETS],
                        "--cohort-size", GRID_COHORT, "--cohort-seed", r),
                explain("explain_higher", "higher", targets[:1]),
                explain("explain_params", "params",
                        [it["id"] for it in items] * PARAMS_PASSES)]

    def check(self, r: int, tag: str) -> None:
        data = self.round_dir(r, tag)
        d = self._data[data]
        run = self.runner.check
        att = data / "attributions"
        items = json.loads((data / "manifest.json").read_text())["items"]
        if r < self.setups:
            note_redraw(items, self.data_seeds[r])
        y = np.array([it["prediction"] for it in items])
        params = [tuple(it["params"][k] for k in geometry.PARAM_NAMES) for it in items]
        for t, item in enumerate(items):
            record = json.loads((att / f"params_{item['id']}.json").read_text())
            run(checks.check_params, record, params, y, t)
        pixel_maps = {}
        for t in d["targets"]:
            item_id = items[t]["id"]
            meta = json.loads((att / f"pixels_{item_id}.json").read_text())
            flat = np.concatenate([checks.read_grid(att / f"pixels_{item_id}_h{k}.csv").ravel()
                                   for k in (1, 2)])
            pixel_maps[t] = flat
            run(checks.check_completeness, flat, meta["baseline"], meta["total"],
                checks.IGCS_50_STEP_TOL, "pixel map completeness")
        for t in d["targets"][:GRID_TARGETS]:
            grid = json.loads((att / f"grid_{items[t]['id']}.json").read_text())
            run(checks.check_grid, grid, d["counts"][t])
        # one target's pixel map against the gradient oracle, in turn
        t = d["targets"][(r // self.setups) % PIXEL_TARGETS]
        run(self._check_igcs, self.features(data), y, t, pixel_maps[t])
        first = d["targets"][0]
        first_id = items[first]["id"]
        meta = json.loads((att / f"higher_{first_id}.json").read_text())
        maps = {name: np.concatenate([
                    checks.read_grid(att / f"higher_{first_id}_{name}_h{k}.csv").ravel()
                    for k in (1, 2)])
                for name in geometry.PARAM_NAMES}
        run(checks.check_higher, maps, pixel_maps[first], meta["computed_pixels"],
            meta["pixel_baseline"])

    @staticmethod
    def _check_igcs(X, y, target, flat):
        oracle = checks.igcs_oracle(X, y, target, RATIO, IGCS_STEPS,
                                    xai.multilinear_gradient, xai.CohortIndicatorMatrix)
        checks.check_igcs(flat, oracle)


WORKLOADS = {w.name: w for w in (Featurize, Train, Explain)}
