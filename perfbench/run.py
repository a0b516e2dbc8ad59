"""Benchmark of the phxai pipeline: featurize, train and explain.

Run from the root of a checkout:

    python3 perfbench/run.py --workload featurize --seed 1 --seconds 15 --trace 0

The workload's set-up runs `setups` times and is timed apart. Then rounds of
the workload's CLI commands run, in-process through `phxai.cli.main`, until
`--seconds` of timed work is spent; every round's outputs are checked
outside the timed region. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`, the end-to-end
metrics with `--trace 0` and the per-layer metrics with `--trace 1`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
END_TO_END = {"setup_s": "s", "round_s": "s", "output_bytes": "bytes", "peak_rss_mb": "MB"}
# Fixed BLAS thread count, set before numpy loads; OpenBLAS would otherwise
# start one thread per core for the products inside igcs.
BLAS_THREADS = "1"
# About what reference() takes, undisturbed, on the 2-core machine the
# bounds were set on; scaled times are in seconds at that speed.
REFERENCE_S = 0.05
SETUP_SAMPLES = 3   # reference calls per speed reading around set-up steps


@dataclass
class Command:
    kind: str
    seconds: float
    items: int


class Runner:
    """Runs CLI commands and output checks, counting what was attempted and
    what failed."""

    def __init__(self, main):
        self.main = main
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.checks_failed = 0
        self.failures: list[str] = []
        self.commands: list[Command] = []

    def cli(self, kind: str, argv, items: int) -> None:
        argv = [str(a) for a in argv]
        sink = io.StringIO()
        sid = self.tracer.open(f"cli.{kind}") if self.tracer else None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = self.main(argv)
            except Exception:   # a crash is a failed command, not a failed benchmark
                traceback.print_exc(file=sink)
                code = -1
        seconds = time.perf_counter() - t0
        if sid is not None:
            self.tracer.close(sid)
        self.commands.append(Command(kind, seconds, items))
        self.attempted += 1 + items
        if code != 0:
            self.failed += 1 + items
            self.failures.append(f"phxai {' '.join(argv)} exited {code}: "
                                 f"{sink.getvalue().strip()[-300:]}")

    def check(self, fn, *args) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:   # any error in a check is a failed check
            self.failed += 1
            self.checks_failed += 1
            self.failures.append(f"{fn.__name__}: {exc!r}\n{traceback.format_exc(limit=3)}")


def snapshot(directory: Path) -> dict:
    if not directory.exists():
        return {}
    return {p: (st.st_ino, st.st_size, st.st_mtime_ns)
            for p in directory.rglob("*") if p.is_file()
            for st in [p.stat()]}


def bytes_written(before: dict, after: dict) -> int:
    """Sizes of the files a round created or replaced; the appended run log
    is left out, since it grows with every command."""
    return sum(sig[1] for p, sig in after.items()
               if before.get(p) != sig and p.name != "run_log.jsonl")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work, the kinds
    of work phxai does: dict updates on big-int bitsets, elementwise array
    arithmetic and a sort."""
    import numpy as np

    t0 = time.perf_counter()
    cols = {}
    for i in range(80_000):
        k = (i * 7919) % 4093
        cols[k] = cols.get(k, 0) ^ (1 << (i % 600))
    a = np.linspace(0.0, 1.0, 200_000)
    for _ in range(24):
        a = np.sqrt(a * a + 1.0) - 1.0
    np.argsort(np.sin(np.arange(400_000.0)))
    return time.perf_counter() - t0


def timed(steps, samples: int = 1) -> tuple[float, float]:
    """Wall time of running `steps` in turn, and that time scaled to the
    machine speed at which `reference()` takes REFERENCE_S. The reference
    runs before the first step and after each step, and each step is scaled
    by the mean of the two reference times around it, each the median of
    `samples` calls. The host slows all work in stretches of seconds, so the
    scaled time drifts far less than the wall time."""
    def speed():
        return statistics.median(reference() for _ in range(samples))

    wall = scaled = 0.0
    before = speed()
    for step in steps:
        t0 = time.perf_counter()
        step()
        seconds = time.perf_counter() - t0
        after = speed()
        wall += seconds
        scaled += seconds * 2.0 * REFERENCE_S / (before + after)
        before = after
    return wall, scaled


# ---------------------------------------------------------------------------
# Command-level figures, per workload

def _rate(commands, kind):
    sel = [c for c in commands if c.kind == kind]
    return sum(c.items for c in sel) / sum(c.seconds for c in sel) if sel else 0.0


def _median_s(commands, kind):
    sel = [c.seconds for c in commands if c.kind == kind]
    return statistics.median(sel) if sel else 0.0


def command_figures(commands) -> dict:
    return {
        "cli.gen_items_per_s": (_rate(commands, "gen_data"), "items/s"),
        "cli.featurize_items_per_s": (_rate(commands, "ph_vectorize"), "items/s"),
        "cli.train_s": (_median_s(commands, "train"), "s"),
        "cli.explain_pixels_s": (_median_s(commands, "explain_pixels"), "s"),
        "cli.explain_params_s": (_median_s(commands, "explain_params"), "s"),
        "cli.explain_higher_s": (_median_s(commands, "explain_higher"), "s"),
        "cli.explain_grid_s": (_median_s(commands, "explain_grid"), "s"),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of the traced rounds

class Layers:
    def __init__(self, tracer, rounds: int):
        self.t = tracer
        self.rounds = rounds
        self.self_s = tracer.self_seconds()

    def _spans(self, name):
        return [self.t.spans[i] for i in self.t.entries(name)]

    def ms(self, name) -> float:
        s = self._spans(name)
        return 1000.0 * statistics.fmean(x.seconds for x in s) if s else 0.0

    def self_ms(self, *names) -> float:
        idx = [i for n in names for i in self.t.entries(n)]
        return 1000.0 * statistics.fmean(self.self_s[i] for i in idx) if idx else 0.0

    def calls(self, name) -> float:
        return len(self._spans(name)) / self.rounds

    def count(self, name, key) -> float:
        v = [x.counts[key] for x in self._spans(name) if key in x.counts]
        return statistics.fmean(v) if v else 0.0

    def total(self, name, key) -> float:
        return sum(x.counts.get(key, 0) for x in self._spans(name))

    def maximum(self, name, key) -> float:
        return max((x.counts.get(key, 0.0) for x in self._spans(name)), default=0.0)


def layer_metrics(L: Layers) -> dict:
    simplices = sum(L.total("persistence.build_rips", f"d{d}") for d in (1, 2, 3))
    pairs = sum(L.total("persistence.reduce", f"h{d}") for d in (1, 2))
    trees = L.total("forest.train", "trees")
    points = [x.counts["points"] for n in ("geometry.generate_structure",
                                           "geometry.load_xyz", "geometry.perturb")
              for x in L._spans(n) if "points" in x.counts]
    gap = max(L.maximum("xai.igcs", "gap"), L.maximum("xai.cohort_shapley", "gap"))
    return {
        "geometry.generate_ms": (L.ms("geometry.generate_structure"), "ms"),
        "geometry.target_ms": (L.ms("geometry.synthetic_target"), "ms"),
        "geometry.load_xyz_ms": (L.ms("geometry.load_xyz"), "ms"),
        "geometry.perturb_ms": (L.ms("geometry.perturb"), "ms"),
        "geometry.grid_counts_ms": (L.ms("geometry.grid_counts"), "ms"),
        "geometry.points_per_item": (statistics.fmean(points) if points else 0.0, "count"),
        "persistence.build_rips_ms": (L.ms("persistence.build_rips"), "ms"),
        "persistence.reduce_ms": (L.ms("persistence.reduce"), "ms"),
        "persistence.simplices_d1": (L.count("persistence.build_rips", "d1"), "count"),
        "persistence.simplices_d2": (L.count("persistence.build_rips", "d2"), "count"),
        "persistence.simplices_d3": (L.count("persistence.build_rips", "d3"), "count"),
        "persistence.pairs_h1": (L.count("persistence.reduce", "h1"), "count"),
        "persistence.pairs_h2": (L.count("persistence.reduce", "h2"), "count"),
        "persistence.pairs_per_simplex": (pairs / simplices if simplices else 0.0, "ratio"),
        "persistence.representative_cycle_ms": (L.ms("persistence.representative_cycle"),
                                                "ms"),
        "vectorize.histogram_ms": (L.ms("vectorize.histogram"), "ms"),
        "vectorize.blur_ms": (L.ms("vectorize.gaussian_blur"), "ms"),
        "vectorize.dropped_pairs": (L.count("vectorize.histogram", "dropped"), "count"),
        "forest.train_s": (L.ms("forest.train") / 1000.0, "s"),
        "forest.train_ms_per_tree": (
            sum(x.seconds for x in L._spans("forest.train")) * 1000.0 / trees
            if trees else 0.0, "ms"),
        "forest.nodes_per_tree": (L.total("forest.train", "nodes") / trees if trees else 0.0,
                                  "count"),
        "forest.depth_per_tree": (L.total("forest.train", "depth") / trees if trees else 0.0,
                                  "count"),
        "forest.varying_column_ratio": (L.count("forest.train", "varying"), "ratio"),
        "forest.predict_batch_ms": (L.ms("forest.predict_batch"), "ms"),
        "forest.predict_ms": (L.ms("forest.predict"), "ms"),
        "forest.predict_calls": (L.calls("forest.predict"), "count"),
        "xai.similarity_matrix_ms": (L.ms("xai.similarity_matrix"), "ms"),
        "xai.similarity_matrix_calls": (L.calls("xai.similarity_matrix"), "count"),
        "xai.igcs_ms": (L.ms("xai.igcs"), "ms"),
        "xai.igcs_calls": (L.calls("xai.igcs"), "count"),
        "xai.cohort_shapley_ms": (L.ms("xai.cohort_shapley"), "ms"),
        "xai.cohort_shapley_calls": (L.calls("xai.cohort_shapley"), "count"),
        "xai.completeness_gap": (gap, "1"),
        "xai.varying_columns": (L.count("xai.similarity_matrix", "varying"), "count"),
        "explain.pixel_attribution_self_ms": (L.self_ms("explain.pixel_attribution"), "ms"),
        "explain.influential_cycles_ms": (L.ms("explain.influential_cycles"), "ms"),
        "explain.higher_order_self_s": (L.self_ms("explain.higher_order") / 1000.0, "s"),
        "explain.grid_self_s": (L.self_ms("explain.grid_based_explanation") / 1000.0, "s"),
        "cli.gen_data_self_s": (L.self_ms("cli.gen_data") / 1000.0, "s"),
        "cli.ph_vectorize_self_s": (L.self_ms("cli.ph_vectorize") / 1000.0, "s"),
        "cli.train_self_s": (L.self_ms("cli.train") / 1000.0, "s"),
        "cli.explain_self_s": (L.self_ms("cli.explain_pixels", "cli.explain_params",
                                         "cli.explain_higher", "cli.explain_grid") / 1000.0,
                               "s"),
    }


ARTIFACT_FIGURES = {
    "cli.diagrams_bytes": "bytes", "cli.landscapes_bytes": "bytes",
    "cli.features_csv_bytes": "bytes", "cli.model_bytes": "bytes", "cli.holdout_r2": "1",
}


# ---------------------------------------------------------------------------
# Runs

def slot_means(values, slots: int) -> list[float]:
    """Mean of the rounds that took each round input (round r takes r % slots)."""
    by_slot = {}
    for r, v in enumerate(values):
        by_slot.setdefault(r % slots, []).append(v)
    return [statistics.fmean(v) for v in by_slot.values()]


def timed_rounds(wl, seconds: float, settle):
    """Whole rounds until `seconds` of wall time is spent in them. Each
    round's outputs go to `settle`, untimed, before the next starts.
    Returns the wall and scaled time of each round and the bytes it wrote."""
    wall, scaled, written = [], [], []
    while not wall or sum(wall) + statistics.median(wall) <= seconds:
        r = len(wall)
        out = wl.round_dir(r, "t")
        before = snapshot(out)
        w, s = timed(wl.round_steps(r, "t"))
        wall.append(w)
        scaled.append(s)
        written.append(bytes_written(before, snapshot(out)))
        settle(r, "t")
    return wall, scaled, written


def traced_rounds(wl, seconds: float, settle, runner, phxai):
    """Pairs of rounds on the same inputs, one untraced ("u") and one traced
    ("t"), the first of each pair alternating, until `seconds` is spent.
    Returns the tracer, the untraced rounds' commands, the wall times by
    tag, and the figures of round 0's files."""
    from perfbench import tracing

    tracer = tracing.Tracer()
    commands, wall, figures = [], {"u": [], "t": []}, {}

    def one(r, tag):
        first = len(runner.commands)
        if tag == "t":
            tracing.install(tracer, phxai)
            runner.tracer = tracer
            sid = tracer.open("bench.round")
        try:
            t0 = time.perf_counter()
            wl.round(r, tag)
            wall[tag].append(time.perf_counter() - t0)
        finally:
            if tag == "t":
                tracer.close(sid)
                runner.tracer = None
                tracer.uninstall()
                runner.check(tracer.check)
        if tag == "u":
            commands.extend(runner.commands[first:])
            if r == 0:
                figures.update(wl.artifacts(0, "u"))
        settle(r, tag)

    r = 0
    while r == 0 or sum(wall["u"]) + sum(wall["t"]) + 2 * statistics.median(wall["u"]) \
            <= seconds:
        for tag in ("u", "t") if r % 2 == 0 else ("t", "u"):
            one(r, tag)
        r += 1
    return tracer, commands, wall, figures


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import phxai
    from phxai import cli

    if not Path(phxai.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"perfbench: phxai imported from {phxai.__file__}, not {ROOT / 'src'}")

    from perfbench.workloads import WORKLOADS

    runner = Runner(cli.main)
    wl = WORKLOADS[workload](runner, seed, work)
    pending = []

    def settle(r, tag):
        # Rounds that write to their own directory are checked after the
        # peak memory is read: the full-complex check needs more memory
        # than the program does.
        if wl.own_round_dirs:
            pending.append((r, tag))
        else:
            runner.check(wl.check, r, tag)
            wl.discard(r, tag)

    # Set-ups are few and their steps long, so one reference call, which
    # varies by a tenth from call to call, would weigh on each too much.
    setups = [timed(wl.setup_steps(i), SETUP_SAMPLES) for i in range(wl.setups)]

    if not trace:
        first = len(runner.commands)
        wall, scaled, written = timed_rounds(wl, seconds, settle)
        print(f"# wall time: set-up {statistics.median(w for w, _ in setups):.6g} s,"
              f" round {statistics.median(wall):.6g} s over {len(wall)} rounds")
        commands = runner.commands[first:]
        for name, (value, unit) in command_figures(commands).items():
            if value:
                print(f"# {name} = {value:.6g} {unit}")
        shares = {}
        for c in commands:
            shares[c.kind] = shares.get(c.kind, 0.0) + c.seconds
        print("# share of command time: " + ", ".join(
            f"{k} {v / sum(shares.values()):.3f}" for k, v in shares.items()))
        # every round input weighs the same, however many rounds fit
        by_input = slot_means(scaled, wl.slots)
        print("# scaled set-ups: " + ", ".join(f"{s:.4g}" for _, s in setups))
        print("# scaled round by input: " + ", ".join(f"{v:.4g}" for v in by_input))
        values = {"setup_s": statistics.median(s for _, s in setups),
                  "round_s": statistics.fmean(by_input),
                  "output_bytes": statistics.fmean(slot_means(written, wl.slots)),
                  "peak_rss_mb": peak_rss_mb()}
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
    else:
        tracer, commands, wall, figures = traced_rounds(wl, seconds, settle, runner, phxai)
        tracer.write(work.parent / f"spans-{workload}-{seed}.json")
        metrics = command_figures(commands)
        metrics.update({k: (figures.get(k, 0.0), unit) for k, unit in ARTIFACT_FIGURES.items()})
        rounds = len(wall["t"])
        metrics.update(layer_metrics(Layers(tracer, rounds)))
        overhead = statistics.median(t / u - 1.0 for u, t in zip(wall["u"], wall["t"]))
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        metrics["trace.rounds"] = (float(rounds), "count")
        metrics["trace.spans_per_round"] = (len(tracer.spans) / rounds, "count")

    for r, tag in pending:
        runner.check(wl.check, r, tag)
        wl.discard(r, tag)
    for failure in runner.failures:
        print(f"# FAILED {failure}", file=sys.stderr)
    return {"correct": runner.checks_failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("featurize", "train", "explain"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "phxai" / "cli.py").is_file():
        print(f"perfbench: no phxai source under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(src), str(ROOT)]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
