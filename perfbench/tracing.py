"""Spans around calls into phxai's public functions, recorded from outside.

`install` replaces module attributes with wrappers; each call records
a span (name, start, end, parent) in memory, and an optional hook reads
counts from the call's arguments and result. The hook's own time is kept
apart so that it is not charged to the caller's self time.

`phxai.explain` imports some geometry and xai functions by name, so those
names are wrapped in `phxai.explain` as well as in their home modules.

A planned function that is not there, or a hook that cannot read its
counts, is recorded in `Tracer.errors`; `Tracer.check` turns them into a
failed check of the run.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    hook_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        # functions that could not be wrapped and counts that could not be read
        self.errors: list[str] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, hook=None) -> None:
        original = getattr(module, attr, None)
        if not callable(original):
            self.errors.append(f"{module.__name__}.{attr} is not there to trace")
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(sid)
            if hook is not None:
                t0 = time.perf_counter()
                try:
                    hook(tracer.spans[sid].counts, args, result)
                except Exception as exc:   # reported by check(), not passed to phxai
                    tracer.errors.append(f"counts of {name}: {exc!r}")
                tracer.spans[sid].hook_s = time.perf_counter() - t0
            return result

        setattr(module, attr, traced)
        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def check(self) -> None:
        """Fail when tracing lost a function or a count since the last check,
        so that a per-layer figure that reads 0 for that reason is reported
        as a failed check rather than as a gain."""
        errors, self.errors = self.errors, []
        if errors:
            raise AssertionError("tracing incomplete: " + "; ".join(sorted(set(errors))))

    def self_seconds(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.seconds + s.hook_s
        return [s.seconds - c for s, c in zip(self.spans, covered)]

    def entries(self, name: str) -> list[int]:
        """Calls into `name` from outside its module (nested calls from the
        same module, such as `reduce` inside `representative_cycle`, excluded)."""
        out = []
        for i, s in enumerate(self.spans):
            if s.name == name and (s.parent < 0
                                   or self.spans[s.parent].module != s.module):
                out.append(i)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


# ---------------------------------------------------------------------------
# Hooks: counts read from the values the public functions return

def _points(counts, args, cloud):
    counts["points"] = len(cloud)


def _simplices(counts, args, filtration):
    for d in (1, 2, 3):
        counts[f"d{d}"] = filtration.count(d)


def _pairs(counts, args, pairs):
    for d in (1, 2):
        counts[f"h{d}"] = sum(1 for p in pairs if p.dimension == d)


def _dropped(counts, args, image):
    counts["dropped"] = image.dropped


def _forest(counts, args, forest):
    X = np.asarray(args[0])
    counts["varying"] = float((X.max(axis=0) > X.min(axis=0)).mean())
    counts["trees"] = len(forest.trees)
    counts["nodes"] = sum(len(t.feature) for t in forest.trees)
    depth_total = 0
    for t in forest.trees:
        depth = np.zeros(len(t.feature), dtype=np.int64)
        for node in range(len(t.feature)):   # children always follow their parent
            if t.feature[node] >= 0:
                depth[t.left[node]] = depth[t.right[node]] = depth[node] + 1
        depth_total += int(depth.max())
    counts["depth"] = depth_total


def _gap(counts, args, att):
    counts["gap"] = abs(float(np.sum(att.values)) - (att.total - att.baseline))


def _varying(counts, args, cohort):
    counts["varying"] = int((cohort.S.min(axis=0) == 0).sum())


def install(tracer: Tracer, phxai) -> None:
    """Wrap the public functions the CLI reaches, module by module."""
    geo, ph, vec = phxai.geometry, phxai.persistence, phxai.vectorize
    fr, xai, ex = phxai.forest, phxai.xai, phxai.explain
    plan = [
        (geo, "generate_structure", _points), (geo, "load_xyz", _points),
        (geo, "save_xyz", None), (geo, "synthetic_target", None),
        (geo, "perturb", _points), (geo, "pairwise_distances", None),
        (geo, "grid_counts", None), (geo, "point_cell_indices", None),
        (ph, "build_rips", _simplices), (ph, "reduce", _pairs),
        (ph, "representative_cycle", None), (ph, "diagram", None),
        (ph, "diagrams_to_records", None),
        (vec, "histogram", _dropped), (vec, "gaussian_blur", None),
        (vec, "features", None),
        (fr, "train", _forest), (fr, "predict", None), (fr, "predict_batch", None),
        (fr, "r2", None),
        (xai, "similarity_matrix", _varying), (xai, "igcs", _gap),
        (xai, "cohort_shapley", _gap),
        (ex, "pixel_attribution", None), (ex, "param_attribution", None),
        (ex, "grid_based_explanation", None), (ex, "higher_order", None),
        (ex, "influential_cycles", None),
    ]
    for module, attr, hook in plan:
        tracer.wrap(module, attr, f"{module.__name__.split('.')[-1]}.{attr}", hook)
    # names phxai.explain imported from geometry and xai
    for module, attr, hook in [(geo, "grid_counts", None), (geo, "point_cell_indices", None),
                               (xai, "similarity_matrix", _varying), (xai, "igcs", _gap),
                               (xai, "cohort_shapley", _gap)]:
        tracer.wrap(ex, attr, f"{module.__name__.split('.')[-1]}.{attr}", hook)
