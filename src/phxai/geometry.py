"""Point clouds, synthetic structured data, and Cartesian grid featurization.

A data item is a variable-length cloud of 3D coordinates. Clouds are read
and written in XYZ text format, generated deterministically from a small
set of categorical parameters (template / node1 / node2 / edge), perturbed
to build comparison cohorts, and binned onto a fixed Cartesian grid so that
clouds of different sizes become comparable fixed-length feature vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

NONE_VALUE = "none"

TEMPLATES = ("cube", "hex", "prism", "tetra")
NODES = ("dimer", "triad", "quad", "tetrapod", "axial", "penta")
EDGES = ("ring4_a", "ring4_b", "ring4_c", "ring5_a",
         "ring5_b", "ring6_a", "ring6_b", "ring6_c")

# scale of the generated structures
ANCHOR_SPACING = 6.5
NODE_RADIUS = 1.4
MAX_LINKER_RINGS = 3


class XYZFormatError(ValueError):
    """Malformed XYZ input; the message names the offending line number."""


@dataclass
class PointCloud:
    """Ordered list of 3D points with optional per-point labels.

    Point order is preserved everywhere and serves as the canonical point
    index for attribution outputs.
    """

    points: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be an (n, 3) array, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("point coordinates must be finite")
        self.points = pts
        if self.labels is not None:
            self.labels = tuple(self.labels)
            if len(self.labels) != len(pts):
                raise ValueError("labels length does not match point count")

    def __len__(self) -> int:
        return self.points.shape[0]

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else "X"


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned cubic grid: `cells_per_axis` cells of side `cell_size` per axis."""

    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    cell_size: float = 2.0
    cells_per_axis: int = 57

    def __post_init__(self):
        if not self.cell_size > 0:
            raise ValueError("cell_size must be positive")
        if self.cells_per_axis < 1:
            raise ValueError("cells_per_axis must be >= 1")
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))

    @property
    def side(self) -> float:
        return self.cell_size * self.cells_per_axis

    @property
    def n_cells(self) -> int:
        return self.cells_per_axis ** 3

    def to_dict(self) -> dict:
        return {"origin": list(self.origin), "cell_size": self.cell_size,
                "cells_per_axis": self.cells_per_axis}

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        return cls(tuple(d["origin"]), float(d["cell_size"]), int(d["cells_per_axis"]))


@dataclass
class GridCounts:
    """Per-cell point counts, flattened x-major (x slowest, then y, then z)."""

    counts: np.ndarray
    spec: GridSpec
    overflow: int = 0

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (self.spec.n_cells,):
            raise ValueError("counts length does not match the grid")
        if (c < 0).any():
            raise ValueError("counts must be non-negative")
        self.counts = c


@dataclass(frozen=True)
class ParamVector:
    """Categorical generator inputs identifying one structure.

    `template` is always set; `node2` and `edge` may be the distinguished
    NONE value, which compares equal only to itself.
    """

    template: str
    node1: str
    node2: str = NONE_VALUE
    edge: str = NONE_VALUE

    def as_tuple(self) -> tuple[str, str, str, str]:
        return (self.template, self.node1, self.node2, self.edge)

    def to_dict(self) -> dict:
        return {"template": self.template, "node1": self.node1,
                "node2": self.node2, "edge": self.edge}

    @classmethod
    def from_dict(cls, d: dict) -> "ParamVector":
        return cls(d["template"], d["node1"], d["node2"], d["edge"])


PARAM_NAMES = ("template", "node1", "node2", "edge")
# the values each parameter may take, in PARAM_NAMES order
_VOCABULARY = (TEMPLATES, NODES, (NONE_VALUE,) + NODES, (NONE_VALUE,) + EDGES)


@dataclass(frozen=True)
class SyntheticSpec:
    """The grid cube the deterministic structure generator centres its
    structures in."""

    grid: GridSpec = field(default_factory=GridSpec)


# ---------------------------------------------------------------------------
# XYZ file I/O

def load_xyz(path) -> PointCloud:
    """Parse an XYZ file: count line, comment line, then `label x y z` lines."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise XYZFormatError("line 1: missing point count")
    try:
        count = int(lines[0].strip())
    except ValueError:
        raise XYZFormatError(f"line 1: malformed point count {lines[0]!r}") from None
    if count < 0:
        raise XYZFormatError("line 1: negative point count")
    pts = np.zeros((count, 3))
    labels = []
    for i in range(count):
        lineno = i + 3
        if lineno - 1 >= len(lines):
            raise XYZFormatError(f"line {lineno}: expected {count} points, file ends early")
        parts = lines[lineno - 1].split()
        if len(parts) < 4:
            raise XYZFormatError(f"line {lineno}: expected 'label x y z'")
        labels.append(parts[0])
        try:
            pts[i] = [float(parts[1]), float(parts[2]), float(parts[3])]
        except ValueError:
            raise XYZFormatError(f"line {lineno}: non-numeric coordinate") from None
    return PointCloud(pts, tuple(labels))


def save_xyz(cloud: PointCloud, path, comment: str = "") -> None:
    """Write `cloud` in XYZ format with 6-decimal coordinates."""
    out = [str(len(cloud)), comment]
    for i, (x, y, z) in enumerate(cloud.points):
        out.append(f"{cloud.label(i)} {x:.6f} {y:.6f} {z:.6f}")
    Path(path).write_text("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# Synthetic structure generation

def _template_motif(template: str, spacing: float):
    """Anchor coordinates (centered at the origin) and the anchor adjacency list."""
    s = spacing
    if template == "cube":
        h = s / 2.0
        anchors = [(sx * h, sy * h, sz * h)
                   for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
        adjacency = [(i, j) for i in range(8) for j in range(i + 1, 8)
                     if sum(a != b for a, b in zip(anchors[i], anchors[j])) == 1]
    elif template == "hex":
        r = 0.8 * s
        anchors = [(r * math.cos(k * math.pi / 3.0), r * math.sin(k * math.pi / 3.0), 0.0)
                   for k in range(6)]
        adjacency = [(k, (k + 1) % 6) for k in range(6)]
    elif template == "prism":
        r = 0.7 * s
        h = 0.45 * s
        ring = [(r * math.cos(2 * k * math.pi / 3.0), r * math.sin(2 * k * math.pi / 3.0))
                for k in range(3)]
        anchors = [(x, y, -h) for x, y in ring] + [(x, y, h) for x, y in ring]
        adjacency = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    elif template == "tetra":
        a = s / (2.0 * math.sqrt(2.0))
        anchors = [(a, a, a), (a, -a, -a), (-a, a, -a), (-a, -a, a)]
        adjacency = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    else:
        raise ValueError(f"unknown template {template!r}")
    return np.array(anchors, dtype=float), adjacency


_NODE_SHAPES = {
    # name: (unit-sphere offsets, radius factor)
    "dimer": ([(1, 0, 0), (-1, 0, 0)], 1.0),
    "triad": ([(math.cos(2 * k * math.pi / 3), math.sin(2 * k * math.pi / 3), 0)
               for k in range(3)], 1.1),
    "quad": ([(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)], 1.25),
    "tetrapod": ([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)], 1.4 / math.sqrt(3)),
    "axial": ([(0, 0, 1), (0, 0, -1)], 1.6),
    "penta": ([(math.cos(2 * k * math.pi / 5), math.sin(2 * k * math.pi / 5), 0)
               for k in range(5)], 1.5),
}

_EDGE_RINGS = {
    # name: (points on the ring, ring radius)
    "ring4_a": (4, 1.8), "ring4_b": (4, 2.3), "ring4_c": (4, 2.8),
    "ring5_a": (5, 2.0), "ring5_b": (5, 3.0),
    "ring6_a": (6, 2.2), "ring6_b": (6, 3.2), "ring6_c": (6, 3.6),
}


def _node_points(kind: str, center: np.ndarray, base_radius: float) -> list[np.ndarray]:
    offsets, factor = _NODE_SHAPES[kind]
    r = base_radius * factor
    return [center + r * np.asarray(o, dtype=float) for o in offsets]


def _ring_points(kind: str, a: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """Ring of points in the plane perpendicular to segment a-b at its midpoint."""
    k, r = _EDGE_RINGS[kind]
    mid = (a + b) / 2.0
    axis = b - a
    axis = axis / np.linalg.norm(axis)
    # deterministic orthonormal basis: pair the axis with its least-aligned unit vector
    ref = np.zeros(3)
    ref[int(np.argmin(np.abs(axis)))] = 1.0
    u = np.cross(axis, ref)
    u /= np.linalg.norm(u)
    w = np.cross(axis, u)
    return [mid + r * (math.cos(2 * math.pi * t / k) * u + math.sin(2 * math.pi * t / k) * w)
            for t in range(k)]


def generate_structure(params: ParamVector, spec: SyntheticSpec = SyntheticSpec()) -> PointCloud:
    """Deterministically build the point cloud identified by `params`.

    The template places anchor sites on a lattice motif, node parameters
    decorate alternating anchors with small fixed-geometry clusters, and the
    edge parameter hangs rings of linker points on a fixed subset of anchor
    adjacencies. Point order is anchors, node1 points, node2 points, linker
    points, so clouds differing only in `edge` share an identical prefix.
    """
    for name, value, vocab in zip(PARAM_NAMES, params.as_tuple(), _VOCABULARY):
        if value not in vocab:
            raise ValueError(f"unknown {name} {value!r}")

    anchors, adjacency = _template_motif(params.template, ANCHOR_SPACING)
    center = np.array([spec.grid.origin[a] + spec.grid.side / 2.0 for a in range(3)])
    anchors = anchors + center

    pts: list[np.ndarray] = [a for a in anchors]
    labels = ["M"] * len(anchors)

    pts.extend(_node_points(params.node1, anchors[0], NODE_RADIUS))
    labels.extend(["N"] * len(_NODE_SHAPES[params.node1][0]))
    if params.node2 != NONE_VALUE:
        pts.extend(_node_points(params.node2, anchors[1], NODE_RADIUS))
        labels.extend(["O"] * len(_NODE_SHAPES[params.node2][0]))
    if params.edge != NONE_VALUE:
        for (i, j) in adjacency[::2][:MAX_LINKER_RINGS]:
            ring = _ring_points(params.edge, anchors[i], anchors[j])
            pts.extend(ring)
            labels.extend(["C"] * len(ring))

    cloud = PointCloud(np.array(pts), tuple(labels))
    lo = np.array(spec.grid.origin)
    hi = lo + spec.grid.side
    if (cloud.points < lo).any() or (cloud.points >= hi).any():
        raise ValueError("generated structure does not fit inside the grid cube")
    return cloud


def iter_param_vectors() -> list[ParamVector]:
    """All distinct parameter vectors, in deterministic vocabulary order."""
    return [ParamVector(*v) for v in product(*_VOCABULARY)]


# ---------------------------------------------------------------------------
# Target surrogate, perturbation, distances

def synthetic_target(cloud: PointCloud, probe_radius: float,
                     spec: GridSpec = GridSpec()) -> float:
    """Void-shell fraction: percentage of grid-cell centers whose nearest
    cloud point lies at distance in [probe_radius, 2*probe_radius).

    A geometric stand-in for an annotated adsorption level: it grows with
    the amount of probe-sized pore space around the structure. Empty clouds
    score 0 by definition. Invariant under point reordering.

    Only centers inside the cloud's bounding box grown by 2*probe_radius can
    count, so only those are measured (with one cell of slack against
    rounding); the fraction is still taken over every center. Each center
    keeps a running minimum of squared distances over the points, so memory
    stays O(centers). The squares are added x, then y, then z, the order a
    KD-tree query adds them in: float addition is not associative, another
    grouping moves some sums by an ulp, and that can carry a center lying
    exactly on a shell edge across it.
    """
    if not 0 < probe_radius < math.inf:  # NaN too; inf would count no center
        raise ValueError("probe_radius must be positive and finite")
    if len(cloud) == 0:
        return 0.0
    near = _centers_in_box(spec, cloud.points.min(axis=0) - 2.0 * probe_radius,
                           cloud.points.max(axis=0) + 2.0 * probe_radius)
    cx, cy, cz = near.T
    best = np.full(len(near), np.inf)
    for x, y, z in cloud.points:
        np.minimum(best, (cx - x) ** 2 + (cy - y) ** 2 + (cz - z) ** 2, out=best)
    dist = np.sqrt(best)
    frac = np.count_nonzero((dist >= probe_radius) & (dist < 2.0 * probe_radius)) / spec.n_cells
    return 100.0 * frac


def _centers_in_box(spec: GridSpec, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Cell centers of every cell that meets [lo, hi], plus one cell each side."""
    c = spec.cells_per_axis
    origin = np.array(spec.origin)
    first = np.clip(np.floor((lo - origin) / spec.cell_size) - 1, 0, c).astype(int)
    stop = np.clip(np.floor((hi - origin) / spec.cell_size) + 2, 0, c).astype(int)
    ax = [origin[k] + (np.arange(first[k], stop[k]) + 0.5) * spec.cell_size
          for k in range(3)]
    gx, gy, gz = np.meshgrid(*ax, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])


def perturb(cloud: PointCloud, length: float, seed: int) -> PointCloud:
    """Displace every point by exactly `length` along an independent
    uniformly-random direction. Deterministic given `seed`; preserves point
    count, order, and labels."""
    if not length > 0:
        raise ValueError("length must be positive")
    rng = np.random.default_rng(seed)
    n = len(cloud)
    vec = rng.standard_normal((n, 3))
    norms = np.linalg.norm(vec, axis=1)
    while (norms < 1e-12).any():  # essentially unreachable; keeps directions well-defined
        bad = norms < 1e-12
        vec[bad] = rng.standard_normal((int(bad.sum()), 3))
        norms = np.linalg.norm(vec, axis=1)
    return PointCloud(cloud.points + length * vec / norms[:, None], cloud.labels)


def pairwise_distances(cloud: PointCloud) -> np.ndarray:
    """Symmetric Euclidean distance matrix with a zero diagonal."""
    p = cloud.points
    diff = p[:, None, :] - p[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


# ---------------------------------------------------------------------------
# Grid featurization

def point_cell_indices(cloud: PointCloud, spec: GridSpec) -> np.ndarray:
    """Flat cell index per point (x-major), -1 for points outside the cube.

    Cells are half-open per axis: origin + c*size <= coord < origin + (c+1)*size,
    so a point exactly on an interior boundary lands in the higher-index cell.
    """
    if len(cloud) == 0:
        return np.zeros(0, dtype=np.int64)
    rel = (cloud.points - np.array(spec.origin)) / spec.cell_size
    idx = np.floor(rel).astype(np.int64)
    inside = ((idx >= 0) & (idx < spec.cells_per_axis)).all(axis=1)
    c = spec.cells_per_axis
    flat = (idx[:, 0] * c + idx[:, 1]) * c + idx[:, 2]
    flat[~inside] = -1
    return flat


def grid_counts(cloud: PointCloud, spec: GridSpec) -> GridCounts:
    """Count points per grid cell; out-of-cube points go to the overflow tally."""
    flat = point_cell_indices(cloud, spec)
    inside = flat >= 0
    counts = np.bincount(flat[inside], minlength=spec.n_cells).astype(np.int64)
    return GridCounts(counts, spec, overflow=int((~inside).sum()))
