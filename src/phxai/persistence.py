"""Vietoris-Rips persistence for H1 and H2 over Z/2.

A simplex enters the filtration at its diameter (max pairwise distance
among its vertices), so birth and death values are in the same length units
as the input coordinates. Pairs are computed by boundary-matrix column
reduction; `reduce` works per dimension with the clearing optimization and
`reduce_naive` is the slow textbook oracle used to cross-check it. Columns
are kept as Python integers used as bitsets, which makes the Z/2 column
addition a single XOR.

Classes still alive at the truncation radius are dropped: downstream
histograms have finite axes, so unpaired classes can never be featurized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_MAX_RADIUS = 35.8  # birth cutoff + persistence cutoff of the H1 histogram window

_ENUMERATION_BUDGET = 3_000_000


class SimplexBudgetError(RuntimeError):
    """The cloud would generate more simplices than the configured budget."""


@dataclass(frozen=True)
class PersistencePair:
    dimension: int
    birth: float
    death: float
    birth_simplex: int  # global filtration index
    death_simplex: int

    @property
    def persistence(self) -> float:
        return self.death - self.birth


@dataclass
class PersistenceDiagram:
    dimension: int
    pairs: list[PersistencePair]

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class RepresentativeCycle:
    """Vertex support of a cycle realizing a persistence pair.

    `simplices` holds the chain itself (tuples of vertex ids, all of the
    pair's dimension); its Z/2 boundary is empty.
    """

    pair: PersistencePair
    vertex_set: frozenset[int]
    simplices: tuple[tuple[int, ...], ...]


class Filtration:
    """Simplices of dimension <= max_dim sorted by (value, dimension, vertices).

    Storage is columnar per dimension. Faces of every simplex precede it in
    the global order.
    """

    def __init__(self, verts_by_dim, values_by_dim, max_dim: int, n_points: int):
        self._verts = verts_by_dim    # dim -> (k, dim+1) int array, sorted
        self._values = values_by_dim  # dim -> (k,) float array
        self.max_dim = max_dim
        self.n_points = n_points
        self._faces: dict[int, np.ndarray] = {}
        self._reduction = None

    def __len__(self) -> int:
        return sum(self.count(p) for p in range(self.max_dim + 1))

    def count(self, dim: int) -> int:
        return len(self._values[dim])

    def global_index(self, dim: int, pos: int) -> int:
        """Rank of simplex `pos` of `dim` in the (value, dimension, vertices)
        order: `pos`, plus the simplices of each lower dimension with value
        <= its value, plus those of each higher dimension with value < it.
        Each dimension's block is sorted by (value, vertices), so each count
        is one binary search."""
        v = self._values[dim][pos]
        rank = pos
        for q in range(self.max_dim + 1):
            if q != dim:
                rank += np.searchsorted(self._values[q], v, "right" if q < dim else "left")
        return int(rank)

    def value(self, dim: int, pos: int) -> float:
        return float(self._values[dim][pos])

    def faces(self, dim: int) -> np.ndarray:
        """(k, dim+1) array: positions (within dim-1) of each simplex's facets."""
        if dim in self._faces:
            return self._faces[dim]
        verts = self._verts[dim]
        k = len(verts)
        if dim == 0 or k == 0:
            return np.zeros((k, 0), dtype=np.int64)
        sub_verts = self._verts[dim - 1]
        n = self.n_points
        def encode(v):
            key = v[:, 0].astype(np.int64)
            for c in range(1, v.shape[1]):
                key = key * n + v[:, c]
            return key
        sub_keys = encode(sub_verts)
        sub_order = np.argsort(sub_keys, kind="stable")
        sub_sorted = sub_keys[sub_order]
        out = np.empty((k, dim + 1), dtype=np.int64)
        for drop in range(dim + 1):
            face = np.delete(verts, drop, axis=1)
            loc = np.searchsorted(sub_sorted, encode(face))
            out[:, drop] = sub_order[loc]
        self._faces[dim] = out
        return out


def _enclosing_radius(dist: np.ndarray) -> float:
    """min over points of the largest distance to any other point; inf for
    n <= 1. Read from the upper triangle, as the simplex diameters are."""
    if len(dist) <= 1:
        return math.inf
    upper = np.triu(dist, 1)
    return float((upper + upper.T).max(axis=1).min())


def build_rips(dist: np.ndarray, max_dim: int, max_radius: float) -> Filtration:
    """Every simplex of dimension <= max_dim whose diameter is at most
    min(max_radius, enclosing radius), sorted filtration-ready.

    The enclosing radius is the smallest, over all points, of a point's
    largest distance to any other point. From that radius on, the Rips
    complex is a cone over the point that attains it, so it has no homology
    in positive dimensions, and every H1 or H2 class born before it dies by
    it (Bauer 2021, Ripser). Simplices above it could only give
    zero-persistence pairs. The cut keeps every simplex of value <= the cut,
    a prefix of the (value, dimension, vertices) order, so global simplex
    indices, pairs and reduced chains are those of the uncut complex.

    The complex grows by clique expansion (Zomorodian 2010): each p-simplex
    is a (p-1)-simplex plus a vertex above its last vertex that lies within
    the cut of all of its vertices, and its value is the max of the parent's
    value and the new edges' lengths, which is exactly its diameter.

    Raises SimplexBudgetError instead of silently truncating when the
    C(n, k) candidate count, before the cut, exceeds `_ENUMERATION_BUDGET`.
    """
    dist = np.asarray(dist, dtype=float)
    n = dist.shape[0]
    if max_dim not in (2, 3):
        raise ValueError("max_dim must be 2 or 3")
    if not max_radius > 0:  # NaN too: it would cut every edge
        raise ValueError("max_radius must be positive")
    total_candidates = sum(math.comb(n, k) for k in range(2, max_dim + 2))
    if total_candidates > _ENUMERATION_BUDGET:
        raise SimplexBudgetError(
            f"{n} points imply up to {total_candidates} simplices,"
            f" over the budget of {_ENUMERATION_BUDGET}")

    near = np.triu(dist <= min(max_radius, _enclosing_radius(dist)), 1)
    verts, values = np.arange(n, dtype=np.int64)[:, None], np.zeros(n)
    verts_by_dim, values_by_dim = {0: verts}, {0: values}
    for p in range(1, max_dim + 1):
        common = near[verts[:, 0]]
        for c in range(1, p):
            common &= near[verts[:, c]]
        parent, top = np.nonzero(common)
        values = values[parent]
        for c in range(p):
            np.maximum(values, dist[verts[parent, c], top], out=values)
        verts = np.column_stack([verts[parent], top])
        order = np.lexsort([verts[:, c] for c in range(p, -1, -1)] + [values])
        verts, values = verts[order], values[order]
        verts_by_dim[p], values_by_dim[p] = verts, values
    return Filtration(verts_by_dim, values_by_dim, max_dim, n)


# ---------------------------------------------------------------------------
# Reduction

def _pairs_from_block(filtration: Filtration, p: int, skip: set[int]):
    """Reduce the dimension-p column block; rows are (p-1)-simplex positions.

    Every column is a Python int used as a bitset over the rows, so the Z/2
    column addition is one XOR and the pivot is the highest set bit.
    Columns in `skip` are known to reduce to zero and are not visited.

    Returns the (pivot row -> column) pairing and the reduced column of
    every paired column.
    """
    pivot_to_col: dict[int, int] = {}
    reduced: dict[int, int] = {}
    for j, faces in enumerate(filtration.faces(p).tolist()):
        if j in skip:
            continue
        col = 0
        for r in faces:
            col |= 1 << r
        while col:
            low = col.bit_length() - 1
            k = pivot_to_col.get(low)
            if k is None:
                pivot_to_col[low] = j
                reduced[j] = col
                break
            col ^= reduced[k]
    return pivot_to_col, reduced


def _bits(x: int):
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def reduce(filtration: Filtration) -> list[PersistencePair]:
    """Persistence pairs of dimensions 1 and 2, zero-persistence pairs dropped.

    Works dimension by dimension from the top so that pivots found in the
    (p+1)-block clear known-zero columns of the p-block before they are
    reduced. The reduced death columns are cached on the filtration for
    representative-cycle extraction.
    """
    if filtration._reduction is not None:
        return list(filtration._reduction[0])
    pairs = []
    chains: dict[tuple[int, int], tuple[int, ...]] = {}
    skip: set[int] = set()
    for p in range(filtration.max_dim, 1, -1):
        pivot_to_col, reduced = _pairs_from_block(filtration, p, skip)
        for low, j in pivot_to_col.items():
            birth = filtration.value(p - 1, low)
            death = filtration.value(p, j)
            if death > birth:
                pair = PersistencePair(p - 1, birth, death,
                                       filtration.global_index(p - 1, low),
                                       filtration.global_index(p, j))
                pairs.append(pair)
                chains[(pair.dimension, pair.death_simplex)] = tuple(_bits(reduced[j]))
        skip = set(pivot_to_col.keys())
    pairs.sort(key=lambda q: (q.dimension, q.birth, q.death, q.death_simplex))
    filtration._reduction = (pairs, chains)
    return list(pairs)


def reduce_naive(filtration: Filtration) -> list[PersistencePair]:
    """Textbook left-to-right reduction over the full boundary matrix.

    Slow test oracle: no clearing, no per-dimension blocking; it sorts the
    simplices into the (value, dimension, vertices) order itself, and its
    columns are plain sets of global row indices.
    """
    order = sorted((filtration.value(p, pos), p, tuple(filtration._verts[p][pos].tolist()), pos)
                   for p in range(filtration.max_dim + 1) for pos in range(filtration.count(p)))
    index_of = {(p, pos): g for g, (_, p, _, pos) in enumerate(order)}
    columns = [{index_of[p - 1, r] for r in filtration.faces(p)[pos].tolist()} if p else set()
               for _, p, _, pos in order]
    low_of: dict[int, int] = {}
    pairs = []
    for j, col in enumerate(columns):
        while col:
            low = max(col)
            k = low_of.get(low)
            if k is None:
                break
            col ^= columns[k]
        if col:
            low = max(col)
            low_of[low] = j
            birth, dim = order[low][:2]
            death = order[j][0]
            if dim in (1, 2) and death > birth:
                pairs.append(PersistencePair(dim, birth, death, low, j))
    pairs.sort(key=lambda q: (q.dimension, q.birth, q.death, q.death_simplex))
    return pairs


def diagram(pairs, dimension: int) -> PersistenceDiagram:
    """Pairs of one dimension, in stable (birth, death) order."""
    if dimension not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    kept = sorted((p for p in pairs if p.dimension == dimension),
                  key=lambda q: (q.birth, q.death))
    return PersistenceDiagram(dimension, kept)


def representative_cycle(filtration: Filtration, pair: PersistencePair) -> RepresentativeCycle:
    """The cycle killed at the pair's death column: the reduced column's chain.

    An approximation to a tight representative: it is born by the pair's
    birth time and becomes a boundary exactly at the death time.
    """
    reduce(filtration)
    chains = filtration._reduction[1]
    key = (pair.dimension, pair.death_simplex)
    if key not in chains:
        raise KeyError(f"pair {pair} not found in the reduction record")
    positions = chains[key]
    verts = filtration._verts[pair.dimension]
    simplices = tuple(tuple(int(v) for v in verts[pos]) for pos in positions)
    vertex_set = frozenset(v for s in simplices for v in s)
    return RepresentativeCycle(pair, vertex_set, simplices)


def diagrams_to_records(pairs) -> list[dict]:
    return [{"dim": p.dimension, "birth": p.birth, "death": p.death} for p in pairs]
