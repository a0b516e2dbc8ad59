"""Vietoris-Rips persistence for H1 and H2 over Z/2.

A simplex enters the filtration at its diameter (max pairwise distance
among its vertices), so birth and death values are in the same length units
as the input coordinates. Cohomology for pairs, homology chains on demand:
`reduce` reduces the vertex, edge and triangle coboundary blocks bottom up,
each cleared by the previous block's deaths, with the apparent-pair
shortcut; `representative_cycle` reduces the boundary matrix over the death
columns only when a cycle is asked for. Facets are looked up by simplex key.
`reduce_naive`, built from vertex tuples, is the slow textbook oracle for
both. Columns are Python integers used as bitsets, so the Z/2 column
addition is a single XOR.

Classes still alive at the truncation radius are dropped: downstream
histograms have finite axes, so unpaired classes can never be featurized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

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
        self._pairs: list[PersistencePair] | None = None  # set by `reduce`
        self._deaths: dict[int, np.ndarray] = {}  # p -> death columns of the p-block
        self._chains: dict[int, dict[int, int]] = {}  # p -> death simplex -> its chain

    def __len__(self) -> int:
        return sum(self.count(p) for p in range(self.max_dim + 1))

    def count(self, dim: int) -> int:
        return len(self._values[dim])

    def global_index(self, dim: int, pos):
        """Rank of simplex `pos` of `dim` in the (value, dimension, vertices)
        order: `pos`, plus the simplices of each lower dimension with value
        <= its value, plus those of each higher dimension with value < it.
        Each dimension's block is sorted by (value, vertices), so each count
        is one binary search. For an integer array `pos`, a list of ranks."""
        v = self._values[dim][pos]
        rank = np.asarray(pos, dtype=np.int64)
        for q in range(self.max_dim + 1):
            if q != dim:
                rank = rank + np.searchsorted(self._values[q], v, "right" if q < dim else "left")
        return rank.tolist()

    def value(self, dim: int, pos: int) -> float:
        return float(self._values[dim][pos])

    def faces(self, dim: int) -> np.ndarray:
        """(k, dim+1) array: positions (within dim-1) of each simplex's facets,
        column c the facet without vertex c, read from a table indexed by the
        facet's base-n key (Ripser's simplex addressing, Bauer 2021)."""
        if dim in self._faces:
            return self._faces[dim]
        verts = self._verts[dim]
        k = len(verts)
        if dim == 0 or k == 0:
            return np.zeros((k, 0), dtype=np.int64)
        n = self.n_points
        def encode(v):
            key = v[:, 0].astype(np.int64)
            for c in range(1, v.shape[1]):
                key = key * n + v[:, c]
            return key
        # no unset entry is read: every facet of a simplex is in the complex
        table = np.empty(n ** dim, dtype=np.int64)
        table[encode(self._verts[dim - 1])] = np.arange(self.count(dim - 1))
        out = np.empty((k, dim + 1), dtype=np.int64)
        for drop in range(dim + 1):
            out[:, drop] = table[encode(np.delete(verts, drop, axis=1))]
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

def _coboundary_pairs(filtration: Filtration, p: int, cleared: set[int]):
    """Pair (p-1)-simplices with p-simplices by reducing the coboundary
    block: its columns are the (p-1)-simplices, latest first, its rows their
    cofaces, and a column's pivot is its lowest p-position.

    Columns in `cleared` are known to reduce to zero and are not visited. A
    column whose earliest coface is no other column's pivot is paired at
    once (Ripser's apparent and emergent pairs); only the others are built
    as Python-int bitsets, where the pivot is the lowest set bit and the Z/2
    column addition is one XOR.

    Returns (births, deaths): the (p-1)- and p-positions of every pair,
    zero-persistence pairs included.
    """
    faces = filtration.faces(p).ravel()
    counts = np.bincount(faces, minlength=filtration.count(p - 1))
    ends = np.cumsum(counts)
    starts, ends = (ends - counts).tolist(), ends.tolist()
    # by facet, then coface: one unstable sort of unique keys beats a stable one
    cofaces = (np.argsort(faces * len(faces) + np.arange(len(faces))) // (p + 1)).tolist()

    def bitset(s):
        col = 0
        for c in cofaces[starts[s]:ends[s]]:
            col |= 1 << c
        return col

    owner: dict[int, int] = {}    # pivot row -> column
    reduced: dict[int, int] = {}  # column -> its reduced bitset, once built
    for s in range(len(ends) - 1, -1, -1):
        if s in cleared or starts[s] == ends[s]:
            continue
        pivot = cofaces[starts[s]]
        if pivot not in owner:
            owner[pivot] = s
            continue
        col = bitset(s)
        while col:
            low = (col & -col).bit_length() - 1
            k = owner.get(low)
            if k is None:
                owner[low] = s
                reduced[s] = col
                break
            if k not in reduced:
                reduced[k] = bitset(k)
            col ^= reduced[k]
    deaths = np.fromiter(owner.keys(), dtype=np.int64, count=len(owner))
    births = np.fromiter(owner.values(), dtype=np.int64, count=len(owner))
    return births, deaths


def _reduced_columns(filtration: Filtration, p: int, columns: np.ndarray) -> dict[int, int]:
    """Reduce the given columns of the dimension-p boundary block, in
    increasing order; rows are (p-1)-simplex positions.

    Every column is a Python int used as a bitset over the rows, so the Z/2
    column addition is one XOR and the pivot is the highest set bit. A
    column left out must be one that reduces to zero: such a column is never
    added to another, so the reduced columns of the rest are unchanged.

    Returns the reduced column of every column that does not reduce to zero.
    """
    pivot_to_col: dict[int, int] = {}
    reduced: dict[int, int] = {}
    for j, faces in zip(columns.tolist(), filtration.faces(p)[columns].tolist()):
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
    return reduced


def _bits(x: int):
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def reduce(filtration: Filtration) -> list[PersistencePair]:
    """Persistence pairs of dimensions 1 and 2, zero-persistence pairs dropped.

    Cohomology for pairs, homology chains on demand: each block is reduced
    as a coboundary matrix (de Silva, Morozov & Vejdemo-Johansson 2011),
    which gives the same pairs as the boundary matrix. The blocks go bottom
    up: vertices against edges for H0, edges against triangles for H1, then
    triangles against tetrahedra for H2. H0 pairs are not reported. Clearing:
    every edge that dies in H0 (joins two components) is left out of the H1
    block, and every triangle that dies in H1, zero persistence included,
    out of the H2 block. The pairs and each block's death columns are
    cached on the filtration; `representative_cycle` builds the homology
    chains from the latter.
    """
    if filtration._pairs is None:
        pairs, cleared = [], set()
        for p in range(1, filtration.max_dim + 1):
            births, deaths = _coboundary_pairs(filtration, p, cleared)
            cleared = set(deaths.tolist())
            filtration._deaths[p] = np.sort(deaths)
            if p == 1:
                continue
            birth = filtration._values[p - 1][births]
            death = filtration._values[p][deaths]
            kept = death > birth
            pairs += [PersistencePair(p - 1, *q) for q in zip(
                birth[kept].tolist(), death[kept].tolist(),
                filtration.global_index(p - 1, births[kept]),
                filtration.global_index(p, deaths[kept]))]
        pairs.sort(key=lambda q: (q.dimension, q.birth, q.death, q.death_simplex))
        filtration._pairs = pairs
    return list(filtration._pairs)


def reduce_naive(filtration: Filtration) -> list[PersistencePair]:
    """Textbook left-to-right reduction over the full boundary matrix.

    Slow test oracle: no clearing, no per-dimension blocking; it sorts the
    simplices into the (value, dimension, vertices) order itself, finds each
    facet by its vertex tuple, not through `Filtration.faces`, and its
    columns are plain sets of global row indices.
    """
    order = sorted((filtration.value(p, pos), p, tuple(filtration._verts[p][pos].tolist()))
                   for p in range(filtration.max_dim + 1) for pos in range(filtration.count(p)))
    index_of = {verts: g for g, (_, _, verts) in enumerate(order)}
    columns = [{index_of[face] for face in combinations(verts, p)} if p else set()
               for _, p, verts in order]
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

    Cohomology for pairs, homology chains on demand: on first use for a
    dimension, the boundary block of the pair's death simplices is reduced
    over the death columns `reduce` found (every other column reduces to
    zero), and the chain of every death column is cached on the filtration.

    An approximation to a tight representative: it is born by the pair's
    birth time and becomes a boundary exactly at the death time.
    """
    p = pair.dimension + 1
    if p not in range(2, filtration.max_dim + 1):
        raise KeyError(f"pair {pair} not found in the reduction record")
    chains = filtration._chains.get(p)
    if chains is None:
        reduce(filtration)
        deaths = filtration._deaths[p]
        reduced = _reduced_columns(filtration, p, deaths)
        chains = dict(zip(filtration.global_index(p, deaths),
                          (reduced[j] for j in deaths.tolist())))
        filtration._chains[p] = chains
    if pair.death_simplex not in chains:
        raise KeyError(f"pair {pair} not found in the reduction record")
    verts = filtration._verts[pair.dimension]
    simplices = tuple(tuple(int(v) for v in verts[pos])
                      for pos in _bits(chains[pair.death_simplex]))
    vertex_set = frozenset(v for s in simplices for v in s)
    return RepresentativeCycle(pair, vertex_set, simplices)


def diagrams_to_records(pairs) -> list[dict]:
    return [{"dim": p.dimension, "birth": p.birth, "death": p.death} for p in pairs]
