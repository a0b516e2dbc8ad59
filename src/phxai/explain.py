"""Pipeline-level explanations.

Composes the cohort attribution machinery with the persistence pipeline:
per-pixel heatmaps over the landscape images, attributions over the four
categorical generator parameters, spatial attributions over grid cells
split evenly onto the points inside them, and the higher-order pass that
decomposes every pixel's attribution into per-parameter contributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GridSpec, PointCloud, grid_counts, point_cell_indices, PARAM_NAMES
from .vectorize import default_spec, pixel_of_pair, split_features
from .xai import (SimilaritySpec, cohort_shapley, igcs, similarity_matrix,
                  DEFAULT_STEPS)


@dataclass
class PixelAttributionMap:
    """Two bins x bins grids aligned with the landscape images; grid sums
    bridge baseline -> total up to the attribution method's tolerance."""

    h1: np.ndarray
    h2: np.ndarray
    baseline: float
    total: float

    @property
    def bins(self) -> int:
        return self.h1.shape[0]

    def flat(self) -> np.ndarray:
        return np.concatenate([self.h1.ravel(), self.h2.ravel()])

    def grid(self, dimension: int) -> np.ndarray:
        if dimension == 1:
            return self.h1
        if dimension == 2:
            return self.h2
        raise ValueError("dimension must be 1 or 2")


@dataclass
class GridAttribution:
    """Spatial attribution: one value per retained grid cell, split evenly
    over the target's points inside each occupied cell.

    Cells empty across the whole assembled dataset are dropped from the
    feature set before attribution (they are exact dummies) and report 0.
    Points outside the cube are rejected upstream, so overflow attribution
    is always zero.
    """

    spec: GridSpec
    cell_index: np.ndarray    # retained flat cell indices
    cell_value: np.ndarray
    point_value: np.ndarray   # aligned with the target cloud's point order
    point_cell: np.ndarray
    baseline: float
    total: float
    n_dropped: int

    def value_of_cell(self, flat_index: int) -> float:
        pos = np.searchsorted(self.cell_index, flat_index)
        if pos < len(self.cell_index) and self.cell_index[pos] == flat_index:
            return float(self.cell_value[pos])
        return 0.0

    def to_record(self) -> dict:
        cells = []
        for pos, idx in enumerate(self.cell_index):
            pts = np.flatnonzero(self.point_cell == idx)
            cells.append({"index": int(idx), "value": float(self.cell_value[pos]),
                          "point_indices": [int(p) for p in pts]})
        points = [{"index": i, "value": float(v)} for i, v in enumerate(self.point_value)]
        return {"grid": self.spec.to_dict(), "baseline": self.baseline,
                "total": self.total, "dropped_cells": self.n_dropped,
                "cells": cells, "points": points}


@dataclass
class ParamAttribution:
    values: dict[str, float]
    baseline: float
    total: float

    def to_record(self) -> dict:
        return {"baseline": self.baseline, "total": self.total,
                "values": [self.values[n] for n in PARAM_NAMES],
                "feature_names": list(PARAM_NAMES)}


@dataclass
class HigherOrderMaps:
    """One pixel grid pair per generator parameter.

    At every computed pixel the four parameter values sum (exactly, by
    Shapley efficiency) to that pixel's full-cohort value minus the
    reported per-pixel baseline, the dataset-mean attribution there.
    """

    maps: dict[str, PixelAttributionMap]
    pixel_baseline: np.ndarray   # flat, dataset-mean attribution per computed pixel
    computed: np.ndarray         # flat bool mask of computed pixels
    first_order: PixelAttributionMap


@dataclass(frozen=True)
class PixelCycleMatch:
    """One high-attribution pixel and the diagram pairs that land in it;
    `pairs` is empty when blur spillover left the bin without a generator."""

    dimension: int
    birth_bin: int
    persistence_bin: int
    value: float
    pairs: tuple


def pixel_attribution(dataset_features, predictions, target_row: int,
                      similarity: SimilaritySpec = SimilaritySpec(),
                      steps: int = DEFAULT_STEPS) -> PixelAttributionMap:
    """IGCS over the flattened landscape pixels with the model's own
    predictions as the explained output, reshaped into H1/H2 grids."""
    X = np.asarray(dataset_features, dtype=float)
    y = np.asarray(predictions, dtype=float)
    split_features(np.zeros(X.shape[1]))  # reject a bad width before the cohort is built
    cohort = similarity_matrix(X, target_row, similarity)
    att = igcs(cohort, y, steps)
    h1, h2 = split_features(att.values)
    return PixelAttributionMap(h1, h2, att.baseline, att.total)


def param_attribution(params_table, y, target_row: int) -> ParamAttribution:
    """Exact Cohort Shapley over the four categorical generator parameters."""
    rows = [p.as_tuple() if hasattr(p, "as_tuple") else tuple(p) for p in params_table]
    X = np.array(rows, dtype=object)
    cohort = similarity_matrix(X, target_row, SimilaritySpec(kinds="categorical"))
    att = cohort_shapley(cohort, np.asarray(y, dtype=float))
    return ParamAttribution(dict(zip(PARAM_NAMES, map(float, att.values))),
                            att.baseline, att.total)


def grid_based_explanation(target_cloud: PointCloud, cohort_clouds, pipeline,
                           spec: GridSpec, steps: int = DEFAULT_STEPS,
                           similarity: SimilaritySpec = SimilaritySpec()
                           ) -> GridAttribution:
    """Spatial attribution of the end-to-end score over grid-cell counts.

    The assembled dataset is the target (row 0) followed by the cohort;
    cells empty across all of it are dropped before attribution, each
    retained cell's count becomes a feature, and every occupied target
    cell's value is split evenly among its points.
    """
    cohort_clouds = list(cohort_clouds)
    if not cohort_clouds:
        raise ValueError("cohort must contain at least one cloud")
    clouds = [target_cloud] + cohort_clouds
    rows = []
    for c in clouds:
        gc = grid_counts(c, spec)
        if gc.overflow:
            raise ValueError(f"{gc.overflow} points fall outside the grid cube;"
                             " enlarge the grid")
        rows.append(gc.counts.astype(np.int32))
    counts = np.stack(rows)
    kept = np.flatnonzero(counts.max(axis=0) > 0)
    X = counts[:, kept].astype(float)
    y = np.array([float(pipeline(c)) for c in clouds])
    cohort = similarity_matrix(X, 0, similarity)
    att = igcs(cohort, y, steps)

    point_cell = point_cell_indices(target_cloud, spec)
    cell_value_of = dict(zip(kept.tolist(), att.values.tolist()))
    target_counts = counts[0]
    point_value = np.array([cell_value_of[c] / target_counts[c] for c in point_cell])
    return GridAttribution(spec, kept, att.values, point_value, point_cell,
                           att.baseline, att.total,
                           n_dropped=int(spec.n_cells - len(kept)))


def default_pixel_subset(first_order: PixelAttributionMap, quantile: float = 0.95
                         ) -> np.ndarray:
    """Flat indices of pixels whose |attribution| exceeds the given quantile."""
    flat = np.abs(first_order.flat())
    threshold = float(np.quantile(flat, quantile))
    return np.flatnonzero(flat > threshold)


def higher_order(params_table, dataset_features, predictions, target_row: int,
                 pixel_subset=None, steps: int = DEFAULT_STEPS,
                 quantile: float = 0.95,
                 similarity: SimilaritySpec = SimilaritySpec()) -> HigherOrderMaps:
    """Decompose pixel attributions into per-parameter contributions.

    Every dataset row gets its own pixel map (IGCS against the shared
    dataset); then, pixel by pixel, exact Cohort Shapley over the four
    categorical parameters splits the column of per-row attributions.
    Pixels outside the subset are left at zero and flagged as not computed.
    """
    X = np.asarray(dataset_features, dtype=float)
    y = np.asarray(predictions, dtype=float)
    n, d = X.shape
    first = pixel_attribution(X, y, target_row, similarity, steps)
    if pixel_subset is None:
        pixel_subset = default_pixel_subset(first, quantile)
    pixel_subset = np.asarray(sorted(int(p) for p in pixel_subset), dtype=np.int64)

    attr = np.zeros((n, len(pixel_subset)))
    for i in range(n):
        row_cohort = similarity_matrix(X, i, similarity)
        attr[i] = igcs(row_cohort, y, steps).values[pixel_subset]

    rows = [p.as_tuple() if hasattr(p, "as_tuple") else tuple(p) for p in params_table]
    param_cohort = similarity_matrix(np.array(rows, dtype=object), target_row,
                                     SimilaritySpec(kinds="categorical"))
    flat_maps = {name: np.zeros(d) for name in PARAM_NAMES}
    baseline = np.zeros(d)
    computed = np.zeros(d, dtype=bool)
    for col, p in enumerate(pixel_subset):
        cs = cohort_shapley(param_cohort, attr[:, col])
        for name, v in zip(PARAM_NAMES, cs.values):
            flat_maps[name][p] = v
        baseline[p] = cs.baseline
        computed[p] = True

    maps = {}
    for name in PARAM_NAMES:
        h1, h2 = split_features(flat_maps[name])
        maps[name] = PixelAttributionMap(h1, h2, 0.0, 0.0)
    return HigherOrderMaps(maps, baseline, computed, first)


def influential_cycles(attr_map: PixelAttributionMap, diag, top_k: int,
                       spec=None) -> list[PixelCycleMatch]:
    """Top-|attribution| pixels of the diagram's dimension, each matched to
    the diagram pairs whose (birth, persistence) falls in that bin."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if spec is None:
        spec = default_spec(diag.dimension)
    bins = attr_map.bins
    if spec.bins_per_axis != bins:
        raise ValueError("attribution map and histogram spec disagree on bins")
    grid = attr_map.grid(diag.dimension)
    flat = grid.ravel()
    order = np.lexsort((np.arange(len(flat)), -np.abs(flat)))[:top_k]

    binned: dict[tuple[int, int], list] = {}
    for pair in diag.pairs:
        pixel = pixel_of_pair(pair, spec)
        if pixel is not None:
            binned.setdefault(pixel, []).append(pair)
    out = []
    for f in order:
        i, j = int(f) // bins, int(f) % bins
        out.append(PixelCycleMatch(diag.dimension, i, j, float(flat[f]),
                                   tuple(binned.get((i, j), ()))))
    return out
