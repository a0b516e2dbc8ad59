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
from .vectorize import pixel_of_pair, split_features
from .xai import (Attribution, SimilaritySpec, cohort_shapley, igcs, similarity_matrix,
                  DEFAULT_STEPS)

DEFAULT_QUANTILE = 0.95


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
class HigherOrderMaps:
    """One flat pixel map per generator parameter, in `features` order.

    At every computed pixel the four parameter values sum (exactly, by
    Shapley efficiency) to that pixel's full-cohort value minus the
    reported per-pixel baseline, the dataset-mean attribution there.
    """

    maps: dict[str, np.ndarray]
    pixel_baseline: np.ndarray   # flat, dataset-mean attribution per computed pixel
    computed: np.ndarray         # flat bool mask of computed pixels
    first_order: Attribution


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
                      steps: int = DEFAULT_STEPS) -> Attribution:
    """IGCS over the flattened landscape pixels with the model's own
    predictions as the explained output; values stay in `features` order."""
    X = np.asarray(dataset_features, dtype=float)
    y = np.asarray(predictions, dtype=float)
    split_features(np.zeros(X.shape[1]))  # reject a bad width before the cohort is built
    cohort = similarity_matrix(X, target_row, similarity)
    return igcs(cohort, y, steps)


def _param_cohort(params_table, target_row: int):
    """Categorical cohort over the four generator parameters of each row."""
    rows = [p.as_tuple() for p in params_table]
    return similarity_matrix(np.array(rows, dtype=object), target_row,
                             SimilaritySpec(kind="categorical"))


def param_attribution(params_table, y, target_row: int) -> Attribution:
    """Exact Cohort Shapley over the four categorical generator parameters;
    values in `PARAM_NAMES` order."""
    return cohort_shapley(_param_cohort(params_table, target_row), np.asarray(y, dtype=float))


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


def default_pixel_subset(first_order: Attribution, quantile: float) -> np.ndarray:
    """Flat indices of pixels whose |attribution| exceeds the given quantile."""
    flat = np.abs(first_order.values)
    threshold = float(np.quantile(flat, quantile))
    return np.flatnonzero(flat > threshold)


def higher_order(params_table, dataset_features, predictions, target_row: int,
                 pixel_subset=None, steps: int = DEFAULT_STEPS,
                 quantile: float = DEFAULT_QUANTILE,
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

    param_cohort = _param_cohort(params_table, target_row)
    maps = {name: np.zeros(d) for name in PARAM_NAMES}
    baseline = np.zeros(d)
    computed = np.zeros(d, dtype=bool)
    for col, p in enumerate(pixel_subset):
        cs = cohort_shapley(param_cohort, attr[:, col])
        for name, v in zip(PARAM_NAMES, cs.values):
            maps[name][p] = v
        baseline[p] = cs.baseline
        computed[p] = True
    return HigherOrderMaps(maps, baseline, computed, first)


def influential_cycles(values, diag, top_k: int, spec) -> list[PixelCycleMatch]:
    """Top-|attribution| pixels of the diagram's dimension, each matched to
    the diagram pairs whose (birth, persistence) falls in that bin of the
    histogram `spec`. `values` is a flat attribution in `features` order."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if diag.dimension not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    grid = split_features(values)[diag.dimension - 1]
    bins = grid.shape[0]
    if spec.bins_per_axis != bins:
        raise ValueError("attribution map and histogram spec disagree on bins")
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
