"""Fixed-length features from persistence diagrams.

Each diagram becomes a 2-D count histogram over (birth, persistence) with
hard cutoffs on both axes, optionally smoothed by a small Gaussian whose
standard deviation is given in the same length units as the diagram. The
H1 and H2 images are flattened and concatenated into the model's feature
vector; the pixel <-> flat-index map defined here is shared by every
attribution output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import persistence as ph

BINS = 54
H1_BIRTH_MAX = 27.0
H1_PERSISTENCE_MAX = 8.8
H2_BIRTH_MAX = 27.0
H2_PERSISTENCE_MAX = 3.5
BLUR_SIGMA = 0.15


@dataclass(frozen=True)
class HistogramSpec:
    dimension: int
    birth_max: float
    persistence_max: float
    bins_per_axis: int = BINS
    blur_sigma: float = BLUR_SIGMA

    def __post_init__(self):
        for name in ("birth_max", "persistence_max"):
            if not 0 < getattr(self, name) < math.inf:  # NaN too
                raise ValueError(f"{name} must be positive and finite")
        if self.bins_per_axis < 1:
            raise ValueError("bins_per_axis must be >= 1")
        sigma_bins = self.blur_sigma * self.bins_per_axis / min(self.birth_max,
                                                               self.persistence_max)
        if not (self.blur_sigma >= 0 and sigma_bins < math.inf):
            raise ValueError("blur_sigma must be >= 0 and finite, in length and in bin units")

    def to_dict(self) -> dict:
        return {"dimension": self.dimension, "birth_max": self.birth_max,
                "persistence_max": self.persistence_max,
                "bins_per_axis": self.bins_per_axis, "blur_sigma": self.blur_sigma}

    @classmethod
    def from_dict(cls, d: dict) -> "HistogramSpec":
        return cls(int(d["dimension"]), float(d["birth_max"]), float(d["persistence_max"]),
                   int(d["bins_per_axis"]), float(d["blur_sigma"]))


def default_spec(dimension: int) -> HistogramSpec:
    if dimension == 1:
        return HistogramSpec(1, H1_BIRTH_MAX, H1_PERSISTENCE_MAX)
    if dimension == 2:
        return HistogramSpec(2, H2_BIRTH_MAX, H2_PERSISTENCE_MAX)
    raise ValueError("dimension must be 1 or 2")


@dataclass
class LandscapeImage:
    """values[i, j] covers birth bin i and persistence bin j; `dropped`
    counts diagram points outside the axis window."""

    values: np.ndarray
    spec: HistogramSpec
    dropped: int = 0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        b = self.spec.bins_per_axis
        if v.shape != (b, b):
            raise ValueError(f"values must be {b}x{b}")
        if not np.isfinite(v).all() or (v < 0).any():
            raise ValueError("values must be finite and non-negative")
        self.values = v


def pixel_of_pair(pair, spec: HistogramSpec) -> tuple[int, int] | None:
    """(birth bin, persistence bin) of a diagram pair, or None outside the
    axis window. Bins are uniform and half-open on [0, max], the last closed."""
    b = spec.bins_per_axis
    birth, pers = pair.birth, pair.death - pair.birth
    if birth < 0 or birth > spec.birth_max or pers < 0 or pers > spec.persistence_max:
        return None
    return (min(int(birth / spec.birth_max * b), b - 1),
            min(int(pers / spec.persistence_max * b), b - 1))


def histogram(diag, spec: HistogramSpec) -> LandscapeImage:
    """Count diagram pairs into (birth, persistence) bins.

    Pairs beyond either cutoff are tallied in `dropped`, never silently
    discarded, so histogram mass + dropped always equals the diagram size.
    """
    if spec.dimension != diag.dimension:
        raise ValueError("spec dimension does not match the diagram")
    b = spec.bins_per_axis
    values = np.zeros((b, b))
    dropped = 0
    for pair in diag.pairs:
        pixel = pixel_of_pair(pair, spec)
        if pixel is None:
            dropped += 1
        else:
            values[pixel] += 1.0
    return LandscapeImage(values, spec, dropped)


def _axis_kernel(sigma_bins: float, n: int) -> np.ndarray:
    """Gaussian taps out to 3 sigma, but no further than the n - 1 bins
    that a tap can reach on an axis of n bins."""
    radius = int(min(3.0 * sigma_bins, n - 1))
    offsets = np.arange(-radius, radius + 1)
    w = np.exp(-0.5 * (offsets / sigma_bins) ** 2)
    return w / w.sum()


def _blur_axis(arr: np.ndarray, sigma_bins: float) -> np.ndarray:
    """1-D Gaussian along axis 0, kernel cut at 3 sigma and renormalized to
    the in-bounds taps at each position (constants pass through unchanged)."""
    n = arr.shape[0]
    w = _axis_kernel(sigma_bins, n)
    radius = (len(w) - 1) // 2
    if radius == 0:
        return arr.copy()
    out = np.zeros_like(arr)
    norm = np.zeros(n)
    for k in range(-radius, radius + 1):
        lo, hi = max(0, -k), min(n, n - k)
        out[lo:hi] += w[k + radius] * arr[lo + k:hi + k]
        norm[lo:hi] += w[k + radius]
    return out / norm[:, None]


def gaussian_blur(image: LandscapeImage) -> LandscapeImage:
    """Separable Gaussian smoothing with sigma in diagram axis units.

    Sigma is converted to bin units independently per axis, so the same
    physical sigma blurs a short axis more (in bins) than a long one.
    sigma = 0 is the identity.
    """
    spec = image.spec
    if spec.blur_sigma == 0:
        return LandscapeImage(image.values.copy(), spec, image.dropped)
    b = spec.bins_per_axis
    sigma_birth = spec.blur_sigma * b / spec.birth_max
    sigma_pers = spec.blur_sigma * b / spec.persistence_max
    out = _blur_axis(image.values, sigma_birth)
    out = _blur_axis(out.T, sigma_pers).T
    return LandscapeImage(out, spec, image.dropped)


def landscapes(pairs, h1_spec: HistogramSpec, h2_spec: HistogramSpec
               ) -> tuple[LandscapeImage, LandscapeImage]:
    """Blurred H1 and H2 images of one cloud's persistence pairs: the one
    pairs -> features path, shared by the vectorize stage and the grid
    scorer so that a perturbed cloud is scored like the training data."""
    img1 = gaussian_blur(histogram(ph.diagram(pairs, 1), h1_spec))
    img2 = gaussian_blur(histogram(ph.diagram(pairs, 2), h2_spec))
    return img1, img2


def features(h1: LandscapeImage, h2: LandscapeImage) -> np.ndarray:
    """Flatten H1 then H2 row-major into one vector.

    H1 pixel (i, j) -> flat index i*bins + j; H2 pixel (i, j) ->
    bins^2 + i*bins + j, where i is the birth bin and j the persistence bin.
    """
    if h1.spec.dimension != 1 or h2.spec.dimension != 2:
        raise ValueError("expected an H1 image then an H2 image")
    if h1.spec.bins_per_axis != h2.spec.bins_per_axis:
        raise ValueError("images must share bins_per_axis")
    return np.concatenate([h1.values.ravel(), h2.values.ravel()])


def split_features(vec) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of `features`: recover the two bins x bins grids, with bins
    worked out from the vector's length."""
    vec = np.asarray(vec, dtype=float)
    bins = math.isqrt(vec.size // 2)
    if vec.ndim != 1 or bins == 0 or vec.size != 2 * bins * bins:
        raise ValueError(f"feature width {vec.shape} is not 2 * bins^2")
    half = bins * bins
    return vec[:half].reshape(bins, bins), vec[half:].reshape(bins, bins)
