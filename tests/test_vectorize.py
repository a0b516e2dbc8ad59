import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phxai import vectorize as vec
from phxai.persistence import PersistenceDiagram, PersistencePair


def make_diagram(dim, pairs):
    return PersistenceDiagram(dim, [PersistencePair(dim, b, d, -1, -1) for b, d in pairs])


def test_defaults_match_cutoff_table():
    h1, h2 = vec.default_spec(1), vec.default_spec(2)
    assert (h1.birth_max, h1.persistence_max) == (27.0, 8.8)
    assert (h2.birth_max, h2.persistence_max) == (27.0, 3.5)
    assert h1.bins_per_axis == h2.bins_per_axis == 54
    assert h1.blur_sigma == 0.15


def test_empty_diagram_zero_image():
    img = vec.histogram(make_diagram(1, []), vec.default_spec(1))
    assert img.values.sum() == 0 and img.dropped == 0


def test_hand_computed_bin():
    # birth 13.5 -> floor(13.5/27*54) = 27. The death-minus-birth persistence
    # of (13.5, 17.9) is 4.3999999999999995 in doubles, one ulp below 4.4,
    # so the half-open rule puts it in persistence bin 26, not 27.
    img = vec.histogram(make_diagram(1, [(13.5, 17.9)]), vec.default_spec(1))
    assert img.values[27, 26] == 1.0
    assert img.values.sum() == 1.0 and img.dropped == 0


def test_hand_computed_bin_exact_persistence():
    # a pair whose persistence is the double 4.4 exactly lands in bin 27
    assert 4.4 - 0.0 == 4.4 and 4.4 / 8.8 == 0.5
    img = vec.histogram(make_diagram(1, [(0.0, 4.4)]), vec.default_spec(1))
    assert img.values[0, 27] == 1.0


def test_persistence_beyond_cutoff_dropped():
    img = vec.histogram(make_diagram(1, [(1.0, 10.0)]), vec.default_spec(1))
    assert img.values.sum() == 0 and img.dropped == 1


def test_axis_edges():
    spec = vec.HistogramSpec(1, 10.0, 5.0, bins_per_axis=10)
    img = vec.histogram(make_diagram(1, [(10.0, 15.0), (0.0, 5.0)]), spec)
    assert img.values[9, 9] == 1.0  # both cutoff maxima fall in the closed last bin
    assert img.values[0, 9] == 1.0


@settings(max_examples=25)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 40))
def test_mass_plus_dropped_equals_size(seed, n):
    rng = np.random.default_rng(seed)
    births = rng.uniform(0, 40, n)
    deaths = births + rng.uniform(0, 12, n)
    dg = make_diagram(1, list(zip(births, deaths)))
    img = vec.histogram(dg, vec.default_spec(1))
    assert img.values.sum() + img.dropped == n


# ---------------------------------------------------------------------------
# Blur

def test_blur_sigma_zero_identity():
    spec = vec.HistogramSpec(1, 27.0, 8.8, blur_sigma=0.0)
    img = vec.histogram(make_diagram(1, [(5.0, 6.0)]), spec)
    out = vec.gaussian_blur(img)
    assert np.array_equal(out.values, img.values)


def test_blur_interior_mass_preserved():
    img = vec.histogram(make_diagram(1, [(13.5, 17.9)]), vec.default_spec(1))
    out = vec.gaussian_blur(img)
    assert out.values.sum() == pytest.approx(1.0, abs=1e-9)
    assert out.values[27, 27] < 1.0  # mass actually spread


def test_blur_constant_image_unchanged():
    spec = vec.default_spec(1)
    img = vec.LandscapeImage(np.full((54, 54), 3.25), spec)
    out = vec.gaussian_blur(img)
    assert np.allclose(out.values, 3.25, atol=1e-12)


@pytest.mark.parametrize("persistence_max", [0.2, 0.44])
def test_blur_kernel_reaches_past_axis(persistence_max):
    """Persistence-axis kernel radius (3 sigma in bins) of 121 and 55 bins,
    both at least the 54-bin axis length."""
    spec = vec.HistogramSpec(2, 27.0, persistence_max, blur_sigma=0.15)
    assert int(3 * 0.15 * 54 / persistence_max) >= 54
    flat = vec.gaussian_blur(vec.LandscapeImage(np.full((54, 54), 3.25), spec))
    assert np.allclose(flat.values, 3.25, atol=1e-12)
    out = vec.gaussian_blur(vec.histogram(make_diagram(2, [(13.5, 13.6)]), spec)).values
    assert np.isfinite(out).all() and (out >= 0).all() and out.sum() > 0


@pytest.mark.parametrize("fields, message", [
    ({"birth_max": float("inf")}, "birth_max must be positive and finite"),
    ({"persistence_max": 0.0}, "persistence_max must be positive and finite"),
    ({"blur_sigma": -0.1}, "blur_sigma must be >= 0"),
    ({"blur_sigma": float("inf")}, "blur_sigma must be >= 0"),
    # finite in length units, but 1e308 * 54 / 3.5 overflows in bin units
    ({"blur_sigma": 1e308}, "blur_sigma must be >= 0"),
])
def test_histogram_spec_value_rules(fields, message):
    args = dict(dimension=2, birth_max=27.0, persistence_max=3.5, blur_sigma=0.15)
    with pytest.raises(ValueError, match=message):
        vec.HistogramSpec(**dict(args, **fields))


def test_blur_kernel_far_wider_than_axis():
    """A 3-sigma radius of about 4.6e21 bins builds only the 53 taps each
    side that a 54-bin axis can use, and blurs a constant image to itself."""
    spec = vec.HistogramSpec(2, 27.0, 3.5, blur_sigma=1e20)
    flat = vec.gaussian_blur(vec.LandscapeImage(np.full((54, 54), 3.25), spec))
    assert np.allclose(flat.values, 3.25, atol=1e-12)


def test_blur_preserves_dropped_tally():
    img = vec.histogram(make_diagram(1, [(1.0, 2.0), (1.0, 30.0)]), vec.default_spec(1))
    assert vec.gaussian_blur(img).dropped == 1


# ---------------------------------------------------------------------------
# Feature layout

def test_zero_features_length():
    z1 = vec.LandscapeImage(np.zeros((54, 54)), vec.default_spec(1))
    z2 = vec.LandscapeImage(np.zeros((54, 54)), vec.default_spec(2))
    v = vec.features(z1, z2)
    assert v.shape == (5832,) and not v.any()


def test_flat_index_map():
    a = np.zeros((54, 54))
    a[3, 7] = 1.0
    b = np.zeros((54, 54))
    b[10, 2] = 2.0
    v = vec.features(vec.LandscapeImage(a, vec.default_spec(1)),
                     vec.LandscapeImage(b, vec.default_spec(2)))
    assert v[3 * 54 + 7] == 1.0
    assert v[2916 + 10 * 54 + 2] == 2.0


def test_features_roundtrip(rng=np.random.default_rng(5)):
    a = rng.uniform(size=(54, 54))
    b = rng.uniform(size=(54, 54))
    v = vec.features(vec.LandscapeImage(a, vec.default_spec(1)),
                     vec.LandscapeImage(b, vec.default_spec(2)))
    ra, rb = vec.split_features(v)
    assert np.array_equal(ra, a) and np.array_equal(rb, b)


def test_features_bins_mismatch_rejected():
    a = vec.LandscapeImage(np.zeros((10, 10)), vec.HistogramSpec(1, 27.0, 8.8, 10))
    b = vec.LandscapeImage(np.zeros((54, 54)), vec.default_spec(2))
    with pytest.raises(ValueError):
        vec.features(a, b)
