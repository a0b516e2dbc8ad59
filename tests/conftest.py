import numpy as np
import pytest
from hypothesis import settings

from phxai.geometry import PointCloud

# one profile for every property test: no per-example deadline (examples
# vary widely in size and the machine's speed varies), and a failure prints
# the blob that reproduces it with @reproduce_failure
settings.register_profile("phxai", deadline=None, print_blob=True)
settings.load_profile("phxai")


def random_cloud(rng, n, scale=1.0):
    return PointCloud(rng.normal(size=(n, 3)) * scale)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
