import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from tracksfm.network import Reconstruction
from tracksfm.scene import SceneGenConfig, generate_synthetic, normalize_euclidean


def make_scene(num_views=5, num_points=20, visibility=1.0, noise=0.0, seed=0,
               mode="euclidean"):
    """Normalized synthetic scene plus its raw form and record."""
    cfg = SceneGenConfig(num_views=num_views, num_points=num_points,
                         visibility=visibility, noise_sigma=noise, mode=mode)
    raw = generate_synthetic(cfg, seed=seed)
    if mode == "euclidean":
        scene, record = normalize_euclidean(raw)
    else:
        scene, record = raw, None
    return scene, raw, record


def gt_reconstruction(raw) -> Reconstruction:
    return Reconstruction(mode="euclidean", quats=raw.gt_quats.copy(),
                          centers=raw.gt_centers.copy(),
                          points=raw.gt_points.copy())


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def pytest_configure(config):
    """Hypothesis caches the literals it finds in local modules under its
    home directory, `.hypothesis/` by default, while pytest collects the
    tests; keep that cache inside pytest's own cache directory instead."""
    cache = getattr(config, "cache", None)
    if cache is not None:
        set_hypothesis_home_dir(cache.mkdir("hypothesis"))
