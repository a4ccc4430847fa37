import warnings
from pathlib import Path

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


def augment_draws(seed, num_views, alpha_range_deg=(-15.0, 15.0),
                  gamma_range_deg=(-20.0, 20.0)):
    """The angles `augment` draws from default_rng(seed), replayed in its
    documented order: the alphas (degrees), the in-plane axis directions
    (radians), then the gammas (degrees)."""
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(*alpha_range_deg, size=num_views)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=num_views)
    gammas = rng.uniform(*gamma_range_deg, size=num_views)
    return alphas, thetas, gammas


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def pytest_configure(config):
    """Hypothesis caches the literals it finds in local modules under its
    home directory, `.hypothesis/` by default, while pytest collects the
    tests; keep that cache inside pytest's own cache directory instead.

    Hypothesis's failure report imports its patch writer, and with it
    libcst, whose import raises mypy_extensions' TypedDict
    DeprecationWarning. Raised inside a test marked to turn warnings into
    errors, that warning aborts the whole session with an INTERNALERROR, so
    the module is imported here, once, with that one warning ignored."""
    cache = getattr(config, "cache", None)
    if cache is not None:
        set_hypothesis_home_dir(cache.mkdir("hypothesis"))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                                category=DeprecationWarning)
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:     # without libcst the report writes no patch
            pass


TESTS_DIR = Path(__file__).resolve().parent


def pytest_collection_modifyitems(config, items):
    """Turn every warning a test under this directory raises into an
    error. A test that expects one catches it with pytest.warns. Tests
    collected elsewhere in the same session keep pytest's defaults."""
    for item in items:
        if item.path.resolve().is_relative_to(TESTS_DIR):
            item.add_marker(pytest.mark.filterwarnings("error"))
