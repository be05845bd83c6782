import warnings

import numpy as np
import pytest

from chaostego import chaos
from chaostego.imagery import RasterImage
from chaostego.keymat import generate_keys

# Hypothesis imports this module, and libcst with it, only while it
# reports a failed example, inside pytest's report hook.  Under
# ``filterwarnings = error`` a DeprecationWarning from that import turns
# the report into an INTERNALERROR that ends the session, so import it
# here, once, with warnings silenced.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is optional
        pass


@pytest.fixture(scope="session")
def live_keys():
    """A deterministic, validated, usable key pair for stream tests."""
    return generate_keys(7)


@pytest.fixture
def orbit_paths(monkeypatch):
    """Loop over this to run a test body once per orbit implementation:
    the compiled kernel (where it loaded), then the pure-Python loop.

    A loop rather than a parametrization keeps each test's id unchanged.
    """
    def paths():
        if chaos._native_orbit() is not None:
            yield "native"
        monkeypatch.setattr(chaos, "_native_orbit", lambda: None)
        yield "python"

    return paths()


def random_image(rng: np.random.Generator, rows: int, cols: int, channels: int = 1) -> RasterImage:
    samples = rng.integers(0, 256, rows * cols * channels, dtype=np.uint8)
    return RasterImage(rows, cols, channels, samples)
