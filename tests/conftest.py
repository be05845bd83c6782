import numpy as np
import pytest

from chaostego import RasterImage, chaos, generate_keys


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
