import warnings

import numpy as np
import pytest

from chaostego import analysis, chaos
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
    the compiled kernel (where it loaded), then ``chaos._orbit_python``,
    the step functions composed.

    A loop rather than a parametrization keeps each test's id unchanged.
    """
    def paths():
        if chaos._native_orbit() is not None:
            yield "native"
        monkeypatch.setattr(chaos, "_native_orbit", lambda: None)
        yield "python"

    return paths()


@pytest.fixture
def count_paths(monkeypatch):
    """Loop over this to run a test body once per histogram counter: the
    compiled ``_counts.c`` (where it loaded), then numpy's ``bincount``.

    Like ``orbit_paths`` it keeps each test's id, but it can be looped over
    again, so it nests inside ``orbit_paths`` and serves every example of a
    Hypothesis test.
    """
    native = analysis._native_counts

    class Paths:
        def __iter__(self):
            if native() is not None:
                monkeypatch.setattr(analysis, "_native_counts", native)
                yield "native"
            monkeypatch.setattr(analysis, "_native_counts", lambda: None)
            yield "numpy"

    return Paths()


def random_image(rng: np.random.Generator, rows: int, cols: int, channels: int = 1) -> RasterImage:
    samples = rng.integers(0, 256, rows * cols * channels, dtype=np.uint8)
    return RasterImage(rows, cols, channels, samples)
