import warnings

import numpy as np
import pytest

from chaostego import _native
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
def uncached_library(monkeypatch):
    """Makes each ``_native.library()`` call build and load afresh, so a test
    can change what it builds from without leaving the cached library changed."""
    monkeypatch.setattr(_native, "library", _native.library.__wrapped__)


class Paths:
    """Loop over this, as often as needed, to run a test body once per
    implementation of ``module.name``: the one in place at set-up, where
    ``available()`` finds it works, then ``fallback``.  Each loop yields
    the two labels in that order and leaves ``fallback`` in place, so one
    loop can nest inside another and serve every example of a Hypothesis
    test.

    A loop rather than a parametrization keeps each test's id unchanged.
    """

    def __init__(self, monkeypatch, module, name, available, fallback, labels):
        self.switch = lambda implementation: monkeypatch.setattr(module, name, implementation)
        self.paths = ((labels[0], getattr(module, name), available), (labels[1], fallback, lambda: True))

    def __iter__(self):
        for label, implementation, available in self.paths:
            self.switch(implementation)
            if available():
                yield label


@pytest.fixture
def kernel_paths(monkeypatch):
    """The compiled kernels of ``_native.kernels`` (where they loaded), then
    ``_native.reference``: see :class:`Paths`."""
    return Paths(monkeypatch, _native, "kernels", lambda: _native.kernels() is not _native.reference(),
                 _native.reference, ("native", "reference"))


def exchange_supported(directory) -> bool:
    """Whether ``_native.exchange`` swaps two files in ``directory``."""
    a, b = directory / ".exchange-a", directory / ".exchange-b"
    a.write_bytes(b"a")
    b.write_bytes(b"b")
    try:
        return _native.exchange(a, b)
    finally:
        a.unlink()
        b.unlink()


@pytest.fixture
def rename_paths(monkeypatch, tmp_path_factory):
    """The ways ``cli._write_files`` replaces an existing output: swapping
    names with ``_native.exchange`` (where the system supports it), then
    ``os.replace`` alone, as where it does not: see :class:`Paths`."""
    return Paths(monkeypatch, _native, "exchange", lambda: exchange_supported(tmp_path_factory.mktemp("exchange")),
                 lambda a, b: False, ("exchange", "replace"))


def native_source_copy(tmp_path, *change):
    """A copy of ``_native.c`` in ``tmp_path``, with the one ``(old, new)``
    replacement ``change`` names, if any."""
    text = _native._SOURCE.read_text()
    if change:
        old, new = change
        assert text.count(old) == 1
        text = text.replace(old, new)
    source = tmp_path / "_native.c"
    source.write_text(text)
    return source


def random_image(rng: np.random.Generator, rows: int, cols: int, channels: int = 1) -> RasterImage:
    samples = rng.integers(0, 256, rows * cols * channels, dtype=np.uint8)
    return RasterImage(rows, cols, channels, samples)
