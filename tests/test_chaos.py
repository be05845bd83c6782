"""Map iteration, sanitization, and position stream behavior."""

import ctypes.util
import dataclasses
import itertools
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaostego import _native, analysis, chaos
from chaostego.chaos import (
    EPSILON,
    ChaosState,
    ImageDims,
    bifurcation_scan,
    coupled_step,
    initial_state,
    map_step,
    sanitize,
    select_positions,
    to_pixel,
    validate_coupling,
    validate_keys,
)
from chaostego.errors import DomainError, InsufficientCapacity
from chaostego.keymat import ALPHA_RANGE, PublicCoupling, SecretKeySet, generate_keys
from conftest import native_source_copy, reference_kernels
from test_golden import KEY_SETS


class TestMapStep:
    def test_vanishes_at_midpoint(self):
        assert map_step(0.5, 2.0) == 0.0

    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.7, 3.0, 10.0, 100.0])
    def test_vanishes_at_midpoint_for_any_alpha(self, alpha):
        assert map_step(0.5, alpha) == 0.0

    def test_unit_alpha_closed_form(self):
        # At alpha = 1 the denominator reduces to 1, so f(x) = (2x-1)^2.
        assert map_step(0.25, 1.0) == (2 * 0.25 - 1) ** 2 == 0.25
        assert map_step(0.3, 1.0) == (2 * 0.3 - 1) ** 2

    @pytest.mark.parametrize("x", [-0.1, 0.0, 1.0, 1.5])
    def test_rejects_x_outside_open_interval(self, x):
        with pytest.raises(DomainError):
            map_step(x, 1.0)

    @pytest.mark.parametrize("alpha", [0.5, 0.2, -1.0, math.inf, math.nan, 2.0 ** 512, 2.0 ** 520])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(DomainError):
            map_step(0.3, alpha)

    @pytest.mark.parametrize("x", [1e-300, 0.3, 0.5, 1.0 - 2.0 ** -53])
    def test_largest_alpha_stays_in_range(self, x):
        # 2**511 is the top of the accepted range: its square is finite.
        assert 0.0 <= map_step(x, chaos.ALPHA_MAX) <= 1.0

    def test_range_over_a_million_random_inputs(self):
        rng = np.random.default_rng(123)
        xs = rng.uniform(1e-12, 1.0 - 1e-12, 1_000_000)
        alphas = rng.uniform(0.500001, 50.0, 1_000_000)
        worst_lo, worst_hi = 1.0, 0.0
        for x, a in zip(xs.tolist(), alphas.tolist()):
            v = map_step(x, a)
            if v < worst_lo:
                worst_lo = v
            if v > worst_hi:
                worst_hi = v
        assert 0.0 <= worst_lo and worst_hi <= 1.0


class TestSanitize:
    def test_identity_off_degenerate_set(self):
        assert sanitize(0.3) == 0.3
        assert sanitize(0.9999) == 0.9999

    def test_forced_shifts(self):
        assert sanitize(0.0) == EPSILON == 2.0 ** -40
        assert sanitize(1.0) == 1.0 - EPSILON
        assert sanitize(0.5) == 0.5 + EPSILON

    # Map outputs lie in [0, 1] and R <= 1, so no orbit value exceeds 1.
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_output_always_in_domain(self, u):
        v = sanitize(u)
        assert 0.0 < v < 1.0 and v != 0.5


class TestCoupledStep:
    def test_near_midpoint_outputs_near_zero(self):
        delta = 1e-9
        state = ChaosState(0.5 - delta, 0.5 - delta)
        nxt = coupled_step(state, 2.0, 3.0, 1.0)
        assert nxt.x < 1e-12 and nxt.y < 1e-12
        assert nxt.x > 0.0 and nxt.y > 0.0  # sanitization keeps it alive

    def test_swapped_closed_form_at_unit_alpha(self):
        state = ChaosState(0.25, 0.3)
        nxt = coupled_step(state, 1.0, 1.0, 1.0)
        assert nxt.x == (2 * 0.3 - 1) ** 2  # fed the other map's output
        assert nxt.y == 0.25

    def test_deterministic(self):
        state = ChaosState(0.31, 0.72)
        a = coupled_step(state, 1.3, 1.7, 0.97)
        b = coupled_step(state, 1.3, 1.7, 0.97)
        assert a == b

    def test_rejects_bad_coupling(self):
        with pytest.raises(DomainError):
            coupled_step(ChaosState(0.3, 0.4), 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            coupled_step(ChaosState(0.3, 0.4), 1.0, 1.0, 1.5)

    def test_values_above_one_are_not_wrapped(self):
        # sanitize passes them on and map_step refuses them.
        with pytest.raises(DomainError):
            initial_state(SecretKeySet(1.3, 1.7, 1.5, 0.72))
        with pytest.raises(DomainError):
            coupled_step(ChaosState(0.3, 1.5), 1.0, 1.0, 1.0)

    def test_bootstrap_is_uncoupled(self):
        keys = SecretKeySet(1.3, 1.7, 0.31, 0.72)
        first = initial_state(keys)
        assert first.x == sanitize(map_step(sanitize(0.31), 1.3))
        assert first.y == sanitize(map_step(sanitize(0.72), 1.7))


class TestToPixel:
    def test_origin(self):
        assert to_pixel(0.0, 0.0, ImageDims(512, 512)) == (1, 1)

    def test_center(self):
        assert to_pixel(0.5, 0.5, ImageDims(512, 512)) == (257, 257)

    def test_upper_edge_clamps(self):
        # The raw formula would give index 513 at exactly 1.0.
        assert to_pixel(1.0, 1.0, ImageDims(512, 512)) == (512, 512)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=1, max_value=1000),
    )
    def test_always_in_bounds(self, x, y, rows, cols):
        col, row = to_pixel(x, y, ImageDims(rows, cols))
        assert 1 <= col <= cols and 1 <= row <= rows


class TestSelectPositions:
    def test_empty_for_zero_count(self, live_keys):
        keys, coupling = live_keys
        flat = select_positions(keys, coupling, ImageDims(64, 64), 0)
        assert len(flat) == 0
        assert flat.dtype == np.int64

    @pytest.mark.parametrize("keys,r", [
        (SecretKeySet(0.6, 0.7, -0.3, 0.4), 0.99),
        (SecretKeySet(0.6, 0.7, 0.3, 1.0), 0.99),
        (SecretKeySet(0.4, 0.7, 0.3, 0.4), 0.99),
        (SecretKeySet(0.6, 0.7, 0.3, 0.4), 0.0),
        (SecretKeySet(0.6, 0.7, 0.3, 0.4), 1.5),
    ], ids=["x0", "y0", "alpha1", "R-zero", "R-above-one"])
    def test_zero_count_still_checks_keys(self, keys, r):
        with pytest.raises(DomainError):
            select_positions(keys, PublicCoupling(r), ImageDims(16, 16), 0)

    def test_refuses_exactly_what_the_validators_refuse(self, orbit_paths):
        # One key rule: select_positions raises DomainError iff the
        # validators report a violation, names every one, and checks keys
        # before the count.  Valid edge keys may still run out of capacity.
        alphas = (math.nan, 0.5, math.nextafter(0.5, 1.0), 2.0**511, math.nextafter(2.0**511, math.inf))
        seeds = (0.0, 5e-324, 0.5, math.nextafter(1.0, 0.0), 1.0)
        couplings = (0.0, 5e-324, 1.0, math.nextafter(1.0, 2.0))
        dims = ImageDims(16, 16)
        for path in orbit_paths:
            for a1, a2, x0, y0, r, count in itertools.product(alphas, alphas, seeds, seeds, couplings, (0, 5)):
                keys, coupling = SecretKeySet(a1, a2, x0, y0), PublicCoupling(r)
                bad = validate_keys(keys) + validate_coupling(coupling)
                try:
                    select_positions(keys, coupling, dims, count)
                    got = None
                except DomainError as exc:
                    got = str(exc)
                except InsufficientCapacity:
                    got = None
                assert got == ("invalid keys: " + "; ".join(bad) if bad else None), (path, keys, r, count)

    def test_deterministic_streams(self, live_keys):
        keys, coupling = live_keys
        dims = ImageDims(128, 128)
        a = select_positions(keys, coupling, dims, 1000)
        b = select_positions(keys, coupling, dims, 1000)
        assert np.array_equal(a, b)

    def test_no_duplicates_and_in_bounds(self, live_keys):
        keys, coupling = live_keys
        dims = ImageDims(96, 160)
        flat = select_positions(keys, coupling, dims, 5000)
        assert flat.dtype == np.int64 and flat.shape == (5000,)
        assert len(np.unique(flat)) == 5000
        rows, cols = np.divmod(flat, 160)
        assert rows.min() >= 0 and rows.max() < 96
        assert cols.min() >= 0 and cols.max() < 160

    def test_full_grid_is_a_permutation(self, live_keys):
        # A stream of count == M*N unique cells must be exactly the grid.
        keys, coupling = live_keys
        flat = select_positions(keys, coupling, ImageDims(64, 64), 64 * 64)
        assert np.array_equal(np.sort(flat), np.arange(64 * 64))

    @pytest.mark.parametrize("rows,cols", [(1, 1), (7, 13), (3, 67), (65, 1)])
    def test_full_cover_of_odd_grids_agrees_on_both_paths(self, live_keys, orbit_paths, rows, cols):
        # Cell counts that are not a multiple of 64 end the compiled
        # kernel's seen-map in a partly used word.
        keys, coupling = live_keys
        streams = [select_positions(keys, coupling, ImageDims(rows, cols), rows * cols) for _ in orbit_paths]
        assert np.array_equal(np.sort(streams[0]), np.arange(rows * cols))
        assert all(np.array_equal(s, streams[0]) for s in streams)

    def test_count_above_grid_size_rejected(self, live_keys):
        keys, coupling = live_keys
        with pytest.raises(InsufficientCapacity):
            select_positions(keys, coupling, ImageDims(8, 8), 65)

    def test_negative_count_rejected(self, live_keys):
        keys, coupling = live_keys
        with pytest.raises(DomainError, match="non-negative"):
            select_positions(keys, coupling, ImageDims(8, 8), -1)

    def test_top_edge_state_maps_to_the_last_cell(self, orbit_paths):
        # The kernels do not clamp: for binary64 x < 1 and n < 2**53, x * n
        # rounds below n, so truncation gives at most n - 1.  The largest
        # state, nextafter(1, 0), must land on the last cell of any grid.
        top = math.nextafter(1.0, 0.0)
        n = np.arange(1, 2**20, dtype=np.int64)
        assert np.array_equal((top * n).astype(np.int64), n - 1)
        n = np.random.default_rng(14).integers(1, chaos._MAX_CELLS, 10**5)
        assert np.array_equal((top * n).astype(np.int64), n - 1)
        for path in orbit_paths:
            kernels = _native.kernels()
            orbit = kernels.orbit if kernels else chaos._orbit_python
            for rows, cols in ((1, 1), (1, 7), (7, 1), (3, 5), (97, 89), (1000, 1000)):
                got = orbit(top, top, 1.3, 1.7, 0.97, rows, cols, 1, 1)
                assert got.tolist() == [rows * cols - 1], (path, rows, cols)

    def test_orbit_collapse_reported(self):
        # alpha = 3 sits past the chaotic band (the endpoint fixed point
        # attracts once its slope 4/alpha^2 < 1), so this orbit covers only
        # a few hundred cells and capacity runs out.
        keys = SecretKeySet(3.0, 2.5, 0.31, 0.72)
        with pytest.raises(InsufficientCapacity):
            select_positions(keys, PublicCoupling(0.9), ImageDims(128, 128), 1000)

    @pytest.mark.parametrize("x0,y0", [(-0.3, 0.4), (0.3, -0.4), (0.0, 0.4), (0.3, 1.0), (1.3, 0.4), (0.3, math.nan)])
    def test_rejects_seeds_outside_unit_interval(self, x0, y0):
        # Outside (0,1) the map leaves [0,1] and the orbit would index
        # cells off the grid.
        with pytest.raises(DomainError):
            select_positions(SecretKeySet(0.6, 0.7, x0, y0), PublicCoupling(0.99), ImageDims(16, 16), 5)

    @pytest.mark.parametrize("which", ["alpha1", "alpha2"])
    def test_rejects_alpha_whose_square_overflows(self, which, orbit_paths):
        # alpha**2 = inf would turn the orbit to NaN, which neither path can
        # map to a cell; it must fail before any kernel runs.
        fields = dict(alpha1=1.3, alpha2=1.7, x0=0.31, y0=0.72)
        fields[which] = 2.0 ** 520
        for path in orbit_paths:
            with pytest.raises(DomainError, match="2\\*\\*511"):
                select_positions(SecretKeySet(**fields), PublicCoupling(0.97), ImageDims(16, 16), 10)

    def test_matches_composed_single_steps(self, live_keys, orbit_paths):
        # Both orbit paths must reproduce the public step functions
        # exactly, state for state.
        keys, coupling = live_keys
        dims = ImageDims(128, 128)
        state = initial_state(keys)
        seen = set()
        expected = []
        for _ in range(400):
            col, row = to_pixel(state.x, state.y, dims)
            flat = (row - 1) * dims.cols + (col - 1)
            if flat not in seen:
                seen.add(flat)
                expected.append(flat)
            state = coupled_step(state, keys.alpha1, keys.alpha2, coupling.value)
        for path in orbit_paths:
            got = select_positions(keys, coupling, dims, len(expected))
            assert got.tolist() == expected, path

    def test_python_path_steps_through_coupled_step(self, live_keys, monkeypatch):
        # The fallback is the spec: every state after the first is one
        # coupled_step call, and the stream is those states' first-seen cells.
        keys, coupling = live_keys
        dims = ImageDims(32, 32)
        states = [initial_state(keys)]

        def recording_step(*args):
            states.append(coupled_step(*args))
            return states[-1]

        monkeypatch.setattr(_native, "kernels", lambda: None)
        monkeypatch.setattr(chaos, "coupled_step", recording_step)
        got = select_positions(keys, coupling, dims, 500)
        assert len(states) > 1, "the Python orbit never called coupled_step"
        cells = []
        for state in states:
            col, row = to_pixel(state.x, state.y, dims)
            cells.append((row - 1) * dims.cols + (col - 1))
        assert got.tolist() == list(dict.fromkeys(cells))

    def test_cycle_ends_collapsing_orbit_early(self, monkeypatch):
        # This orbit enters an exact cycle within a few hundred steps; the
        # failure must come from the cycle, not from the 28391-step cap, and
        # keep the cap's message.
        calls = 0

        def counting_sanitize(u):
            nonlocal calls
            calls += 1
            return sanitize(u)

        monkeypatch.setattr(_native, "kernels", lambda: None)
        monkeypatch.setattr(chaos, "sanitize", counting_sanitize)
        keys = SecretKeySet(3.0, 2.5, 0.31, 0.72)
        with pytest.raises(InsufficientCapacity, match=r"\(28391 steps, 86 unique positions found\)"):
            select_positions(keys, PublicCoupling(0.9), ImageDims(16, 16), 256)
        # Four sanitize calls per step: stopped within a tenth of the cap.
        assert 0 < calls < 4 * 28391 // 10

    def test_visits_most_quadrants(self, live_keys):
        keys, coupling = live_keys
        rows, cols = np.divmod(select_positions(keys, coupling, ImageDims(64, 64), 3000), 64)
        quadrants = set(zip((cols >= 32).tolist(), (rows >= 32).tolist()))
        assert len(quadrants) >= 3


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
needs_vmhwm = pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="no /proc/self/status")

#: Child-script source of ``peak_kib()``, the process's peak RSS in KiB.  A
#: child's ``ru_maxrss`` starts at its parent's peak, which hides growth below
#: pytest's own; Linux's VmHWM counts from the child's exec.
PEAK_KIB = (
    "def peak_kib():\n"
    "    with open('/proc/self/status') as status:\n"
    "        return int(next(line for line in status if line.startswith('VmHWM:')).split()[1])\n"
)


class TestNativeKernel:
    @needs_cc
    def test_loads_where_a_compiler_exists(self):
        assert _native.kernels() is not None

    @needs_cc
    def test_build_is_cached_by_source_hash(self, tmp_path):
        source = native_source_copy(tmp_path)
        lib = _native._build(source)
        assert lib.parent == tmp_path / "__pycache__"
        assert lib.name.startswith("native-") and lib.suffix == ".so"
        assert [p.name for p in lib.parent.iterdir()] == [lib.name]  # no temp file left
        mtime = lib.stat().st_mtime_ns
        assert _native._build(source) == lib and lib.stat().st_mtime_ns == mtime

    @needs_cc
    def test_flags_are_part_of_the_build_name(self, tmp_path, monkeypatch):
        source = native_source_copy(tmp_path)
        first = _native._build(source)
        monkeypatch.setattr(_native, "_CFLAGS", (*_native._CFLAGS, "-g"))
        second = _native._build(source)
        assert second != first and second.exists()

    @needs_cc
    def test_a_rebuild_deletes_only_the_older_build(self, tmp_path):
        source = native_source_copy(tmp_path)
        first = _native._build(source)
        kept = [first.with_name(name) for name in ("other.so", "native-old.so", f"orbit-{'0' * 64}.so")]
        for path in kept:
            path.write_bytes(b"")
        source.write_bytes(source.read_bytes() + b"\n")  # a one-byte edit
        second = _native._build(source)
        assert second != first and not first.exists()
        assert sorted(second.parent.iterdir()) == sorted([second, *kept])

    def test_kernel_epsilon_matches_python(self):
        # The one constant both languages state; the self-check sees it
        # only if an orbit hits 0, 0.5 or 1 exactly.
        source = _native._SOURCE.read_text()
        (literal,) = [line.split()[2] for line in source.splitlines() if line.startswith("#define EPSILON ")]
        assert float.fromhex(literal) == EPSILON

    @needs_cc
    def test_kernel_compiles_without_warnings(self, tmp_path):
        # Every C source of the package: today only _native.c, the orbit's and the analysis kernels'.
        sources = sorted(Path(chaos.__file__).parent.glob("*.c"))
        assert "_native.c" in {source.name for source in sources}
        for source in sources:
            built = subprocess.run(
                ["cc", *_native._CFLAGS, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "lib.so"), str(source)],
                capture_output=True, text=True, timeout=120,
            )
            assert built.returncode == 0, (source.name, built.stderr)

    def test_falls_back_without_a_compiler(self, monkeypatch, uncached_library):
        monkeypatch.setattr(_native.shutil, "which", lambda name: None)
        assert _native.library() is None
        assert _native.kernels.__wrapped__() is None

    def test_falls_back_when_the_build_fails(self, monkeypatch, uncached_library):
        def fail(source):
            raise OSError("no compiler")

        monkeypatch.setattr(_native, "_build", fail)
        assert _native.library() is None
        assert _native.kernels.__wrapped__() is None

    def test_falls_back_when_the_self_check_disagrees(self, monkeypatch, live_keys):
        if _native.kernels() is None:
            pytest.skip("compiled kernels unavailable")
        monkeypatch.setattr(_native, "_SELF_CHECK", f"{int(_native._SELF_CHECK, 16) ^ 1:064x}")
        assert _native.kernels.__wrapped__() is None
        # Both callers then run their references.
        monkeypatch.setattr(_native, "kernels", _native.kernels.__wrapped__)
        assert analysis._kernels() is analysis._FALLBACK
        monkeypatch.setattr(chaos, "_orbit_python", lambda *args: np.arange(3))
        assert select_positions(*live_keys, ImageDims(16, 16), 3).tolist() == [0, 1, 2]

    def test_self_check_cases_take_every_exit(self):
        # Doubling the cap changes nothing after a count or cycle exit, and
        # finds more cells after a cap exit.
        found = []
        for case in _native._ORBIT_CASES:
            longer = chaos._orbit_python(*case[:-1], 2 * case[-1])
            found.append((len(chaos._orbit_python(*case)), len(longer), case[7]))
        (full, full_longer, count), (cycle, cycle_longer, _), (capped, capped_longer, _) = found
        assert full == full_longer == count
        assert cycle == cycle_longer < count
        assert capped < capped_longer < count

    @pytest.mark.parametrize("index", range(len(_native._ORBIT_CASES)), ids=("full-cover", "cycle", "cap"))
    def test_a_stream_wrong_in_one_case_changes_the_digest(self, index):
        # An orbit that drops the last index in this case only: a reference
        # wrong in any one case must not give the frozen digest.
        wrong = _native._ORBIT_CASES[index]

        def orbit(*args):
            found = chaos._orbit_python(*args)
            return found[:-1] if args == wrong else found

        assert _native._check_digest(reference_kernels()._replace(orbit=orbit)) != _native._SELF_CHECK

    def test_lengths_keep_the_streams_apart(self):
        # The first stream's last index moved to the front of the second
        # leaves the indices in the same order; only the lengths differ.
        first, second = _native._ORBIT_CASES[:2]
        last = chaos._orbit_python(*first)[-1]

        def orbit(*args):
            found = chaos._orbit_python(*args)
            if args == first:
                return found[:-1]
            return np.concatenate([[last], found]) if args == second else found

        assert _native._check_digest(reference_kernels()._replace(orbit=orbit)) != _native._SELF_CHECK

    @needs_cc
    def test_self_check_runs_no_python_orbit(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the self-check ran the Python orbit")

        monkeypatch.setattr(chaos, "_orbit_python", fail)
        monkeypatch.setattr(chaos, "coupled_step", fail)
        assert _native.kernels.__wrapped__() is not None

    def test_reports_a_failed_seen_map_allocation(self, monkeypatch):
        # A grid no address space holds: rows*cols bits overflow any calloc.
        kernels = _native.kernels()
        if kernels is None:
            pytest.skip("compiled kernel unavailable")
        with pytest.raises(MemoryError, match="seen-map"):
            kernels.orbit(0.3, 0.7, 2.0, 3.0, 0.9, 2**40, 2**22, 1, 10)

    @needs_vmhwm
    def test_seen_map_memory_follows_the_work(self, tmp_path):
        # 500 positions on an 8000x8000 grid: a byte per cell would be 64 MB,
        # a bitset 8 MB of address space of which only touched pages count.
        if _native.kernels() is None:
            pytest.skip("compiled kernel unavailable")
        script = PEAK_KIB + (
            "import sys\n"
            "from chaostego import _native, cli\n"
            "sec, pub, out = sys.argv[1:]\n"
            "assert cli.run(['keygen', '--out', sec, '--pub', pub, '--seed', '3']) == 0\n"
            "assert _native.kernels() is not None\n"
            "before = peak_kib()\n"
            "assert cli.run(['exchange-sim', '--alice', sec, '--pub', pub, '--rows', '8000',\n"
            "                '--cols', '8000', '--prefix', '500', '--out', out]) == 0\n"
            "print(peak_kib() - before)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(chaos.__file__).parents[1]))
        child = subprocess.run(
            [sys.executable, "-c", script, *(str(tmp_path / n) for n in ("s.key", "p.key", "t.txt"))],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert (tmp_path / "t.txt").read_text().endswith("agreement=true\n")
        assert int(child.stdout) < 16 * 1024

    @needs_vmhwm
    def test_repeated_large_seen_maps_stay_lazily_zeroed(self):
        # An 8000x8000 seen-map is 8 MB, of which 500 cells touch at most
        # 2 MB of pages.  Once one was freed, calloc could serve the next
        # from the heap and zero it whole; mmap'd afresh, each call keeps
        # only the pages it touches.
        if _native.kernels() is None:
            pytest.skip("compiled kernel unavailable")
        script = PEAK_KIB + (
            "from chaostego import _native, chaos\n"
            "from chaostego.keymat import generate_keys\n"
            "keys, coupling = generate_keys(3)\n"
            "assert _native.kernels() is not None\n"
            "for _ in range(4):\n"
            "    before = peak_kib()\n"
            "    assert chaos.select_positions(keys, coupling, chaos.ImageDims(8000, 8000), 500).size == 500\n"
            "    print(peak_kib() - before)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(chaos.__file__).parents[1]))
        child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        growth_kib = [int(line) for line in child.stdout.split()]
        assert len(growth_kib) == 4 and max(growth_kib) < 3 * 1024, growth_kib

    @pytest.mark.skipif(shutil.which("cc") is None or ctypes.util.find_library("ubsan") is None,
                        reason="no C compiler or no libubsan")
    @pytest.mark.parametrize("change, clean", [
        ((), True),
        (("for (int k = 0; k < 128; k++)", "for (int k = 0; k <= 128; k++)"), False),  # reads past h[255]
    ])
    def test_kernels_run_clean_under_ubsan(self, tmp_path, change, clean):
        # Built with undefined-behaviour checks that abort on the first
        # finding: the five kernels' load-time check (the orbit's cases and
        # the counters', the pair sums' and the expansions' check inputs),
        # then the value counter on rows of 0-128 included pairs.
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "import numpy as np\n"
            "from chaostego import _native\n"
            "_native._SOURCE = Path(sys.argv[1])\n"
            "_native._CFLAGS = (*_native._CFLAGS, '-fsanitize=undefined', '-fno-sanitize-recover=undefined')\n"
            "kernels = _native.kernels()\n"
            "assert kernels is not None\n"
            "edges = [0, 1, 7, 8, 9, 15, 16, 17, 127, 128]\n"
            "samples = np.repeat(np.arange(0, 256, 2, dtype=np.uint8), 5)\n"
            "_, chis, pairs = kernels.value_counts(samples, np.array([0] + [5 * n for n in edges]))\n"
            "assert pairs.tolist() == edges\n"
        )
        source = native_source_copy(tmp_path, *change)
        env = dict(os.environ, PYTHONPATH=str(Path(chaos.__file__).parents[1]))
        child = subprocess.run([sys.executable, "-c", script, str(source)], env=env, capture_output=True,
                               text=True, timeout=120)
        assert (child.returncode == 0) == clean, child.stderr
        assert ("runtime error" not in child.stderr) == clean, child.stderr


class TestKeySpace:
    """The seeds act only through their first iterates (x1, y1): map_step
    depends on x only through (2x - 1)**2 and 4x(1 - x), so x0 and 1 - x0
    are equivalent keys up to rounding, as are y0 and 1 - y0.  Both tests
    pin measured facts of this generator, not a security bound."""

    def test_mirrored_seeds_give_the_same_stream(self, orbit_paths):
        # 5 of the 6 mirrors give the stream itself; 1 - 0.31 rounds, so
        # the hand set's mirrored x0 parts from it at position 58.
        dims = ImageDims(256, 256)
        for path in orbit_paths:
            for name, (keys, coupling) in KEY_SETS.items():
                stream = select_positions(keys, coupling, dims, 32768)
                for field in ("x0", "y0"):
                    mirrored = dataclasses.replace(keys, **{field: 1.0 - getattr(keys, field)})
                    other = select_positions(mirrored, coupling, dims, 32768)
                    first = next(iter(np.flatnonzero(stream != other)), None)
                    assert first == (58 if (name, field) == ("hand", "x0") else None), (path, name, field)

    def test_one_ulp_seed_change_often_leaves_the_stream_unchanged(self):
        # Rounding absorbs a one-ulp rise of x0 or y0 in 31 of these 100
        # cases: the 20,000-position stream at 512x512 stays the same.
        if _native.kernels() is None:
            pytest.skip("compiled kernel unavailable")
        dims, unchanged = ImageDims(512, 512), 0
        for seed in range(50):
            keys, coupling = generate_keys(seed)
            stream = select_positions(keys, coupling, dims, 20000)
            for field in ("x0", "y0"):
                nudged = dataclasses.replace(keys, **{field: math.nextafter(getattr(keys, field), 1.0)})
                unchanged += np.array_equal(select_positions(nudged, coupling, dims, 20000), stream)
        assert unchanged == 31


class TestBifurcationScan:
    def test_zero_samples(self):
        scan = bifurcation_scan(0.6, 1.8, 5, 0.3, transient=10, samples=0)
        assert len(scan) == 5
        assert all(values == [] for _, values in scan)

    def test_single_step_grid(self):
        scan = bifurcation_scan(0.8, 1.8, 1, 0.3, transient=0, samples=3)
        assert len(scan) == 1
        assert scan[0][0] == 0.8

    def test_chaotic_alpha_spreads(self):
        (_, values), = bifurcation_scan(1.0, 1.1, 1, 0.3, transient=1000, samples=100)
        assert all(0.0 <= v <= 1.0 for v in values)
        assert max(values) - min(values) > 0.1

    @pytest.mark.parametrize(
        "args",
        [
            (0.5, 1.0, 5, 0.3),     # alpha_min at the boundary
            (1.0, 0.9, 5, 0.3),     # inverted grid
            (0.8, 1.2, 0, 0.3),     # no steps
            (0.8, 1.2, 5, 0.5),     # degenerate seed
            (0.8, 1.2, 5, 0.0),     # seed on the boundary
            (0.6, 1e300, 5, 0.3),   # grid above the map's 2**511 bound
        ],
    )
    def test_rejects_bad_grids(self, args):
        amin, amax, steps, x0 = args
        with pytest.raises(DomainError):
            bifurcation_scan(amin, amax, steps, x0, 10, 10)

    def test_checks_the_grid_before_iterating(self):
        # map_step would refuse every alpha above 2**511, so the scan
        # refuses such a grid up front, even where it would iterate nothing.
        with pytest.raises(DomainError, match=r"alpha_max: must not exceed 2\*\*511"):
            bifurcation_scan(0.6, 1e300, 5, 0.3, 0, 0)
        with pytest.raises(DomainError, match="alpha_min: must be greater than 0.5"):
            bifurcation_scan(0.5, 1.0, 5, 0.3, 0, 0)


def lyapunov_exponent(alpha, x0=0.3, n_iters=20_000, transient=1000):
    """Mean log-slope of ``map_step`` along the orbit from ``x0``, after a
    discarded transient.  Writing t = 2x-1, the map is
    a**2 t**2 / (1 + (a**2-1) t**2), whose slope is the closed form below."""
    x = sanitize(x0)
    for _ in range(transient):
        x = sanitize(map_step(x, alpha))
    total = 0.0
    for _ in range(n_iters):
        t = 2.0 * x - 1.0
        slope = 4.0 * alpha * alpha * t / (1.0 + (alpha * alpha - 1.0) * t * t) ** 2
        if slope != 0.0:  # a zero slope sample would send the log to -inf
            total += math.log(abs(slope))
        x = sanitize(map_step(x, alpha))
    return total / n_iters


class TestLyapunovEstimate:
    def test_unit_alpha_matches_doubling_rate(self):
        # f(x) = (2x-1)^2 is conjugate to angle doubling: exponent ln 2.
        lam = lyapunov_exponent(1.0, n_iters=100_000)
        assert lam == pytest.approx(math.log(2.0), abs=0.02)

    # keymat.ALPHA_RANGE's endpoints are the extremes keygen draws.
    @pytest.mark.parametrize("alpha", [0.8, 1.0, 2.0, *ALPHA_RANGE])
    def test_positive_in_chaotic_band(self, alpha):
        assert lyapunov_exponent(alpha) > 0.0

    def test_negative_past_chaotic_band(self):
        # For alpha > 2 the fixed point at 1 attracts with slope 4/alpha^2;
        # the measured exponent settles on ln(4/alpha^2) < 0.  At 2.05 it is
        # already negative: the band ends at alpha = 2, the bound
        # keymat.ALPHA_RANGE's comment cites.
        lam = lyapunov_exponent(5.0)
        assert lam < -1.0
        assert lam == pytest.approx(math.log(4.0 / 25.0), abs=0.05)
        lam = lyapunov_exponent(2.2)
        assert lam < 0.0
        assert lam == pytest.approx(math.log(4.0 / 2.2**2), abs=0.05)
        lam = lyapunov_exponent(2.05)
        assert lam < 0.0
        assert lam == pytest.approx(math.log(4.0 / 2.05**2), abs=0.05)
