"""Map iteration, sanitization, and position stream behavior."""

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

from chaostego import chaos
from chaostego.chaos import (
    EPSILON,
    ChaosState,
    ImageDims,
    bifurcation_scan,
    coupled_step,
    initial_state,
    lyapunov_estimate,
    map_step,
    sanitize,
    select_positions,
    to_pixel,
)
from chaostego.errors import DomainError, InsufficientCapacity
from chaostego.keymat import PublicCoupling, SecretKeySet


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

    def test_wraps_fractional_part_above_one(self):
        assert sanitize(2.3) == pytest.approx(0.3)
        assert sanitize(2.5) == 0.5 + EPSILON  # wraps onto 0.5, then shifts
        assert sanitize(3.0) == EPSILON

    @given(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    def test_output_always_in_domain(self, u):
        v = sanitize(u)
        assert 0.0 < v < 1.0 and v != 0.5


class TestCoupledStep:
    def test_near_midpoint_outputs_near_zero(self):
        delta = 1e-9
        state = ChaosState(0.5 - delta, 0.5 - delta, 1)
        nxt = coupled_step(state, 2.0, 3.0, 1.0)
        assert nxt.x < 1e-12 and nxt.y < 1e-12
        assert nxt.x > 0.0 and nxt.y > 0.0  # sanitization keeps it alive

    def test_swapped_closed_form_at_unit_alpha(self):
        state = ChaosState(0.25, 0.3, 1)
        nxt = coupled_step(state, 1.0, 1.0, 1.0)
        assert nxt.x == (2 * 0.3 - 1) ** 2  # fed the other map's output
        assert nxt.y == 0.25
        assert nxt.n == 2

    def test_deterministic(self):
        state = ChaosState(0.31, 0.72, 5)
        a = coupled_step(state, 1.3, 1.7, 0.97)
        b = coupled_step(state, 1.3, 1.7, 0.97)
        assert a == b

    def test_rejects_bad_coupling(self):
        with pytest.raises(DomainError):
            coupled_step(ChaosState(0.3, 0.4, 1), 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            coupled_step(ChaosState(0.3, 0.4, 1), 1.0, 1.0, 1.5)

    def test_bootstrap_is_uncoupled(self):
        keys = SecretKeySet(1.3, 1.7, 0.31, 0.72)
        first = initial_state(keys)
        assert first.x == sanitize(map_step(sanitize(0.31), 1.3))
        assert first.y == sanitize(map_step(sanitize(0.72), 1.7))
        assert first.n == 1


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
        # The inlined kernel loop must reproduce the public step functions
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

    def test_cycle_ends_collapsing_orbit_early(self, monkeypatch):
        # This orbit enters an exact cycle within a few hundred steps; the
        # failure must come from the cycle, not from the 28391-step cap, and
        # keep the cap's message.
        calls = 0

        def counting_sanitize(u):
            nonlocal calls
            calls += 1
            return sanitize(u)

        monkeypatch.setattr(chaos, "_native_orbit", lambda: None)
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


class TestNativeKernel:
    @needs_cc
    def test_loads_where_a_compiler_exists(self):
        assert chaos._native_orbit() is not None

    @needs_cc
    def test_build_is_cached_by_source_hash(self, tmp_path):
        source = tmp_path / "_orbit.c"
        source.write_bytes(Path(chaos.__file__).with_name("_orbit.c").read_bytes())
        lib = chaos._build(source)
        assert lib.parent == tmp_path / "__pycache__"
        assert lib.name.startswith("orbit-") and lib.suffix == ".so"
        assert [p.name for p in lib.parent.iterdir()] == [lib.name]  # no temp file left
        mtime = lib.stat().st_mtime_ns
        assert chaos._build(source) == lib and lib.stat().st_mtime_ns == mtime

    @needs_cc
    def test_flags_are_part_of_the_build_name(self, tmp_path, monkeypatch):
        source = tmp_path / "_orbit.c"
        source.write_bytes(Path(chaos.__file__).with_name("_orbit.c").read_bytes())
        first = chaos._build(source)
        monkeypatch.setattr(chaos, "_CFLAGS", (*chaos._CFLAGS, "-g"))
        second = chaos._build(source)
        assert second != first and second.exists()

    def test_falls_back_when_the_build_fails(self, monkeypatch):
        def fail(source):
            raise OSError("no compiler")

        monkeypatch.setattr(chaos, "_build", fail)
        assert chaos._native_orbit.__wrapped__() is None

    def test_falls_back_when_the_self_check_disagrees(self, monkeypatch):
        if chaos._native_orbit() is None:
            pytest.skip("compiled kernel unavailable")
        reference = chaos._orbit_python
        monkeypatch.setattr(chaos, "_orbit_python", lambda *args: reference(*args)[:-1])
        assert chaos._native_orbit.__wrapped__() is None

    def test_self_check_cases_take_every_exit(self):
        # Doubling the cap changes nothing after a count or cycle exit, and
        # finds more cells after a cap exit.
        found = []
        for args in chaos._self_check_cases():
            longer = chaos._orbit_python(*args[:-1], 2 * args[-1])
            found.append((len(chaos._orbit_python(*args)), len(longer), args[7]))
        (full, full_longer, count), (cycle, cycle_longer, _), (capped, capped_longer, _) = found
        assert full == full_longer == count
        assert cycle == cycle_longer < count
        assert capped < capped_longer < count

    def test_falls_back_when_the_self_check_disagrees_at_the_cap(self, monkeypatch):
        if chaos._native_orbit() is None:
            pytest.skip("compiled kernel unavailable")
        reference = chaos._orbit_python
        capped = list(chaos._self_check_cases())[2]

        def perturbed(*args):
            found = reference(*args)
            return found[:-1] if args == capped else found

        monkeypatch.setattr(chaos, "_orbit_python", perturbed)
        assert chaos._native_orbit.__wrapped__() is None

    def test_reports_a_failed_seen_map_allocation(self, monkeypatch):
        # A grid no address space holds: rows*cols bits overflow any calloc.
        orbit = chaos._native_orbit()
        if orbit is None:
            pytest.skip("compiled kernel unavailable")
        with pytest.raises(MemoryError, match="seen-map"):
            orbit(0.3, 0.7, 2.0, 3.0, 0.9, 2**40, 2**22, 1, 10)

    def test_seen_map_memory_follows_the_work(self, tmp_path):
        # 500 positions on an 8000x8000 grid: a byte per cell would be 64 MB,
        # a bitset 8 MB of address space of which only touched pages count.
        if chaos._native_orbit() is None:
            pytest.skip("compiled kernel unavailable")
        script = (
            "import resource, sys\n"
            "from chaostego import chaos, cli\n"
            "sec, pub, out = sys.argv[1:]\n"
            "assert cli.run(['keygen', '--out', sec, '--pub', pub, '--seed', '3']) == 0\n"
            "assert chaos._native_orbit() is not None\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "assert cli.run(['exchange-sim', '--alice', sec, '--pub', pub, '--rows', '8000',\n"
            "                '--cols', '8000', '--prefix', '500', '--out', out]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(chaos.__file__).parents[1]))
        child = subprocess.run(
            [sys.executable, "-c", script, *(str(tmp_path / n) for n in ("s.key", "p.key", "t.txt"))],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert (tmp_path / "t.txt").read_text().endswith("agreement=true\n")
        growth_kib = int(child.stdout)  # ru_maxrss is in KiB on Linux
        assert growth_kib < 16 * 1024


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
        ],
    )
    def test_rejects_bad_grids(self, args):
        amin, amax, steps, x0 = args
        with pytest.raises(DomainError):
            bifurcation_scan(amin, amax, steps, x0, 10, 10)


class TestLyapunovEstimate:
    def test_unit_alpha_matches_doubling_rate(self):
        # f(x) = (2x-1)^2 is conjugate to angle doubling: exponent ln 2.
        lam = lyapunov_estimate(1.0, 0.3, 100_000)
        assert lam == pytest.approx(math.log(2.0), abs=0.02)

    @pytest.mark.parametrize("alpha", [0.8, 1.0, 2.0])
    def test_positive_in_chaotic_band(self, alpha):
        assert lyapunov_estimate(alpha, 0.3, 20_000) > 0.0

    def test_negative_past_chaotic_band(self):
        # For alpha > 2 the fixed point at 1 attracts with slope 4/alpha^2;
        # the measured exponent settles on ln(4/alpha^2) < 0.
        lam = lyapunov_estimate(5.0, 0.3, 20_000)
        assert lam < -1.0
        assert lam == pytest.approx(math.log(4.0 / 25.0), abs=0.05)

    def test_deterministic(self):
        assert lyapunov_estimate(1.3, 0.41, 10_000) == lyapunov_estimate(1.3, 0.41, 10_000)

    def test_rejects_short_runs_and_bad_seeds(self):
        with pytest.raises(DomainError):
            lyapunov_estimate(1.0, 0.3, 9_999)
        with pytest.raises(DomainError):
            lyapunov_estimate(1.0, 0.5, 10_000)
        with pytest.raises(DomainError):
            lyapunov_estimate(0.4, 0.3, 10_000)
