"""End-to-end and per-layer benchmark of the chaostego CLI.

    python3 perfbench/run.py --workload full-cover --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Each run sets up one workload from the seed, drives ``chaostego.cli.run``
in-process in a closed loop with one client for about ``--seconds`` seconds
(ending on a round boundary), checks every output, prints one line per
metric with its unit and sample count, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
JSON metrics are the end-to-end ones; with ``--trace 1`` the run records
spans around the calls into each layer and reports the per-layer metrics.
``--smoke`` runs every workload, untraced and traced, at tiny sizes.
See README.md in this directory for the metric -> layer -> workload map.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
import workloads
from tracing import Tracer, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# setup_s is the median of at least MIN_SETUPS set-ups, repeated until
# SETUP_BUDGET_S has been spent, so cheap set-ups get more samples.
MIN_SETUPS = 3
SETUP_BUDGET_S = 2.0


def import_package():
    """Import chaostego afresh from the checkout's src/ (numpy stays loaded)."""
    for name in [m for m in sys.modules if m == "chaostego" or m.startswith("chaostego.")]:
        del sys.modules[name]
    package = importlib.import_module("chaostego")
    importlib.import_module("chaostego.cli")
    if Path(package.__file__).resolve().parent != SRC / "chaostego":
        raise ImportError(f"chaostego imported from {package.__file__}, not from {SRC}")
    return package


def set_up(name: str, work: Path, seed: int, scale):
    """Import + build the workload's inputs repeatedly; returns the last
    workload and the set-up durations in seconds."""
    durations = []
    while len(durations) < MIN_SETUPS or sum(durations) < SETUP_BUDGET_S:
        gc.collect()
        start = perf_counter()
        workload = workloads.WORKLOADS[name](import_package(), work, seed, scale)
        workload.setup()
        durations.append(perf_counter() - start)
    return workload, durations


def warm_up(name: str, ct, work: Path, seed: int) -> None:
    """One untimed round of the workload at smoke sizes, so first-call costs
    (lazy imports, allocator growth) stay out of the timed loop."""
    workload = workloads.WORKLOADS[name](ct, work, seed, workloads.SMOKE)
    workload.setup()
    for case in next(workload.rounds()):
        workload.session(workloads.Client(ct), case)


def closed_loop(workload, ct, seconds: float, tracer: Tracer | None = None):
    """Run sessions round after round until ``seconds`` have passed and every
    case has run at least once.  Each untraced session is preceded by one
    untimed run of the workload's reference kernel, which gives its ref_ms.

    With a tracer, each case runs twice back to back, untraced and then
    traced, so the two timings see the same machine state; their difference
    is the tracing overhead.  The probe's direct chaos calls and reference
    replays run after the traced session, outside both timings.  Returns the
    untraced sessions and the traced ones (empty without a tracer).
    """
    plain, traced = [], []
    probe = workloads.Probe()
    kernel = reference.KERNELS[workload.reference]
    start = perf_counter()
    for r, cases in enumerate(workload.rounds()):
        for case in cases:
            gc.collect()
            ref_start = perf_counter()
            kernel()
            ref_ms = (perf_counter() - ref_start) * 1e3
            session = workload.session(workloads.Client(ct), case)
            session.case, session.ref_ms = case, ref_ms
            plain.append(session)
            if tracer is not None:
                tracer.session = len(traced)
                tracer.install(ct)
                try:
                    session = workload.session(workloads.Client(ct, tracer), case, probe)
                finally:
                    tracer.uninstall()
                session.case = case
                traced.append(session)
            if r > 0 and perf_counter() - start >= seconds:
                return plain, traced
        if perf_counter() - start >= seconds:
            return plain, traced


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class Report:
    """Metric lines with unit and n; a subset becomes the JSON metrics."""

    def __init__(self):
        self.rows: list[tuple[str, float, str, int]] = []

    def add(self, name: str, value: float, unit: str, n: int) -> None:
        self.rows.append((name, float(value), unit, n))

    def timing(self, name: str, values_ms: list[float]) -> None:
        """p50, plus p90 when at least ten samples lie beyond it."""
        self.add(f"{name}_p50_ms", median(values_ms), "ms", len(values_ms))
        if len(values_ms) >= 100:
            self.add(f"{name}_p90_ms", float(np.percentile(values_ms, 90)), "ms", len(values_ms))

    def print(self) -> None:
        for name, value, unit, n in self.rows:
            print(f"{name:<44} {value:>16.6f} {unit:<6} n={n}")

    def json_metrics(self, names) -> dict:
        found = {name: {"value": value, "unit": unit} for name, value, unit, _ in self.rows}
        return {name: found[name] for name in names}


def _ops(sessions):
    return [op for s in sessions for op in s.ops]


def end_to_end(report: Report, sessions, setups: list[float]) -> None:
    ops = _ops(sessions)
    report.add("setup_s", statistics.median(setups), "s", len(setups))
    report.add("round_ref", round_time(sessions, lambda s: s.ms / s.ref_ms), "ref", len(sessions))
    report.add("round_ms", round_time(sessions, lambda s: s.ms), "ms", len(sessions))
    report.add("reference_ms", median(s.ref_ms for s in sessions), "ms", len(sessions))
    for kind in ("keygen", "embed", "extract", "analyze", "attack", "reject"):
        times = [op.ms for op in ops if op.kind == kind]
        if times:
            report.timing(kind, times)
    carried = [s for s in sessions if s.bits]
    for label in sorted({s.label for s in carried}):
        group = [s for s in carried if s.label == label]
        report.add(f"payload_bits_per_s[{label}]", _bits_per_s(group), "bit/s", len(group))
    if carried:
        report.add("payload_bits_per_s", _bits_per_s(carried), "bit/s", len(carried))
    failed = sum(not op.ok for op in ops)
    report.add("ops_failed_frac", failed / len(ops), "ratio", len(ops))
    report.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)


def round_time(sessions, time) -> float:
    """Time of one round: the sum over cases of each case's median ``time``.

    Every case has a fixed key and input, so its median is a steady figure
    however many times it ran, and the sum weighs every case once.
    ``time(session)`` is its milliseconds, or its milliseconds divided by
    the reference kernel's just before it (see reference.py).
    """
    by_case = {}
    for s in sessions:
        by_case.setdefault(s.case, []).append(time(s))
    return sum(median(times) for times in by_case.values())


def _bits_per_s(sessions) -> float:
    ms = sum(op.ms for s in sessions for op in s.ops if op.kind in ("embed", "extract"))
    return sum(s.bits for s in sessions) / (ms / 1e3)


SPAN_METRICS = {
    "imagery.load_pnm": "imagery.load_pnm_ms",
    "imagery.save_pnm": "imagery.save_pnm_ms",
    "imagery.load_pbm": "imagery.load_pbm_ms",
    "imagery.save_pbm": "imagery.save_pbm_ms",
    "keymat.generate_keys": "keymat.generate_keys_ms",
    "keymat.parse": "keymat.parse_ms",
    "codec.encode": "codec.encode_ms",
    "codec.decode": "codec.decode_ms",
    "analysis.psnr": "analysis.psnr_ms",
    "analysis.entropy": "analysis.entropy_ms",
    "analysis.chi_square": "analysis.chi_square_ms",
}


def per_layer(report: Report, tracer: Tracer, traced, untraced) -> None:
    spans = tracer.spans
    cli_spans = tracer.named("cli.run")
    report.add("cli.self_ms", median(s.self_ms for s in cli_spans), "ms", len(cli_spans))
    for span_name, metric in SPAN_METRICS.items():
        named = tracer.named(span_name)
        report.add(metric, median(s.ms for s in named), "ms", len(named))

    ops = _ops(traced)
    probed = [op for op in ops if "steps" in op.extra]
    positioned = [op for op in probed if "positions_ms" in op.extra]
    rejected = [op for op in probed if "reject_ms" in op.extra]
    report.add("chaos.positions_ms", median(op.extra["positions_ms"] for op in positioned), "ms", len(positioned))
    report.add("chaos.reject_ms", median(op.extra["reject_ms"] for op in rejected), "ms", len(rejected))
    report.add("chaos.steps", median(op.extra["steps"] for op in probed), "count", len(probed))
    report.add("chaos.unique_per_step", median(op.extra["unique"] / op.extra["steps"] for op in probed),
               "ratio", len(probed))
    report.add("chaos.ns_per_step",
               median((op.extra.get("positions_ms") or op.extra["reject_ms"]) * 1e6 / op.extra["steps"]
                      for op in probed), "ns", len(probed))
    per_session = [[] for _ in traced]
    children = {}
    for span in spans:
        per_session[span.session].append(span)
        children.setdefault(span.parent, []).append(span)
    report.add("chaos.calls", median(sum(s.name.startswith("chaos.") for s in ss) for ss in per_session),
               "count", len(per_session))

    # Self time of codec.embed/extract: the layer's span minus the orbit
    # time a direct select_positions call takes for the same arguments.
    for kind in ("embed", "extract"):
        own = [child.ms - op.extra["positions_ms"]
               for op in positioned if op.kind == kind
               for child in children.get(op.span, []) if child.name == f"codec.{kind}"]
        report.add(f"codec.{kind}_self_ms", median(own), "ms", len(own))

    report.add("imagery.bytes", median(sum(s.count for s in ss if s.name.startswith("imagery."))
                                       for ss in per_session), "B", len(per_session))
    attacks = tracer.named("analysis.chi_square")
    report.add("analysis.prefixes", median(s.count for s in attacks), "count", len(attacks))
    base = sum(s.ms for s in untraced)
    report.add("trace.overhead_frac", (sum(s.ms for s in traced) - base) / base, "ratio", len(traced))


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def context(args) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        models = [line for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")]
        cpu = models[0].split(":", 1)[1].strip() if models else cpu
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": _version("scipy"),
    }


def _version(module: str) -> str | None:
    try:
        return importlib.import_module(module).__version__
    except ImportError:
        return None


def git_commit() -> str:
    """HEAD of the checkout's git directory, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(name: str, seed: int, seconds: float, trace: bool, scale, work: Path) -> tuple[dict, Report]:
    workload, setups = set_up(name, work, seed, scale)
    ct = workload.ct
    warm_up(name, ct, work / "warm-up", seed)
    # Objects alive now (modules, inputs) are left out of later collections,
    # so the collection before each op costs ~1 ms instead of ~12 ms.
    gc.collect()
    gc.freeze()
    report = Report()
    if not trace:
        sessions, _ = closed_loop(workload, ct, seconds)
        end_to_end(report, sessions, setups)
        ops = _ops(sessions)
        names = metric_names("end_to_end")
    else:
        tracer = Tracer()
        untraced, traced = closed_loop(workload, ct, seconds, tracer)
        per_layer(report, tracer, traced, untraced)
        ops = _ops(untraced) + _ops(traced)
        names = metric_names("per_layer")
    failed = sum(not op.ok for op in ops)
    result = {"correct": failed == 0 and bool(ops), "attempted": len(ops), "failed": failed,
              "metrics": report.json_metrics(names)}
    return result, report


def metric_names(kind: str) -> list[str]:
    """Names of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


def smoke(work: Path) -> int:
    """Every workload, untraced and traced, at tiny sizes; exit 1 on any failure."""
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result, _ = run(name, 1, 0.2, trace, workloads.SMOKE, work / f"{name}-{int(trace)}")
            print(f"{name} trace={int(trace)} {json.dumps(result)}")
            ok &= result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload and check")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "chaostego" / "__init__.py").is_file():
        print(f"error: no chaostego sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    try:
        if args.smoke:
            return smoke(work)
        print("# context " + json.dumps(context(args)))
        result, report = run(args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL, work)
        report.print()
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            (HERE / ".work").rmdir()


if __name__ == "__main__":
    sys.exit(main())
