"""Spans around calls into each layer of chaostego, installed from outside.

The tracer replaces module attributes (``imagery.load_pnm`` and so on) with
timing wrappers.  The CLI looks those attributes up at call time, so every
call it makes into a layer is recorded without any change to the package.
Calls a module makes to names it imported into its own namespace are not
seen; the span list below names each patched attribute.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass, field
from time import perf_counter_ns


@dataclass
class Span:
    name: str
    start: int = 0
    end: int = 0
    parent: int = -1
    session: int = 0
    count: int = 0  # work done in the span: bytes, prefixes, ...
    children_ns: int = 0

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6

    @property
    def self_ms(self) -> float:
        return (self.end - self.start - self.children_ns) / 1e6


def _nbytes(args, result) -> int:
    # load_* parse their bytes argument; save_* return the bytes written.
    return len(args[0]) if isinstance(args[0], bytes) else len(result)


# (module, attribute, span name, work counter).  The chaos entries are the
# two places other layers enter the position generator: the embed/extract
# stream and the keygen liveness probe.
TRACED = [
    ("cli", "run", "cli.run", None),
    ("keymat", "generate_keys", "keymat.generate_keys", None),
    ("keymat", "parse_secret_keys", "keymat.parse", None),
    ("keymat", "parse_public_key", "keymat.parse", None),
    ("keymat", "select_positions", "chaos.select_positions", None),
    ("codec", "encode_message", "codec.encode", None),
    ("codec", "decode_message", "codec.decode", None),
    ("codec", "embed", "codec.embed", None),
    ("codec", "extract", "codec.extract", None),
    ("codec", "iter_positions", "chaos.iter_positions", None),
    ("imagery", "load_pnm", "imagery.load_pnm", _nbytes),
    ("imagery", "save_pnm", "imagery.save_pnm", _nbytes),
    ("imagery", "load_pbm", "imagery.load_pbm", _nbytes),
    ("imagery", "save_pbm", "imagery.save_pbm", _nbytes),
    ("analysis", "psnr", "analysis.psnr", None),
    ("analysis", "histogram_entropy", "analysis.entropy", None),
    ("analysis", "neighbor_diff_entropy", "analysis.entropy", None),
    ("analysis", "chi_square_attack", "analysis.chi_square", lambda args, result: len(result)),
]


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    session: int = 0
    _stack: list[int] = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def install(self, package) -> None:
        """Wrap every attribute in TRACED on the given chaostego package."""
        for module_name, attr, name, counter in TRACED:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, counter))
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, parent=stack[-1] if stack else -1, session=self.session)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].children_ns += span.end - span.start
            if counter is not None:
                span.count = counter(args, result)
            return result

        return traced

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
