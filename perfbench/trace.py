"""Spans around the calls into each layer, recorded from outside the program.

The tracer patches the public functions at the names the CLI calls them by,
records one span per call (name, start, end, parent, request id) and keeps
the spans in memory.  A span's self time is its duration minus the time its
child spans cover, so the self times of one request add up to its latency.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

import numpy as np

import zrtrimer.angular
import zrtrimer.cli
import zrtrimer.potential

# span name -> layer whose self time it counts toward
LAYER = {
    "cli.main": "cli.self_s",
    "parse_config": "config.parse_s",
    "trace_branch": "angular.trace_s",
    "solve_at_rho": "angular.trace_s",
    "effective_potential": "potential.build_s",
    "EffectivePotential.values": "potential.eval_s",
    "solve_bound_states": "radial.solve_s",
    "thomas_spectrum": "radial.thomas_s",
}
TIME_KEYS = tuple(dict.fromkeys(LAYER.values()))


def _grid_steps(args, kwargs, result) -> int:
    grid = kwargs.get("grid", args[0] if args else ())
    return max(len(grid) - 1, 0)


def _points(args, kwargs, result) -> int:
    return int(np.size(kwargs.get("rhos", args[1] if len(args) > 1 else ())))


# span name -> (where it is patched, attribute, work counter, its increment)
_TARGETS = {
    "parse_config": (zrtrimer.cli, "parse_config", None, None),
    "trace_branch": (zrtrimer.cli, "trace_branch", "grid_steps", _grid_steps),
    "solve_at_rho": (zrtrimer.angular, "solve_at_rho", "solves",
                     lambda a, k, r: 1),
    "effective_potential": (zrtrimer.cli, "effective_potential", None, None),
    "EffectivePotential.values": (zrtrimer.potential.EffectivePotential,
                                  "values", "eval_points", _points),
    "solve_bound_states": (zrtrimer.cli, "solve_bound_states", "states",
                           lambda a, k, r: len(r)),
    "thomas_spectrum": (zrtrimer.cli, "thomas_spectrum", None, None),
}
COUNT_KEYS = ("grid_steps", "solves", "eval_points", "states")


@dataclass
class Span:
    request: int
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    count: int = 0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)
    _request: int = -1

    def _enter(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self._request, len(self.spans), parent, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.end - span.start

    def _wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.count = count(args, kwargs, result)
                return result
            finally:
                self._exit(span)
        return traced

    @contextlib.contextmanager
    def request(self, index: int):
        """Trace one request: patch the layer entry points for its duration."""
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _, _ in _TARGETS.values()]
        self._request = index
        for name, (owner, attr, _, count) in _TARGETS.items():
            setattr(owner, attr, self._wrap(name, getattr(owner, attr), count))
        root = self._enter("cli.main")
        try:
            yield
        finally:
            self._exit(root)
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def by_request(self) -> dict[int, dict]:
        """Per request: self time per layer and work counts."""
        out: dict[int, dict] = {}
        for s in self.spans:
            rec = out.setdefault(s.request, dict.fromkeys(TIME_KEYS, 0.0)
                                 | dict.fromkeys(COUNT_KEYS, 0))
            rec[LAYER[s.name]] += s.self_s
            if s.name == "cli.main":
                rec["latency_s"] = s.end - s.start
            else:
                key = _TARGETS[s.name][2]
                if key:
                    rec[key] += s.count
        return out

    def dump(self) -> list[list]:
        return [[s.request, s.span_id, s.parent, s.name, s.start, s.end]
                for s in self.spans]
