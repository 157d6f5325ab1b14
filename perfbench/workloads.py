"""Seeded request generator for the benchmark workloads.

A request is the argument list of one `zrtrimer` CLI call plus, for the
config-driven commands, the text of the config file it reads.  Request 0 of
every workload is the bundled point (the unchanged bundled config, or the
default thomas-demo cutoff); later requests jitter the inputs the solver's
cost depends on.  Draws are Latin-hypercube stratified in blocks of
`_BLOCK` requests, so a run of a few dozen requests covers each input range
evenly whatever the seed, and the same seed gives the same requests.
"""

from __future__ import annotations

import random
import re
import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("he4-solve", "mixed-solve", "p-scan", "thomas-demo")

A_RANGE = (0.9, 1.1)        # multiplier on the bound He4-He4 scattering length
P_RANGE = (0.10, 0.16)      # shape parameter, applied to every pair
CUTOFF_RANGE = (0.05, 0.2)  # thomas-demo inner wall (au)
SCAN_ARGS = ("--p-min", "0.10", "--p-max", "0.16", "--p-step", "0.015")
SCAN_P = (0.10, 0.115, 0.13, 0.145, 0.16)
THOMAS_STATES = 5
BUNDLED_CUTOFF = 0.1

_BLOCK = 8
_CONFIG = {"he4-solve": "he4_trimer.cfg", "mixed-solve": "he4he4he3.cfg",
           "p-scan": "he4_trimer.cfg"}
# pairs whose scattering length is jittered: all three He4-He4 pairs of the
# He4 trimer, only the He4-He4 pair (pair.3) of the mixed trimer
_A_PAIRS = {"he4-solve": ("1", "2", "3"), "mixed-solve": ("3",),
            "p-scan": ("1", "2", "3")}
_KEY = re.compile(r"^(\s*)(a|p_shape)(\s*=\s*)(\S+)(.*)$")
_SECTION = re.compile(r"^\s*\[([^\]]+)\]")


@dataclass(frozen=True)
class Request:
    """One CLI call: argv with the literal `{config}` where the config path goes."""

    index: int
    argv: tuple[str, ...]
    config_text: str | None
    a_factor: float = 1.0


def bundled_config(root: Path, workload: str) -> str:
    return (root / "src" / "zrtrimer" / "data" / _CONFIG[workload]).read_text(
        encoding="utf-8")


def jitter_config(text: str, a_pairs, a_factor: float,
                  p_shape: float | None) -> str:
    """Scale `a` of the named pair sections and set every pair's `p_shape`."""
    out = []
    section = None
    for line in text.splitlines(keepends=True):
        head = _SECTION.match(line)
        if head:
            section = head.group(1)
        m = _KEY.match(line.rstrip("\n"))
        if m and section and section.startswith("pair."):
            indent, key, eq, value, rest = m.groups()
            if key == "a" and section[len("pair."):] in a_pairs:
                value = repr(float(value) * a_factor)
            elif key == "p_shape" and p_shape is not None:
                value = repr(p_shape)
            line = f"{indent}{key}{eq}{value}{rest}\n"
        out.append(line)
    return "".join(out)


def requests(workload: str, seed: int, root: Path) -> Iterator[Request]:
    """Endless, deterministic request sequence for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    base = bundled_config(root, workload) if workload in _CONFIG else None
    yield _request(workload, 0, base, None)
    rng = random.Random(f"{workload}:{seed}")
    index = itertools.count(1)
    while True:
        # one Latin-hypercube block: each column hits each of _BLOCK strata once
        cols = []
        for _ in range(2):
            strata = list(range(_BLOCK))
            rng.shuffle(strata)
            cols.append([(k + rng.random()) / _BLOCK for k in strata])
        for draw in zip(*cols):
            yield _request(workload, next(index), base, draw)


def _request(workload: str, index: int, base: str | None,
             draw: tuple[float, float] | None) -> Request:
    if workload == "thomas-demo":
        cutoff = BUNDLED_CUTOFF if draw is None else _lerp(CUTOFF_RANGE, draw[0])
        return Request(index, ("thomas-demo", "--cutoff", repr(cutoff),
                               "--states", str(THOMAS_STATES)), None)
    if workload == "p-scan":
        argv = ("scan-p", "--config", "{config}") + SCAN_ARGS
    else:
        argv = ("solve", "--config", "{config}")
    if draw is None:
        return Request(index, argv, base)
    a_factor = _lerp(A_RANGE, draw[0])
    p_shape = None if workload == "p-scan" else _lerp(P_RANGE, draw[1])
    text = jitter_config(base, _A_PAIRS[workload], a_factor, p_shape)
    return Request(index, argv, text, a_factor)


def _lerp(bounds: tuple[float, float], x: float) -> float:
    return bounds[0] + (bounds[1] - bounds[0]) * x
