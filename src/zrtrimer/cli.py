"""Command-line interface and reproduction harnesses.

Subcommands: eigenvalue, solve, scan-p, thomas-demo, wavefunction.  Each is
registered once, with its own default format, and runs a cmd_* function
whose parameters are the subcommand's options (and cfg, the parsed
--config).  Every command returns a table, (columns, rows) and optionally
extra metadata, and one writer prints it: as CSV with `# key=value`
metadata comments above a header row (the default, except for solve), or
as JSON carrying the metadata in a "meta" object.  Identical configuration
and tool version produce byte-identical output.  Exit codes: 0 success, 1
usage or configuration error, 2 solver failure (SolverError); any other
exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .angular import AngularProblem, NuBranch, trace_branch
from .config import ConfigError, RunConfig, parse_config
from .potential import EffectivePotential, effective_potential
from .radial import RadialSolution, solve_bound_states, thomas_spectrum
from .system import SolverError


#: Most points a scan-p grid may have; the bundled default scan has 13.
MAX_SCAN_POINTS = 100_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ----------------------------------------------------------------- pipeline

def trace_for_config(cfg: RunConfig) -> tuple[AngularProblem, NuBranch]:
    problem = AngularProblem(cfg.system)
    grid = np.exp(np.linspace(np.log(cfg.rho_min), np.log(cfg.rho_max), cfg.n))
    return problem, trace_branch(grid, problem)


def potential_for_config(cfg: RunConfig) -> tuple[NuBranch, EffectivePotential]:
    problem, branch = trace_for_config(cfg)
    return branch, effective_potential(branch, problem, cfg.q_convention)


def solve_for_config(cfg: RunConfig, prior: list[RadialSolution] | None = None
                     ) -> tuple[EffectivePotential, list[RadialSolution]]:
    _, pot = potential_for_config(cfg)
    states = solve_bound_states(
        pot, cfg.max_states, rho_min=cfg.radial_rho_min,
        rho_max=cfg.radial_rho_max, n=cfg.radial_n, prior=prior)
    return pot, states


def _with_pshape(cfg: RunConfig, p: float) -> RunConfig:
    pairs = list(cfg.system.pairs)
    for i, pair in enumerate(pairs):
        if pair.r_eff > 0.0:   # P is inert (and rejected) on a zero-range pair
            try:
                pairs[i] = dataclasses.replace(pair, p_shape=p)
            except ValueError as exc:
                raise ConfigError(f"scan-p: [pair.{i + 1}]: {exc}") from exc
    system = dataclasses.replace(cfg.system, pairs=tuple(pairs))
    return dataclasses.replace(cfg, system=system)


# ------------------------------------------------------------------ output

def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return "" if x is None else str(x)


def _write(stream, out_format: str, columns, rows, meta: dict,
           rows_key: str) -> None:
    """The one table writer.  CSV: each meta entry as a `# key=value`
    comment, then the header row and the rows.  JSON: the string entries
    of meta form "meta"; a number is a result (solve's threshold) and
    stands beside it; the rows follow as objects under rows_key."""
    if out_format == "csv":
        for key, value in meta.items():
            stream.write(f"# {key}={_fmt(value)}\n")
        stream.write(",".join(columns) + "\n")
        for row in rows:
            stream.write(",".join(_fmt(v) for v in row) + "\n")
        return
    payload = {"meta": {k: v for k, v in meta.items() if isinstance(v, str)}}
    payload.update((k, v) for k, v in meta.items() if not isinstance(v, str))
    payload[rows_key] = [dict(zip(columns, row)) for row in rows]
    json.dump(payload, stream, indent=2)
    stream.write("\n")


@contextlib.contextmanager
def _output(out: str):
    """stdout for "-"; else out, opened before the command runs.  A regular
    file, new or not, is written beside it and moved onto it once the table
    is written, so a failed command leaves it as it was; a device or pipe is
    written in place."""
    if out == "-":
        yield sys.stdout
        return
    path = os.path.realpath(out)    # through a symlink, as open does
    regular = os.path.isfile(path) or not os.path.exists(path)
    tmp = f"{path}.{os.getpid()}.tmp" if regular else path
    try:
        stream = open(tmp, "x" if regular else "w", encoding="utf-8",
                      newline="")
    except OSError as exc:
        raise _UsageError(f"cannot write output {out!r}: {exc}") from exc
    try:
        with stream:
            yield stream
        if regular:
            os.replace(tmp, path)
    except BaseException:
        if regular:
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------- commands

def cmd_eigenvalue(cfg: RunConfig) -> tuple[list, list]:
    branch, pot = potential_for_config(cfg)
    rows = [(float(r), float(u), float(lam), float(w))
            for r, u, lam, w in zip(branch.rho, branch.u, branch.lam, pot.w)]
    return ["rho_au", "nu2", "lambda", "W_au"], rows


def cmd_solve(cfg: RunConfig) -> tuple[list, list, dict]:
    pot, states = solve_for_config(cfg)
    rows = [(s.energy_mk, s.node_count) for s in states]
    return ["E_mK", "nodes"], rows, {"threshold_mK": pot.threshold_mk}


def cmd_scan_p(cfg: RunConfig, p_min: float, p_max: float, p_step: float):
    if not all(map(math.isfinite, (p_min, p_max, p_step))):
        raise _UsageError("need finite p_min, p_max and p_step")
    if p_step <= 0.0 or p_max < p_min:
        raise _UsageError("need p_min <= p_max and p_step > 0")
    # the last point may not pass p_max; exact multiples keep their last point
    n_steps = (p_max - p_min) / p_step + 1e-9
    if not n_steps < MAX_SCAN_POINTS:   # also an overflow to inf
        raise _UsageError(f"need at most {MAX_SCAN_POINTS} P points; "
                          f"raise p_step or narrow [p_min, p_max]")
    if not any(pair.r_eff > 0.0 for pair in cfg.system.pairs):
        raise _UsageError("scan-p needs a pair with r_eff > 0; "
                          "the shape parameter is inert at r_eff = 0")
    ps = [p_min + k * p_step for k in range(int(n_steps) + 1)]
    # every point is validated before anything is solved
    cfgs = [_with_pshape(cfg, p) for p in ps]
    rows = []
    states = None   # each point warm-starts the radial solve of the next
    for p, cfg_p in zip(ps, cfgs):
        _, states = solve_for_config(cfg_p, states)
        e0 = states[0].energy_mk if len(states) > 0 else None
        e1 = states[1].energy_mk if len(states) > 1 else None
        rows.append((p, e0, e1))
    return ["P", "E0_mK", "E1_mK"], rows


def cmd_thomas_demo(g: float | None, cutoff: float, outer: float,
                    states: int):
    if g is not None and not 0.0 < g < math.inf:
        raise _UsageError("need a finite g > 0")
    if not 0.0 < cutoff < outer < math.inf or outer < 100.0 * cutoff:
        raise _UsageError("need 0 < cutoff, outer >> cutoff and a finite outer")
    if states < 1:
        raise _UsageError("need at least one state")
    spec = thomas_spectrum(g=g, cutoff_rho0=cutoff, outer_rho=outer,
                           n_states=states)
    rows = []
    for k, e in enumerate(spec.energies):
        ratio = spec.ratios[k] if k < len(spec.ratios) else None
        rows.append((k, e, ratio))
    return ["n", "E_hartree", "ratio"], rows, {"g": _fmt(spec.g)}


def cmd_wavefunction(cfg: RunConfig, state: int):
    _, states = solve_for_config(cfg)
    if state < 0 or state >= len(states):
        raise _UsageError(
            f"state {state} not available; {len(states)} bound state(s) found")
    s = states[state]
    rows = [(float(r), float(v)) for r, v in zip(s.rho, s.f)]
    return ["rho_au", "f"], rows, {"state": str(state)}


# ------------------------------------------------------------------- main

def _parser() -> _Parser:
    """Each subcommand once: its cmd_* as `run`, whose parameters are the
    subcommand's option names, and its default format."""
    parser = _Parser(prog="zrtrimer",
                     description="three-body bound states with regularized "
                                 "zero-range interactions")
    parser.add_argument("--version", action="version",
                        version=f"zrtrimer {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    sub = {}
    # cmd_* functions only: the library calls inside them are looked up at
    # call time, where perfbench/trace.py and the tests patch them
    for name, run, out_format, what in (
            ("eigenvalue", cmd_eigenvalue, "csv",
             "trace the angular eigenvalue branch (CSV)"),
            ("solve", cmd_solve, "json", "bound-state spectrum (JSON)"),
            ("scan-p", cmd_scan_p, "csv",
             "spectrum versus the shape parameter (CSV)"),
            ("thomas-demo", cmd_thomas_demo, "csv",
             "hard-wall inverse-square spectrum (CSV)"),
            ("wavefunction", cmd_wavefunction, "csv",
             "radial wave function of one state (CSV)")):
        cmd = sub[name] = subs.add_parser(name, help=what)
        cmd.set_defaults(run=run)
        if name != "thomas-demo":   # the demo has no system to configure
            cmd.add_argument("--config", required=True,
                             help="path to a run configuration file")
        cmd.add_argument("--out", default="-",
                         help="output path, or - for stdout (default)")
        cmd.add_argument("--format", choices=("csv", "json"),
                         default=out_format,
                         help="output encoding (default: csv, json for solve)")
    # solve_output.schema.json: solve's JSON lists its rows as "states"
    sub["solve"].set_defaults(rows_key="states")
    sub["scan-p"].add_argument("--p-min", type=float, default=0.10)
    sub["scan-p"].add_argument("--p-max", type=float, default=0.16)
    sub["scan-p"].add_argument("--p-step", type=float, default=0.005)
    sub["thomas-demo"].add_argument("--g", type=float, default=None,
                                    help="inverse-square strength parameter "
                                         "(default: solved internally)")
    sub["thomas-demo"].add_argument("--cutoff", type=float, default=0.1,
                                    help="inner hard wall (au)")
    sub["thomas-demo"].add_argument("--outer", type=float, default=3e6,
                                    help="outer hard wall (au)")
    sub["thomas-demo"].add_argument("--states", type=int, default=5)
    sub["wavefunction"].add_argument("--state", type=int, default=0,
                                     help="state index (0 = ground state)")
    return parser


def main(argv=None) -> int:
    try:
        options = vars(_parser().parse_args(argv))
        command, run, out, out_format = (
            options.pop(key) for key in ("command", "run", "out", "format"))
        rows_key = options.pop("rows_key", "rows")
        meta = {"tool": "zrtrimer", "version": __version__, "command": command}
        if "config" in options:
            path = options.pop("config")
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise _UsageError(f"cannot read config {path!r}: {exc}") from exc
            options["cfg"] = parse_config(text)
            meta["config_sha256"] = options["cfg"].sha256
        with _output(out) as stream:
            columns, rows, *extra_meta = run(**options)
            meta.update(*extra_meta)
            _write(stream, out_format, columns, rows, meta, rows_key)
        return 0
    except (_UsageError, ConfigError) as exc:
        print(f"zrtrimer: error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"zrtrimer: solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
