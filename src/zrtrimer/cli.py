"""Command-line interface and reproduction harnesses.

Subcommands: eigenvalue, solve, scan-p, thomas-demo, wavefunction.  Curve
data is written as CSV with a header row and `# key=value` metadata
comments; spectra are written as JSON carrying the same metadata in a
"meta" object.  Identical configuration and tool version produce
byte-identical output.  Exit codes: 0 success, 1 usage or configuration
error, 2 solver failure (SolverError); any other exception is a bug and
propagates.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .angular import AngularProblem, NuBranch, efimov_constant, trace_branch
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


def _write_rows(stream, columns, rows, meta, out_format: str) -> None:
    if out_format == "csv":
        for key, value in meta.items():
            stream.write(f"# {key}={value}\n")
        stream.write(",".join(columns) + "\n")
        for row in rows:
            stream.write(",".join(_fmt(v) for v in row) + "\n")
    else:
        payload = {"meta": meta,
                   "rows": [dict(zip(columns, row)) for row in rows]}
        json.dump(payload, stream, indent=2)
        stream.write("\n")


def _meta(command: str, cfg: RunConfig | None) -> dict:
    meta = {"tool": "zrtrimer", "version": __version__, "command": command}
    if cfg is not None:
        meta["config_sha256"] = cfg.sha256
    return meta


def _emit(text_writer, out_path: str) -> int:
    if out_path == "-":
        text_writer(sys.stdout)
        return 0
    try:
        fh = open(out_path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise _UsageError(f"cannot write output {out_path!r}: {exc}") from exc
    with fh:
        text_writer(fh)
    return 0


# ---------------------------------------------------------------- commands

def cmd_eigenvalue(cfg: RunConfig) -> tuple[list, list]:
    branch, pot = potential_for_config(cfg)
    rows = [(float(r), float(u), float(lam), float(w))
            for r, u, lam, w in zip(branch.rho, branch.u, branch.lam, pot.w)]
    return ["rho_au", "nu2", "lambda", "W_au"], rows


def cmd_solve(cfg: RunConfig) -> dict:
    pot, states = solve_for_config(cfg)
    return {
        "meta": _meta("solve", cfg),
        "threshold_mK": pot.threshold_mk,
        "states": [{"E_mK": s.energy_mk, "nodes": s.node_count} for s in states],
    }


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
                    n_states: int):
    if g is not None and not 0.0 < g < math.inf:
        raise _UsageError("need a finite g > 0")
    if not 0.0 < cutoff < outer < math.inf or outer < 100.0 * cutoff:
        raise _UsageError("need 0 < cutoff, outer >> cutoff and a finite outer")
    if n_states < 1:
        raise _UsageError("need at least one state")
    spec = thomas_spectrum(g=g, cutoff_rho0=cutoff, outer_rho=outer,
                           n_states=n_states)
    rows = []
    for k, e in enumerate(spec.energies):
        ratio = spec.ratios[k] if k < len(spec.ratios) else None
        rows.append((k, e, ratio))
    return ["n", "E_hartree", "ratio"], rows


def cmd_wavefunction(cfg: RunConfig, state_index: int):
    _, states = solve_for_config(cfg)
    if state_index < 0 or state_index >= len(states):
        raise _UsageError(
            f"state {state_index} not available; {len(states)} bound state(s) found")
    s = states[state_index]
    return ["rho_au", "f"], [(float(r), float(v)) for r, v in zip(s.rho, s.f)]


# ------------------------------------------------------------------- main

def _add_common(sub):
    sub.add_argument("--config", required=True,
                     help="path to a run configuration file")
    _add_output(sub)


def _add_output(sub):
    sub.add_argument("--out", default="-",
                     help="output path, or - for stdout (default)")
    sub.add_argument("--format", choices=("csv", "json"), default=None,
                     help="output encoding (default: csv, json for solve)")


def _load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise _UsageError(f"cannot read config {path!r}: {exc}") from exc


def main(argv=None) -> int:
    parser = _Parser(prog="zrtrimer",
                     description="three-body bound states with regularized "
                                 "zero-range interactions")
    parser.add_argument("--version", action="version",
                        version=f"zrtrimer {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_eig = subs.add_parser("eigenvalue",
                            help="trace the angular eigenvalue branch (CSV)")
    _add_common(p_eig)

    p_solve = subs.add_parser("solve", help="bound-state spectrum (JSON)")
    _add_common(p_solve)

    p_scan = subs.add_parser("scan-p",
                             help="spectrum versus the shape parameter (CSV)")
    _add_common(p_scan)
    p_scan.add_argument("--p-min", type=float, default=0.10)
    p_scan.add_argument("--p-max", type=float, default=0.16)
    p_scan.add_argument("--p-step", type=float, default=0.005)

    p_thomas = subs.add_parser("thomas-demo",
                               help="hard-wall inverse-square spectrum (CSV)")
    _add_output(p_thomas)
    p_thomas.add_argument("--g", type=float, default=None,
                          help="inverse-square strength parameter "
                               "(default: solved internally)")
    p_thomas.add_argument("--cutoff", type=float, default=0.1,
                          help="inner hard wall (au)")
    p_thomas.add_argument("--outer", type=float, default=3e6,
                          help="outer hard wall (au)")
    p_thomas.add_argument("--states", type=int, default=5)

    p_wave = subs.add_parser("wavefunction",
                             help="radial wave function of one state (CSV)")
    _add_common(p_wave)
    p_wave.add_argument("--state", type=int, default=0,
                        help="state index (0 = ground state)")

    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"zrtrimer: error: {exc}", file=sys.stderr)
        return 1

    try:
        cfg = _load_config(args.config) if "config" in args else None

        if args.command == "solve":
            fmt = args.format or "json"
            payload = cmd_solve(cfg)
            if fmt == "json":
                def write(stream):
                    json.dump(payload, stream, indent=2)
                    stream.write("\n")
                return _emit(write, args.out)
            columns = ["E_mK", "nodes"]
            rows = [(s["E_mK"], s["nodes"]) for s in payload["states"]]
            meta = dict(payload["meta"])
            meta["threshold_mK"] = _fmt(payload["threshold_mK"])
            return _emit(lambda st: _write_rows(st, columns, rows, meta, "csv"),
                         args.out)

        if args.command == "eigenvalue":
            columns, rows = cmd_eigenvalue(cfg)
            meta = _meta("eigenvalue", cfg)
        elif args.command == "scan-p":
            columns, rows = cmd_scan_p(cfg, args.p_min, args.p_max, args.p_step)
            meta = _meta("scan-p", cfg)
        elif args.command == "thomas-demo":
            columns, rows = cmd_thomas_demo(args.g, args.cutoff, args.outer,
                                            args.states)
            meta = _meta("thomas-demo", None)
            meta["g"] = _fmt(args.g if args.g is not None else efimov_constant())
        elif args.command == "wavefunction":
            columns, rows = cmd_wavefunction(cfg, args.state)
            meta = _meta("wavefunction", cfg)
            meta["state"] = str(args.state)
        else:  # pragma: no cover - argparse guards this
            raise _UsageError(f"unknown command {args.command!r}")

        fmt = args.format or "csv"
        return _emit(lambda st: _write_rows(st, columns, rows, meta, fmt),
                     args.out)

    except (_UsageError, ConfigError) as exc:
        print(f"zrtrimer: error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"zrtrimer: solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
