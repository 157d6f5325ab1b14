"""Correctness checks on the captured output of one CLI request.

`check(request, rc, stdout)` returns a list of problems; an empty list means
the request passed.  The checks hold for every input the workloads draw:

- solve: energies ascend, node counts are 0..k-1, every energy lies below
  `threshold_mK`, and at least one state is bound;
- scan-p: the P column is the requested grid, E0 < E1 below the He4-He4
  dimer threshold (computed here from `a`), and E0 strictly increases with P;
- thomas-demo: five negative energies ascending toward zero, rows numbered
  0..4, and the middle ratios within 5% of exp(2 pi / g);
- request 0 (the bundled point) reproduces the seed energies to 1e-4 mK.
"""

from __future__ import annotations

import csv
import io
import json
import math

from .workloads import SCAN_P, THOMAS_STATES, Request

SEED_ENERGIES_MK = {
    "he4-solve": (-144.0556, -2.2205),
    "mixed-solve": (-34.1282,),
    "p-scan": (-144.0556, -2.2205),  # the P = 0.13 row
}
SEED_TOL_MK = 1e-4
EFIMOV_G = 1.00623782510    # s0 of three identical bosons
RATIO_TOL = 0.05

HE4_MASS = 4.002603
MASS_SCALE = 1822.887       # electron masses per atomic mass unit
BUNDLED_HE4_A = -189.054    # bohr
MK_PER_HARTREE = 315775.02480407e3


def he4_threshold_mk(a_factor: float) -> float:
    """Bare He4-He4 dimer threshold -1/(2 mu a^2) in mK."""
    mu = 0.5 * HE4_MASS * MASS_SCALE
    a = BUNDLED_HE4_A * a_factor
    return -MK_PER_HARTREE / (2.0 * mu * a * a)


def check(workload: str, request: Request, rc: int, stdout: str) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        if workload in ("he4-solve", "mixed-solve"):
            return _check_solve(workload, request, stdout)
        if workload == "p-scan":
            return _check_scan(request, stdout)
        return _check_thomas(stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _ascending(values) -> bool:
    return all(x < y for x, y in zip(values, values[1:]))


def _seed_problems(workload: str, request: Request, energies) -> list[str]:
    if request.index != 0:
        return []
    want = SEED_ENERGIES_MK[workload]
    if len(energies) < len(want):
        return [f"bundled point: {len(energies)} states, want {len(want)}"]
    return [f"bundled point: E{k} = {e!r} mK, want {w} +- {SEED_TOL_MK}"
            for k, (e, w) in enumerate(zip(energies, want))
            if not abs(e - w) <= SEED_TOL_MK]


def _check_solve(workload: str, request: Request, stdout: str) -> list[str]:
    payload = json.loads(stdout)
    threshold = float(payload["threshold_mK"])
    energies = [float(s["E_mK"]) for s in payload["states"]]
    nodes = [s["nodes"] for s in payload["states"]]
    problems = []
    if not energies:
        problems.append("no bound state")
    if not _ascending(energies):
        problems.append(f"energies not ascending: {energies}")
    if nodes != list(range(len(nodes))):
        problems.append(f"node counts {nodes}, want 0..{len(nodes) - 1}")
    if not all(e < threshold for e in energies):
        problems.append(f"energy above threshold {threshold}: {energies}")
    return problems + _seed_problems(workload, request, energies)


def _data_rows(stdout: str) -> list[dict]:
    lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _meta(stdout: str) -> dict:
    return dict(ln[2:].split("=", 1) for ln in stdout.splitlines()
                if ln.startswith("# ") and "=" in ln)


def _check_scan(request: Request, stdout: str) -> list[str]:
    rows = _data_rows(stdout)
    ps = [float(r["P"]) for r in rows]
    problems = []
    if len(ps) != len(SCAN_P) or any(abs(p - q) > 1e-12
                                     for p, q in zip(ps, SCAN_P)):
        problems.append(f"P column {ps}, want {list(SCAN_P)}")
    threshold = he4_threshold_mk(request.a_factor)
    e0 = []
    for r in rows:
        energies = [float(r[k]) for k in ("E0_mK", "E1_mK") if r[k]]
        if not energies:
            problems.append(f"no bound state at P = {r['P']}")
            continue
        e0.append(energies[0])
        if not _ascending(energies):
            problems.append(f"energies not ascending at P = {r['P']}: {energies}")
        if not all(e < threshold for e in energies):
            problems.append(f"energy above threshold {threshold} at "
                            f"P = {r['P']}: {energies}")
    if not _ascending(e0):
        problems.append(f"E0 does not strictly increase with P: {e0}")
    at_bundled = [float(r[k]) for r in rows if abs(float(r["P"]) - 0.13) < 1e-12
                  for k in ("E0_mK", "E1_mK") if r[k]]
    return problems + _seed_problems("p-scan", request, at_bundled)


def _check_thomas(stdout: str) -> list[str]:
    rows = _data_rows(stdout)
    energies = [float(r["E_hartree"]) for r in rows]
    problems = []
    if [int(r["n"]) for r in rows] != list(range(THOMAS_STATES)):
        problems.append(f"rows numbered {[r['n'] for r in rows]}, "
                        f"want 0..{THOMAS_STATES - 1}")
    if not (_ascending(energies) and all(e < 0.0 for e in energies)):
        problems.append(f"energies not negative and ascending: {energies}")
    g = float(_meta(stdout)["g"])
    if abs(g - EFIMOV_G) > 1e-8:
        problems.append(f"g = {g}, want {EFIMOV_G}")
    want = math.exp(2.0 * math.pi / EFIMOV_G)
    middle = [float(r["ratio"]) for r in rows[1:-2]]
    if len(middle) != THOMAS_STATES - 3:
        problems.append(f"{len(middle)} middle ratios, want {THOMAS_STATES - 3}")
    problems += [f"ratio {x} not within {RATIO_TOL:.0%} of {want}"
                 for x in middle if not abs(x / want - 1.0) <= RATIO_TOL]
    return problems
