"""Sweep spread: how far the Numerov sweep counts follow the last bits of W.

The sweep counts that tests/test_radial.py pins (`TestWarmStart`'s
test_solve_sweeps_unchanged and test_scan_sweeps_per_point,
`TestThomasSpectrum`'s test_default_sweeps and test_case_sweeps) depend
on the last bits of the sampled potential: a change that moves W by an
ulp can move a count without being worse.  This script runs the bundled
He4 and mixed solves, the two He4 scans of those tests (P in 0.10-0.16 at
step 0.015 and at the default 0.005), the default `thomas-demo` and the
21 `thomas-demo` cases of test_case_sweeps once as they are and once per
seed 0-29 of numpy's default generator with each entry of W on the
radial grid (`_Shooter.w`) moved by a random whole number of ulps in
[-2, 2], and prints per run the unperturbed count of sweeps and the
min/mean/max of the perturbed ones.  A re-pinned count should lie in the
spread of the code before the change.

    PYTHONPATH=src python tests/sweep_spread.py
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from zrtrimer import cli, radial

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from trimer_params import bundled_config_text  # noqa: E402

SEEDS = range(30)
ULPS = 2
SCAN = ["scan-p", "--p-min", "0.10", "--p-max", "0.16"]
# (label, bundled config or None, command line without --config)
RUNS = (("He4 solve", "he4_trimer", ["solve"]),
        ("mixed solve", "he4he4he3", ["solve"]),
        ("He4 scan, P step 0.015", "he4_trimer", SCAN + ["--p-step", "0.015"]),
        ("He4 scan, P step 0.005", "he4_trimer", SCAN),
        ("thomas-demo", None, ["thomas-demo"]))
# `TestThomasSpectrum`'s test_case_sweeps: strength g (None: Efimov's) by
# walls and states
THOMAS_G = (0.3, 0.6, None, 1.2, 2.0, 3.0, 5.0)
THOMAS_WALLS = ((0.1, 3e6, 5), (0.05, 3e6, 5), (0.1, 1e4, 10))
RUNS += tuple(
    (f"thomas-demo g {g or 'Efimov'}, walls {cut}-{outer:g}, {states} states",
     None, ["thomas-demo", "--cutoff", str(cut), "--outer", str(outer),
            "--states", str(states)] + ([] if g is None else ["--g", str(g)]))
    for g in THOMAS_G for cut, outer, states in THOMAS_WALLS)


def _nudged(w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """w with each entry moved by a random whole number of ulps in
    [-ULPS, ULPS]: doubles of one sign are consecutive in their bits."""
    k = rng.integers(-ULPS, ULPS + 1, size=w.shape)
    return (w.view(np.int64) + k).view(np.float64)


def sweeps(argv: list[str], rng: np.random.Generator | None) -> int:
    """Numerov sweeps of one command line through `zrtrimer.cli.main`,
    each shooter's W nudged by rng unless it is None."""
    count = 0
    init, sweep = radial._Shooter.__init__, radial._Shooter._sweep

    def nudged_init(self, w_of, *args, **kwargs):
        init(self, lambda rho: _nudged(w_of(rho), rng), *args, **kwargs)

    def counted_sweep(self, eps):
        nonlocal count
        count += 1
        return sweep(self, eps)
    radial._Shooter._sweep = counted_sweep
    if rng is not None:
        radial._Shooter.__init__ = nudged_init
    try:
        code = cli.main(argv + ["--out", os.devnull])
    finally:
        radial._Shooter.__init__, radial._Shooter._sweep = init, sweep
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return count


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for label, name, argv in RUNS:
            if name is not None:
                path = Path(tmp) / f"{name}.cfg"
                path.write_text(bundled_config_text(name))
                argv = argv + ["--config", str(path)]
            base = sweeps(argv, None)
            spread = [sweeps(argv, np.random.default_rng(seed))
                      for seed in SEEDS]
            print(f"{label}: {base} sweeps; over seeds {SEEDS[0]}-"
                  f"{SEEDS[-1]} with W moved by up to {ULPS} ulp "
                  f"{min(spread)}/{np.mean(spread):.2f}/{max(spread)} "
                  "(min/mean/max)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
