"""Sweep spread: how far the Numerov sweep counts follow the last bits of W.

The sweep counts that tests/test_radial.py pins (`TestWarmStart`'s
test_solve_sweeps_unchanged and test_scan_sweeps_per_point) depend on
the last bits of the sampled effective potential: a change that moves W
by an ulp can move a count without being worse.  This script runs the
bundled He4 and mixed solves and the two He4 scans of those tests (P in
0.10-0.16 at step 0.015 and at the default 0.005) once as they are and
once per seed 0-29 of numpy's default generator with each entry of W on
the radial grid (`_Shooter.w`) moved by a random whole number of ulps in
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
# (label, bundled config, None for a solve or the scan's extra arguments)
RUNS = (("He4 solve", "he4_trimer", None),
        ("mixed solve", "he4he4he3", None),
        ("He4 scan, P step 0.015", "he4_trimer", ["--p-step", "0.015"]),
        ("He4 scan, P step 0.005", "he4_trimer", []))


def _nudged(w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """w with each entry moved by a random whole number of ulps in
    [-ULPS, ULPS]: doubles of one sign are consecutive in their bits."""
    k = rng.integers(-ULPS, ULPS + 1, size=w.shape)
    return (w.view(np.int64) + k).view(np.float64)


def sweeps(path: Path, scan: list[str] | None,
           rng: np.random.Generator | None) -> int:
    """Numerov sweeps of one `solve` (scan None) or `scan-p` over P in
    0.10-0.16 with the extra arguments scan, through `zrtrimer.cli.main`,
    each shooter's W nudged by rng unless it is None."""
    count = 0
    init, sweep = radial._Shooter.__init__, radial._Shooter._sweep

    def nudged_init(self, w_of, *args, **kwargs):
        init(self, lambda rho: _nudged(w_of(rho), rng), *args, **kwargs)

    def counted_sweep(self, eps):
        nonlocal count
        count += 1
        return sweep(self, eps)
    argv = (["solve", "--config", str(path)] if scan is None else
            ["scan-p", "--config", str(path), "--p-min", "0.10",
             "--p-max", "0.16", *scan])
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
        for label, name, scan in RUNS:
            path = Path(tmp) / f"{name}.cfg"
            path.write_text(bundled_config_text(name))
            base = sweeps(path, scan, None)
            spread = [sweeps(path, scan, np.random.default_rng(seed))
                      for seed in SEEDS]
            print(f"{label}: {base} sweeps; over seeds {SEEDS[0]}-"
                  f"{SEEDS[-1]} with W moved by up to {ULPS} ulp "
                  f"{min(spread)}/{np.mean(spread):.2f}/{max(spread)} "
                  "(min/mean/max)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
