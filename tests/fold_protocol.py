"""Fold protocol: exit codes of `zrtrimer solve` on random He4 pairs near P_c.

Just above the critical shape parameter P_c a pair of roots of the boson
equation meets and leaves the real axis, and the lowest branch of W may
jump; a solve there should fail (exit 2) rather than print energies from
a broken branch.  Every traced branch passes one acceptance check
(`angular._verify`), so a node past the continuation's trust of the nodes
before it, like a branch the walk loses, is a BranchFoldError and exit 2.
This script draws pairs with He4 masses, a ~ U[-400, -40] au,
R ~ U[4, 20] au and P = P_c (a, R) x U[band] for the four bands P/P_c in
1.02-1.1, 1.1-1.25, 1.25-1.5 and 1.5-3, 40 draws per band from each of
the seeds 1 and 2 (numpy's default generator, in that order), and runs
`solve` on each through `zrtrimer.cli.main` with the bundled He4 grid.
Exits by band (exit 0 / exit 2): 9/71, 77/3, 80/0 and 80/0.  A failed
draw's kind is `lost` when the walk loses the branch ("branch lost
near"), `jump` when a node is past the trust ("branch jumps at"): 69 lost
and 2 jumps at 1.02-1.1, 2 lost and 1 jump at 1.1-1.25.

    PYTHONPATH=src python tests/fold_protocol.py [--out PATH]

writes one CSV row per draw (seed, band, draw, a, r_eff, p_over_pc,
exit, kind; kind empty for exit 0) to PATH (default
tests/data/fold_protocol_exits.csv) and prints the exit counts and kinds
per band.  Run onto the committed file, `git diff` of it lists every draw
whose exit or kind moved; CI does so and fails on any difference.  The
draws just above P_c are the ones whose exit can follow the last bits of
W, so the committed exits hold for the environment that wrote them
(CHANGES.md names it), and CI reruns them in that one.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from zrtrimer import cli, critical_p_shape

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from trimer_params import (HE4_A, HE4_P, HE4_REFF,  # noqa: E402
                           bundled_config_text)

BANDS = ((1.02, 1.1), (1.1, 1.25), (1.25, 1.5), (1.5, 3.0))
SEEDS = (1, 2)
DRAWS = 40
COLUMNS = ["seed", "band", "draw", "a", "r_eff", "p_over_pc", "exit",
           "kind"]
KINDS = {"branch lost near": "lost", "branch jumps at": "jump"}


def draws():
    """(seed, band label, draw, a, r_eff, P/P_c) in protocol order."""
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for lo, hi in BANDS:
            for k in range(DRAWS):
                a = float(rng.uniform(-400.0, -40.0))
                r_eff = float(rng.uniform(4.0, 20.0))
                ratio = float(rng.uniform(lo, hi))
                yield seed, f"{lo:g}-{hi:g}", k, a, r_eff, ratio


def solve_exit(path: Path, a: float, r_eff: float,
               p_shape: float) -> tuple[int, str]:
    """Exit code and stderr of `solve` on the bundled He4 config with
    every pair set to (a, r_eff, p_shape); stdout is discarded."""
    text = bundled_config_text("he4_trimer")
    for key, old, new in (("a", HE4_A, a), ("r_eff", HE4_REFF, r_eff),
                          ("p_shape", HE4_P, p_shape)):
        text = text.replace(f"{key} = {old!r}\n", f"{key} = {new!r}\n")
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["solve", "--config", str(path), "--out", os.devnull])
    return code, err.getvalue()


def kind_of(stderr: str) -> str:
    """`lost` or `jump` for the fold messages in a solve's stderr, else
    empty."""
    return next((kind for text, kind in KINDS.items() if text in stderr), "")


def run() -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "draw.cfg"
        for seed, band, k, a, r_eff, ratio in draws():
            code, err = solve_exit(path, a, r_eff,
                                   ratio * critical_p_shape(a, r_eff))
            rows.append(dict(zip(COLUMNS, (
                seed, band, k, repr(a), repr(r_eff), repr(ratio), code,
                kind_of(err)))))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path,
                        default=HERE / "data" / "fold_protocol_exits.csv")
    args = parser.parse_args(argv)
    rows = run()
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    for band in dict.fromkeys(row["band"] for row in rows):
        exits = Counter(row["exit"] for row in rows if row["band"] == band)
        kinds = Counter(row["kind"] for row in rows
                        if row["band"] == band and row["kind"])
        print(f"P/P_c {band}: " + ", ".join(
            [f"exit {code}: {n}" for code, n in sorted(exits.items())]
            + [f"{kind}: {n}" for kind, n in sorted(kinds.items())]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
