"""Run the benchmark once per seed and summarise each metric's spread.

Usage, from the root of a source checkout:

    python3 perfbench/repeat.py --workload he4-solve --seeds 1-10 \
        [--seconds S] [--trace 0|1] [--out summary.json]

Each run is a separate `perfbench/run.py` process.  For every metric the
summary gives the per-seed values, their median and quartiles (as
`statistics.quantiles(values, n=4)` computes them) and the spread, the
distance between the quartiles as a share of the median.  Repeating
--workload runs several workloads; `all` runs every one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/repeat.py")
    ap.add_argument("--workload", action="append", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    workloads = WORKLOADS if "all" in args.workload else args.workload

    summary = {}
    for workload in workloads:
        per_metric: dict[str, list[float]] = {}
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--trace", str(args.trace)]
            if args.seconds is not None:
                cmd += ["--seconds", repr(args.seconds)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, check=True)
            lines = proc.stdout.splitlines()
            result, info = json.loads(lines[-1]), json.loads(lines[-2][5:])
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         "requests": info["requests"]})
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 6) for k, v in per_metric.items()},
                  flush=True)
        summary[workload] = {"runs": runs, "info": info, "metrics": {
            name: summarise(values) for name, values in per_metric.items()}}
        for name, s in summary[workload]["metrics"].items():
            print(f"{workload:<12} {name:<24} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f}", flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
