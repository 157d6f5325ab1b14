"""zrtrimer benchmark: seeded CLI workloads, end to end and per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or `all` to run each in
turn.  The program is the checkout's own `src/zrtrimer`, driven through
`zrtrimer.cli.main` by one closed-loop client (one process, one thread, no
think time) in a fresh interpreter, with BLAS/OpenMP pools capped at one
thread.  Every output is checked by perfbench/oracle.py.

--trace 0 reports the end-to-end metrics: request latency in units of a
reference kernel timed around each request (unit `ref`), success fraction,
peak memory of the worker and set-up time of `import zrtrimer.cli` in fresh
interpreters, scaled to the kernel's reference speed; the timings in
seconds, as measured, are printed too.  --trace 1 is a
separate traced run that reports self time and work counts per layer
(perfbench/trace.py) and the tracing overhead.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the line before it records
the seed, sample counts, machine and versions.  Exits 2 without a result
when the checkout holds no zrtrimer sources or a run fails to complete.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.reference import REFERENCE_S, around, timed_reference  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

WORK_DIR = ROOT / ".perfbench"
SETUP_RUNS = 3
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

# Request latencies are gated in units of the reference kernel timed around
# each request, and setup_s is scaled to the kernel's reference speed
# (perfbench/reference.py); the same timings in seconds, as measured, are
# printed with the info.
END_TO_END = {
    "latency_p50_ref": "ref",
    "latency_tail_ref": "ref",
    "latency_mean_ref": "ref",
    "success_frac": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "config.parse_s": "s",
    "cli.self_s": "s",
    "angular.trace_s": "s",
    "angular.trace_share": "fraction",
    "angular.solves_per_node": "solves/node",
    "potential.build_s": "s",
    "potential.eval_s": "s",
    "potential.eval_points": "count",
    "radial.solve_s": "s",
    "radial.share": "fraction",
    "radial.s_per_state": "s",
    "radial.states": "count",
    "radial.thomas_s": "s",
    "setup.import_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ------------------------------------------------------------- statistics

def tail(samples) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples above.

    That is the 11th-largest sample; with fewer than 20 samples it would lie
    below the median, so the median (percentile 50) is reported instead.
    """
    n = len(samples)
    if n < 20:
        return statistics.median(samples), 50.0
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def end_to_end(worker: dict, setup: tuple[list[float], list[float]]) -> dict[str, float]:
    lat, ref = worker["latencies_s"], around(worker["reference_s"])
    relative = [x / r for x, r in zip(lat, ref)]
    failed = len(worker["failures"])
    return {
        "latency_p50_ref": statistics.median(relative),
        "latency_tail_ref": tail(relative)[0],
        "latency_mean_ref": sum(lat) / sum(ref),
        "success_frac": 1.0 - failed / worker["attempted"],
        "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
        "setup_s": REFERENCE_S * statistics.median(
            t / r for t, r in zip(*setup)),
    }


def timings_s(worker: dict) -> dict[str, float]:
    """The request timings in seconds, as measured; throughput counts
    requests per second spent in requests (one client, so 1 / mean)."""
    lat = worker["latencies_s"]
    return {
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail(lat)[0],
        "latency_mean_s": statistics.fmean(lat),
        "throughput_rps": len(lat) / sum(lat),
        "reference_s": statistics.median(worker["reference_s"]),
    }


def per_layer(worker: dict, setup: tuple[list[float], list[float]],
              bare: tuple[list[float], list[float]]) -> dict[str, float]:
    recs = worker["trace"]["requests"]

    def med(key):
        return statistics.median(r[key] for r in recs)

    def ratio(num, den):
        total = sum(r[den] for r in recs)
        return sum(r[num] for r in recs) / total if total else 0.0

    return {
        "config.parse_s": med("config.parse_s"),
        "cli.self_s": med("cli.self_s"),
        "angular.trace_s": med("angular.trace_s"),
        "angular.trace_share": statistics.median(
            r["angular.trace_s"] / r["latency_s"] for r in recs),
        "angular.solves_per_node": ratio("solves", "grid_steps"),
        "potential.build_s": med("potential.build_s"),
        "potential.eval_s": med("potential.eval_s"),
        "potential.eval_points": med("eval_points"),
        "radial.solve_s": med("radial.solve_s"),
        "radial.share": statistics.median(
            r["radial.solve_s"] / r["latency_s"] for r in recs),
        "radial.s_per_state": ratio("radial.solve_s", "states"),
        "radial.states": med("states"),
        "radial.thomas_s": med("radial.thomas_s"),
        "setup.import_s": statistics.median(setup[0]) - statistics.median(bare[0]),
        "trace.overhead_s": statistics.median(worker["trace"]["overhead_s"]),
    }


# ------------------------------------------------------------------ runs

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env


def time_interpreter(code: str, runs: int, env,
                     deadline: float) -> tuple[list[float], list[float]]:
    """Wall time of `runs` fresh interpreters each running `code`, and the
    reference-kernel time around each, all on one CPU."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(saved)})     # children inherit the CPU
    try:
        times, reference = [], [timed_reference()]
        for _ in range(runs):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                           check=True, timeout=max(deadline - t0, 1.0))
            times.append(time.perf_counter() - t0)
            reference.append(timed_reference())
    finally:
        os.sched_setaffinity(0, saved)
    return times, around(reference)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "zrtrimer").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> tuple[dict, dict]:
    """One run: the worker, then set-up timings.  Returns (result, info)."""
    env = child_env()
    WORK_DIR.mkdir(exist_ok=True)
    try:
        # the worker runs first, so set-up is timed with the pyc cache filled
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.worker", "--root", str(ROOT),
             "--workload", workload, "--seed", str(seed),
             "--seconds", repr(seconds), "--trace", str(int(trace)),
             "--work", str(WORK_DIR)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=True,
            timeout=max(deadline - time.perf_counter(), 1.0))
        setup = time_interpreter("import zrtrimer.cli", SETUP_RUNS, env, deadline)
        bare = time_interpreter("pass", SETUP_RUNS, env, deadline) if trace else None
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"{exc.cmd} exited with {exc.returncode}") from exc
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: no result within the time limit") from exc
    worker = json.loads(proc.stdout.splitlines()[-1])

    units = PER_LAYER if trace else END_TO_END
    values = per_layer(worker, setup, bare) if trace else end_to_end(worker, setup)
    failed = len(worker["failures"])
    result = {
        "correct": failed == 0,
        "attempted": worker["attempted"],
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    lat = worker["latencies_s"]
    info = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "requests": len(lat),
        **timings_s(worker),
        "latency_tail_pct": tail(lat)[1], "setup_runs": SETUP_RUNS,
        "setup_wall_s": statistics.median(setup[0]),
        "attempted": worker["attempted"],
        "failed_frac": failed / worker["attempted"],
        "failures": worker["failures"][:3],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        **worker["versions"],
        "git_commit": git_commit(), "source_sha256": source_digest(),
    }
    return result, info


def report(result: dict, info: dict) -> None:
    """One line per metric (name, value, unit, sample count), then the info."""
    counts = {"setup_s": info["setup_runs"], "setup.import_s": info["setup_runs"],
              "setup_wall_s": info["setup_runs"],
              "success_frac": info["attempted"], "failed_frac": info["attempted"]}
    pct = f" (p{info['latency_tail_pct']:.0f})"
    notes = {"latency_tail_ref": pct, "latency_tail_s": pct}
    rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    rows.append(("failed_frac", info["failed_frac"], "fraction"))
    if not info["trace"]:
        rows += [(name, info[name], "1/s" if name == "throughput_rps" else "s")
                 for name in ("latency_p50_s", "latency_tail_s",
                              "latency_mean_s", "throughput_rps", "reference_s",
                              "setup_wall_s")]
    for name, value, unit in rows:
        print(f"{info['workload']:<12} {name:<24} {value:14.6g} {unit:<12} "
              f"n={counts.get(name, info['requests'])}{notes.get(name, '')}")
    print("info " + json.dumps(info, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py",
                                 description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = float(spec["run_seconds"])

    if not (ROOT / "src" / "zrtrimer" / "cli.py").is_file():
        print(f"perfbench: no zrtrimer sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.perf_counter() + TIME_LIMIT_S * len(names)
    results = {}
    try:
        for name in names:
            result, info = run_workload(name, args.seed, args.seconds,
                                        bool(args.trace), deadline)
            report(result, info)
            results[name] = result
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}:{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
