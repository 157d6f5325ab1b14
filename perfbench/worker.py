"""Closed-loop client, run in a fresh interpreter by perfbench/run.py.

One thread sends the next request as soon as the previous one returns.
Each request writes its generated config file, then calls
`zrtrimer.cli.main(argv)` in process with stdout and stderr captured; only
that call is timed.  Each captured output then goes through the oracle,
outside the timed call.  A fixed reference kernel is timed before every
request and once after the last, so each request's latency can be read
against the host's speed at that moment.  With --trace 1 each input is run
twice, traced and untraced in alternating order, so the tracing overhead is
a paired difference.

Usage: python -m perfbench.worker --root DIR --workload NAME --seed N
       --seconds S --trace 0|1 --work DIR
The result is one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from .reference import timed_reference


def _call(main, argv) -> tuple[float, int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(list(argv))
        except Exception:  # a crash is a failed request, not a failed run
            rc = -1
            err.write(traceback.format_exc())
        latency = time.perf_counter() - t0
    return latency, rc, out.getvalue() if rc == 0 else err.getvalue()


def run(args) -> dict:
    import zrtrimer.cli

    from . import oracle
    from .workloads import requests

    src = Path(zrtrimer.cli.__file__).resolve()
    if not src.is_relative_to(args.root / "src"):
        raise SystemExit(f"zrtrimer imported from {src}, not from {args.root}")

    tracer = None
    if args.trace:
        from .trace import Tracer
        tracer = Tracer()

    stream = requests(args.workload, args.seed, args.root)
    cfg_path = args.work / f"request-{os.getpid()}.cfg"
    latencies, reference, failures, overhead = [], [], [], []
    attempted = 0
    deadline = time.perf_counter() + args.seconds
    try:
        while attempted == 0 or time.perf_counter() < deadline:
            reference.append(timed_reference())
            req = next(stream)
            if req.config_text is not None:
                cfg_path.write_text(req.config_text, encoding="utf-8")
            argv = [str(cfg_path) if a == "{config}" else a for a in req.argv]
            if tracer is None:
                latency, rc, text = _call(zrtrimer.cli.main, argv)
                latencies.append(latency)
                outcomes = [(rc, text)]
            else:
                timed, outcomes = {}, []
                order = (True, False) if req.index % 2 == 0 else (False, True)
                for traced in order:
                    with (tracer.request(req.index) if traced
                          else contextlib.nullcontext()):
                        latency, rc, text = _call(zrtrimer.cli.main, argv)
                    timed[traced] = latency
                    outcomes.append((rc, text))
                latencies.append(timed[False])
                overhead.append(timed[True] - timed[False])
            for rc, text in outcomes:
                attempted += 1
                problems = oracle.check(args.workload, req, rc, text)
                if problems:
                    failures.append({"request": req.index, "argv": argv,
                                     "config": req.config_text,
                                     "problems": problems,
                                     "output": text[-2000:]})
        reference.append(timed_reference())
    finally:
        cfg_path.unlink(missing_ok=True)

    result = {
        "attempted": attempted,
        "failures": failures,
        "latencies_s": latencies,
        "reference_s": reference,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["trace"] = {"requests": list(tracer.by_request().values()),
                           "overhead_s": overhead}
        spans = args.work / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(prog="perfbench.worker")
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True)
    args = ap.parse_args()
    args.root = args.root.resolve()
    result = run(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
