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
spread of the code before the change.  Last, one line per benchmark
workload: the total sweeps, angular scalar residual calls (those of
`angular._first_node_u` and the rest apart), array residual calls and
array points, the scalar calls and array points at u >= 0 (the traffic of
the forms' shared off-branch path, `angular._couplings` and
`_couplings_array`), and the coarse nodes whose walk bracket the cold
trace hands to `angular._lockstep`, over requests 0-39 of perfbench seeds
1-3, the requests generated by `perfbench.workloads.requests` and run
unperturbed.  The residual calls are counted on each problem's residual
forms, as tests/test_angular.py's `_counted_residuals` counts them.  A
second line per workload gives the traffic through the paths kept for
inputs the benchmark does not send: sweeps whose `radial._carry`
restarted, amplitudes read from the ratio products (`_amplitudes` with
no carry to read), cold lockstep losses that send the trace back to the
all-nodes walk, refused warm traces, step halvings in `angular._continue`
(each costs its `advance` two more guesses), and `_Shooter.wave` calls
that sweep their energy again, out of all waves.  A third line gives
the setup the memos of the radial layer serve: the shooters built, the
radial grids `radial._log_grid` built and reused, and the W sampling
plans `EffectivePotential._plan` built and reused, the fewest reused in
one request beside them.  Each seed starts with both memos empty, as a
fresh benchmark worker does.  A fourth line gives the minor page faults
per timed request (`ru_minflt` around each `cli.main` call) over the
same requests, run in a fresh interpreter per workload as
perfbench/worker.py runs them: BLAS at one thread, the reference kernel
timed before each request, stdout and stderr captured.

    PYTHONPATH=src python tests/sweep_spread.py
    PYTHONPATH=src python tests/sweep_spread.py --faults WORKLOAD ...

The second form prints only the fault counts, of the named workloads run
one after the other in that one process.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from zrtrimer import angular, cli, potential, radial

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent)]
from trimer_params import bundled_config_text  # noqa: E402
from perfbench.reference import timed_reference  # noqa: E402
from perfbench.run import child_env  # noqa: E402
from perfbench.workloads import WORKLOADS, requests  # noqa: E402

SEEDS = range(30)
ULPS = 2
# the benchmark's seeds and requests per seed
BENCH_SEEDS = (1, 2, 3)
BENCH_REQUESTS = 40
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


# the angular residual forms, each returning (scalar, array) residuals
FORMS = ("_boson_residual", "_pair_residual", "_general_residual")
COUNTS = ("sweeps", "first", "scalar", "arrays", "points", "scalar_off",
          "points_off", "handed", "restarts", "ratio_waves", "lost",
          "refused", "advances", "guesses", "waves", "resweeps",
          "shooters", "grids", "grid_hits", "plans", "plan_hits")


def work(argv: list[str], rng: np.random.Generator | None
         ) -> dict[str, int]:
    """Numerov sweeps, angular scalar residual calls (those made inside
    `_first_node_u` counted apart, as "first"), array residual calls and
    array points, the scalar calls and array points at u >= 0 (off the
    bound branch), the coarse nodes handed to the lockstep, and the
    traffic through the kept paths (the module docstring's second line),
    and the setup the memos serve (the module docstring's third line), of
    one command line through `zrtrimer.cli.main`, each shooter's W nudged
    by rng unless it is None.  Step halvings are (guesses -
    advances) / 2: an `advance` takes one guess per try, and each halving
    adds a failed try and a target."""
    count = dict.fromkeys(COUNTS, 0)
    init, sweep = radial._Shooter.__init__, radial._Shooter._sweep
    wave, amplitudes = radial._Shooter.wave, radial._Shooter._amplitudes
    carry, trace = radial._carry, cli.trace_branch
    forms = {name: getattr(angular, name) for name in FORMS}
    first_node, lockstep = angular._first_node_u, angular._lockstep
    cont, lagrange = angular._continue, angular._lagrange
    plan = potential.EffectivePotential._plan
    in_first, warm = [], []
    grids = radial._log_grid.cache_info()

    def counted_init(self, w_of, *args, **kwargs):
        count["shooters"] += 1
        sample = w_of if rng is None else lambda rho: _nudged(w_of(rho), rng)
        init(self, sample, *args, **kwargs)

    def counted_plan(self, rhos):
        kept = [entry[2] for entry in potential._PLANS]
        found = plan(self, rhos)
        if any(found is p for p in kept):
            count["plan_hits"] += 1
        elif potential._PLANS and found is potential._PLANS[0][2]:
            count["plans"] += 1
        return found

    def counted_sweep(self, eps):
        count["sweeps"] += 1
        return sweep(self, eps)

    def counted_form(form):
        def built(problem, *args):
            f, f_array = form(problem, *args)

            def counted(u, rho):
                count["first" if in_first else "scalar"] += 1
                count["scalar_off"] += int(u >= 0.0)
                return f(u, rho)

            def counted_array(u, rho):
                count["arrays"] += 1
                count["points"] += len(u)
                count["points_off"] += int(np.count_nonzero(u >= 0.0))
                return f_array(u, rho)
            return counted, counted_array
        return built

    def counted_first_node(*args):
        in_first.append(True)
        try:
            return first_node(*args)
        finally:
            in_first.pop()

    def counted_lockstep(*args, ends=None, **kwargs):
        if ends is not None:
            count["handed"] += int(np.count_nonzero(~np.isnan(ends[0])))
        found = lockstep(*args, ends=ends, **kwargs)
        if ends is None:
            warm.append(True)   # a warm trace's one lockstep
        elif found is None:
            count["lost"] += 1
        return found

    def counted_continue(grid, problem, nodes, *args):
        # a warm trace that continues node by node was refused
        count["refused"] += bool(warm)
        warm.clear()
        count["advances"] += int(np.count_nonzero(nodes)) - 1
        return cont(grid, problem, nodes, *args)

    def counted_lagrange(points, r):
        count["guesses"] += isinstance(r, float)     # advance's, not _verify's
        return lagrange(points, r)

    def counted_trace(*args, **kwargs):
        warm.clear()
        return trace(*args, **kwargs)

    def counted_carry(band, z, seeds, given):
        turns_z = carry(band, z, seeds, given)
        count["restarts"] += given != [s for s, _ in seeds]
        return turns_z

    def counted_amplitudes(self, z_out, z_in, tq, carried=False):
        count["ratio_waves"] += not carried
        return amplitudes(self, z_out, z_in, tq, carried)

    def counted_wave(self, eps):
        count["waves"] += 1
        before = count["sweeps"]
        try:
            return wave(self, eps)
        finally:
            count["resweeps"] += count["sweeps"] - before
    radial._Shooter.__init__ = counted_init
    radial._Shooter._sweep = counted_sweep
    potential.EffectivePotential._plan = counted_plan
    radial._Shooter.wave = counted_wave
    radial._Shooter._amplitudes = counted_amplitudes
    radial._carry, cli.trace_branch = counted_carry, counted_trace
    angular._first_node_u = counted_first_node
    angular._lockstep = counted_lockstep
    angular._continue, angular._lagrange = counted_continue, counted_lagrange
    for name, form in forms.items():
        setattr(angular, name, counted_form(form))
    try:
        code = cli.main(argv + ["--out", os.devnull])
    finally:
        radial._Shooter.__init__, radial._Shooter._sweep = init, sweep
        potential.EffectivePotential._plan = plan
        radial._Shooter.wave, radial._Shooter._amplitudes = wave, amplitudes
        radial._carry, cli.trace_branch = carry, trace
        angular._first_node_u, angular._lockstep = first_node, lockstep
        angular._continue, angular._lagrange = cont, lagrange
        for name, form in forms.items():
            setattr(angular, name, form)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    after = radial._log_grid.cache_info()
    count["grids"] = after.misses - grids.misses
    count["grid_hits"] = after.hits - grids.hits
    return count


def bench_argvs(workload: str, tmp: Path):
    """The command line of each of requests 0-39 of seeds 1-3, after
    writing its config, each seed's first with both radial memos
    emptied, as a fresh benchmark worker starts."""
    path = tmp / "request.cfg"
    for seed in BENCH_SEEDS:
        radial._log_grid.cache_clear()
        potential._PLANS.clear()
        for req in itertools.islice(
                requests(workload, seed, HERE.parent), BENCH_REQUESTS):
            if req.config_text is not None:
                path.write_text(req.config_text)
            yield [str(path) if a == "{config}" else a for a in req.argv]


def faults(workload: str) -> float:
    """Minor page faults per timed request of one workload in this
    process: `ru_minflt` around each `cli.main` call, stdout and stderr
    captured, with the reference kernel timed before each request."""
    total = calls = 0
    with tempfile.TemporaryDirectory() as tmp:
        for argv in bench_argvs(workload, Path(tmp)):
            timed_reference()
            with (contextlib.redirect_stdout(io.StringIO()),
                  contextlib.redirect_stderr(io.StringIO())):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                code = cli.main(argv)
                total += (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                          - before)
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited {code}")
            calls += 1
    return total / calls


def main() -> int:
    if sys.argv[1:2] == ["--faults"]:
        for workload in sys.argv[2:]:
            print(f"{workload} {faults(workload)}", flush=True)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, name, argv in RUNS:
            if name is not None:
                path = Path(tmp) / f"{name}.cfg"
                path.write_text(bundled_config_text(name))
                argv = argv + ["--config", str(path)]
            base = work(argv, None)["sweeps"]
            spread = [work(argv, np.random.default_rng(seed))["sweeps"]
                      for seed in SEEDS]
            print(f"{label}: {base} sweeps; over seeds {SEEDS[0]}-"
                  f"{SEEDS[-1]} with W moved by up to {ULPS} ulp "
                  f"{min(spread)}/{np.mean(spread):.2f}/{max(spread)} "
                  "(min/mean/max)")
        for workload in WORKLOADS:
            total = dict.fromkeys(COUNTS, 0)
            reused = []     # plans reused by each request that sampled W
            for argv in bench_argvs(workload, Path(tmp)):
                one = work(argv, None)
                for key in total:
                    total[key] += one[key]
                if one["plans"] + one["plan_hits"]:
                    reused.append(one["plan_hits"])
            print(f"benchmark {workload}: {total['sweeps']} sweeps, "
                  f"{total['first'] + total['scalar']} angular scalar "
                  f"residual calls ({total['first']} first-node, "
                  f"{total['scalar']} other), {total['arrays']} array calls "
                  f"of {total['points']} points ({total['scalar_off']} "
                  f"scalar calls and {total['points_off']} array points at "
                  f"u >= 0), {total['handed']} coarse "
                  f"nodes handed to the lockstep over requests "
                  f"0-{BENCH_REQUESTS - 1} of seeds "
                  f"{BENCH_SEEDS[0]}-{BENCH_SEEDS[-1]}")
            halvings = (total["guesses"] - total["advances"]) // 2
            print(f"benchmark {workload}, kept paths: {total['restarts']} "
                  f"carry restarts, {total['ratio_waves']} amplitudes from "
                  f"ratio products, {total['lost']} lockstep losses to the "
                  f"all-nodes walk, {total['refused']} refused warm traces, "
                  f"{halvings} step halvings, {total['resweeps']} of "
                  f"{total['waves']} waves swept again")
            print(f"benchmark {workload}, setup: {total['shooters']} "
                  f"shooters, {total['grids']} radial grids built and "
                  f"{total['grid_hits']} reused, {total['plans']} W plans "
                  f"built and {total['plan_hits']} reused"
                  + (f" (at least {min(reused)} in each request)"
                     if reused else ""))
            fresh = subprocess.run(
                [sys.executable, __file__, "--faults", workload],
                env=child_env(), stdout=subprocess.PIPE, text=True,
                check=True).stdout.split()[1]
            print(f"benchmark {workload}, memory: {float(fresh):.1f} minor "
                  "page faults per timed request in a fresh interpreter")
    return 0


if __name__ == "__main__":
    sys.exit(main())
