"""Tests of the benchmark itself: generator, oracle, tracer and metric names.

Run from the checkout root with `python3 -m pytest perfbench/tests`.
"""

import contextlib
import io
import json
import statistics
from pathlib import Path

import pytest

from perfbench import oracle, run
from perfbench.trace import Tracer
from perfbench.workloads import (A_RANGE, CUTOFF_RANGE, P_RANGE, WORKLOADS,
                                 bundled_config, requests)

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

HE4_SOLVE = """{
  "meta": {"tool": "zrtrimer", "version": "0.1.0", "command": "solve"},
  "threshold_mK": -1.210885958758703,
  "states": [
    {"E_mK": -144.05558518999615, "nodes": 0},
    {"E_mK": -2.220488139863402, "nodes": 1}
  ]
}
"""
SCAN = """# tool=zrtrimer
# command=scan-p
P,E0_mK,E1_mK
0.1,-200.717901917,-2.52114107164
0.115,-167.837659246,-2.34961385688
0.13,-144.05558519,-2.22048813986
0.145,-126.132110142,-2.1194870696
0.16,-112.182594378,-2.03814486605
"""
THOMAS = """# tool=zrtrimer
# command=thomas-demo
# g=1.0062378251
n,E_hartree,ratio
0,-0.000117230405073,515.581001606
1,-2.27375339098e-07,515.036059984
2,-4.41474601031e-10,515.035004182
3,-8.5717397351e-13,515.038868125
4,-1.66428987511e-15,
"""


def take(workload, seed, n):
    stream = requests(workload, seed, ROOT)
    return [next(stream) for _ in range(n)]


# ------------------------------------------------------------- generator

@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert take(workload, 7, 20) == take(workload, 7, 20)
    assert take(workload, 7, 20)[1:] != take(workload, 8, 20)[1:]


@pytest.mark.parametrize("workload", ["he4-solve", "mixed-solve", "p-scan"])
def test_request_zero_is_the_bundled_config(workload):
    first = take(workload, 3, 1)[0]
    assert first.index == 0
    assert first.config_text == bundled_config(ROOT, workload)


def test_draws_are_stratified_and_in_range():
    reqs = take("he4-solve", 11, 17)[1:]          # two blocks of eight
    texts = [r.config_text for r in reqs]
    factors = [r.a_factor for r in reqs]
    assert all(A_RANGE[0] <= f <= A_RANGE[1] for f in factors)
    for block in (factors[:8], factors[8:]):
        strata = sorted(int((f - A_RANGE[0]) / (A_RANGE[1] - A_RANGE[0]) * 8)
                        for f in block)
        assert strata == list(range(8))
    p_lines = [ln for t in texts for ln in t.splitlines()
               if ln.startswith("p_shape")]
    assert all(P_RANGE[0] <= float(ln.split("=")[1]) <= P_RANGE[1]
               for ln in p_lines)
    cutoffs = [float(r.argv[2]) for r in take("thomas-demo", 11, 9)]
    assert cutoffs[0] == 0.1
    assert all(CUTOFF_RANGE[0] <= c <= CUTOFF_RANGE[1] for c in cutoffs[1:])


def test_mixed_jitters_only_the_bound_pair_scattering_length():
    text = take("mixed-solve", 5, 2)[1].config_text
    a = [float(ln.split("=")[1]) for ln in text.splitlines()
         if ln.startswith("a =")]
    assert a[:2] == [33.261, 33.261] and a[2] != -189.054


# ---------------------------------------------------------------- oracle

def test_oracle_accepts_real_outputs():
    he4, scan, thomas = (take(w, 0, 1)[0]
                         for w in ("he4-solve", "p-scan", "thomas-demo"))
    assert oracle.check("he4-solve", he4, 0, HE4_SOLVE) == []
    assert oracle.check("p-scan", scan, 0, SCAN) == []
    assert oracle.check("thomas-demo", thomas, 0, THOMAS) == []


@pytest.mark.parametrize("workload,text,doctor", [
    ("he4-solve", HE4_SOLVE, ("-144.05558518999615", "-144.0560")),  # seed value
    ("he4-solve", HE4_SOLVE, ('"nodes": 1', '"nodes": 2')),
    ("he4-solve", HE4_SOLVE, ("-2.220488139863402", "-150.0")),       # order
    ("he4-solve", HE4_SOLVE, ("-1.210885958758703", "-3.0")),         # threshold
    ("he4-solve", HE4_SOLVE, ("-144.0", "oops")),                     # garbage
    ("p-scan", SCAN, ("-126.132110142", "-170.0")),                   # E0(P)
    ("p-scan", SCAN, ("-2.03814486605", "-1.0")),                     # threshold
    ("p-scan", SCAN, ("0.145,", "0.150,")),                           # P grid
    ("thomas-demo", THOMAS, ("515.036059984", "560.0")),              # ratio
    ("thomas-demo", THOMAS, ("\n4,-1.66428987511e-15,\n", "\n")),     # count
])
def test_oracle_rejects_doctored_output(workload, text, doctor):
    req = take(workload, 0, 1)[0]
    doctored = text.replace(*doctor)
    assert doctored != text
    assert oracle.check(workload, req, 0, doctored)


def test_oracle_counts_nonzero_exit_as_failure():
    req = take("he4-solve", 0, 1)[0]
    assert oracle.check("he4-solve", req, 2, "") == ["exit code 2"]


def test_seed_values_apply_to_request_zero_only():
    req = take("he4-solve", 0, 2)[1]
    shifted = HE4_SOLVE.replace("-144.05558518999615", "-150.0")
    assert oracle.check("he4-solve", req, 0, shifted) == []


# ---------------------------------------------------------------- tracer

SMALL_CFG = """[system]
masses = 4.002603, 4.002603, 4.002603
mass_scale = 1822.887
[pair.1]
a = -189.054
r_eff = 13.843
p_shape = 0.13
[pair.2]
a = -189.054
r_eff = 13.843
p_shape = 0.13
[pair.3]
a = -189.054
r_eff = 13.843
p_shape = 0.13
[grid]
n = 40
"""


def test_tracer_self_times_partition_the_request(tmp_path):
    import zrtrimer.cli

    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CFG)
    original = zrtrimer.cli.trace_branch
    tracer = Tracer()
    with contextlib.redirect_stdout(io.StringIO()), tracer.request(0):
        assert zrtrimer.cli.main(["eigenvalue", "--config", str(cfg)]) == 0
    assert zrtrimer.cli.trace_branch is original
    (rec,) = tracer.by_request().values()
    layers = sum(rec[k] for k in run.PER_LAYER if k in rec)
    assert layers == pytest.approx(rec["latency_s"], rel=1e-9)
    assert rec["grid_steps"] == 39 and rec["solves"] >= 39
    assert rec["angular.trace_s"] > 0.0 and rec["radial.solve_s"] == 0.0


# --------------------------------------------------------------- metrics

def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_metric_functions_emit_exactly_the_declared_names():
    rec = dict.fromkeys(run.PER_LAYER, 0.01) | {
        "latency_s": 0.1, "solves": 10, "grid_steps": 10,
        "eval_points": 8000, "states": 2}
    worker = {"latencies_s": [0.1, 0.2, 0.3], "failures": [], "attempted": 3,
              "reference_s": [0.01, 0.01, 0.03, 0.01], "peak_rss_kb": 80000,
              "trace": {"requests": [rec, rec], "overhead_s": [0.001]}}
    e2e = run.end_to_end(worker, ([1.0, 1.1, 0.9], [0.008, 0.011, 0.006]))
    layer = run.per_layer(worker, ([1.0], [0.01]), ([0.1], [0.01]))
    assert list(e2e) == list(run.END_TO_END)
    assert list(layer) == list(run.PER_LAYER)
    assert e2e["latency_p50_ref"] == pytest.approx(10.0)     # 0.1/0.01, 0.2/0.02, 0.3/0.02
    assert e2e["latency_mean_ref"] == pytest.approx(0.6 / 0.05)
    assert run.timings_s(worker)["throughput_rps"] == pytest.approx(5.0)
    assert e2e["setup_s"] == pytest.approx(1.0)     # each import took 125 refs
    assert layer["setup.import_s"] == pytest.approx(0.9)


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    samples = list(range(1, 41))
    value, pct = run.tail(samples)
    assert value == 30 and sum(s > value for s in samples) == 10
    assert pct == 75.0
    assert run.tail(list(range(15))) == (statistics.median(range(15)), 50.0)
