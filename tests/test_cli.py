import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import zrtrimer.cli as cli
from zrtrimer import (PairParams, SolverError, dimer_pole_kappa,
                      efimov_constant, radial)
from zrtrimer.angular import RootSearchError, dimer_channel_u

from trimer_params import HE4_A, HE4_P, HE4_REFF, MU4, bundled_config_text

DATA = Path(__file__).parent / "data"

FAST_CFG = """
[system]
masses = 4.002603, 4.002603, 4.002603

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
rho_min = 0.05
rho_max = 400
n = 80
"""


@pytest.fixture(scope="module")
def he4_cfg_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "he4_trimer.cfg"
    p.write_text(bundled_config_text("he4_trimer"))
    return str(p)


@pytest.fixture(scope="module")
def fast_cfg_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "fast.cfg"
    p.write_text(FAST_CFG)
    return str(p)


def read_csv(path):
    meta, columns, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, columns, rows


class TestOutputBytes:
    """Every command's output, byte for byte, in each format, against the
    committed goldens in tests/data (the scan-p and thomas-demo CSVs are
    compared in their own classes)."""

    @pytest.mark.parametrize("golden, argv", [
        ("solve_he4.json", ["solve", "--config", "{he4}"]),
        ("solve_he4.csv", ["solve", "--config", "{he4}", "--format", "csv"]),
        ("eigenvalue_fast.csv", ["eigenvalue", "--config", "{fast}"]),
        ("eigenvalue_fast.json", ["eigenvalue", "--config", "{fast}",
                                  "--format", "json"]),
        ("thomas_demo_default.json", ["thomas-demo", "--format", "json"]),
        ("scan_p_he4_0.13.json", ["scan-p", "--config", "{he4}", "--p-min",
                                  "0.13", "--p-max", "0.13", "--format",
                                  "json"])])
    def test_matches_golden(self, he4_cfg_path, fast_cfg_path, tmp_path,
                            golden, argv):
        out = tmp_path / golden
        argv = [a.format(he4=he4_cfg_path, fast=fast_cfg_path) for a in argv]
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / golden).read_bytes()

    def test_wavefunction_digest(self, he4_cfg_path, tmp_path):
        # about 240 kB of CSV, so only its sha256 is committed
        out = tmp_path / "wf1.csv"
        assert cli.main(["wavefunction", "--config", he4_cfg_path,
                         "--state", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "cbed65e34636da49a551b939851f061d7056fefcd1ac5af039f7b5f19b2d3304")


class TestSolveCommand:
    def test_solve_json(self, he4_cfg_path, tmp_path, capsys):
        out = tmp_path / "spectrum.json"
        rc = cli.main(["solve", "--config", he4_cfg_path, "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["threshold_mK"] == pytest.approx(-1.2109, abs=2e-4)
        states = payload["states"]
        assert [s["nodes"] for s in states] == [0, 1]
        assert states[0]["E_mK"] == pytest.approx(-144.0556, abs=0.01)
        assert states[1]["E_mK"] == pytest.approx(-2.22049, abs=0.001)
        assert payload["meta"]["command"] == "solve"
        assert len(payload["meta"]["config_sha256"]) == 64

    def test_solve_validates_against_schema(self, he4_cfg_path, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        import importlib.resources as ir
        out = tmp_path / "spectrum.json"
        assert cli.main(["solve", "--config", he4_cfg_path, "--out", str(out)]) == 0
        schema = json.loads(
            (ir.files("zrtrimer") / "data" / "solve_output.schema.json").read_text())
        jsonschema.validate(json.loads(out.read_text()), schema)

    def test_solve_determinism(self, fast_cfg_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["solve", "--config", fast_cfg_path, "--out", str(a)]) == 0
        assert cli.main(["solve", "--config", fast_cfg_path, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_solve_csv_matches_json(self, fast_cfg_path, tmp_path):
        js, cs = tmp_path / "spectrum.json", tmp_path / "spectrum.csv"
        assert cli.main(["solve", "--config", fast_cfg_path, "--out", str(js)]) == 0
        assert cli.main(["solve", "--config", fast_cfg_path, "--format", "csv",
                         "--out", str(cs)]) == 0
        payload = json.loads(js.read_text())
        meta, columns, rows = read_csv(cs)
        assert columns == ["E_mK", "nodes"]
        assert meta["threshold_mK"] == cli._fmt(payload["threshold_mK"])
        assert meta["config_sha256"] == payload["meta"]["config_sha256"]
        assert len(payload["states"]) >= 1
        assert rows == [[format(s["E_mK"], ".12g"), str(s["nodes"])]
                        for s in payload["states"]]


class TestEigenvalueCommand:
    def test_rows_and_endpoints(self, he4_cfg_path, tmp_path):
        out = tmp_path / "eig.csv"
        rc = cli.main(["eigenvalue", "--config", he4_cfg_path, "--out", str(out)])
        assert rc == 0
        meta, columns, rows = read_csv(out)
        assert columns == ["rho_au", "nu2", "lambda", "W_au"]
        assert len(rows) == 600          # row count equals grid n
        first = [float(x) for x in rows[0]]
        assert first[2] == pytest.approx(-4.0, abs=0.05)        # lambda(rho_min)
        # the last rows sit on the extended dimer-channel asymptote
        kappa = dimer_pole_kappa(PairParams(a=HE4_A, r_eff=HE4_REFF,
                                            p_shape=HE4_P))
        last = [float(x) for x in rows[-1]]
        lam_tail = dimer_channel_u(last[0], kappa, MU4) - 4.0
        assert last[2] == pytest.approx(lam_tail, rel=0.02)
        assert meta["command"] == "eigenvalue"

    def test_determinism(self, fast_cfg_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["eigenvalue", "--config", fast_cfg_path, "--out", str(a)]) == 0
        assert cli.main(["eigenvalue", "--config", fast_cfg_path, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format_flag(self, fast_cfg_path, tmp_path):
        out = tmp_path / "eig.json"
        rc = cli.main(["eigenvalue", "--config", fast_cfg_path,
                       "--format", "json", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 80
        assert set(payload["rows"][0]) == {"rho_au", "nu2", "lambda", "W_au"}

    def test_mixed_system_determinant_route(self, tmp_path):
        import importlib.resources as ir
        cfg_path = tmp_path / "mixed.cfg"
        text = (ir.files("zrtrimer") / "data" / "he4he4he3.cfg").read_text()
        cfg_path.write_text(text.replace("n = 600", "n = 120"))
        out = tmp_path / "mixed.csv"
        assert cli.main(["eigenvalue", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        first, last = [float(x) for x in rows[0]], [float(x) for x in rows[-1]]
        assert first[2] == pytest.approx(-4.0, abs=0.05)
        # outermost row sits on the He4-He4 dimer parabola of the mixed frame
        kappa = dimer_pole_kappa(PairParams(a=HE4_A, r_eff=HE4_REFF,
                                            p_shape=HE4_P))
        assert last[1] == pytest.approx(-kappa ** 2 * last[0] ** 2 / MU4,
                                        rel=0.02)


class TestScanCommand:
    def test_single_point(self, he4_cfg_path, tmp_path):
        out = tmp_path / "scan.csv"
        rc = cli.main(["scan-p", "--config", he4_cfg_path,
                       "--p-min", "0.13", "--p-max", "0.13",
                       "--p-step", "0.005", "--out", str(out)])
        assert rc == 0
        _, columns, rows = read_csv(out)
        assert columns == ["P", "E0_mK", "E1_mK"]
        assert len(rows) == 1
        assert float(rows[0][1]) == pytest.approx(-144.0556, abs=0.01)

    @pytest.mark.parametrize("golden, grid", [
        ("scan_p_he4_default.csv", []),
        ("scan_p_he4_step_0.015.csv",
         ["--p-min", "0.10", "--p-max", "0.16", "--p-step", "0.015"])])
    def test_bundled_scan_matches_golden(self, he4_cfg_path, tmp_path,
                                         golden, grid):
        # the committed scan-p CSV of the bundled He4 config, byte for
        # byte; each point warm-starts from the last, which moves the
        # energies by a few ulp, far below the 12 printed digits
        out = tmp_path / "scan.csv"
        assert cli.main(["scan-p", "--config", he4_cfg_path, "--out",
                         str(out)] + grid) == 0
        assert out.read_bytes() == (DATA / golden).read_bytes()

    def test_bad_step(self, he4_cfg_path):
        assert cli.main(["scan-p", "--config", he4_cfg_path,
                         "--p-step", "0"]) == 1

    @pytest.mark.parametrize("step, expected", [
        ("0.035", [0.10, 0.135]),                 # stops short of p_max
        ("0.015", [0.10, 0.115, 0.13, 0.145, 0.16]),
        ("0.005", [0.10 + 0.005 * k for k in range(13)])])
    def test_grid_stays_within_p_max(self, fast_cfg_path, monkeypatch, step,
                                     expected):
        solved, priors, returned = [], [], []
        def fake_solve(cfg, prior=None):
            solved.append(cfg.system.pairs[0].p_shape)
            priors.append(prior)
            returned.append([])
            return None, returned[-1]
        monkeypatch.setattr(cli, "solve_for_config", fake_solve)
        assert cli.main(["scan-p", "--config", fast_cfg_path, "--p-min", "0.10",
                         "--p-max", "0.16", "--p-step", step]) == 0
        assert solved == pytest.approx(expected, abs=1e-12)
        # each point hands its states on to the next as the warm start
        assert priors[0] is None
        assert all(p is r for p, r in zip(priors[1:], returned))

    def test_zero_range_pairs_keep_p_zero(self, tmp_path):
        # He4-He3 pairs made zero-range: P goes on the He4-He4 pair only
        text = bundled_config_text("he4he4he3").replace(
            "a = 33.261\nr_eff = 18.564\np_shape = 0.13", "a = 33.261")
        cfg = tmp_path / "mixed_zero_range.cfg"
        cfg.write_text(text.replace("n = 600", "n = 120"))
        out = tmp_path / "scan.csv"
        assert cli.main(["scan-p", "--config", str(cfg), "--p-min", "0.12",
                         "--p-max", "0.13", "--p-step", "0.01",
                         "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert [float(r[0]) for r in rows] == pytest.approx([0.12, 0.13])
        # E0 rises with P, as on the bundled configs
        assert float(rows[0][1]) < float(rows[1][1]) < 0.0

    def test_grid_below_critical_p_rejected_before_solving(
            self, fast_cfg_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "solve_for_config", pytest.fail)
        assert cli.main(["scan-p", "--config", fast_cfg_path, "--p-min", "0.01",
                         "--p-max", "0.13", "--p-step", "0.02"]) == 1
        assert "scan-p: [pair.1]: P = 0.01 is outside" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--p-min", "nan"), ("--p-max", "inf"), ("--p-step", "nan"),
        ("--p-step", "inf")])
    def test_non_finite_grid_is_usage_error(self, fast_cfg_path, capsys,
                                            monkeypatch, flag, value):
        monkeypatch.setattr(cli, "solve_for_config", pytest.fail)
        assert cli.main(["scan-p", "--config", fast_cfg_path,
                         flag, value]) == 1
        assert "need finite p_min" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [
        ["--p-step", "1e-12"],                          # 6e10 points
        ["--p-min", "0.1", "--p-max", "1e308", "--p-step", "1e-300"]])
    def test_oversized_grid_is_usage_error(self, fast_cfg_path, capsys,
                                           monkeypatch, grid):
        # rejected before a single point is built, let alone solved
        monkeypatch.setattr(cli, "_with_pshape", pytest.fail)
        monkeypatch.setattr(cli, "solve_for_config", pytest.fail)
        assert cli.main(["scan-p", "--config", fast_cfg_path] + grid) == 1
        assert (f"need at most {cli.MAX_SCAN_POINTS} P points"
                in capsys.readouterr().err)

    def test_no_finite_range_pair_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "he4_zero_range.cfg"
        cfg.write_text(FAST_CFG.replace("r_eff = 13.843\np_shape = 0.13\n", ""))
        assert cli.main(["scan-p", "--config", str(cfg)]) == 1
        assert "r_eff > 0" in capsys.readouterr().err


class TestThomasCommand:
    def test_default_g_and_ratio_column(self, tmp_path):
        out = tmp_path / "thomas.csv"
        rc = cli.main(["thomas-demo", "--out", str(out)])
        assert rc == 0
        # the committed default spectrum, byte for byte; each level from
        # the second on is warm-started from the ones below, which moves
        # the energies by a few ulp, far below the 12 printed digits
        golden = DATA / "thomas_demo_default.csv"
        assert out.read_bytes() == golden.read_bytes()
        meta, columns, rows = read_csv(out)
        assert columns == ["n", "E_hartree", "ratio"]
        assert float(meta["g"]) == pytest.approx(efimov_constant(), rel=1e-9)
        assert len(rows) == 5
        assert rows[-1][2] == ""                 # no ratio after the last level
        ratios = [float(r[2]) for r in rows[:-1]]
        target = math.exp(2 * math.pi / efimov_constant())
        assert ratios[1] == pytest.approx(target, rel=0.05)
        assert ratios[2] == pytest.approx(target, rel=0.05)

    @pytest.mark.parametrize("flag, value", [
        ("--g", "nan"), ("--g", "-1"), ("--g", "0"), ("--g", "inf"),
        ("--cutoff", "nan"), ("--outer", "nan"), ("--outer", "inf")])
    def test_invalid_strength_or_wall_is_usage_error(self, capsys,
                                                     monkeypatch, flag, value):
        monkeypatch.setattr(cli, "thomas_spectrum", pytest.fail)
        assert cli.main(["thomas-demo", flag, value]) == 1
        assert capsys.readouterr().err.startswith("zrtrimer: error: need")

    def test_config_is_usage_error(self, he4_cfg_path, capsys):
        # the demo has no system to configure
        assert cli.main(["thomas-demo", "--config", he4_cfg_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("zrtrimer: error:") and "--config" in err


class TestWavefunctionCommand:
    def test_ground_state_shape(self, he4_cfg_path, tmp_path):
        out = tmp_path / "wf0.csv"
        rc = cli.main(["wavefunction", "--config", he4_cfg_path,
                       "--state", "0", "--out", str(out)])
        assert rc == 0
        _, columns, rows = read_csv(out)
        assert columns == ["rho_au", "f"]
        data = np.array([[float(a) for a in row] for row in rows])
        f = data[:, 1]
        assert np.abs(f).max() == pytest.approx(1.0, rel=1e-9)
        peak_rho = data[np.abs(f).argmax(), 0]
        assert 10.0 < peak_rho < 40.0
        # single-peaked: no sign change
        from zrtrimer import count_nodes
        assert count_nodes(f) == 0

    def test_excited_state_has_one_node(self, he4_cfg_path, tmp_path):
        out = tmp_path / "wf1.csv"
        assert cli.main(["wavefunction", "--config", he4_cfg_path,
                         "--state", "1", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        from zrtrimer import count_nodes
        assert count_nodes([float(r[1]) for r in rows]) == 1

    def test_missing_state_is_usage_error(self, he4_cfg_path):
        assert cli.main(["wavefunction", "--config", he4_cfg_path,
                         "--state", "7"]) == 1


class TestExitCodes:
    def test_missing_config(self):
        assert cli.main(["solve", "--config", "/no/such/file.cfg"]) == 1

    def test_non_utf8_config(self, tmp_path, capsys):
        bad = tmp_path / "utf16.cfg"
        bad.write_bytes(b"\xff\xfe")
        assert cli.main(["solve", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"zrtrimer: error: cannot read config '{bad}'")
        assert "can't decode byte 0xff" in err

    def test_invalid_config(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[system]\nmasses = 1, 2\n")
        assert cli.main(["solve", "--config", str(bad)]) == 1

    def test_usage_error(self):
        assert cli.main(["no-such-command"]) == 1

    @pytest.mark.parametrize("where", ["no/such/x.json", "."])
    def test_unwritable_out_is_usage_error(self, fast_cfg_path, tmp_path,
                                           capsys, monkeypatch, where):
        # the target is checked before the command runs
        monkeypatch.setattr(cli, "solve_for_config", pytest.fail)
        out = tmp_path / where
        assert cli.main(["solve", "--config", fast_cfg_path,
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"zrtrimer: error: cannot write output '{out}'")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("existing", [None, "old output\n"])
    def test_failed_command_leaves_out_as_it_was(self, fast_cfg_path,
                                                 tmp_path, monkeypatch,
                                                 existing):
        def boom(cfg):
            raise SolverError("no state")
        monkeypatch.setattr(cli, "solve_for_config", boom)
        out = tmp_path / "x.json"
        if existing is not None:
            out.write_text(existing)
        assert cli.main(["solve", "--config", fast_cfg_path,
                         "--out", str(out)]) == 2
        if existing is None:
            assert list(tmp_path.iterdir()) == []
        else:
            assert list(tmp_path.iterdir()) == [out]
            assert out.read_text() == existing

    def test_out_replaces_an_existing_file(self, fast_cfg_path, tmp_path,
                                           capsys):
        # through a symlink, as a plain open would write
        out = tmp_path / "x.csv"
        out.write_text("old output\n" * 1000)
        link = tmp_path / "link.csv"
        link.symlink_to(out)
        assert cli.main(["eigenvalue", "--config", fast_cfg_path,
                         "--out", str(link)]) == 0
        assert cli.main(["eigenvalue", "--config", fast_cfg_path]) == 0
        assert sorted(tmp_path.iterdir()) == [link, out]
        assert link.is_symlink()
        assert out.read_text() == capsys.readouterr().out

    def test_solver_failure_maps_to_2(self, he4_cfg_path, monkeypatch):
        def boom(cfg):
            raise RootSearchError("lost the branch")
        monkeypatch.setattr(cli, "potential_for_config", boom)
        assert cli.main(["solve", "--config", he4_cfg_path]) == 2

    @pytest.mark.parametrize("a, r_eff, p_shape, p_c", [
        # spurious poles at kappa = 0.2044 and 1.008 besides the dimer at
        # 0.00396, whose channel would bind levels near -44000 mK
        ("-257.3", "9.925", "0.004", "0.01901"),
        # 1/2 < R/|a| < 9/16: the dimer has merged with a spurious pole and
        # the one positive root left is deep (kappa |a| = 10.2), which a
        # count of positive roots cannot tell from the dimer
        ("-18.554", "9.887", "0.0113", "0.03365")])
    def test_spurious_poles_are_config_error(self, tmp_path, capsys, a, r_eff,
                                             p_shape, p_c):
        text = (bundled_config_text("he4_trimer")
                .replace("a = -189.054", f"a = {a}")
                .replace("r_eff = 13.843", f"r_eff = {r_eff}")
                .replace("p_shape = 0.13", f"p_shape = {p_shape}"))
        cfg = tmp_path / "he4_spurious.cfg"
        cfg.write_text(text)
        assert cli.main(["solve", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"[pair.1]: P = {p_shape} is outside the validity domain "
                f"P > P_c = {p_c}," in captured.err)

    @pytest.mark.parametrize("old, new", [
        ("mass_scale = 1822.887", "mass_scale = nan"),
        ("mass_scale = 1822.887", "mass_scale = inf"),
        ("masses = 4.002603, 4.002603, 4.002603", "masses = inf, inf, inf"),
        ("masses = 4.002603, 4.002603, 4.002603",
         "masses = 4.002603, nan, 4.002603")])
    def test_non_finite_mass_is_config_error(self, tmp_path, capsys,
                                             monkeypatch, old, new):
        monkeypatch.setattr(cli, "solve_for_config", pytest.fail)
        text = bundled_config_text("he4_trimer")
        assert old in text
        cfg = tmp_path / "he4_mass.cfg"
        cfg.write_text(text.replace(old, new))
        assert cli.main(["solve", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[system]: masses and mass_scale must be finite" in captured.err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_radial_grid_is_solver_failure(self, fast_cfg_path,
                                                       tmp_path, capsys,
                                                       monkeypatch):
        # rho^2 overflows, W is NaN there: without the check no bisection
        # on that grid would end
        monkeypatch.setattr(radial._Shooter, "eigenvalue", pytest.fail)
        cfg = tmp_path / "huge_rho.cfg"
        cfg.write_text(Path(fast_cfg_path).read_text()
                       + "\n[solver]\nradial_rho_max = 1e300\n")
        assert cli.main(["solve", "--config", str(cfg)]) == 2
        assert "W is not finite" in capsys.readouterr().err

    def test_radial_rho_min_past_automatic_rho_max(self, tmp_path, capsys):
        # the automatic radial_rho_max of the bundled He4 config is 4000
        # au (20|a| = 3781 is less): a radial_rho_min of 5000 leaves no
        # radial grid, a configuration error rather than a solver failure
        text = bundled_config_text("he4_trimer").replace(
            "radial_rho_min = 0.05", "radial_rho_min = 5000")
        cfg = tmp_path / "he4_rho_min.cfg"
        cfg.write_text(text)
        assert cli.main(["solve", "--config", str(cfg)]) == 1
        assert "radial_rho_max = 4000" in capsys.readouterr().err

    def test_just_above_critical_p_is_solver_failure(self, tmp_path, capsys):
        # 2.5% above P_c the model is valid, but the angular continuation
        # loses the branch near rho = 37.6: no margin hides that
        text = (bundled_config_text("he4_trimer")
                .replace("a = -189.054", "a = -144.277")
                .replace("r_eff = 13.843", "r_eff = 16.893")
                .replace("p_shape = 0.13", "p_shape = 0.02063"))
        cfg = tmp_path / "he4_near_pc.cfg"
        cfg.write_text(text)
        assert cli.main(["solve", "--config", str(cfg)]) == 2
        assert "solver failure" in capsys.readouterr().err

    def test_near_threshold_state_inside_default_box(self, tmp_path, capsys):
        # E1 sits 1.3 mK below threshold, so at rho_max = 4000 the outward
        # sweep never reaches the barrier cutoff; it still equals the
        # rho_max = 8000 value, -6.141310261379921 mK, within 1e-6 mK
        text = (bundled_config_text("he4_trimer")
                .replace("a = -189.054", "a = -94.661")
                .replace("r_eff = 13.843", "r_eff = 18.886")
                .replace("p_shape = 0.13", "p_shape = 0.2925"))
        cfg = tmp_path / "he4_near_threshold.cfg"
        cfg.write_text(text)
        assert cli.main(["solve", "--config", str(cfg)]) == 0
        states = json.loads(capsys.readouterr().out)["states"]
        assert [s["nodes"] for s in states] == [0, 1]
        assert states[1]["E_mK"] == pytest.approx(-6.14131, abs=5e-6)
        assert abs(states[1]["E_mK"] - -6.141310261379921) <= 1e-6

    def test_plain_error_is_not_a_solver_failure(self, he4_cfg_path,
                                                 monkeypatch):
        def bug(cfg):
            raise ValueError("a programming error")
        monkeypatch.setattr(cli, "potential_for_config", bug)
        with pytest.raises(ValueError, match="a programming error"):
            cli.main(["solve", "--config", he4_cfg_path])

    def test_stdout_output(self, fast_cfg_path, capsys):
        assert cli.main(["eigenvalue", "--config", fast_cfg_path]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1].count(",") == 3
