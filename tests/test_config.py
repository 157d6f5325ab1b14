import re

import pytest

from zrtrimer import ConfigError, parse_config

from trimer_params import bundled_config_text

MINIMAL = """
[system]
masses = 1.0, 2.0, 3.0
[pair.1]
a = -5.0
[pair.2]
a = -6.0
[pair.3]
a = -7.0
"""


class TestBundledConfigs:
    def test_he4_trimer(self):
        cfg = parse_config(bundled_config_text("he4_trimer"))
        assert cfg.system.masses == (4.002603, 4.002603, 4.002603)
        assert cfg.system.mass_scale == 1822.887
        for pair in cfg.system.pairs:
            assert pair.a == -189.054
            assert pair.r_eff == 13.843
            assert pair.p_shape == 0.13
        assert cfg.system.is_identical
        assert cfg.q_convention == "leading_term"
        assert (cfg.rho_min, cfg.rho_max, cfg.n) == (0.05, 4000.0, 600)

    def test_he4he4he3(self):
        cfg = parse_config(bundled_config_text("he4he4he3"))
        assert cfg.system.masses[2] == 3.016026
        assert cfg.system.pairs[0].a == 33.261
        assert cfg.system.pairs[0].r_eff == 18.564
        assert cfg.system.pairs[2].a == -189.054
        assert cfg.system.pairs[0] == cfg.system.pairs[1]
        assert not cfg.system.is_identical

    def test_sha_is_stable(self):
        text = bundled_config_text("he4_trimer")
        assert parse_config(text).sha256 == parse_config(text).sha256


class TestParsing:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.n == 600
        assert cfg.radial_n == 8000
        assert cfg.radial_rho_max is None
        assert cfg.max_states == 4

    def test_empty_file_lists_requirements(self):
        with pytest.raises(ConfigError, match="required"):
            parse_config("")

    def test_missing_pair(self):
        with pytest.raises(ConfigError, match=r"pair\.3"):
            parse_config(MINIMAL.replace("[pair.3]\na = -7.0", ""))

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(MINIMAL + "\n[plotting]\ncolor = red\n")

    def test_output_section_rejected(self):
        # output goes through the --format and --out flags only
        with pytest.raises(ConfigError, match=r"unknown section \[output\]"):
            parse_config(MINIMAL + "\n[output]\nformat = csv\n")

    @pytest.mark.parametrize("section, key, value", [
        ("solver", "tol_res", "1e-10"), ("solver", "tol_u", "1e-10"),
        ("system", "names", "A, B, C"), ("system", "hartree_per_mk", "3e-9"),
        ("grid", "spacing", "log"), ("solver", "regularized", "false")])
    def test_removed_keys_rejected(self, section, key, value):
        # the root tolerances are solver constants, the bare model is
        # r_eff = 0 with no p_shape, the grid is always log spaced and the
        # mK conversion is a pinned constant
        text = (MINIMAL.replace("[system]", f"[system]\n{key} = {value}")
                if section == "system"
                else MINIMAL + f"\n[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"unknown key '{key}'"):
            parse_config(text)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL + "\n[grid]\nrho_mni = 1.0\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="masses"):
            parse_config(MINIMAL.replace("1.0, 2.0, 3.0", "1.0, x, 3.0"))

    def test_grid_sanity(self):
        with pytest.raises(ConfigError, match="rho_min"):
            parse_config(MINIMAL + "\n[grid]\nrho_min = 10\nrho_max = 1\n")
        with pytest.raises(ConfigError, match="n"):
            parse_config(MINIMAL + "\n[grid]\nn = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="parse error"):
            parse_config(MINIMAL + "\n[grid]\nn = 5\nn = 6\n")

    def test_invariant_violation_reported_with_field(self):
        bad = MINIMAL.replace("a = -5.0", "a = 0.0")
        with pytest.raises(ConfigError, match=r"\[pair\.1\]"):
            parse_config(bad)

    def test_radial_rho_max_literal(self):
        cfg = parse_config(MINIMAL + "\n[solver]\nradial_rho_max = 1234.5\n")
        assert cfg.radial_rho_max == 1234.5
        with pytest.raises(ConfigError, match="radial_rho_max"):
            parse_config(MINIMAL + "\n[solver]\nradial_rho_max = -3\n")

    @pytest.mark.parametrize("text, match", [
        (MINIMAL + "\n[grid]\nrho_max = inf\n", r"\[grid\]"),
        (MINIMAL + "\n[solver]\nradial_rho_max = inf\n",
         r"\[solver\]\.radial_rho_max")], ids=["rho_max", "radial_rho_max"])
    def test_non_finite_rho_max_rejected(self, text, match):
        # the masses and mass_scale: TestExitCodes in test_cli.py
        with pytest.raises(ConfigError, match=match):
            parse_config(text)

    def test_infinite_scattering_length_is_legal(self):
        # a = +-inf is the unitary limit
        for a in ("inf", "-inf"):
            cfg = parse_config(MINIMAL.replace("a = -5.0", f"a = {a}"))
            assert cfg.system.pairs[0].a == float(a)

    def test_pair_indexing_out_of_range(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(MINIMAL + "\n[pair.4]\na = 1.0\n")

    @pytest.mark.parametrize("key, value", [
        ("radial_n", "6"), ("radial_rho_min", "-1"), ("radial_rho_max", "0.01"),
        ("max_states", "0")])
    def test_solver_numbers_checked(self, key, value):
        # radial_n = 6 would index past the shooter's clamped turning point,
        # radial_rho_max = 0.01 lies below the default radial_rho_min
        with pytest.raises(ConfigError, match=rf"\[solver\]\.{key}"):
            parse_config(MINIMAL + f"\n[solver]\n{key} = {value}\n")


def _with_pair(a, r_eff, p_shape):
    return MINIMAL.replace("a = -5.0",
                           f"a = {a}\nr_eff = {r_eff}\np_shape = {p_shape}")


class TestValidityDomain:
    """kappa + 1/a - (R/2) kappa^2 + P R^3 kappa^4 = 0 may have only the
    physical dimer pole: P must lie above its critical value P_c, which the
    message states."""

    @pytest.mark.parametrize("a, r_eff, p_shape, p_c", [
        # spurious poles at kappa = 0.2834 and 0.6983 1/au
        (-330.382, 7.796, 0.0107, "0.01882"),
        # spurious poles at kappa = 0.1133 and 0.2074 1/au
        (-155.072, 19.755, 0.0157, "0.0203"),
        (-189.054, 13.843, 0.0, "0.01949"),               # the pole near 2/R
        (-1e6, 1.0, 1.0 / 54.0 * 0.995, "0.01852"),       # P_c -> 1/54
        (33.261, 18.564, 0.0137, "0.01382"),              # a > 0: no dimer
        # 1/2 < R/|a| < 9/16: the dimer has merged with a spurious pole and
        # only a deep root at kappa |a| = 10.2 is left
        (-18.554, 9.887, 0.0113, "0.03365")])
    def test_spurious_poles_rejected(self, a, r_eff, p_shape, p_c):
        with pytest.raises(ConfigError, match=rf"^\[pair\.1\]: P = {p_shape:g} "
                           rf"is outside .* P_c = {re.escape(p_c)},"):
            parse_config(_with_pair(a, r_eff, p_shape))

    @pytest.mark.parametrize("a, r_eff, p_shape", [
        (-1e6, 1.0, 1.0 / 54.0 * 1.005), (33.261, 18.564, 0.0139)])
    def test_just_above_critical_p_accepted(self, a, r_eff, p_shape):
        cfg = parse_config(_with_pair(a, r_eff, p_shape))
        assert cfg.system.pairs[0].p_shape == p_shape

    def test_missing_dimer_pole_rejected(self):
        # P = 0 and R > |a|/2: the pole equation stays negative.  With
        # R/|a| > 9/16 the roots never merge and P_c = 1/27
        with pytest.raises(ConfigError, match=r"P_c = 0\.03704,"):
            parse_config(_with_pair(-1.0, 10.0, 0.0))
