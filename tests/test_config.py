import pytest

from zrtrimer import ConfigError, parse_config

from conftest import bundled_config_text

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
        assert cfg.system.units.mass_scale == 1822.887
        for pair in cfg.system.pairs:
            assert pair.a == -189.054
            assert pair.r_eff == 13.843
            assert pair.p_shape == 0.13
        assert cfg.system.is_identical
        assert cfg.q_convention == "leading_term"
        assert cfg.regularized is True
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
        assert cfg.spacing == "log"
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

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL + "\n[grid]\nrho_mni = 1.0\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="masses"):
            parse_config(MINIMAL.replace("1.0, 2.0, 3.0", "1.0, x, 3.0"))

    def test_bad_boolean(self):
        with pytest.raises(ConfigError, match="boolean"):
            parse_config(MINIMAL + "\n[solver]\nregularized = maybe\n")

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

    def test_pair_indexing_out_of_range(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(MINIMAL + "\n[pair.4]\na = 1.0\n")

    def test_energy_conversion_override(self):
        base = parse_config(MINIMAL)
        doubled = parse_config(MINIMAL.replace(
            "[system]",
            f"[system]\nhartree_per_mk = {2 * base.system.units.hartree_per_mk}"))
        # same hartree value reads half as many millikelvin
        assert doubled.system.units.hartree_to_mk(1.0) == pytest.approx(
            0.5 * base.system.units.hartree_to_mk(1.0), rel=1e-12)

    def test_regularized_false_drops_extended_terms(self):
        from zrtrimer import AngularProblem
        text = MINIMAL + "\n[solver]\nregularized = false\n"
        cfg = parse_config(text.replace("a = -5.0", "a = -5.0\nr_eff = 2.0"))
        assert cfg.regularized is False
        problem = AngularProblem(cfg.system, regularized=cfg.regularized)
        assert problem.effective_pair(0).r_eff == 0.0
        assert cfg.system.pairs[0].r_eff == 2.0   # stored values untouched
