import math
import random

import pytest

from zrtrimer import (
    PairParams,
    ParticleSystem,
    SolverError,
    UnitSystem,
    dimer_binding_energy,
    dimer_pole_kappa,
    reduced_masses,
)

from trimer_params import HE4_A, HE4_MASS, HE4_P, HE4_REFF, MU4

M3 = 3.016026


class TestKinematics:
    def test_equal_masses_phi_is_pi_third(self):
        system = ParticleSystem.identical_bosons(HE4_MASS, PairParams(a=HE4_A))
        kin = reduced_masses(system)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert kin.phi[i][j] == pytest.approx(math.pi / 3, abs=1e-14)

    def test_equal_mass_pair_reduced_mass(self):
        system = ParticleSystem.identical_bosons(HE4_MASS, PairParams(a=HE4_A))
        kin = reduced_masses(system)
        assert kin.mu[0] == pytest.approx(HE4_MASS / 2, abs=1e-15)
        assert kin.mu[0] == pytest.approx(2.0013015, abs=1e-7)

    def test_mixed_pair_reduced_mass(self):
        pair34 = PairParams(a=33.261, r_eff=18.564, p_shape=HE4_P)
        pair44 = PairParams(a=HE4_A, r_eff=HE4_REFF, p_shape=HE4_P)
        system = ParticleSystem(
            masses=(HE4_MASS, HE4_MASS, M3),
            pairs=(pair34, pair34, pair44))
        kin = reduced_masses(system)
        # spectator 1 faces the (He4, He3) pair
        assert kin.mu[0] == pytest.approx(HE4_MASS * M3 / (HE4_MASS + M3), rel=1e-14)
        assert kin.mu[0] == pytest.approx(12.071955 / 7.018629, rel=1e-7)
        assert kin.mu[0] == pytest.approx(1.72000, abs=2e-5)

    def test_phi_symmetric_and_in_range(self):
        system = ParticleSystem(
            masses=(1.0, 2.0, 3.0),
            pairs=(PairParams(a=1.0), PairParams(a=2.0), PairParams(a=3.0)))
        kin = reduced_masses(system)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert kin.phi[i][j] == kin.phi[j][i]
                    assert 0.0 < kin.phi[i][j] < math.pi / 2

    def test_mass_ratio_invariance(self):
        """phi and the physical reduced mass mu*m depend only on ratios."""
        rng = random.Random(1234)
        base = (1.3, 2.7, 0.9)
        pairs = (PairParams(a=1.0), PairParams(a=2.0), PairParams(a=3.0))
        for _ in range(20):
            s = rng.uniform(0.1, 10.0)
            sys_a = ParticleSystem(masses=base, pairs=pairs,
                                   units=UnitSystem(mass_scale=1822.887))
            sys_b = ParticleSystem(
                masses=tuple(m / s for m in base), pairs=pairs,
                units=UnitSystem(mass_scale=1822.887 * s))
            kin_a = reduced_masses(sys_a)
            kin_b = reduced_masses(sys_b)
            for i in range(3):
                for j in range(3):
                    if i != j:
                        assert kin_a.phi[i][j] == pytest.approx(kin_b.phi[i][j], rel=1e-13)
                # physical reduced mass: mu (units of m) times m
                assert kin_a.mu[i] * sys_a.units.mass_scale == pytest.approx(
                    kin_b.mu[i] * sys_b.units.mass_scale, rel=1e-12)


class TestDimer:
    def test_he4_dimer_binding_energy_mk(self):
        units = UnitSystem()
        b_hartree = dimer_binding_energy(PairParams(a=HE4_A), MU4, units)
        assert b_hartree == pytest.approx(
            1.0 / (2.0 * MU4 * units.mass_scale * HE4_A ** 2), rel=1e-15)
        b_mk = units.hartree_to_mk(b_hartree)
        assert b_mk == pytest.approx(1.2109, abs=2e-4)
        # the trimer excited state (-2.21 mK) lies below -B
        assert -2.21 < -b_mk

    def test_positive_a_unbound(self):
        assert dimer_binding_energy(PairParams(a=33.261), 1.72) is None

    def test_unitary_limit(self):
        assert dimer_binding_energy(PairParams(a=-math.inf), MU4) == 0.0
        assert dimer_binding_energy(PairParams(a=-1e13), MU4) < 1e-28

    def test_extended_pole_momentum(self):
        pair = PairParams(a=HE4_A, r_eff=HE4_REFF, p_shape=HE4_P)
        kappa = dimer_pole_kappa(pair)
        # root of kappa + 1/a - (R/2) kappa^2 + P R^3 kappa^4 = 0
        resid = (kappa + 1 / HE4_A - 0.5 * HE4_REFF * kappa ** 2
                 + HE4_P * HE4_REFF ** 3 * kappa ** 4)
        assert abs(resid) < 1e-15
        assert kappa * abs(HE4_A) == pytest.approx(1.0395, abs=2e-4)
        # bare pair reduces to 1/|a|
        assert dimer_pole_kappa(PairParams(a=HE4_A)) == pytest.approx(
            1 / abs(HE4_A), rel=1e-12)
        assert dimer_pole_kappa(PairParams(a=33.261)) is None

    def test_missing_pole_is_solver_error(self):
        # with P = 0 the -(R/2) kappa^2 term keeps the pole equation negative
        with pytest.raises(SolverError, match="no dimer pole"):
            dimer_pole_kappa(PairParams(a=-1.0, r_eff=10.0))


class TestUnits:
    def test_hartree_to_kelvin_pinned(self):
        assert UnitSystem().hartree_to_mk(1.0) == pytest.approx(
            3.1577464e8, rel=1e-12)


class TestValidation:
    def test_pair_params(self):
        with pytest.raises(ValueError):
            PairParams(a=0.0)
        with pytest.raises(ValueError):
            PairParams(a=1.0, r_eff=-1.0)
        # the pole equation needs finite coefficients
        for bad in ({"a": math.nan}, {"a": 1.0, "r_eff": math.inf},
                    {"a": 1.0, "r_eff": math.nan},
                    {"a": 1.0, "r_eff": 2.0, "p_shape": math.inf}):
            with pytest.raises(ValueError):
                PairParams(**bad)
        with pytest.raises(ValueError, match="inert"):
            PairParams(a=1.0, r_eff=0.0, p_shape=0.1)

    def test_masses_positive(self):
        with pytest.raises(ValueError):
            ParticleSystem(masses=(1.0, -1.0, 1.0),
                           pairs=(PairParams(a=1.0),) * 3)

    def test_identical_particles_need_identical_pairs(self):
        with pytest.raises(ValueError, match="equal masses"):
            ParticleSystem(masses=(1.0, 1.0, 2.0),
                           pairs=(PairParams(a=1.0), PairParams(a=2.0),
                                  PairParams(a=3.0)))
        # the mixed helium layout is consistent: pairs 1 and 2 match
        ParticleSystem(
            masses=(HE4_MASS, HE4_MASS, M3),
            pairs=(PairParams(a=33.261), PairParams(a=33.261),
                   PairParams(a=HE4_A)))
