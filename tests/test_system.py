import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zrtrimer import (
    PairParams,
    ParticleSystem,
    critical_p_shape,
    dimer_binding_energy,
    dimer_pole_kappa,
    hartree_to_mk,
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
                                   mass_scale=1822.887)
            sys_b = ParticleSystem(
                masses=tuple(m / s for m in base), pairs=pairs,
                mass_scale=1822.887 * s)
            kin_a = reduced_masses(sys_a)
            kin_b = reduced_masses(sys_b)
            for i in range(3):
                for j in range(3):
                    if i != j:
                        assert kin_a.phi[i][j] == pytest.approx(kin_b.phi[i][j], rel=1e-13)
                # physical reduced mass: mu (units of m) times m
                assert kin_a.mu[i] * sys_a.mass_scale == pytest.approx(
                    kin_b.mu[i] * sys_b.mass_scale, rel=1e-12)


class TestDimer:
    def test_he4_dimer_binding_energy_mk(self):
        b_hartree = dimer_binding_energy(PairParams(a=HE4_A), MU4, 1822.887)
        assert b_hartree == pytest.approx(
            1.0 / (2.0 * MU4 * 1822.887 * HE4_A ** 2), rel=1e-15)
        assert dimer_binding_energy(PairParams(a=HE4_A), MU4) == b_hartree
        b_mk = hartree_to_mk(b_hartree)
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

    def test_missing_pole_is_rejected(self):
        # with P = 0 the -(R/2) kappa^2 term keeps the pole equation
        # negative: such a pair cannot be built, so no pole search fails
        with pytest.raises(ValueError,
                           match=r"P = 0 is outside .* P_c = 0\.03704,"):
            PairParams(a=-1.0, r_eff=10.0)


def _positive_roots(a: float, r_eff: float, p_shape: float) -> list[float]:
    """Positive real roots x = kappa R of P x^4 - x^2/2 + x + R/a = 0 by
    np.roots (a reference independent of the program), each polished by two
    Newton steps."""
    c = r_eff / a
    xs = sorted(x.real for x in np.roots([p_shape, 0.0, -0.5, 1.0, c])
                if x.imag == 0.0 and x.real > 0.0)
    for _ in range(2):
        xs = [x - (((p_shape * x * x - 0.5) * x + 1.0) * x + c)
              / ((4.0 * p_shape * x * x - 1.0) * x + 1.0) for x in xs]
    return xs


def _physical(a: float, r_eff: float, p_shape: float) -> bool:
    """The reference's verdict: only the dimer root, on the first rising
    branch of g(x) = P x^4 - x^2/2 + x - R/|a|.

    g(0) < 0, so one positive root lies on that branch exactly when g rises
    for every x > 0 (P >= 1/27) or stays positive at both of its positive
    critical points, the roots of g' = 4 P x^3 - x + 1.  A lone root beyond
    them is the deep one, left when the dimer has merged with a spurious
    pole or, past R/|a| = 9/16, for every P < 1/27."""
    xs = _positive_roots(a, r_eff, p_shape)
    if not (a < 0.0 and math.isfinite(a)):
        return not xs
    if len(xs) != 1:
        return False
    if p_shape >= 1.0 / 27.0:
        return True
    crit = [x.real for x in np.roots([4.0 * p_shape, 0.0, -1.0, 1.0])
            if x.imag == 0.0 and x.real > 0.0]
    return all(((p_shape * x * x - 0.5) * x + 1.0) * x + r_eff / a > 0.0
               for x in crit)


@st.composite
def _pole_cases(draw):
    """Pairs over both signs of a and +-inf, R/|a| from 1e-4 to 30, and P
    from -P_c to 20 P_c (P_c > 0 throughout) or from 1 to 10, where the
    bracket of the pole search is set by 1/sqrt(P) or sqrt(2R/|a|); but
    not within 2% of P_c, where the reference can no longer tell a
    near-double root from a complex pair."""
    if draw(st.booleans()):
        a = draw(st.sampled_from((-math.inf, math.inf)))
        r_eff = draw(st.floats(0.1, 50.0))
    else:
        a = draw(st.floats(1.0, 1e4)) * draw(st.sampled_from((-1.0, 1.0)))
        r_eff = abs(a) * 10.0 ** draw(st.floats(-4.0, 1.5))
    p_c = critical_p_shape(a, r_eff)
    relative = (st.just(0.0), st.floats(-0.98, -0.01), st.floats(0.01, 0.98),
                st.floats(1.02, 20.0))
    p_shape = draw(st.one_of(*(s.map(lambda t: p_c * t) for s in relative),
                             st.floats(1.0, 10.0)))
    return a, r_eff, p_shape


class TestValidityDomain:
    """The closed-form P_c against the roots of the pole quartic."""

    def test_critical_values(self):
        assert critical_p_shape(HE4_A, HE4_REFF) == pytest.approx(0.019486, abs=1e-6)
        assert critical_p_shape(33.261, 18.564) == pytest.approx(0.013825, abs=1e-6)
        for a in (-math.inf, math.inf):
            assert critical_p_shape(a, 1.0) == pytest.approx(1.0 / 54.0, rel=1e-15)
        assert critical_p_shape(-1e9, 1.0) == pytest.approx(1.0 / 54.0, rel=1e-8)
        # the roots merge at x = 3/2 when R/|a| = 9/16, and never beyond,
        # where P_c stays at 1/27: below it the lone root is the deep one
        assert critical_p_shape(-16.0, 9.0) == pytest.approx(1.0 / 27.0, rel=1e-15)
        assert critical_p_shape(-16.0, 9.001) == 1.0 / 27.0

    @example(case=(-18.554, 9.887, 0.0113))           # the merge window
    @example(case=(-18.554, 9.887, 0.0340))
    @settings(max_examples=400, deadline=None)
    @given(case=_pole_cases())
    def test_accepted_exactly_when_physical(self, case):
        a, r_eff, p_shape = case
        p_c = critical_p_shape(a, r_eff)
        try:
            pair = PairParams(a=a, r_eff=r_eff, p_shape=p_shape)
        except ValueError as exc:
            assert not p_shape > p_c
            assert f"P_c = {p_c:.4g}," in str(exc)
            assert not _physical(a, r_eff, p_shape)
            return
        assert p_shape > p_c
        assert _physical(a, r_eff, p_shape)
        kappa = dimer_pole_kappa(pair)
        if a > 0.0:
            assert kappa is None
        elif math.isinf(a):
            assert kappa == 0.0
        else:
            (x,) = _positive_roots(a, r_eff, p_shape)
            assert kappa == pytest.approx(x / r_eff, rel=1e-14)


class TestUnits:
    def test_hartree_to_kelvin_pinned(self):
        assert hartree_to_mk(1.0) == pytest.approx(3.1577464e8, rel=1e-12)


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

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
    def test_masses_finite_and_positive(self, bad):
        pairs = (PairParams(a=1.0),) * 3
        with pytest.raises(ValueError, match="must be finite and positive"):
            ParticleSystem(masses=(1.0, bad, 1.0), pairs=pairs)
        with pytest.raises(ValueError, match="must be finite and positive"):
            ParticleSystem(masses=(1.0,) * 3, pairs=pairs, mass_scale=bad)

    def test_three_masses_and_pairs(self):
        pairs = (PairParams(a=1.0),) * 3
        with pytest.raises(ValueError, match="exactly three masses"):
            ParticleSystem(masses=(1.0, 1.0), pairs=pairs)

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
