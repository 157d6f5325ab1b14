import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq

from zrtrimer import (
    AngularProblem,
    PairParams,
    ParticleSystem,
    PoleProximityError,
    SolverError,
    boson_residual,
    build_matrix,
    critical_p_shape,
    efimov_constant,
    nu2_asymptotic,
    nu_cot_half_pi,
    sin_ratio,
    solve_at_rho,
    trace_branch,
)
from zrtrimer import angular
from zrtrimer.angular import (
    POLE_GUARD,
    RootSearchError,
    _bc_bracket,
    _cell_interval,
    _walk,
    boson_lhs,
    dimer_channel_u,
)
from zrtrimer.cli import trace_for_config

from trimer_params import HE4_A, HE4_MASS, HE4_P, HE4_REFF, MU4


# ---------------------------------------------------------------- oracles

def complex_nu_cot(u: float) -> float:
    nu = cmath.sqrt(complex(u))
    return (nu * cmath.cos(nu * math.pi / 2) / cmath.sin(nu * math.pi / 2)).real


def complex_sin_ratio(u: float, phi: float) -> float:
    nu = cmath.sqrt(complex(u))
    return (cmath.sin(nu * (phi - math.pi / 2)) / cmath.sin(nu * math.pi / 2)).real


class TestEvenFunctions:
    def test_nu_cot_half_pi_values(self):
        assert nu_cot_half_pi(1.0) == pytest.approx(0.0, abs=1e-15)
        assert nu_cot_half_pi(0.0) == pytest.approx(2.0 / math.pi, rel=1e-15)
        # kappa coth(kappa pi/2) at kappa = 1
        coth = math.cosh(math.pi / 2) / math.sinh(math.pi / 2)
        assert nu_cot_half_pi(-1.0) == pytest.approx(coth, rel=1e-14)
        assert nu_cot_half_pi(-1.0) == pytest.approx(1.0903, abs=1e-4)

    @pytest.mark.parametrize("u", [-1e-300, -1e-170, -1e-33, -1e-20, -1e-14,
                                   -1e-8, -1e-3, -0.5, -3.0, -50.0, -1e4])
    def test_nu_cot_half_pi_near_zero_minus(self, u):
        # kappa coth(kappa pi/2) without cancellation as u -> 0-
        x = math.sqrt(-u) * math.pi / 2
        ref = math.sqrt(-u) * math.cosh(x) / math.sinh(x)
        assert nu_cot_half_pi(u) == pytest.approx(ref, rel=1e-15)

    def test_sin_ratio_values(self):
        assert sin_ratio(0.0, math.pi / 3) == pytest.approx(-1.0 / 3.0, rel=1e-15)
        ref = -math.sinh(math.pi / 3) / math.sinh(math.pi)
        assert sin_ratio(-4.0, math.pi / 3) == pytest.approx(ref, rel=1e-14)
        assert sin_ratio(-4.0, math.pi / 3) == pytest.approx(-0.1082, abs=1e-4)

    def test_pole_guard(self):
        with pytest.raises(PoleProximityError):
            nu_cot_half_pi(4.0)
        with pytest.raises(PoleProximityError):
            sin_ratio(4.0 + 1e-8, math.pi / 3)
        with pytest.raises(PoleProximityError):
            nu_cot_half_pi(16.0 - 1e-9)
        # just outside the guard band is fine
        nu_cot_half_pi(4.0 + 1e-5)
        # the cell edges that root brackets are clipped to stay evaluable
        for u in (2.0, 10.0, 30.0, 70.0):
            for edge in _cell_interval(u):
                if math.isfinite(edge):
                    nu_cot_half_pi(edge)
                    sin_ratio(edge, math.pi / 3)

    def test_phi_domain(self):
        with pytest.raises(ValueError):
            sin_ratio(1.0, math.pi / 2)

    def test_evenness_against_complex_oracle(self):
        rng = random.Random(20240811)
        checked = 0
        while checked < 100:
            u = rng.uniform(-30.0, 15.5)
            if min(abs(u - 4.0), abs(u - 16.0)) < 0.05:
                continue
            phi = rng.uniform(0.05, math.pi / 2 - 0.05)
            assert nu_cot_half_pi(u) == pytest.approx(
                complex_nu_cot(u), rel=1e-12)
            assert sin_ratio(u, phi) == pytest.approx(
                complex_sin_ratio(u, phi), rel=1e-12)
            checked += 1


class TestEfimovConstant:
    def test_value_and_residual(self):
        g = efimov_constant()
        assert abs(g - 1.006) < 1e-3
        resid = (g * math.cosh(g * math.pi / 2)
                 - (8 / math.sqrt(3)) * math.sinh(g * math.pi / 6))
        assert abs(resid) < 1e-10
        assert -(g * g + 0.25) == pytest.approx(-1.262, abs=1e-3)
        # boson LHS vanishes at u = -g^2 by construction
        assert abs(boson_lhs(-g * g)) < 1e-12


class TestBosonResidual:
    PAIR = PairParams(a=HE4_A, r_eff=HE4_REFF, p_shape=HE4_P)
    BARE = PairParams(a=HE4_A)

    def test_reduces_to_lhs_at_small_rho(self):
        # unregularized residual at rho -> 0 is LHS(u) alone
        for u in (-2.5, -1.0, 0.5):
            assert boson_residual(u, 1e-12, self.BARE, MU4) == pytest.approx(
                boson_lhs(u), abs=1e-12)
        g = efimov_constant()
        assert boson_residual(-g * g, 1e-12, self.BARE, MU4) == pytest.approx(
            0.0, abs=1e-11)

    def test_lhs_at_zero(self):
        # -2/pi + (8/sqrt3)/3
        assert boson_lhs(0.0) == pytest.approx(0.9029809454714209, rel=1e-13)
        assert boson_lhs(0.0) == pytest.approx(-2 / math.pi + 8 / math.sqrt(3) / 3,
                                               rel=1e-14)
        # regularized residual at u = 0 is finite for any rho: the extended
        # terms vanish at nu = 0 and only the 1/a piece survives
        r = boson_residual(0.0, 0.5, self.PAIR, MU4)
        expected = boson_lhs(0.0) - (0.5 / math.sqrt(MU4)) / HE4_A
        assert r == pytest.approx(expected, rel=1e-13)

    def test_free_branch_root_near_four(self):
        # positive scattering length, bare: lowest root approaches nu = 2
        # from below as 2 - (12/pi) sqrt(mu) a / rho
        pair = PairParams(a=33.261)
        mu = 1.72
        rho = 5000.0
        root = brentq(lambda x: boson_residual(x, rho, pair, mu),
                      3.0, 4.0 - 1e-6, xtol=1e-13)
        assert root == pytest.approx(3.8694149, abs=1e-6)
        assert root == pytest.approx(nu2_asymptotic(rho, pair, mu, "free"),
                                     rel=2e-3)

    def test_rho_zero_requires_u_zero_when_regularized(self):
        with pytest.raises(ValueError):
            boson_residual(1.0, 0.0, self.PAIR, MU4)
        assert math.isfinite(boson_residual(0.0, 0.0, self.PAIR, MU4))


class TestMatrix:
    def test_identical_boson_factorization(self, he4_problem):
        rng = random.Random(99)
        for _ in range(40):
            u = rng.uniform(-20.0, 3.5)
            rho = 10 ** rng.uniform(-1.5, 3.0)
            m = build_matrix(u, rho, he4_problem)
            d, o = m[0, 0], m[0, 1]
            assert np.allclose(m, np.where(np.eye(3, dtype=bool), d, o))
            det = np.linalg.det(m)
            assert det == pytest.approx((d - o) ** 2 * (d + 2 * o),
                                        rel=1e-10, abs=1e-12)

    def test_symmetric_factor_root_matches_boson_root(self, he4_problem):
        pair = PairParams(a=HE4_A, r_eff=HE4_REFF, p_shape=HE4_P)
        for rho in (10.0, 100.0):
            u_boson = solve_at_rho(rho, he4_problem, guess=-1.0)
            def sym_factor(u):
                m = build_matrix(u, rho, he4_problem)
                return m[0, 0] + 2 * m[0, 1]
            u_det = brentq(sym_factor, u_boson - 0.5, u_boson + 0.5, xtol=1e-13)
            assert u_det == pytest.approx(u_boson, rel=1e-9)

    def test_unitary_matrix_at_origin(self):
        pair = PairParams(a=-math.inf)
        system = ParticleSystem.identical_bosons(HE4_MASS, pair)
        problem = AngularProblem(system)
        m = build_matrix(0.0, 0.0, problem)
        assert m[0, 0] == pytest.approx(2 / math.pi, rel=1e-14)
        assert m[0, 1] == pytest.approx(2 * (-1 / 3) / math.sin(2 * math.pi / 3),
                                        rel=1e-14)
        assert m[0, 1] == pytest.approx(-0.7698, abs=1e-4)
        det = np.linalg.det(m)
        assert math.isfinite(det) and det != 0.0


@st.composite
def _pairs(draw):
    kind = draw(st.sampled_from(("bound", "free", "unitary")))
    a = (-math.inf if kind == "unitary"
         else draw(st.floats(2.0, 500.0)) * (-1.0 if kind == "bound" else 1.0))
    if draw(st.booleans()):
        return PairParams(a=a)
    # only P above the critical value is a valid pair
    r_eff = draw(st.floats(1.0, 30.0))
    return PairParams(a=a, r_eff=r_eff, p_shape=critical_p_shape(a, r_eff)
                      + draw(st.floats(0.002, 0.3)))


def _problem(masses, pairs) -> AngularProblem:
    return AngularProblem(ParticleSystem(masses, pairs))


@st.composite
def _general_problems(draw):
    """Three distinct masses (ratios 0.2-5) with independent pairs."""
    masses = (4.0, 4.0 * draw(st.floats(0.2, 5.0)), 4.0 * draw(st.floats(0.2, 5.0)))
    assume(len(set(masses)) == 3)
    return _problem(masses, (draw(_pairs()), draw(_pairs()), draw(_pairs())))


def _cell(n: int) -> tuple[float, float]:
    """Pole-free cell n of u, the lowest one cut at u = -400."""
    if n == 0:
        return -400.0, 4.0 - POLE_GUARD
    return _cell_interval(4.0 * n * n + 1.0)


_rhos = st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e)
_us = st.one_of(
    st.floats(-1e4, 4.0 - POLE_GUARD), st.just(0.0),
    st.floats(1e-12, 1e-3).flatmap(lambda x: st.sampled_from((x, -x))),
    st.integers(1, 3).flatmap(lambda n: st.floats(*_cell(n))))


def _reference_det(u: float, rho: float, problem: AngularProblem) -> float:
    return float(np.linalg.det(build_matrix(u, rho, problem)))


def _reference_scaled(u: float, rho: float, problem: AngularProblem) -> float:
    """det(build_matrix) over the product of its row maxima."""
    m = build_matrix(u, rho, problem)
    return float(np.linalg.det(m) / np.prod(np.abs(m).max(axis=1)))


def _outcome(f):
    try:
        return np.sign(f())
    except (PoleProximityError, ValueError) as exc:
        return type(exc)


class TestGeneralResidual:
    """The scalar 3x3 residual against det(build_matrix), the slow reference."""

    @settings(max_examples=300, deadline=None)
    @given(problem=_general_problems(), u=_us, rho=_rhos)
    def test_sign_matches_reference(self, problem, u, rho):
        ref = _reference_scaled(u, rho, problem)
        fast = problem.residual(u, rho)
        assert math.isfinite(fast)
        if abs(ref) > 1e-8:
            assert np.sign(fast) == np.sign(ref)

    @example(problem=_problem((4.0, 11.5, 6.75), (PairParams(a=-math.inf),
                                                  PairParams(a=-15.0),
                                                  PairParams(a=21.0))),
             rho=1.0, n=1)
    @example(problem=_problem((4.0, 5.420838100018158, 2.0), (
        PairParams(a=-math.inf, r_eff=1.0, p_shape=0.02),
        PairParams(a=-math.inf, r_eff=1.0, p_shape=0.05),
        PairParams(a=-math.inf, r_eff=11.446741046243114, p_shape=0.05))),
             rho=0.24108892471965102, n=3)
    @settings(max_examples=60, deadline=None)
    @given(problem=_general_problems(), rho=_rhos, n=st.integers(0, 3))
    def test_roots_match_reference(self, problem, rho, n):
        # every root of the fast residual is a root of the reference within
        # rel 1e-12: the reference changes sign across root (1 -+ 1e-12).
        # A scan bracket can hold several roots (the second example: three
        # in [63.93, 64 - 1e-6]), so the reference is probed at the fast
        # root, not solved on the bracket.  Compared only where the
        # reference resolves the root: next to a pole the normalized rows
        # turn parallel and the scaled determinant falls to rounding level
        # (the first example: |slope| * 1e-12 * root is 3e-16 at the root
        # in [4.030, 4.060]), so the bracket ends must stand above 1e-8 and
        # both probes above 1e-14, about 45 ulp
        def fast(u):
            return problem.residual(u, rho)

        us = np.linspace(*_cell(n), 400)
        fs = np.array([fast(u) for u in us])
        for k in np.nonzero(fs[:-1] * fs[1:] < 0.0)[0]:
            lo, hi = us[k], us[k + 1]
            if min(abs(_reference_scaled(x, rho, problem)) for x in (lo, hi)) <= 1e-8:
                continue
            root = brentq(fast, lo, hi, xtol=1e-300, rtol=8.9e-16)
            below, above = (_reference_scaled(root * (1.0 + s), rho, problem)
                            for s in (-1e-12, 1e-12))
            if min(abs(below), abs(above)) <= 1e-14:
                continue
            assert below * above < 0.0

    @settings(max_examples=60, deadline=None)
    @given(problem=_general_problems(), rho=_rhos)
    def test_guards_match_reference(self, problem, rho):
        # u = 0, rho = 0 (only u = 0 is admitted there under the extended
        # boundary condition) and the pole guard band around u = 4, 16
        for r in (0.0, rho):
            for u in (0.0, -2.0, 1.5, 4.0, 16.0 + 0.5 * POLE_GUARD,
                      16.0 + POLE_GUARD):
                assert (_outcome(lambda: problem.residual(u, r))
                        == _outcome(lambda: _reference_det(u, r, problem)))


@st.composite
def _boson_problems(draw):
    """Identical bosons of any mass; extended pairs at P >= 1.5 P_c."""
    kind = draw(st.sampled_from(("bound", "free", "unitary")))
    a = (-math.inf if kind == "unitary"
         else draw(st.floats(2.0, 500.0)) * (-1.0 if kind == "bound" else 1.0))
    if draw(st.booleans()):
        pair = PairParams(a=a)
    else:
        r_eff = draw(st.floats(1.0, 30.0))
        # P_c = 0 past R/|a| = 9/16, and only P > P_c is valid
        pair = PairParams(a=a, r_eff=r_eff, p_shape=1.5 * critical_p_shape(
            a, r_eff) + draw(st.floats(1e-3, 0.3)))
    return AngularProblem(ParticleSystem.identical_bosons(
        draw(st.floats(0.5, 20.0)), pair))


def _boson_reference(u: float, rho: float, problem: AngularProblem) -> float:
    """boson_lhs - _bc_bracket, scaled by max(1, |LHS|, |RHS|)."""
    pair, mu = problem.system.pairs[0], problem.kinematics.mu[0]
    lhs, rhs = boson_lhs(u), _bc_bracket(u, rho, pair, mu)
    return (lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


class TestBosonFastResidual:
    """The precomputed identical-boson residual against boson_lhs and
    _bc_bracket, the slow reference.  Only the lowest cell u < 4 is
    compared: the boson branch never leaves it, and at u = 16 both forms
    lose digits to the 0/0 of C(u) against the sine ratio."""

    @example(problem=AngularProblem(ParticleSystem.identical_bosons(
        HE4_MASS, PairParams(a=HE4_A, r_eff=HE4_REFF, p_shape=HE4_P))),
             u=-1e-14, rho=0.05)
    @settings(max_examples=400, deadline=None)
    @given(problem=_boson_problems(),
           u=st.one_of(st.floats(-1e4, 4.0 - POLE_GUARD), st.just(0.0),
                       st.floats(1e-16, 1e-12).flatmap(
                           lambda x: st.sampled_from((x, -x)))),
           rho=st.floats(math.log(0.05), math.log(4000.0)).map(math.exp))
    def test_matches_reference(self, problem, u, rho):
        assert problem.system.is_identical
        fast = problem.residual(u, rho)
        assert abs(fast - _boson_reference(u, rho, problem)) <= 4e-15

    @settings(max_examples=60, deadline=None)
    @given(problem=_boson_problems(), rho=st.floats(0.05, 4000.0))
    def test_guards_match_reference(self, problem, rho):
        # the guard band around u = 4 and 16 (its edges stay evaluable) and
        # rho = 0, where the extended boundary condition admits only u = 0
        for r in (0.0, rho):
            for u in (0.0, -2.0, 1.5, 4.0 - POLE_GUARD, 4.0 - 0.5 * POLE_GUARD,
                      4.0, 16.0 + 0.5 * POLE_GUARD, 16.0 + POLE_GUARD):
                assert (_outcome(lambda: problem.residual(u, r))
                        == _outcome(lambda: _boson_reference(u, r, problem)))


class TestSolveAtRho:
    def test_regularized_branch_starts_at_zero(self, he4_problem):
        u = trace_branch(np.array([0.01]), he4_problem).u[0]
        assert u == pytest.approx(-3.0917e-5, rel=1e-3)
        assert abs((u - 4.0) + 4.0) < 0.05   # lambda(0.01) = -4 within 0.05

    def test_large_rho_dimer_parabola(self, he4_problem):
        # traced branch at large rho approaches the extended-model parabola
        from zrtrimer import dimer_pole_kappa
        kappa = dimer_pole_kappa(PairParams(a=HE4_A, r_eff=HE4_REFF,
                                            p_shape=HE4_P))
        rho = 6000.0
        u = solve_at_rho(rho, he4_problem, guess=-kappa ** 2 * rho ** 2 / MU4)
        assert u == pytest.approx(-kappa ** 2 * rho ** 2 / MU4, rel=1e-4)

    def test_unitary_unregularized_is_rho_free(self, unitary_problem):
        g = efimov_constant()
        rng = random.Random(5)
        for _ in range(10):
            rho = 10 ** rng.uniform(-2, 4)
            u = solve_at_rho(rho, unitary_problem, guess=-1.0)
            assert u == pytest.approx(-g * g, rel=1e-12)

    def test_no_root_reports_interval(self):
        # a residual without a sign change exhausts the walk
        with pytest.raises(RootSearchError, match=r"searched \[-1, 1\]"):
            _walk(lambda u: 1.0, 0.0, -1.0, 1.0, 0.1, 1.4, 10)


def _lowest_root_by_fine_scan(f, lo: float, hi: float) -> float:
    """Independent oracle: first sign change on a dense grid, then brentq."""
    xs = np.linspace(lo, hi, 20001)
    fs = np.array([f(x) for x in xs])
    k = int(np.nonzero(fs[:-1] * fs[1:] < 0.0)[0][0])
    return brentq(f, xs[k], xs[k + 1], xtol=1e-15, rtol=8.9e-16)


class TestFirstNodeSeed:
    @pytest.mark.parametrize("cfg_name, u_branch, u_mirror", [
        ("he4_cfg", -3.53e-4, 3.28e-4), ("mixed_cfg", -2.81e-4, 2.62e-4)])
    def test_regularized_seed_skips_the_mirror_root(self, request, cfg_name,
                                                    u_branch, u_mirror):
        # at rho = 0.05 a positive root lies closer to zero than the branch
        # root, so only a one-sided downward walk returns the branch
        problem = AngularProblem(request.getfixturevalue(cfg_name).system)
        u0 = trace_branch(np.array([0.05]), problem).u[0]
        assert u0 == pytest.approx(u_branch, rel=0.01)
        f = problem.residual
        mirror = brentq(lambda u: f(u, 0.05), 1e-6, 1e-3, xtol=1e-15)
        assert mirror == pytest.approx(u_mirror, rel=0.01)
        assert 0.0 < mirror < abs(u0)

    @pytest.mark.parametrize("cfg_name", ["he4_cfg", "mixed_cfg"])
    def test_regularized_seed_independent_of_first_step(self, request,
                                                         cfg_name):
        # the refine is relative, so the first-node root near u = -3e-4 is
        # fixed to a few ulp whichever bracket the walk hands it
        problem = AngularProblem(request.getfixturevalue(cfg_name).system)
        f = problem.residual
        roots = np.array([
            _walk(lambda u: f(u, 0.05), -1e-14, -1e12, -1e-14, h0, 1.25, 400)
            for h0 in (1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 5e-8,
                       1e-7, 2e-7)])
        assert np.ptp(roots) <= 4 * np.spacing(np.abs(roots).max())

    @pytest.mark.parametrize("rho", [0.05, 3.0, 120.0, 2500.0])
    def test_window_seed_matches_fine_scan(self, rho):
        # the zero-range He4 pair: the bare boundary condition
        system = ParticleSystem.identical_bosons(HE4_MASS, PairParams(a=HE4_A))
        problem = AngularProblem(system)
        u0 = trace_branch(np.array([rho]), problem).u[0]
        # below u = -(rho/(sqrt(mu)|a|))^2 the bare residual keeps one sign
        x = rho / (math.sqrt(MU4) * abs(HE4_A))
        expected = _lowest_root_by_fine_scan(
            lambda u: boson_residual(u, rho, PairParams(a=HE4_A), MU4),
            -((x + 40.0) ** 2), 4.0 - POLE_GUARD)
        assert u0 == pytest.approx(expected, rel=1e-12)

    def test_unitary_bare_trace_is_efimov(self, unitary_problem):
        g = efimov_constant()
        for rho0 in (1e-3, 1.0, 1e4):
            branch = trace_branch(rho0 * np.array([1.0, 2.0, 4.0]),
                                  unitary_problem)
            assert np.allclose(branch.u, -g * g, rtol=1e-14, atol=0.0)


class TestTraceBranch:
    def test_single_node(self, he4_problem):
        branch = trace_branch(np.array([1.0]), he4_problem)
        assert len(branch) == 1
        assert branch.lam[0] == branch.u[0] - 4.0

    def test_he4_branch_shape(self, he4_branch_potential):
        branch, _ = he4_branch_potential
        lam = branch.lam
        rho = branch.rho
        # starts at lambda(0) = -4 and heads down
        assert abs(lam[0] + 4.0) < 1e-3
        # dip near rho ~ 26 au, local maximum near rho ~ 63 au; frozen from
        # the converged curve (consistent with the published figure)
        window = (rho > 5) & (rho < 60)
        k = lam[window].argmin()
        assert lam[window][k] == pytest.approx(-6.004, abs=0.05)
        assert 15.0 < rho[window][k] < 40.0
        hump = (rho > 30) & (rho < 150)
        k2 = lam[hump].argmax()
        assert lam[hump][k2] == pytest.approx(-5.775, abs=0.05)
        # ends on the dimer parabola
        assert lam[-1] == pytest.approx(-245.705, rel=1e-3)
        # every accepted root stays clear of the normalization poles
        assert np.all(branch.u < 4.0 - POLE_GUARD)

    @pytest.mark.parametrize("cfg_name", ["he4_cfg", "mixed_cfg"])
    def test_residuals_small(self, request, cfg_name):
        _, branch = trace_for_config(request.getfixturevalue(cfg_name))
        assert np.max(np.abs(branch.residuals)) < 1e-10

    @pytest.mark.parametrize("cfg_name", ["he4_cfg", "mixed_cfg"])
    def test_residual_bound_enforced(self, request, cfg_name, monkeypatch):
        # a root 1e-6 relative off passes the continuation's trust test but
        # not the residual bound
        problem = AngularProblem(request.getfixturevalue(cfg_name).system)
        solve = angular.solve_at_rho
        monkeypatch.setattr(angular, "solve_at_rho",
                            lambda rho, prob, guess, step=None:
                            solve(rho, prob, guess, step) * (1.0 + 1e-6))
        with pytest.raises(SolverError, match="branch residual"):
            trace_branch(np.array([1.0, 2.0]), problem)

    @pytest.mark.parametrize("cfg_name", ["he4_cfg", "mixed_cfg"])
    def test_work_per_node(self, request, cfg_name, monkeypatch):
        # the cost of the continuation in residual evaluations, which no
        # machine changes: a linear predictor with a fixed first rung of
        # 1e-4 (1 + |guess|) took 11.45 (He4) and 12.71 (mixed) per node;
        # the quadratic predictor with a rung sized by the last miss, 9.00
        # and 9.22; a refine that reuses the bracket's end values, 7.00 and
        # 7.22
        cfg = request.getfixturevalue(cfg_name)
        problem = AngularProblem(cfg.system)
        f = problem.residual
        evals, solves = [], []

        def counted(u, rho):
            evals.append(u)
            return f(u, rho)

        def solve(*args):
            solves.append(args[0])
            return solve_at_rho(*args)
        monkeypatch.setitem(problem.__dict__, "residual", counted)
        monkeypatch.setattr(angular, "solve_at_rho", solve)
        grid = np.exp(np.linspace(math.log(cfg.rho_min),
                                  math.log(cfg.rho_max), cfg.n))
        trace_branch(grid, problem)
        assert len(solves) == len(grid) - 1     # no step was halved
        assert len(evals) / len(grid) <= 7.5

    @pytest.mark.parametrize("cfg_name", ["he4_cfg", "mixed_cfg"])
    def test_residual_sees_builtin_floats(self, request, cfg_name,
                                          monkeypatch):
        # the elements of a numpy grid are np.float64; one that reaches the
        # residual spreads through every Brent iterate into the
        # continuation history and slows each later scalar operation
        cfg = request.getfixturevalue(cfg_name)
        problem = AngularProblem(cfg.system)
        f = problem.residual
        types = []

        def counted(u, rho):
            types.append((type(u), type(rho)))
            return f(u, rho)
        monkeypatch.setitem(problem.__dict__, "residual", counted)
        grid = np.exp(np.linspace(math.log(cfg.rho_min),
                                  math.log(cfg.rho_max), cfg.n))
        trace_branch(grid, problem)
        assert len(types) > 5 * len(grid)
        assert set(types) == {(float, float)}

    def test_guess_past_a_pole_is_halved(self, he4_cfg):
        # 3% above P_c the branch turns sharply near rho = 31 (u from -16.1
        # to -2.5 over one step); the quadratic through that turn predicts
        # u = 28.5, past the pole at u = 4, where roots exist too.  The step
        # is halved instead of solved, so the branch stays below u = 4
        pair = PairParams(a=-283.11979224319674, r_eff=15.193146209123897,
                          p_shape=0.019854070761837674)
        problem = AngularProblem(ParticleSystem.identical_bosons(HE4_MASS,
                                                                 pair))
        grid = np.exp(np.linspace(math.log(he4_cfg.rho_min),
                                  math.log(he4_cfg.rho_max), he4_cfg.n))
        branch = trace_branch(grid, problem)
        assert np.all(branch.u < 4.0 - POLE_GUARD)

    def test_continuity_under_refinement(self, he4_problem):
        coarse = np.exp(np.linspace(math.log(0.05), math.log(400.0), 41))
        fine = np.exp(np.linspace(math.log(0.05), math.log(400.0), 81))
        b1 = trace_branch(coarse, he4_problem)
        b2 = trace_branch(fine, he4_problem)
        shared = b2.u[::2]
        assert np.allclose(shared, b1.u, rtol=1e-8, atol=1e-14)

    def test_node_to_node_steps_bounded(self, he4_branch_potential):
        branch, _ = he4_branch_potential
        du = np.abs(np.diff(branch.u))
        bound = np.maximum(0.5, 0.3 * np.abs(branch.u[:-1]))
        assert np.all(du <= bound)

    def test_bare_trace_keeps_thomas_root(self, bare_he4_problem):
        # without regularization the imaginary root survives at rho -> 0
        g = efimov_constant()
        branch = trace_branch(np.array([1e-4, 2e-4, 4e-4]), bare_he4_problem)
        assert np.allclose(branch.u, -g * g, rtol=1e-3)

    def test_grid_validation(self, he4_problem):
        with pytest.raises(ValueError):
            trace_branch(np.array([2.0, 1.0]), he4_problem)
        with pytest.raises(ValueError):
            trace_branch(np.array([]), he4_problem)


class TestAsymptotics:
    def test_free_branch_limit(self):
        pair = PairParams(a=33.261)
        assert nu2_asymptotic(1e12, pair, 1.72, "free") == pytest.approx(4.0, rel=1e-9)

    def test_bound_branch_parabola(self, bare_he4_pair):
        rho = 1e6
        u = nu2_asymptotic(rho, bare_he4_pair, MU4, "bound")
        assert u / rho ** 2 == pytest.approx(-1.0 / (MU4 * HE4_A ** 2), rel=1e-9)

    def test_bound_requires_dimer(self):
        with pytest.raises(ValueError):
            nu2_asymptotic(100.0, PairParams(a=33.261), 1.72, "bound")

    def test_traced_vs_asymptotic_at_50a(self, bare_he4_trace, bare_he4_pair):
        _, branch = bare_he4_trace
        rho_star = 50.0 * abs(HE4_A)
        k = int(np.argmin(np.abs(branch.rho - rho_star)))
        u_asym = nu2_asymptotic(float(branch.rho[k]), bare_he4_pair, MU4, "bound")
        assert abs(branch.u[k] - u_asym) / abs(branch.u[k]) < 0.01

    def test_dimer_channel_matches_bare_form(self, bare_he4_pair):
        # with kappa = 1/|a| the generic channel tail is the printed formula
        rho = 3000.0
        assert dimer_channel_u(rho, 1 / abs(HE4_A), MU4) == pytest.approx(
            nu2_asymptotic(rho, bare_he4_pair, MU4, "bound"), rel=1e-14)
