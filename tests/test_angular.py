import cmath
import contextlib
import dataclasses
import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq

from zrtrimer import (
    AngularProblem,
    BranchFoldError,
    PairParams,
    ParticleSystem,
    PoleProximityError,
    SolverError,
    critical_p_shape,
    dimer_pole_kappa,
    efimov_constant,
    trace_branch,
)
from zrtrimer import angular
from zrtrimer.angular import (
    POLE_GUARD,
    RootSearchError,
    _cell_interval,
    _walk,
    dimer_channel_u,
    solve_at_rho,
)
from zrtrimer.cli import potential_for_config
from zrtrimer.potential import effective_potential
from zrtrimer.radial import solve_bound_states
from zrtrimer.system import BRENT_RTOL

from reference import (_bc_bracket, boson_lhs, boson_residual, build_matrix,
                       nu2_asymptotic, nu_cot_half_pi, sin_ratio)
from trimer_params import (HE4_A, HE4_MASS, HE4_P, HE4_REFF, MU4,
                           POLE_NOT_BARE)


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
            u_boson = trace_branch(np.array([rho]), he4_problem).u[0]
            def sym_factor(u):
                m = build_matrix(u, rho, he4_problem)
                return m[0, 0] + 2 * m[0, 1]
            u_det = brentq(sym_factor, u_boson - 0.5, u_boson + 0.5, xtol=1e-13)
            assert u_det == pytest.approx(u_boson, rel=1e-9)

    def test_equivalent_pairs_branch_is_the_exchange_symmetric_root(
            self, mixed_cfg):
        # masses m, m, m3 whose two equivalent pairs hold the deepest dimer,
        # the draw lost near rho = 2404.84 (test_cli.py): D00 = D11 = d,
        # D01 = o, D02 = D12 = o' and det D = (d - o) [(d + o) d2 - 2 o'^2].
        # The branch is the root of the exchange-symmetric factor.  The
        # antisymmetric factor d - o, states identical bosons do not have,
        # has a root 1.9e-3 from it at rho = 902.4 and 4.4e-10 (7.5e-13
        # relative) at rho = 2230.0, node 568 of the bundled grid
        pair12 = PairParams(a=-88.44246659974456, r_eff=11.21975241711873,
                            p_shape=0.055017915821676915)
        pair3 = PairParams(a=-268.8208135368905, r_eff=9.7498766326102,
                           p_shape=0.031347847544656166)
        m, m3 = 2.198341454699369, 2.8185799707724204
        problem = AngularProblem(dataclasses.replace(
            mixed_cfg.system, masses=(m, m, m3),
            pairs=(pair12, pair12, pair3)))
        grid = _grid_of(mixed_cfg)[:569]
        rho, u = grid[-1].item(), trace_branch(grid, problem).u[-1].item()
        assert rho == pytest.approx(2230.03, abs=0.01)

        def factors(x):
            d = build_matrix(x, rho, problem)
            assert d[0, 0] == d[1, 1] and d[0, 2] == d[1, 2]
            return (d[0, 0] - d[0, 1],
                    (d[0, 0] + d[0, 1]) * d[2, 2] - 2.0 * d[0, 2] ** 2)
        (anti_lo, sym_lo), (anti_hi, sym_hi) = (
            factors(u * (1.0 + s * 1e-14)) for s in (1.0, -1.0))
        assert sym_lo * sym_hi < 0.0 and anti_lo * anti_hi > 0.0
        anti = brentq(lambda x: factors(x)[0], u * (1.0 - 1e-14),
                      u * (1.0 - 1e-11), xtol=1e-300)
        assert anti - u == pytest.approx(4.42e-10, rel=0.01)

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


_cell0_points = st.lists(st.tuples(
    st.one_of(st.floats(-1e4, 4.0 - POLE_GUARD), st.just(0.0),
              st.floats(1e-16, 1e-3).flatmap(
                  lambda x: st.sampled_from((x, -x)))),
    _rhos), min_size=1, max_size=8)


def _assert_array_matches_scalar(problem, points):
    """residual_array on a batch of (u, rho) against the scalar residual
    point by point: np.sin and np.exp may differ from math in the last
    bit, which moves the scaled residual by at most a few 1e-16."""
    u, rho = (np.array(v) for v in zip(*points))
    got = problem.residual_array(u, rho)
    want = np.array([problem.residual(*p) for p in points])
    assert np.all(np.abs(got - want) <= 4e-15)


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

    @settings(max_examples=200, deadline=None)
    @given(problem=_general_problems(), points=_cell0_points)
    def test_array_form_matches_scalar(self, problem, points):
        _assert_array_matches_scalar(problem, points)

    @settings(max_examples=60, deadline=None)
    @given(problem=_general_problems(), rho=_rhos)
    def test_guards_match_reference(self, problem, rho):
        # u = 0 and the pole guard band around u = 4, 16, at rho > 0: the
        # residual forms take no rho = 0, which no grid holds
        for u in (0.0, -2.0, 1.5, 4.0, 16.0 + 0.5 * POLE_GUARD,
                  16.0 + POLE_GUARD):
            assert (_outcome(lambda: problem.residual(u, rho))
                    == _outcome(lambda: _reference_det(u, rho, problem)))


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

    @settings(max_examples=200, deadline=None)
    @given(problem=_boson_problems(), points=_cell0_points)
    def test_array_form_matches_scalar(self, problem, points):
        _assert_array_matches_scalar(problem, points)

    @settings(max_examples=60, deadline=None)
    @given(problem=_boson_problems(), rho=st.floats(0.05, 4000.0))
    def test_guards_match_reference(self, problem, rho):
        # the guard band around u = 4 and 16 (its edges stay evaluable), at
        # rho > 0: the residual forms take no rho = 0, which no grid holds
        for u in (0.0, -2.0, 1.5, 4.0 - POLE_GUARD, 4.0 - 0.5 * POLE_GUARD,
                  4.0, 16.0 + 0.5 * POLE_GUARD, 16.0 + POLE_GUARD):
            assert (_outcome(lambda: problem.residual(u, rho))
                    == _outcome(lambda: _boson_reference(u, rho, problem)))


@st.composite
def _pair_problems(draw):
    """Two identical particles of mass 4 and a third of mass ratio 0.2-5,
    the third at any index, with independent pairs."""
    mass3 = 4.0 * draw(st.floats(0.2, 5.0))
    assume(mass3 != 4.0)
    return _placed(draw(st.integers(0, 2)), 4.0, mass3, draw(_pairs()),
                   draw(_pairs()))


def _placed(k, mass, mass3, pair, pair3) -> AngularProblem:
    """Particles of mass `mass` facing `pair`, but particle k, of mass
    mass3 facing pair3."""
    masses, pairs = [mass] * 3, [pair] * 3
    masses[k], pairs[k] = mass3, pair3
    return _problem(tuple(masses), tuple(pairs))


def _pair_reference(u: float, rho: float, problem: AngularProblem) -> float:
    """(D_ii + D_ij) D_kk - 2 D_ik D_ki from build_matrix, k the odd
    particle out, over max(|C|, |bc_i|, |D_ij|, |D_ik|) max(|C|, |bc_k|,
    |D_ki|)."""
    masses = problem.system.masses
    k = next(n for n in range(3) if masses.count(masses[n]) == 1)
    i, j = (n for n in range(3) if n != k)
    m = build_matrix(u, rho, problem)
    c = nu_cot_half_pi(u)
    b_i, b_k = (_bc_bracket(u, rho, problem.system.pairs[n],
                            problem.kinematics.mu[n]) for n in (i, k))
    scale = (max(abs(c), abs(b_i), abs(m[i, j]), abs(m[i, k]))
             * max(abs(c), abs(b_k), abs(m[k, i])))
    return ((m[i, i] + m[i, j]) * m[k, k] - 2.0 * m[i, k] * m[k, i]) / scale


class TestPairResidual:
    """The exchange-symmetric residual of two identical particles against
    its factor of build_matrix, the slow reference."""

    @settings(max_examples=300, deadline=None)
    @given(problem=_pair_problems(), u=_us, rho=_rhos)
    def test_matches_reference(self, problem, u, rho):
        # the reference's angles come from the masses in their own order,
        # a few ulp off the residual's: 1.6e-15 at worst over 9000 draws
        fast = problem.residual(u, rho)
        assert abs(fast - _pair_reference(u, rho, problem)) <= 1.6e-14

    @settings(max_examples=200, deadline=None)
    @given(problem=_pair_problems(), points=_cell0_points)
    def test_array_form_matches_scalar(self, problem, points):
        _assert_array_matches_scalar(problem, points)

    @settings(max_examples=60, deadline=None)
    @given(problem=_pair_problems(), rho=_rhos)
    def test_guards_match_reference(self, problem, rho):
        # u = 0 and the pole guard band around u = 4, 16, at rho > 0: the
        # residual forms take no rho = 0, which no grid holds
        for u in (0.0, -2.0, 1.5, 4.0, 16.0 + 0.5 * POLE_GUARD,
                  16.0 + POLE_GUARD):
            assert (_outcome(lambda: problem.residual(u, rho))
                    == _outcome(lambda: _pair_reference(u, rho, problem)))

    @settings(max_examples=60, deadline=None)
    @given(mass=st.floats(0.8, 20.0), mass3=st.floats(0.8, 20.0),
           pair=_pairs(), pair3=_pairs(), points=_cell0_points)
    def test_same_at_every_index(self, mass, mass3, pair, pair3, points):
        # built from the masses in one order, whatever indices the
        # identical pair takes: equal bit for bit, scalar and array
        assume(mass != mass3)
        u, rho = (np.array(v) for v in zip(*points))
        scalars, arrays = [], []
        for k in range(3):
            problem = _placed(k, mass, mass3, pair, pair3)
            scalars.append([problem.residual(*p) for p in points])
            arrays.append(problem.residual_array(u, rho))
        assert scalars[0] == scalars[1] == scalars[2]
        assert np.array_equal(arrays[0], arrays[1])
        assert np.array_equal(arrays[0], arrays[2])


class TestMaskFreeArrays:
    """residual_array on arrays whose every u is below 0, the bound branch
    of every lockstep, evaluates the u < 0 forms on the whole arrays with
    no mask: bit for bit the masked evaluation, which one u > 0 appended
    to the same arrays forces."""

    @settings(max_examples=60, deadline=None)
    @given(problem=st.one_of(_boson_problems(), _pair_problems(),
                             _general_problems()),
           n=st.integers(1, 600), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_masked(self, problem, n, seed):
        rng = np.random.default_rng(seed)
        u = -(10.0 ** rng.uniform(-16.0, 4.0, n))
        rho = 10.0 ** rng.uniform(-3.0, 4.0, n)
        masked = problem.residual_array(np.append(u, 1.0),
                                        np.append(rho, 1.0))
        assert np.array_equal(problem.residual_array(u, rho), masked[:-1])


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
        u = trace_branch(np.array([rho]), he4_problem).u[0]
        assert u == pytest.approx(-kappa ** 2 * rho ** 2 / MU4, rel=1e-4)

    def test_unitary_unregularized_is_rho_free(self, unitary_problem):
        g = efimov_constant()
        rng = random.Random(5)
        for _ in range(10):
            rho = 10 ** rng.uniform(-2, 4)
            u = trace_branch(np.array([rho]), unitary_problem).u[0]
            assert u == pytest.approx(-g * g, rel=1e-12)

    def test_no_root_reports_interval(self):
        # a residual without a sign change walks down to its window's
        # floor, and the message names the side it searched
        with pytest.raises(RootSearchError, match=r"searched \[-1, 0\]"):
            _walk(lambda u: 1.0, 0.0, -1.0, 1.0, 0.1, 1.4, 10, above=1.0)

    def test_second_rung_reaches_past_the_secant_root(self):
        # a ladder from 1e-4 grown by 1.4 a rung would take 25 rungs to
        # reach a root 1 away; sized by the slope across the first rung,
        # the second reaches 1.25 past the start
        calls = []

        def f(u):
            calls.append(u)
            return u - 1.0
        root = _walk(f, 0.0, -math.inf, 4.0, 1e-4, 1.4, 400, above=1.0)[0]
        assert root == pytest.approx(1.0, rel=1e-15)
        assert len(calls) <= 8 and min(calls) == 0.0     # up only

    @pytest.mark.parametrize("pair", [(0.37, 0.42), (0.38, 0.40)])
    def test_rungs_past_the_reach_split_a_pair_of_roots(self, pair):
        # the secant puts the root about 0.2 away, short of a pair of
        # roots.  The ladder from 1e-3 grown by 1.4 has rungs ending at
        # 0.1973, 0.2773 and 0.3893, which split the pair; a rung grown by
        # 1.4 from one merged up to 1.25 x 0.2 would span it and miss both
        a, b = pair
        root = _walk(lambda u: (u - a) * (u - b), 0.0, -math.inf, 4.0, 1e-3,
                     1.4, 400, above=-1.0)[0]
        assert root == pytest.approx(a, rel=1e-15)


def _lowest_root_by_fine_scan(f, lo: float, hi: float) -> float:
    """Independent oracle: first sign change on a dense grid, then brentq."""
    xs = np.linspace(lo, hi, 20001)
    fs = np.array([f(x) for x in xs])
    k = int(np.nonzero(fs[:-1] * fs[1:] < 0.0)[0][0])
    return brentq(f, xs[k], xs[k + 1], xtol=1e-15, rtol=8.9e-16)


def _lower_roots(problem: AngularProblem, branch) -> list[int]:
    """Independent check that a traced branch is the lowest root: the
    nodes below whose u the residual changes sign.  At each node
    `residual_array` is evaluated on 4000 points from -(1.5 rho s + 20)^2
    up to u - 1e-7 (1 + |u|), s the largest kappa/sqrt(mu) over the bound
    pairs (1/(|a| sqrt(mu)) for a bare pair), below which no root lies."""
    s = max((dimer_pole_kappa(pair) / math.sqrt(mu)
             for pair, mu in zip(problem.system.pairs, problem.kinematics.mu)
             if pair.has_bound_dimer), default=0.0)
    t = np.linspace(0.0, 1.0, 4000)
    lower = []
    for k in range(0, len(branch), 50):    # 200k points an array call
        rho = branch.rho[k:k + 50, None]
        u = branch.u[k:k + 50, None]
        floor = -(1.5 * rho * s + 20.0) ** 2
        us = floor + (u - 1e-7 * (1.0 + np.abs(u)) - floor) * t
        fs = problem.residual_array(us.ravel(), np.broadcast_to(
            rho, us.shape).ravel()).reshape(us.shape)
        lower += (k + np.flatnonzero(
            (np.diff(np.sign(fs), axis=1) != 0).any(axis=1))).tolist()
    return lower


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
            _walk(lambda u: f(u, 0.05), -1e-14, -1e12, -1e-14, h0, 1.25,
                  400)[0]
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

    @pytest.mark.parametrize("cfg_name, expected_calls",
                             [("he4_cfg", 16), ("mixed_cfg", 18)])
    def test_merged_walk_finds_the_ladder_root(self, request, cfg_name,
                                               expected_calls, monkeypatch):
        # the extended walk down from -1e-14 merges its rungs after the
        # first up to NEWTON_REACH past the secant's root: at rho = 0.05
        # it takes 16 (He4) and 18 (mixed) residual calls where the 1.25x
        # ladder from 5e-8 takes 40, and finds the ladder's root within
        # 2 BRENT_RTOL
        problem = AngularProblem(request.getfixturevalue(cfg_name).system)
        f = problem.residual
        calls = []

        def counted(u, rho):
            calls.append(rho)
            return f(u, rho)
        problem.__dict__["residual"] = counted
        rhos = (0.01, 0.05, 0.5, 5.0, 50.0)
        merged = [angular._first_node_u(rho, problem) for rho in rhos]
        merged_calls = calls.count(0.05)
        monkeypatch.setattr(angular, "NEWTON_REACH", 0.0)
        ladder = [angular._first_node_u(rho, problem) for rho in rhos]
        assert (merged_calls, calls.count(0.05) - merged_calls) == (
            expected_calls, 40)
        for (u, r, above, _), (v, _, ladder_above, _) in zip(merged, ladder):
            assert abs(u - v) <= 2.0 * BRENT_RTOL * abs(v)
            assert abs(r) <= angular.MAX_RESIDUAL
            assert above == ladder_above

    @pytest.mark.parametrize("rho", [0.05, 3.0, 120.0, 2500.0])
    def test_floor_walk_is_not_merged(self, he4_problem, bare_he4_problem,
                                      unitary_problem, rho, monkeypatch):
        # the walk up from the window's floor (a bare pair, or rho past
        # 0.3 sqrt(mu)|a|) keeps its uniform rungs, which find the most
        # negative root: bit for bit what it gives with no merge at all
        problems = [bare_he4_problem, unitary_problem]
        if rho > 100.0:
            problems.append(he4_problem)
        merged = [angular._first_node_u(rho, p) for p in problems]
        monkeypatch.setattr(angular, "NEWTON_REACH", 0.0)
        assert merged == [angular._first_node_u(rho, p) for p in problems]


class TestTraceBranch:
    @pytest.mark.parametrize("grid", [
        [1.0], [1.0, 2.0], [1.0, 2.0, 4.0], [0.05, 4000.0],
        np.exp(np.linspace(np.log(0.05), np.log(4000.0), 9))])
    def test_single_node(self, he4_problem, grid):
        # and grids too short for the quadratic predictor of `_verify`, or
        # too coarse for its jump test
        branch = trace_branch(np.array(grid), he4_problem)
        assert len(branch) == len(grid)
        assert np.all(branch.lam == branch.u - 4.0)

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
        cfg = request.getfixturevalue(cfg_name)
        branch = potential_for_config(cfg).branch
        assert np.max(np.abs(branch.residuals)) < 1e-10

    @pytest.mark.parametrize("cfg_name", ["he4_cfg", "mixed_cfg"])
    def test_residual_bound_enforced(self, request, cfg_name, monkeypatch):
        # a root 1e-6 relative off passes the continuation's trust test but
        # not the residual bound
        problem = AngularProblem(request.getfixturevalue(cfg_name).system)
        solve = angular.solve_at_rho

        def off_root(rho, prob, guess, step=None, **kwargs):
            u, _, above, _ = solve(rho, prob, guess, step, **kwargs)
            u *= 1.0 + 1e-6
            return u, prob.residual(u, rho), above, None
        monkeypatch.setattr(angular, "solve_at_rho", off_root)
        with pytest.raises(SolverError, match="branch residual"):
            trace_branch(np.array([1.0, 2.0]), problem)

    @pytest.mark.parametrize("cfg_name, calls, scalar, points", [
        ("he4_cfg", 11, 0.51, 6.51), ("mixed_cfg", 11, 0.54, 7.23),
        ("distinct_cfg", 13, 0.52, 7.33)],
        ids=["he4_cfg", "mixed_cfg", "distinct_cfg"])
    def test_work_per_node(self, request, cfg_name, calls, scalar, points):
        # the cost of the trace in residual evaluations, which no machine
        # changes, on each residual form: the boson equation, the
        # exchange-symmetric factor and the 3x3 determinant.  The walk on
        # 87 coarse nodes, 71, 67 and 73 of them handed to the lockstep
        # unrefined, and the other 513 in lockstep take 0.50, 0.54 and
        # 0.51 scalar calls per node (302 He4, 323 mixed and 308 distinct
        # a trace, 16, 19 and 18 of them the first node's; 596, 592 and
        # 633 with every coarse node refined by its walk and the first
        # node's ladder unmerged) and 6.51, 7.22 and 7.32 array points
        # (3903, 4333 and 4394), in 11, 11 and 13 array calls: 5 bracket
        # rounds and 6, 6 and 8 regula falsi rounds
        cfg = request.getfixturevalue(cfg_name)
        problem = AngularProblem(cfg.system)
        scalar_calls, array_sizes, seen = _counted_residuals(problem)
        grid = _grid_of(cfg)
        with _counted_solves() as solves:
            branch = trace_branch(grid, problem)
        # one solve per coarse step: none was halved, no node fell back
        assert len(solves) == 86
        assert len(array_sizes) <= calls
        assert len(scalar_calls) / len(grid) <= scalar
        assert sum(array_sizes) / len(grid) <= points
        # each stored residual was evaluated at its stored u, bit for bit
        for u, rho, r in zip(branch.u.tolist(), grid.tolist(),
                             branch.residuals.tolist()):
            assert r in seen[u, rho]

    @pytest.mark.parametrize("cfg_name", ["he4_cfg", "mixed_cfg"])
    def test_residual_sees_builtin_floats(self, request, cfg_name,
                                          monkeypatch):
        # the elements of a numpy grid are np.float64; one that reaches the
        # scalar residual spreads through every Brent iterate into the
        # continuation history and slows each later scalar operation.  The
        # scalar calls are the coarse walk's, 302 (He4) and 323 (mixed)
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
        assert len(types) > 250
        assert set(types) == {(float, float)}

    @pytest.mark.parametrize("cfg_name",
                             ["he4_cfg", "mixed_cfg", "distinct_cfg"])
    def test_branch_is_the_lowest_root(self, request, cfg_name):
        # `_verify` cannot tell a higher root from the branch; with
        # COARSE_STEP = 0.3 the distinct trace follows one over 69 nodes
        cfg = request.getfixturevalue(cfg_name)
        problem = AngularProblem(cfg.system)
        assert _lower_roots(problem, trace_branch(_grid_of(cfg),
                                                  problem)) == []

    @pytest.mark.parametrize("cfg_name",
                             ["he4_cfg", "mixed_cfg", "distinct_cfg"])
    @pytest.mark.parametrize("rho_min", [None, 3.0])
    def test_handed_nodes_close_in_the_lockstep(self, request, cfg_name,
                                                rho_min):
        # a coarse node from the fourth on whose walk bracket is at most
        # HANDOVER_WIDTH |g - u_prev| wide is not refined by the walk but
        # closed with the fine nodes: its root lies in the walk's bracket
        # with a point of the other sign evaluated within 2 BRENT_RTOL |u|,
        # and its residual is within MAX_RESIDUAL.  On the bundled grid
        # and on 300 nodes from rho = 3, where the He4 and mixed third
        # nodes' brackets are that narrow too, but are refined: the linear
        # prediction from two nodes is no measure
        cfg = request.getfixturevalue(cfg_name)
        problem = AngularProblem(cfg.system)
        _, _, seen = _counted_residuals(problem)
        grid = _grid_of(cfg) if rho_min is None else np.exp(np.linspace(
            math.log(rho_min), math.log(cfg.rho_max), 300))
        with _handed_over() as handed, _counted_solves() as solves:
            branch = trace_branch(grid, problem)
        assert len(handed) > 0.6 * len(solves)
        nodes = grid.tolist()
        for rho, a, b in handed:
            assert rho in solves[2:]
            k = nodes.index(rho)
            u, r = branch.u[k], branch.residuals[k]
            assert a <= u <= b and abs(r) <= angular.MAX_RESIDUAL
            assert r == 0.0 or any(
                (g < 0.0) != (r < 0.0)
                and abs(v - u) <= 2.0 * BRENT_RTOL * max(abs(u), abs(v))
                for (v, at), values in seen.items() if at == rho
                for g in values)

    def test_handed_residual_bound_enforced(self, he4_cfg, monkeypatch):
        # the lockstep's residual at a handed-over coarse node is held to
        # MAX_RESIDUAL like every other
        lockstep, spoiled = angular._lockstep, []

        def altered(problem, rho, guess, width=None, ends=None):
            u, res = lockstep(problem, rho, guess, width, ends)
            k = np.flatnonzero(~np.isnan(ends[0]))[0]
            res[k] = 2e-10
            spoiled.append(rho[k])
            return u, res
        monkeypatch.setattr(angular, "_lockstep", altered)
        with pytest.raises(SolverError, match="branch residual 2e-10") as err:
            trace_branch(_grid_of(he4_cfg), AngularProblem(he4_cfg.system))
        assert f"at rho = {spoiled[0]:g}, u = " in str(err.value)

    @pytest.mark.parametrize("zero_at", [0, 1])
    def test_exact_zero_keeps_the_walk_value(self, he4_cfg, zero_at):
        # a walk that meets an exact zero of the residual, at its start
        # (zero_at 0) or on its first rung (1), returns that u with the
        # residual 0; a coarse node it happens at keeps both, where it
        # would have been handed over, and no other walk runs there
        grid = _grid_of(he4_cfg)
        with _handed_over() as handed:
            trace_branch(grid, AngularProblem(he4_cfg.system))
        target = handed[10][0]
        problem = AngularProblem(he4_cfg.system)
        f, calls = problem.residual, []

        def stub(u, rho):
            if rho == target:
                calls.append(u)
                if len(calls) == zero_at + 1:
                    return 0.0
            return f(u, rho)
        problem.__dict__["residual"] = stub
        with _handed_over() as handed:
            branch = trace_branch(grid, problem)
        k = grid.tolist().index(target)
        assert len(calls) == zero_at + 1
        assert branch.u[k] == calls[-1] and branch.residuals[k] == 0.0
        assert target not in [rho for rho, _, _ in handed]

    @pytest.mark.parametrize("cfg_name", ["he4_cfg", "mixed_cfg"])
    def test_lost_node_continues_every_node(self, request, cfg_name):
        # a residual without a sign change near any guess: the lockstep
        # loses its nodes, and the whole grid is continued node by node
        cfg = request.getfixturevalue(cfg_name)
        grid = _grid_of(cfg)
        want = trace_branch(grid, AngularProblem(cfg.system))
        problem = AngularProblem(cfg.system)
        problem.__dict__["residual_array"] = lambda u, rho: np.ones_like(u)
        with _counted_solves() as solves:
            got = trace_branch(grid, problem)
        assert solves[86:] == grid[1:].tolist()
        np.testing.assert_allclose(got.u, want.u, rtol=1e-13, atol=0.0)
        assert np.max(np.abs(got.residuals)) <= angular.MAX_RESIDUAL

    def test_walk_without_a_sign_change_halves_the_step(self, he4_cfg,
                                                         monkeypatch):
        # a coarse node whose one-way walk finds no sign change
        # (RootSearchError) is retried after a half step, and the branch
        # is the default one.  The node, handed to the lockstep in the
        # default trace, is refined by its walk after the halving
        grid = _grid_of(he4_cfg)
        with _counted_solves() as coarse, _handed_over() as handed:
            want = trace_branch(grid, AngularProblem(he4_cfg.system))
        target, solves = coarse[40], []
        assert target in [rho for rho, _, _ in handed]

        def solve(rho, *args, **kwargs):
            solves.append((rho, kwargs["above"]))
            if len(solves) == 41:   # the first solve at coarse[40]
                raise RootSearchError("no sign change")
            return solve_at_rho(rho, *args, **kwargs)
        monkeypatch.setattr(angular, "solve_at_rho", solve)
        with _handed_over() as handed:
            got = trace_branch(grid, AngularProblem(he4_cfg.system))
        assert target not in [rho for rho, _, _ in handed]
        above = solves[39][1]
        assert above is not None    # walked one way
        assert solves[40:43] == [(target, above),
                                 (0.5 * (coarse[39] + target), above),
                                 (target, above)]
        assert len(solves) == len(coarse) + 2
        np.testing.assert_allclose(got.u, want.u, rtol=1e-13, atol=0.0)
        assert np.max(np.abs(got.residuals)) <= angular.MAX_RESIDUAL

    def test_open_node_at_the_round_cap_continues_every_node(
            self, he4_cfg, monkeypatch):
        # a node regula falsi leaves open after BRENT_MAXITER rounds is
        # lost like a node with no root near its guess: with the cap at one
        # round the lockstep keeps no node, and the whole grid is continued
        # node by node.  The lockstep reads the array residual only
        grid = _grid_of(he4_cfg)
        want = trace_branch(grid, AngularProblem(he4_cfg.system))
        problem = AngularProblem(he4_cfg.system)
        scalar_calls, _, _ = _counted_residuals(problem)
        lockstep, found = angular._lockstep, []

        def recorded(*args, **kwargs):
            before = len(scalar_calls)
            found.append(lockstep(*args, **kwargs))
            assert len(scalar_calls) == before
            return found[-1]
        monkeypatch.setattr(angular, "BRENT_MAXITER", 1)
        monkeypatch.setattr(angular, "_lockstep", recorded)
        with _counted_solves() as solves:
            got = trace_branch(grid, problem)
        assert found == [None]
        assert solves[86:] == grid[1:].tolist()
        np.testing.assert_allclose(got.u, want.u, rtol=1e-13, atol=0.0)

    def test_fine_residual_bound_enforced(self, he4_cfg, monkeypatch):
        # a lockstep root 1e-6 relative off is held to MAX_RESIDUAL too
        problem = AngularProblem(he4_cfg.system)
        lockstep = angular._lockstep

        def off_root(prob, rho, guess, **kwargs):
            u = lockstep(prob, rho, guess, **kwargs)[0] * (1.0 + 1e-6)
            return u, prob.residual_array(u, rho)
        monkeypatch.setattr(angular, "_lockstep", off_root)
        grid = np.exp(np.linspace(math.log(1.0), math.log(2.0), 12))
        with pytest.raises(SolverError, match="branch residual"):
            trace_branch(grid, problem)

    def test_coarse_nodes(self, he4_problem):
        # the walk visits the nodes no more than COARSE_STEP apart in
        # ln rho: 87 of the bundled 600, every node of a grid spaced
        # wider than COARSE_STEP / 2
        bundled = np.exp(np.linspace(math.log(0.05), math.log(4000.0), 600))
        with _counted_solves() as solves:
            trace_branch(bundled, he4_problem)
        walked = np.log(np.array([bundled[0]] + solves))
        assert len(walked) == 87 and solves[-1] == bundled[-1]
        assert np.all(np.diff(walked) <= angular.COARSE_STEP)
        wide = np.exp(np.arange(0.0, 3.0, 0.076))
        with _counted_solves() as solves:
            trace_branch(wide, he4_problem)
        assert solves == wide[1:].tolist()

    def test_guess_past_a_pole_is_halved(self, he4_cfg):
        # 3% above P_c the branch turns sharply near rho = 31 (u from -16.1
        # to -2.5 over one step); the quadratic through that turn predicts
        # u = 28.5, past the pole at u = 4, where roots exist too.  The step
        # is halved instead of solved, so the walk over every node stays
        # below u = 4.  The jump itself is past the trust of the nodes
        # before it: a fold, which the trace refuses
        pair = PairParams(a=-283.11979224319674, r_eff=15.193146209123897,
                          p_shape=0.019854070761837674)
        problem = AngularProblem(ParticleSystem.identical_bosons(HE4_MASS,
                                                                 pair))
        grid = _grid_of(he4_cfg)
        us, _ = angular._continue(grid, problem, np.ones(len(grid), bool))
        assert np.all(us < 4.0 - POLE_GUARD)
        with pytest.raises(BranchFoldError, match=r"jumps at rho = 31\.5063 "
                           r"from u = -16\.0689 to -2\.54171,"):
            trace_branch(grid, problem)

    def test_jump_between_fine_nodes_is_a_fold(self, he4_cfg, monkeypatch):
        # the cold twin of TestWarmTrace.test_residual_and_trust_are_enforced:
        # a lockstep root moved past the trust of the quadratic through the
        # three nodes before it (max(0.5, |u|/4) at u = -1.49), with a
        # residual of 0
        grid = _grid_of(he4_cfg)
        lockstep = angular._lockstep
        moved = []

        def altered(problem, rho, guess, width=None, ends=None):
            u, res = lockstep(problem, rho, guess, width, ends)
            k = np.searchsorted(rho, grid[300])
            u[k] += 2.0
            res[k] = 0.0
            moved.append(rho[k])
            return u, res
        monkeypatch.setattr(angular, "_lockstep", altered)
        with pytest.raises(BranchFoldError) as err:
            trace_branch(grid, _at(he4_cfg, 1.0, 0.13))
        assert str(err.value).startswith(
            f"branch jumps at rho = {moved[0]:g} from u = ")

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
        # a NaN or infinite target would never end advance's halving
        for grid in ([0.05, math.nan, 1.0], [0.05, 1.0, math.inf]):
            with pytest.raises(ValueError, match="finite"):
                trace_branch(np.array(grid), he4_problem)


def _grid_of(cfg) -> np.ndarray:
    return np.exp(np.linspace(math.log(cfg.rho_min), math.log(cfg.rho_max),
                              cfg.n))


def _at(cfg, a_factor: float, p_shape: float) -> AngularProblem:
    """The config's system with every a scaled and every P set."""
    pairs = tuple(dataclasses.replace(pair, a=pair.a * a_factor,
                                      p_shape=p_shape)
                  for pair in cfg.system.pairs)
    return AngularProblem(dataclasses.replace(cfg.system, pairs=pairs))


@contextlib.contextmanager
def _counted_solves():
    """The solve_at_rho calls made inside the block, by rho."""
    solves = []

    def solve(*args, **kwargs):
        solves.append(args[0])
        return solve_at_rho(*args, **kwargs)
    with mock.patch.object(angular, "solve_at_rho", solve):
        yield solves


@contextlib.contextmanager
def _handed_over():
    """(rho, a, b) of each coarse node handed to `_lockstep` inside the
    block, [a, b] its walk's bracket."""
    handed, lockstep = [], angular._lockstep

    def recorded(problem, rho, guess, width=None, ends=None):
        if ends is not None:
            given = ~np.isnan(ends[0])
            handed.extend(zip(rho[given].tolist(), ends[0][given].tolist(),
                              ends[1][given].tolist()))
        return lockstep(problem, rho, guess, width, ends)
    with mock.patch.object(angular, "_lockstep", recorded):
        yield handed


def _counted_residuals(problem: AngularProblem):
    """Count the residual calls on `problem` from here on: the u of each
    scalar call, the size of each array call, and for each evaluated
    (u, rho) the set of values it gave."""
    f, f_array = problem.residual, problem.residual_array
    scalar_calls, array_sizes, seen = [], [], {}

    def counted(u, rho):
        r = f(u, rho)
        scalar_calls.append(u)
        seen.setdefault((u, rho), set()).add(r)
        return r

    def counted_array(u, rho):
        r = f_array(u, rho)
        array_sizes.append(len(u))
        for key in zip(u.tolist(), rho.tolist(), r.tolist()):
            seen.setdefault(key[:2], set()).add(key[2])
        return r
    problem.__dict__["residual"] = counted
    problem.__dict__["residual_array"] = counted_array
    return scalar_calls, array_sizes, seen


class TestWarmTrace:
    """trace_branch(grid, problem, prior): the branch continued in P from
    the branches of earlier scan points, or else the cold trace."""

    @settings(max_examples=12, deadline=None)
    @given(name=st.sampled_from(("he4", "mixed")),
           a_factor=st.floats(0.7, 1.4), p_shape=st.floats(0.08, 0.3),
           step=st.floats(0.001, 0.02), n_prior=st.sampled_from((1, 2)))
    def test_warm_equals_cold(self, he4_cfg, mixed_cfg, name, a_factor,
                              p_shape, step, n_prior):
        cfg = he4_cfg if name == "he4" else mixed_cfg
        grid = _grid_of(cfg)
        prior = [trace_branch(grid, _at(cfg, a_factor, p_shape - k * step))
                 for k in range(n_prior, 0, -1)]
        cold = trace_branch(grid, _at(cfg, a_factor, p_shape))
        with _counted_solves() as solves:
            warm = trace_branch(grid, _at(cfg, a_factor, p_shape), prior)
        assert solves == []     # accepted: no node was walked
        assert np.all(np.abs(warm.u - cold.u)
                      <= 1e-14 * (1.0 + np.abs(cold.u)))
        assert warm.u[0] == cold.u[0]
        assert np.max(np.abs(warm.residuals)) <= angular.MAX_RESIDUAL

    def test_unmoved_prior(self, mixed_cfg):
        # a prior branch of the same problem: each secant step is of the
        # order of the prior root's residual, so most brackets start at
        # the floor 1e-10 (1 + |u|) and widen from there
        grid = _grid_of(mixed_cfg)
        problem = _at(mixed_cfg, 1.0, 0.13)
        cold = trace_branch(grid, problem)
        with _counted_solves() as solves:
            warm = trace_branch(grid, problem, [cold])
        assert solves == []
        assert np.all(np.abs(warm.u - cold.u)
                      <= 1e-14 * (1.0 + np.abs(cold.u)))

    def _refused(self, grid, problem, prior):
        """trace_branch with the prior, checked to be the cold trace bit
        for bit, its coarse walk included."""
        cold = trace_branch(grid, problem)
        with _counted_solves() as solves:
            warm = trace_branch(grid, problem, prior)
        assert solves
        assert np.array_equal(warm.u, cold.u)
        assert np.array_equal(warm.residuals, cold.residuals)

    def test_prior_on_another_grid_is_refused(self, he4_cfg):
        grid = _grid_of(he4_cfg)
        prior = [trace_branch(grid[:-1], _at(he4_cfg, 1.0, 0.125))]
        self._refused(grid, _at(he4_cfg, 1.0, 0.13), prior)

    def test_short_grid_is_refused(self, he4_cfg):
        grid = np.array([1.0, 2.0, 4.0])
        prior = [trace_branch(grid, _at(he4_cfg, 1.0, p))
                 for p in (0.12, 0.125)]
        self._refused(grid, _at(he4_cfg, 1.0, 0.13), prior)

    def test_lost_node_is_refused(self, he4_cfg):
        # no root within the trust of u = 1 at node 300, where the branch
        # is at u = -1.49
        grid = _grid_of(he4_cfg)
        branch = trace_branch(grid, _at(he4_cfg, 1.0, 0.125))
        u = branch.u.copy()
        u[300] = 1.0
        prior = [dataclasses.replace(branch, u=u)]
        assert angular._lockstep(_at(he4_cfg, 1.0, 0.13), grid[300:301],
                                 u[300:301]) is None
        self._refused(grid, _at(he4_cfg, 1.0, 0.13), prior)

    @pytest.mark.parametrize("jump, residual", [(0.0, 2e-10), (2.0, 0.0)])
    def test_residual_and_trust_are_enforced(self, he4_cfg, monkeypatch,
                                             jump, residual):
        # the warm lockstep's roots with one residual over MAX_RESIDUAL,
        # or one node jumped past the trust of the quadratic through the
        # three before it (max(0.5, |u|/4) at u = -1.49)
        grid = _grid_of(he4_cfg)
        prior = [trace_branch(grid, _at(he4_cfg, 1.0, p))
                 for p in (0.12, 0.125)]
        lockstep = angular._lockstep

        def altered(problem, rho, guess, width=None, ends=None):
            u, res = lockstep(problem, rho, guess, width, ends)
            if width is not None:   # the warm call, node 300
                u[299] += jump
                res[299] = residual
            return u, res
        monkeypatch.setattr(angular, "_lockstep", altered)
        self._refused(grid, _at(he4_cfg, 1.0, 0.13), prior)

    @pytest.mark.parametrize("name, work", [
        ("he4", [(7, 8.1, 16), (6, 6.1, 16), (6, 6.1, 16), (6, 6.1, 16)]),
        ("mixed", [(8, 8.4, 19), (8, 6.3, 19), (7, 6.3, 19),
                   (7, 6.3, 19)])])
    def test_work_per_warm_point(self, he4_cfg, mixed_cfg, name, work):
        # the residual evaluations of each warm point of the P-step-0.015
        # scan, in the style of TestTraceBranch.test_work_per_node: array
        # calls, array points per node and scalar calls, and no walk.  The
        # second point is lockstepped from one secant step off the first
        # branch, each bracket started at 1/4 of the step: 7 array calls
        # (He4) and 8 (mixed), the slope's one included, 8.05 and 8.33
        # points per node, 15 and 18 scalar calls (14 calls, 12.50 and
        # 12.05 points from the first branch as it is).  The later ones
        # from the line through the last two, each bracket started at 1/4
        # of the line's shift: 6 and 7-8 calls, 3627-3636 and 3674-3732
        # points, 16 and 18-19 scalar calls (39-41 with the first node's
        # ladder unmerged).  Moving each node of the first
        # branch by up to 2 ulp over 20 seeds gave He4 7, 6, 6, 6 calls
        # every time and mixed 8-9 (mean 8.65), 7-8 (7.20), 7 and 7; the
        # mixed third point read 7 on every seed from the first branch as
        # it is.  Every scalar call is the first node's walk
        cfg = he4_cfg if name == "he4" else mixed_cfg
        grid = _grid_of(cfg)
        prior = [trace_branch(grid, _at(cfg, 1.0, 0.1))]
        for k, (calls, points, scalar) in enumerate(work, start=1):
            problem = _at(cfg, 1.0, 0.1 + 0.015 * k)
            scalar_calls, array_sizes, seen = _counted_residuals(problem)
            with _counted_solves() as solves:
                branch = trace_branch(grid, problem, prior[-2:])
            assert solves == []
            assert len(array_sizes) <= calls
            assert sum(array_sizes) / len(grid) <= points
            assert len(scalar_calls) <= scalar
            for u, rho, r in zip(branch.u.tolist(), grid.tolist(),
                                 branch.residuals.tolist()):
                assert r in seen[u, rho]
            prior.append(branch)


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


def _states(cfg, problem):
    """The branch and the bound states of problem on cfg's grids."""
    branch = trace_branch(_grid_of(cfg), problem)
    return branch, solve_bound_states(
        effective_potential(branch, problem, cfg.q_convention),
        cfg.max_states, rho_min=cfg.radial_rho_min,
        rho_max=cfg.radial_rho_max, n=cfg.radial_n)


def _solved(cfg, problem) -> tuple[np.ndarray, np.ndarray]:
    """The branch u and the state energies of problem on cfg's grids."""
    branch, states = _states(cfg, problem)
    return np.asarray(branch.u), np.array([s.energy for s in states])


def _on_3x3(system) -> AngularProblem:
    """A problem that reads the 3x3 determinant (`_general_residual`) even
    for identical bosons, which take the boson path otherwise."""
    problem = AngularProblem(system)
    vars(problem)["_residual_forms"] = angular._general_residual(problem)
    return problem


@st.composite
def _scan_pair(draw, sign):
    """|a| in [30, 300] of the given sign, R in [5, 20], P in [1.6, 4] P_c."""
    a = sign * draw(st.floats(30.0, 300.0))
    r_eff = draw(st.floats(5.0, 20.0))
    p_c = critical_p_shape(a, r_eff)
    assume(p_c > 0.0)       # P_c = 0 past R/|a| = 9/16: no range to draw
    return PairParams(a=a, r_eff=r_eff,
                      p_shape=draw(st.floats(1.6, 4.0)) * p_c)


class TestDeepestPoleChannel:
    """Systems whose three pairs all bind: the threshold channel is the
    pair's with the deepest pole threshold -kappa^2/mu, the one the branch
    follows far out, and every state a solve returns lies below it."""

    @example(masses=list(POLE_NOT_BARE[0]), pairs=list(POLE_NOT_BARE[1]))
    @settings(max_examples=8, deadline=None)
    @given(masses=st.lists(st.floats(2.0, 12.0), min_size=3, max_size=3,
                           unique=True),
           pairs=st.lists(_scan_pair(-1.0), min_size=3, max_size=3))
    def test_states_lie_below_the_deepest_pole(self, he4_cfg, masses,
                                               pairs):
        # the example's deepest bare threshold is pair.3's, whose pole
        # lies 0.11 mK above pair.1's: with the bare choice a third state
        # printed at -2.0303 mK, between the two poles
        problem = AngularProblem(ParticleSystem(tuple(masses), tuple(pairs)))
        dimer = problem.dimer
        pole = -dimer.kappa * dimer.kappa / dimer.mu
        assert pole == min(-k * k / mu for k, mu in zip(
            map(dimer_pole_kappa, pairs), problem.kinematics.mu))
        energies = _solved(he4_cfg, problem)[1]
        assert np.all(energies < pole / (2.0 * problem.system.mass_scale))

    @example(mass=4.616121342493164, mass3=4.9849114341412335,
             pair=PairParams(a=-80.15905003954433, r_eff=6.378739132026453,
                             p_shape=0.05951801904580724),
             pair3=PairParams(a=-103.28865776081545,
                              r_eff=7.8185161004990515,
                              p_shape=0.033817796200385816))
    @settings(max_examples=8, deadline=None)
    @given(mass=st.floats(2.0, 12.0), mass3=st.floats(2.0, 12.0),
           pair=_scan_pair(-1.0), pair3=_scan_pair(-1.0))
    def test_two_identical_particles_keep_the_branch(self, mixed_cfg, mass,
                                                     mass3, pair, pair3):
        # masses (m, m, m3), all pairs bound: on the 3x3 determinant the
        # root of its antisymmetric factor d - o met the traced one far out
        # in the equivalent pairs' channel, and 6 of 40 such draws lost
        # the branch (the example near rho = 3225); the exchange-symmetric
        # residual has no such root, and no state lies above the pole
        assume(mass != mass3)
        problem = AngularProblem(ParticleSystem(
            (mass, mass, mass3), (pair, pair, pair3)))
        dimer = problem.dimer
        energies = _solved(mixed_cfg, problem)[1]
        assert np.all(energies < -dimer.kappa ** 2 / dimer.mu
                      / (2.0 * problem.system.mass_scale))


_any_pair = st.sampled_from((-1.0, 1.0)).flatmap(_scan_pair)
_mass = st.floats(2.0, 12.0)


def _assert_lowest_cold_branch(system: ParticleSystem, n: int) -> None:
    """A cold trace of system on n nodes over [0.05, 4000] finishes (no
    SolverError) and `_lower_roots` finds no lower root at any node."""
    problem = AngularProblem(system)
    grid = np.exp(np.linspace(math.log(0.05), math.log(4000.0), n))
    assert _lower_roots(problem, trace_branch(grid, problem)) == []


class TestSectorDraws:
    """Cold traces over the three residual forms: identical bosons, two
    identical particles and three distinct masses, masses U[2, 12], each
    pair bound or unbound (`_scan_pair` of either sign), so all-unbound
    systems occur.  An unbound system's branch crosses u = 0, and the
    forms' shared `_couplings` runs inside the trace; `_lower_roots`
    checks it through the masked array path."""

    @example(mass=8.25, pair=PairParams(a=239.4, r_eff=8.38, p_shape=0.042),
             n=285)
    @settings(max_examples=10, deadline=None)
    @given(mass=_mass, pair=_any_pair, n=st.integers(150, 300))
    def test_bosons(self, mass, pair, n):
        _assert_lowest_cold_branch(
            ParticleSystem.identical_bosons(mass, pair), n)

    @example(mass=4.51, mass3=10.06,
             pair=PairParams(a=223.6, r_eff=14.44, p_shape=0.0698),
             pair3=PairParams(a=119.8, r_eff=10.97, p_shape=0.0365), n=175)
    @settings(max_examples=10, deadline=None)
    @given(mass=_mass, mass3=_mass, pair=_any_pair, pair3=_any_pair,
           n=st.integers(150, 300))
    def test_two_identical(self, mass, mass3, pair, pair3, n):
        assume(mass != mass3)
        _assert_lowest_cold_branch(ParticleSystem(
            (mass, mass, mass3), (pair, pair, pair3)), n)

    def test_two_identical_close_roots(self):
        # the draw test_two_identical shrank to on the seeds where it
        # failed: at m3 = m the exchange-symmetric factor splits into two
        # symmetries whose roots cross, and at m3 = m (1 + 5e-6) the
        # avoided crossing leaves two roots 0.007 apart near rho = 261.479,
        # inside the continuation walk's first 0.01 rung.  The rung's end
        # lies further from zero than its start, so the walk halves it and
        # the trace follows the lower root
        pair = PairParams(a=-30.0, r_eff=5.0, p_shape=0.0418925878260229)
        _assert_lowest_cold_branch(ParticleSystem(
            (2.0, 2.0, 2.00001), (pair, pair, pair)), 150)

    @settings(max_examples=10, deadline=None)
    @given(mass=_mass, log_delta=st.floats(-7.0, -2.0), pair=_any_pair,
           n=st.integers(150, 300))
    def test_two_nearly_identical(self, mass, log_delta, pair, n):
        # m3 = m (1 + delta), delta log-uniform in [1e-7, 1e-2], and one
        # pair for all three: the two symmetries' roots nearly cross
        _assert_lowest_cold_branch(ParticleSystem(
            (mass, mass, mass * (1.0 + 10.0 ** log_delta)), (pair,) * 3), n)

    @example(masses=[10.47, 2.84, 4.74], pairs=[
        PairParams(a=194.2, r_eff=9.69, p_shape=0.0557),
        PairParams(a=152.8, r_eff=17.94, p_shape=0.0396),
        PairParams(a=201.6, r_eff=16.11, p_shape=0.0441)], n=264)
    @settings(max_examples=10, deadline=None)
    @given(masses=st.lists(_mass, min_size=3, max_size=3, unique=True),
           pairs=st.lists(_any_pair, min_size=3, max_size=3),
           n=st.integers(150, 300))
    def test_three_distinct(self, masses, pairs, n):
        _assert_lowest_cold_branch(
            ParticleSystem(tuple(masses), tuple(pairs)), n)


class TestInvariance:
    """Whole solves that must agree whatever the labels or the residual
    path; measured worst differences in the comments, bounds 10x them."""

    @example(masses=[9.0, 12.0, 2.0], pairs=[
        PairParams(a=70.0, r_eff=5.0, p_shape=0.04422209472059082),
        PairParams(a=76.0, r_eff=10.0, p_shape=0.03412303182858946),
        PairParams(a=53.0, r_eff=6.0, p_shape=0.03018207944547699)])
    @settings(max_examples=4, deadline=None)
    @given(masses=st.lists(st.floats(2.0, 12.0), min_size=3, max_size=3,
                           unique=True),
           pairs=st.lists(st.sampled_from((-1.0, 1.0)).flatmap(_scan_pair),
                          min_size=3, max_size=3))
    def test_relabelling_keeps_the_energies(self, he4_cfg, masses, pairs):
        # masses and the pairs facing them permuted together: all 6
        # orderings give the same states, 1.7e-15 relative at worst over
        # 120 draws; this guards the pairs' indexing by spectator and the
        # choice of the bound pair.  The bound scales with the deepest
        # state: the example's state 1 lies at -6.5e-12 hartree, just
        # below its threshold 0, and spreads by 1.3e-23 (2e-12 of itself,
        # 1.2e-18 of E_0), since noise of 1e-15 relative on the traced u
        # moves it by up to 4e-12 relative.  energies[0][:1] is [E_0], or
        # empty when nothing is bound
        energies = []
        for order in itertools.permutations(range(3)):
            system = ParticleSystem(tuple(masses[i] for i in order),
                                    tuple(pairs[i] for i in order))
            energies.append(_solved(he4_cfg, AngularProblem(system))[1])
        for other in energies[1:]:
            assert len(other) == len(energies[0])
            assert np.all(np.abs(other - energies[0])
                          <= 1.4e-14 * np.abs(energies[0][:1]))

    @settings(max_examples=4, deadline=None)
    @given(mass=st.floats(2.0, 12.0), mass3=st.floats(2.0, 12.0),
           pair=st.sampled_from((-1.0, 1.0)).flatmap(_scan_pair),
           pair3=st.sampled_from((-1.0, 1.0)).flatmap(_scan_pair))
    def test_identical_pair_at_every_index(self, he4_cfg, mass, mass3, pair,
                                           pair3):
        # masses (m, m, m3) with equal facing pairs, the identical pair at
        # (0, 1), (1, 2) and (0, 2): the exchange-symmetric residual is
        # built in one order whatever the indices, and the energies agreed
        # bit for bit over 30 draws (44 states); the bound is the
        # relabelling test's
        assume(mass != mass3)
        energies = [_solved(he4_cfg, _placed(k, mass, mass3, pair, pair3))[1]
                    for k in range(3)]
        for other in energies[1:]:
            assert len(other) == len(energies[0])
            assert np.all(np.abs(other - energies[0])
                          <= 1.4e-14 * np.abs(energies[0][:1]))

    @pytest.mark.parametrize("scale, bound", [(2.0, 2e-6), (0.37, 8e-6)])
    def test_mass_scale_relabelling(self, mixed_cfg, mixed_solution, scale,
                                    bound):
        # masses x s and mass_scale / s describe the same particles, yet
        # the mixed E0 moves by 1.60e-6 (s = 2) and 6.81e-6 (s = 0.37)
        # relative: the error of the inner edge's seed, not rounding, so
        # the bounds sit just above it, to tighten with a better seed
        system = dataclasses.replace(
            mixed_cfg.system,
            masses=tuple(m * scale for m in mixed_cfg.system.masses),
            mass_scale=mixed_cfg.system.mass_scale / scale)
        energies = _solved(mixed_cfg, AngularProblem(system))[1]
        e0 = mixed_solution[1][0].energy
        assert len(energies) == 1
        assert abs(energies[0] - e0) <= bound * abs(e0)

    def test_bundled_bosons_on_the_3x3_path(self, he4_cfg,
                                            he4_branch_potential,
                                            he4_solution):
        # the bundled He4 branch: 9.7e-16 relative per node, E0 4e-16
        branch, _ = he4_branch_potential
        u, energies = _solved(he4_cfg, _on_3x3(he4_cfg.system))
        assert np.all(np.abs(u - branch.u) <= 9.7e-15 * np.abs(branch.u))
        e0 = he4_solution[1][0].energy
        assert abs(energies[0] - e0) <= 4e-15 * abs(e0)

    @example(mass=2.0, pair=PairParams(a=290.0, r_eff=5.75,
                                       p_shape=0.0662576085387411))
    @settings(max_examples=4, deadline=None)
    @given(mass=st.floats(2.0, 12.0), pair=_scan_pair(1.0))
    def test_bosons_on_the_3x3_path(self, he4_cfg, mass, pair):
        # identical bosons through the 3x3 determinant and through the
        # boson path: per node 1.6e-15 (1 + |u|), energies 6.1e-15 relative
        # at worst over 100 draws.  Unbound pairs only (a > 0): far out in
        # a dimer's channel the symmetric root meets the double root of
        # mixed symmetry, (d - o)^2, to within 1e-11 relative, so the
        # determinant's triple root there is rounding noise, and Brent's
        # method on the 3x3 path failed on 11 of 40 draws with a < 0.
        # A state just below threshold reads the two branches' difference
        # of an ulp or so of u as a large relative one: the example's
        # state 1 (eps -4.6e-8) moves by 1.08e-20, 2.4e-13 of itself.  So
        # each state may also move by twice its first-order shift
        # <f| |W_3x3 - W_boson| |f> / <f|f> on the boson state's wave
        # (d rho = rho dt on the log grid): 1.90e-20 there, and under 1% of
        # 6.1e-14 |eps| for the example's state 0
        system = ParticleSystem.identical_bosons(mass, pair)
        boson, boson_states = _states(he4_cfg, AngularProblem(system))
        branch, states = _states(he4_cfg, _on_3x3(system))
        assert np.all(np.abs(branch.u - boson.u)
                      <= 1.6e-14 * (1.0 + np.abs(boson.u)))
        assert len(states) == len(boson_states)
        for state, want in zip(states, boson_states):
            weight = want.f * want.rho
            shift = (float(weight @ (np.abs(state.w - want.w) * want.f))
                     / float(weight @ want.f))
            assert (abs(state.eps - want.eps)
                    <= 6.1e-14 * abs(want.eps) + 2.0 * shift)
