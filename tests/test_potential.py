import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

from zrtrimer import (
    AngularProblem,
    NuBranch,
    PairParams,
    ParticleSystem,
    critical_p_shape,
    dimer_pole_kappa,
    effective_potential,
    efimov_constant,
    trace_branch,
)
from zrtrimer import potential
from zrtrimer.angular import dimer_channel_u
from zrtrimer.potential import _SHIFT

from reference import u_at
from trimer_params import HE4_A, HE4_P, HE4_REFF, MU4, POLE_NOT_BARE


def yukawa_tail(rho: float) -> float:
    """Analytic large-rho potential of the bare He4 pair, q_convention = none:
    threshold - 1/(4 rho^2) - (16 sqrt3/pi) exp(-rho/b)/(b rho), with
    threshold = -1/(mu a^2) and b = 3 sqrt(mu)|a|/pi."""
    b = 3.0 * math.sqrt(MU4) * abs(HE4_A) / math.pi
    return (-1.0 / (MU4 * HE4_A ** 2) - 1.0 / (4.0 * rho * rho)
            - (16.0 * math.sqrt(3.0) / math.pi) * math.exp(-rho / b) / (b * rho))


class TestConventions:
    def test_leading_term_is_u_over_rho2(self, he4_branch_potential):
        branch, pot = he4_branch_potential
        assert pot.q_convention == "leading_term"
        assert np.allclose(pot.w, branch.u / branch.rho ** 2, rtol=1e-15)

    def test_convention_difference_is_quarter_rho2(self, he4_branch_potential, he4_problem):
        branch, pot_lead = he4_branch_potential
        pot_none = effective_potential(branch, he4_problem, "none")
        diff = pot_lead.w - pot_none.w
        assert np.allclose(diff, 0.25 / branch.rho ** 2, rtol=1e-14)

    def test_unknown_convention(self, he4_branch_potential, he4_problem):
        branch, _ = he4_branch_potential
        with pytest.raises(ValueError):
            effective_potential(branch, he4_problem, "exact")

    def test_unitary_scale_invariance(self, unitary_problem):
        g = efimov_constant()
        grid = np.exp(np.linspace(math.log(0.1), math.log(100.0), 30))
        branch = trace_branch(grid, unitary_problem)
        lead = effective_potential(branch, unitary_problem, "leading_term")
        none = effective_potential(branch, unitary_problem, "none")
        # rho^2 W is constant: -g^2 and -(g^2 + 1/4) ~ -1.262
        assert np.allclose(lead.w * grid ** 2, -g * g, rtol=1e-11)
        assert np.allclose(none.w * grid ** 2, -(g * g + 0.25), rtol=1e-11)
        assert -(g * g + 0.25) == pytest.approx(-1.2625146, abs=1e-6)


class TestThreshold:
    def test_bare_threshold_equals_formula(self, bare_he4_potential):
        pot = bare_he4_potential
        assert pot.threshold == pytest.approx(-1.0 / (MU4 * HE4_A ** 2), rel=1e-14)
        assert pot.w_inf == pot.threshold
        assert pot.threshold_mk == pytest.approx(-1.2109, abs=2e-4)

    def test_extended_asymptote_below_bare_threshold(self, he4_branch_potential):
        _, pot = he4_branch_potential
        # the extended boundary condition deepens the dimer pole slightly
        kappa = dimer_pole_kappa(PairParams(a=HE4_A, r_eff=HE4_REFF, p_shape=HE4_P))
        assert pot.w_inf == pytest.approx(-kappa ** 2 / MU4, rel=1e-14)
        assert pot.w_inf < pot.threshold

    def test_bound_branch_reaches_threshold_scale(self, bare_he4_potential):
        pot = bare_he4_potential
        # W at the outermost traced node sits on the dimer threshold
        assert pot.w[-1] == pytest.approx(pot.threshold, rel=5e-3)

    def test_monotone_approach_beyond_20a(self, bare_he4_potential):
        pot = bare_he4_potential
        sel = pot.rho > 20.0 * abs(HE4_A)
        w_tail = pot.w[sel]
        assert w_tail.size > 3
        # monotone up to float noise in the flat, fully converged tail
        assert np.all(np.diff(w_tail) >= -1e-19)
        assert np.all(w_tail <= pot.threshold + 1e-19)

    def test_no_dimer_no_threshold(self):
        pair = PairParams(a=33.261)
        system = ParticleSystem.identical_bosons(3.0, pair)
        problem = AngularProblem(system)
        branch = trace_branch(np.array([50.0, 60.0, 70.0]), problem)
        pot = effective_potential(branch, problem)
        assert pot.threshold == 0.0
        assert problem.dimer is None


@st.composite
def _pairs(draw):
    """Bound, unbound and unitary pairs, bare or extended inside P > P_c."""
    a = draw(st.floats(-400.0, -40.0) | st.floats(40.0, 400.0)
             | st.sampled_from([-math.inf, math.inf]))
    r_eff = draw(st.just(0.0) | st.floats(1.0, 20.0))
    if r_eff == 0.0:
        return PairParams(a=a)
    p_c = critical_p_shape(a, r_eff)
    return PairParams(a=a, r_eff=r_eff,
                      p_shape=p_c * draw(st.floats(1.01, 20.0)))


class TestDimerRecord:
    @example(masses=list(POLE_NOT_BARE[0]), pairs=POLE_NOT_BARE[1])
    @settings(max_examples=80, deadline=None)
    @given(masses=st.lists(st.floats(1.0, 10.0), min_size=3, max_size=3,
                           unique=True),
           pairs=st.tuples(_pairs(), _pairs(), _pairs()))
    def test_deepest_pole_threshold_and_its_bare_one(self, masses, pairs):
        problem = AngularProblem(ParticleSystem(tuple(masses), pairs))
        mu = problem.kinematics.mu
        # -2mB/hbar^2 = -1/(mu a^2); a = -inf gives -0.0, which does not bind
        bare = [-1.0 / (m * p.a ** 2) if p.a < 0.0 else 0.0
                for m, p in zip(mu, pairs)]
        # the pole thresholds -kappa^2/mu of the bound pairs
        kappa = [dimer_pole_kappa(p) if b < 0.0 else None
                 for p, b in zip(pairs, bare)]
        pole = [math.inf if k is None else -k * k / m
                for m, k in zip(mu, kappa)]
        dimer = problem.dimer
        # the record is what the potential reads: threshold and asymptote
        branch = NuBranch(rho=np.array([1.0, 2.0]), u=np.array([-1.0, -2.0]),
                          residuals=np.zeros(2))
        pot = effective_potential(branch, problem)
        if not min(bare) < 0.0:
            assert dimer is None
            assert pot.threshold == pot.w_inf == 0.0
            return
        i = dimer.index
        # the deepest pole, the first of equals
        assert pole[i] == min(pole)
        assert all(pole[j] > pole[i] for j in range(i))
        assert dimer.mu == mu[i]
        assert dimer.threshold == pytest.approx(bare[i], rel=1e-14)
        assert dimer.kappa == dimer_pole_kappa(pairs[i])
        assert pot.threshold == dimer.threshold
        assert pot.w_inf == pytest.approx(-dimer.kappa ** 2 / dimer.mu,
                                          rel=1e-15)


class TestYukawaTail:
    def test_b_value(self):
        b = 3 * math.sqrt(MU4) * abs(HE4_A) / math.pi
        assert b == pytest.approx(255.40, abs=0.01)

    def test_limit_is_threshold(self, bare_he4_trace):
        # beyond the traced grid W is the dimer-channel tail, which for the
        # bare pair is the two-term expansion itself
        problem, branch = bare_he4_trace
        pot = effective_potential(branch, problem, "none")
        for rho in (1.5 * branch.rho[-1], 4.0 * branch.rho[-1], 1e9):
            assert pot.values(rho) == pytest.approx(yukawa_tail(rho), rel=1e-12)
        thr = -1.0 / (MU4 * HE4_A ** 2)
        assert pot.values(1e9) == pytest.approx(thr, rel=1e-9)

    def test_against_traced_bare_branch(self, bare_he4_problem):
        """The printed two-term expansion vs the numerically traced branch
        (q_convention = none, i.e. the (u - 1/4)/rho^2 potential).

        Frozen agreement: 2.5% at rho = 3b (the expansion still carries a
        visible higher-order error there) improving to 0.35% at rho = 4b.
        """
        from scipy.optimize import brentq
        b = 3 * math.sqrt(MU4) * abs(HE4_A) / math.pi
        resid = bare_he4_problem.residual
        for mult, tol in ((3.0, 0.03), (4.0, 0.02), (5.0, 0.02)):
            rho = mult * b
            u = brentq(lambda x: resid(x, rho), -1e4, -1e-9, xtol=1e-13)
            w_none = (u - 0.25) / rho ** 2
            tail = yukawa_tail(rho)
            assert abs(w_none - tail) / abs(w_none) < tol


class TestExtension:
    def test_inner_no_fall_to_center(self, he4_branch_potential):
        _, pot = he4_branch_potential
        # rho^2 W -> 0 below the first node (u ~ rho^(3/2) power law)
        for rho in (0.01, 0.02, 0.04):
            assert abs(rho ** 2 * pot.values(rho)) < 0.05
        # and the exponent is close to 3/2
        ratio = u_at(pot, 0.02) / u_at(pot, 0.01)
        assert ratio == pytest.approx(2.0 ** 1.5, rel=0.05)

    def test_outer_tail_seamless(self, he4_branch_potential):
        _, pot = he4_branch_potential
        r_end = float(pot.rho[-1])
        inside = u_at(pot, r_end * 0.9999999)
        outside = u_at(pot, r_end * 1.0000001)
        assert abs(inside - outside) / abs(inside) < 1e-5

    def test_outer_tail_is_extended_channel(self, he4_branch_potential):
        _, pot = he4_branch_potential
        rho = 2.0 * float(pot.rho[-1])
        dimer = pot.problem.dimer
        expected = dimer_channel_u(rho, dimer.kappa, dimer.mu)
        assert u_at(pot, rho) == pytest.approx(expected, rel=1e-14)

    def test_interpolation_matches_direct_solve(self, he4_branch_potential,
                                                he4_problem):
        branch, pot = he4_branch_potential
        for k in (100, 300, 500):
            mid = math.sqrt(branch.rho[k] * branch.rho[k + 1])
            u_interp = u_at(pot, mid)
            u_direct = trace_branch(np.array([mid]), he4_problem).u[0]
            assert u_interp == pytest.approx(u_direct, rel=1e-6)

    @pytest.mark.parametrize("u0", [-1e-3, 0.0])
    def test_inner_line_where_no_power_law_fits(self, he4_problem, u0):
        # first two nodes of opposite signs, or one at 0: below the first
        # node u continues on the line through them
        branch = NuBranch(rho=np.array([1.0, 2.0, 3.0]),
                          u=np.array([u0, 2e-3, 3e-3]),
                          residuals=np.zeros(3))
        pot = effective_potential(branch, he4_problem)
        for rho in (0.1, 0.5, 0.9):
            line = u0 + (2e-3 - u0) * (rho - 1.0)
            assert u_at(pot, rho) == pytest.approx(line, rel=1e-14, abs=1e-18)

    def test_rejects_nonpositive_rho(self, he4_branch_potential):
        _, pot = he4_branch_potential
        with pytest.raises(ValueError):
            pot.values(0.0)


def _reference_w(pot, rhos) -> np.ndarray:
    """W as one pass over the queries computes it, with scipy's pchip on
    the nodes: the inner law below the first node and the dimer tail past
    the last."""
    r = np.asarray(rhos, dtype=float).ravel()
    u = np.empty_like(r)
    lo, hi = r < pot.rho[0], r > pot.rho[-1]
    mid = ~(lo | hi)
    u[mid] = PchipInterpolator(np.log(pot.rho), pot.branch.u,
                               extrapolate=False)(np.log(r[mid]))
    c, p, kind = pot._inner
    u[lo] = c * r[lo] ** p if kind == "power" else c + p * r[lo]
    dimer = pot.problem.dimer
    u[hi] = dimer_channel_u(r[hi], dimer.kappa, dimer.mu)
    return ((u - _SHIFT[pot.q_convention]) / (r * r)).reshape(np.shape(rhos))


def _fixed(a: np.ndarray) -> np.ndarray:
    """a read-only array that owns its data, as a shared radial grid is"""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@st.composite
def _branch_nodes(draw):
    """k nodes in rho, log-spaced or at irregular steps in ln rho, and u."""
    k = draw(st.integers(2, 40))
    t0 = draw(st.floats(math.log(0.05), math.log(5.0)))
    if draw(st.booleans()):
        t = t0 + np.linspace(0.0, draw(st.floats(1.0, 10.0)), k)
    else:
        steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=k - 1,
                              max_size=k - 1))
        t = t0 + np.concatenate([[0.0], np.cumsum(steps)])
    # to 1e-6: a subnormal secant overflows the harmonic mean (test_ports)
    u = draw(st.lists(st.floats(-200.0, 10.0).map(lambda v: round(v, 6)),
                      min_size=k, max_size=k))
    return np.exp(t), np.array(u)


class TestSamplingPlan:
    """`EffectivePotential._plan` keeps where the last query falls on the
    nodes, for equal queries on equal nodes; W sampled through a kept plan
    is bit for bit W sampled afresh, and every other input goes the one
    path it went before."""

    @settings(max_examples=60, deadline=None)
    @given(nodes=_branch_nodes(), n=st.integers(1, 300),
           widen=st.floats(1.0, 3.0), q_convention=st.sampled_from(
               ("leading_term", "none")))
    def test_kept_plan_is_bit_identical(self, he4_problem, nodes, n, widen,
                                        q_convention):
        rho, u = nodes
        # the query grid reaches below the first node and past the last
        query = _fixed(np.exp(np.linspace(math.log(rho[0] / widen),
                                          math.log(rho[-1] * widen), n)))
        pot = effective_potential(NuBranch(rho=rho, u=u,
                                           residuals=np.zeros_like(u)),
                                  he4_problem, q_convention)
        potential._PLANS.clear()
        fresh = pot.values(query.copy())
        assert np.array_equal(fresh, _reference_w(pot, query))
        first = pot.values(query)
        plan = potential._PLANS[0]
        assert np.array_equal(plan[0], query)
        again = pot.values(query)
        assert potential._PLANS[0] is plan
        assert np.array_equal(first, fresh) and np.array_equal(again, fresh)
        # another branch on equal nodes reuses the plan
        other = effective_potential(
            NuBranch(rho=rho.copy(), u=u[::-1].copy(),
                     residuals=np.zeros_like(u)), he4_problem, q_convention)
        assert np.array_equal(other.values(query),
                              other.values(query.copy()))
        assert potential._PLANS[0] is plan
        # and one on other nodes makes its own
        moved = effective_potential(
            NuBranch(rho=rho * 1.5, u=u, residuals=np.zeros_like(u)),
            he4_problem, q_convention)
        assert np.array_equal(moved.values(query), _reference_w(moved, query))
        assert potential._PLANS[0][2] is not plan[2]

    def test_other_inputs_as_before(self, he4_branch_potential):
        _, pot = he4_branch_potential
        rng = np.random.default_rng(7)
        # below the first node, on the nodes and past the last, unsorted
        rhos = np.concatenate([[0.01, 0.049, 8000.0, 4000.0],
                               np.exp(rng.uniform(math.log(0.02),
                                                  math.log(9000.0), 200))])
        rng.shuffle(rhos)
        want = _reference_w(pot, rhos)
        assert np.array_equal(pot.values(rhos), want)
        assert np.array_equal(pot.values(list(rhos)), want)
        grid = rhos.reshape(12, 17)
        for square in (grid, _fixed(grid)):
            got = pot.values(square)
            assert got.shape == (12, 17)
            assert np.array_equal(got, want.reshape(12, 17))
        for r in (0.02, 3.7, 5000.0):
            got = pot.values(r)
            assert got.shape == ()
            assert got == _reference_w(pot, [r])[0]
        assert pot.values(np.array([])).shape == (0,)

    def test_nonpositive_rho_is_refused_and_not_kept(self,
                                                     he4_branch_potential):
        _, pot = he4_branch_potential
        for rhos in (0.0, [1.0, 0.0], _fixed([1.0, -2.0])):
            kept = list(potential._PLANS)
            with pytest.raises(ValueError, match="positive"):
                pot.values(rhos)
            assert potential._PLANS == kept


class TestDegenerate:
    def test_single_node_branch_rejected(self, he4_problem):
        # the interpolant and the inner power law need two nodes
        branch = trace_branch(np.array([5.0]), he4_problem)
        with pytest.raises(ValueError, match="at least 2 nodes"):
            effective_potential(branch, he4_problem)

    def test_empty_branch_rejected(self, he4_problem):
        from zrtrimer import NuBranch
        empty = NuBranch(rho=np.array([]), u=np.array([]),
                         residuals=np.array([]))
        with pytest.raises(ValueError):
            effective_potential(empty, he4_problem)
