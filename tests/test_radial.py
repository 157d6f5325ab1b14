import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zrtrimer import (
    SolverError,
    count_nodes,
    efimov_constant,
    solve_bound_states,
    thomas_spectrum,
)
from zrtrimer.radial import _carry, _Shooter


class FlatPotential:
    """Constant-W stub exposing the potential interface, internal units."""

    problem = SimpleNamespace(
        system=SimpleNamespace(units=SimpleNamespace(hartree_to_mk=float)))

    def __init__(self, w0=0.0, threshold=0.0):
        self.w0 = w0
        self.threshold = threshold
        self.w_inf = threshold

    def values(self, rhos):
        return np.full_like(np.asarray(rhos, dtype=float), self.w0)

    def hartree_from_eps(self, eps):
        return eps


class TestCountNodes:
    def test_examples(self):
        assert count_nodes([1, 2, 1]) == 0
        assert count_nodes([1, -1, 1]) == 2
        assert count_nodes([0, 1, -1, 0]) == 1
        assert count_nodes([0, 0, 0]) == 0
        assert count_nodes([1, 0, 1]) == 0
        assert count_nodes([1, 0, -1]) == 1

    def test_matches_loop_reference(self):
        def reference(vals):
            signs = [v < 0.0 for v in vals if v != 0.0]
            return sum(a != b for a, b in zip(signs, signs[1:]))
        rng = np.random.default_rng(7)
        for _ in range(50):
            f = rng.choice([-2.0, -1.0, 0.0, 1.0, 3.0], size=rng.integers(0, 30))
            assert count_nodes(f) == reference(f)


class OscillatorPotential(FlatPotential):
    """W = c rho^2 with a threshold of 40: levels sqrt(c) (4k + 3) below it."""

    def __init__(self, c=1.0):
        super().__init__(threshold=40.0)
        self.c = c

    def values(self, rhos):
        return self.c * np.asarray(rhos, dtype=float) ** 2


class StepPotential(FlatPotential):
    """W = 0 below rho = 10 and -10 beyond: at eps = -1 the outer turning
    point sits at rho = 10 and the outward sweep crosses a flat barrier."""

    def __init__(self):
        super().__init__(threshold=-10.0)

    def values(self, rhos):
        return np.where(np.asarray(rhos, dtype=float) < 10.0, 0.0, -10.0)


def _constant_q_sweep(k, h, n):
    """Samples F_i / F_0 of g'' = k^2 g carried from the exact start of
    exp(k t); F_{j+1}/F_j = 1/(1 - p_j)."""
    hq = h * h * k * k
    v = np.full(n - 2, hq / (1.0 - hq / 12.0))
    _, _, ps = _carry(v, -math.expm1(-k * h), record=True)
    return np.concatenate([[1.0], np.cumprod(1.0 / (1.0 - np.array(ps)))])


def _he4_shooter(pot, n):
    return _Shooter(pot.values, pot.w_inf, min(pot.w_inf, pot.threshold),
                    0.05, 4000.0, n)


class TestIntegrate:
    def test_inward_free_exponential(self):
        # the inward seed of the match: a decaying tail swept toward small
        # rho grows as exp(k s); exact up to the Numerov truncation error
        ys = _constant_q_sweep(1.0, 0.01, 1001)
        ref = np.exp(0.01 * np.arange(1001))
        assert np.max(np.abs(ys / ref - 1.0)) < 1e-9
        # the ratios keep the shape over 500 e-folds, up to the truncation
        # error L h^4 / 480 = 1e-8 over L = 500
        ys = _constant_q_sweep(1.0, 0.01, 50001)
        assert np.all(np.isfinite(ys))
        s = 0.01 * np.arange(50001)
        assert np.max(np.abs(ys / ys[-1] / np.exp(s - s[-1]) - 1.0)) < 2e-8

    def test_outward_start_and_growth(self):
        # at eps = -1 the outward part of the recorded wave, rho in
        # [0.5, 10), solves f'' = f from the inner start
        for hard_wall in (False, True):
            shooter = _Shooter(StepPotential().values, -10.0, -10.0,
                               0.5, 12.0, 4001, hard_wall=hard_wall)
            _, f = shooter.wave(-1.0)
            m = int(np.searchsorted(shooter.rho, 10.0)) - 1
            rho, f = shooter.rho[:m + 1], f[:m + 1]
            if hard_wall:
                # f(rho_min) = 0: the pure sinh solution of f'' = f
                assert f[0] == 0.0
                ref = np.sinh(rho - rho[0])
            else:
                # regular start f = rho on the first two nodes
                assert f[1] / f[0] == pytest.approx(rho[1] / rho[0], rel=1e-14)
                r0, r1 = rho[0], rho[1]
                ref = (r0 * np.sinh(r1 - rho)
                       + r1 * np.sinh(rho - r0)) / np.sinh(r1 - r0)
            scaled = f[1:] * (ref[-1] / f[-1])
            assert np.max(np.abs(scaled / ref[1:] - 1.0)) < 1e-9

    def test_numerov_order(self):
        # error at the end of exp(k t) shrinks ~16x per step halving
        errs = []
        for n in (101, 201, 401):
            ys = _constant_q_sweep(1.0, 10.0 / (n - 1), n)
            errs.append(abs(ys[-1] / math.exp(10.0) - 1.0))
        for coarse, fine in zip(errs, errs[1:]):
            assert 16.0 * 0.7 < coarse / fine < 16.0 * 1.3

    def test_unstable_step_is_solver_error(self):
        # W = -D e^(-rho) at eps = -1: rho^2 |W - eps| peaks near 0.54 D at
        # rho = 2, so with D = 1e4 h^2 q/12 reaches about 2.2 there on 100
        # nodes over [0.05, 50], past the bound 1/2, and about 1.3e-3 on 4000
        def steep(rho):
            return -1e4 * np.exp(-rho)

        coarse = _Shooter(steep, 0.0, 0.0, 0.05, 50.0, 100)
        with pytest.raises(SolverError, match="Numerov step unstable"):
            coarse.count(-1.0)
        fine = _Shooter(steep, 0.0, 0.0, 0.05, 50.0, 4000)
        assert fine.count(-1.0) > 0


class TestSolveBoundStates:
    def test_he4_trimer_spectrum(self, he4_solution):
        pot, states = he4_solution
        assert len(states) == 2
        e0, e1 = states
        # frozen from the converged pipeline; the published zero-range
        # values are -143.7 and -2.21
        assert e0.energy_mk == pytest.approx(-144.0556, abs=0.01)
        assert e1.energy_mk == pytest.approx(-2.22049, abs=0.0005)
        # pinned to the last digits so a refactor cannot move them unseen
        assert abs(e0.energy_mk - -144.05558518999615) <= 1e-8
        assert abs(e1.energy_mk - -2.220488139863402) <= 1e-8
        assert (e0.node_count, e1.node_count) == (0, 1)
        assert e0.energy < e1.energy          # strictly increasing order
        assert e0.match_residual < 1e-8 and e1.match_residual < 1e-8
        # both lie below the dimer threshold
        assert e0.energy < pot.hartree_from_eps(pot.threshold)
        assert e1.energy < pot.hartree_from_eps(pot.threshold)

    def test_mixed_trimer_single_state(self, mixed_solution):
        pot, states = mixed_solution
        assert len(states) == 1
        assert states[0].energy_mk == pytest.approx(-34.128, abs=0.01)
        assert abs(states[0].energy_mk - -34.12819182401712) <= 1e-8
        assert states[0].node_count == 0
        assert states[0].energy < pot.hartree_from_eps(pot.threshold)

    def test_node_count_monotone_in_energy(self, he4_branch_potential):
        _, pot = he4_branch_potential
        shooter = _he4_shooter(pot, 4000)
        eps_grid = np.linspace(shooter.w_min * 0.9,
                               shooter.top * 1.5, 25)
        counts = [shooter.count(e) for e in eps_grid]
        assert counts == sorted(counts)

    def test_cutoff_matches_loop_reference(self, he4_branch_potential):
        # the barrier cutoff: first index past im whose running action,
        # added in grid order, exceeds the cap; a cumsum must agree exactly
        def reference(shooter, im, q):
            action, i = 0.0, im
            while i < shooter.n - 1:
                if q[i] > 0.0:
                    action += math.sqrt(q[i]) * shooter.h
                    if action > 60.0:
                        break
                i += 1
            return i
        _, pot = he4_branch_potential
        he4 = _he4_shooter(pot, 8000)
        thomas = _Shooter(lambda rho: -1.2625 / rho ** 2, 0.0, 0.0,
                          0.1, 3e6, 12000, hard_wall=True)
        for shooter in (he4, thomas):
            gap = shooter.top - shooter.w_min
            for eps in shooter.top - gap * np.geomspace(1e-12, 1.0, 40):
                q = shooter._q(eps)
                im, stop = shooter._turning_and_stop(eps, q)
                assert stop == reference(shooter, im, q)

    def test_two_sided_match_at_converged_energy(self, he4_solution,
                                                 he4_branch_potential):
        # outward and inward log-derivatives agree at the interior match
        # point on an independent discretisation of the converged states
        _, pot = he4_branch_potential
        _, states = he4_solution
        shooter = _he4_shooter(pot, 6001)
        for s in states:
            eps = 2.0 * pot.problem.system.units.mass_scale * s.energy
            assert abs(shooter.sweep(eps).resid) < 1e-6

    def test_state_outside_window_is_solver_error(self):
        shooter = _Shooter(FlatPotential(w0=2.0).values, 0.0, 0.0,
                           0.5, 50.0, 500)
        with pytest.raises(SolverError, match="not contained"):
            shooter.eigenvalue(0)

    def test_oscillator_spectrum(self):
        # s-wave oscillator -f'' + rho^2 f = eps f, f(0) = 0: eps_k = 4k + 3
        states = solve_bound_states(OscillatorPotential(), 20, rho_min=0.05,
                                    rho_max=14.0, n=8000)
        assert len(states) == 10
        for k, s in enumerate(states):
            assert s.node_count == k
            assert abs(s.energy / (4 * k + 3) - 1.0) < 5e-4

    @settings(max_examples=12, deadline=None)
    @given(c=st.floats(0.25, 4.0), n=st.sampled_from([2000, 4000, 8000]))
    def test_count_steps_at_each_eigenvalue(self, c, n):
        # the count steps from k to k + 1 exactly at the root of the match
        states = solve_bound_states(OscillatorPotential(c), 20, rho_min=0.05,
                                    rho_max=14.0, n=n)
        assert states
        shooter = _Shooter(OscillatorPotential(c).values, 40.0, 40.0,
                           0.05, 14.0, n)
        for k, s in enumerate(states):
            assert shooter.count(s.energy * (1.0 - 1e-9)) == k
            assert shooter.count(s.energy * (1.0 + 1e-9)) == k + 1

    def test_states_share_node_count_probes(self):
        # the states share one table of sweeps, which changes no energy
        # whichever order the states are found in
        def shooter():
            return _Shooter(OscillatorPotential().values, 40.0, 40.0,
                            0.05, 14.0, 8000)
        alone, probes = [], 0
        for k in range(4):
            s = shooter()
            alone.append(s.eigenvalue(k))
            probes += s.sweep.cache_info().currsize
        up, down = shooter(), shooter()
        assert [up.eigenvalue(k) for k in range(4)] == alone
        assert [down.eigenvalue(k) for k in (3, 2, 1, 0)] == alone[::-1]
        assert up.sweep.cache_info().currsize < probes

    def test_failed_validation_is_solver_error(self, monkeypatch):
        # an energy off the eigenvalue leaves a large match residual
        monkeypatch.setattr(_Shooter, "eigenvalue",
                            lambda self, k: 4.0 * k + 3.5)
        with pytest.raises(SolverError, match="fails validation"):
            solve_bound_states(OscillatorPotential(), 2, rho_min=0.05,
                               rho_max=14.0, n=8000)

    def test_wavefunction_normalization(self, he4_solution):
        _, states = he4_solution
        for s in states:
            assert np.abs(s.f).max() == pytest.approx(1.0, rel=1e-12)
            assert s.f[np.abs(s.f).argmax()] > 0.0

    def test_ground_state_peak_location(self, he4_solution):
        _, states = he4_solution
        s0 = states[0]
        peak = s0.rho[np.abs(s0.f).argmax()]
        assert 10.0 < peak < 40.0

    def test_excited_state_is_extended(self, he4_solution):
        _, states = he4_solution
        s1 = states[1]
        peak = s1.rho[np.abs(s1.f).argmax()]
        assert 100.0 < peak < 500.0

    def test_repulsive_potential_binds_nothing(self):
        pot = FlatPotential(w0=2.0, threshold=0.0)
        assert solve_bound_states(pot, 4, rho_min=0.5, rho_max=50.0, n=500) == []

    def test_max_states_zero(self, he4_branch_potential):
        _, pot = he4_branch_potential
        assert solve_bound_states(pot, 0) == []

    def test_default_rho_max(self, he4_branch_potential):
        from zrtrimer.radial import default_rho_max
        _, pot = he4_branch_potential
        assert default_rho_max(pot) == 4000.0     # 20|a| = 3781 < 4000

    def test_boundary_insensitivity(self, he4_branch_potential, he4_solution):
        _, pot = he4_branch_potential
        _, states = he4_solution
        wider = solve_bound_states(pot, 4, rho_min=0.05, rho_max=6000.0, n=8000)
        # the halo state barely moves when the box grows by 50%
        assert wider[1].energy_mk == pytest.approx(states[1].energy_mk,
                                                   rel=0.005)


class TestThomasSpectrum:
    def test_ratios_approach_geometric(self, thomas_default):
        spec = thomas_default
        target = math.exp(2 * math.pi / spec.g)
        assert len(spec.energies) == 5
        assert len(spec.ratios) == 4
        for r in spec.ratios[1:]:
            assert r == pytest.approx(target, rel=0.05)
        # energies strictly negative, increasing toward zero
        es = spec.energies
        assert all(e < 0 for e in es)
        assert all(es[i] < es[i + 1] for i in range(len(es) - 1))

    def test_cutoff_halving_scales_quadratically(self, thomas_default):
        deeper = thomas_spectrum(cutoff_rho0=0.05, outer_rho=3e6, n_states=2)
        assert deeper.energies[0] / thomas_default.energies[0] == pytest.approx(
            4.0, rel=0.01)

    def test_ratio_decreases_with_g(self, thomas_default):
        harder = thomas_spectrum(g=1.2, cutoff_rho0=0.1, outer_rho=3e6,
                                 n_states=3)
        assert harder.ratios[0] < thomas_default.ratios[0]
        assert harder.ratios[1] == pytest.approx(math.exp(2 * math.pi / 1.2),
                                                 rel=0.05)

    def test_default_energies_pinned(self, thomas_default):
        # exact eigenvalues of the discrete hard-wall problem on the default
        # grid, from an 18-digit extended-precision bisection; abs=0 checks
        # the levels below 1e-12 too, and a regular inner start moves them
        expected = (-0.00011723040506706622, -2.2737533911468728e-07,
                    -4.41474601010197e-10, -8.571739747033413e-13,
                    -1.6642898735055954e-15)
        assert thomas_default.energies == pytest.approx(expected, rel=1e-10,
                                                        abs=0.0)

    def test_default_g_is_solved_constant(self, thomas_default):
        assert thomas_default.g == efimov_constant()

    def test_validation(self):
        with pytest.raises(ValueError):
            thomas_spectrum(cutoff_rho0=10.0, outer_rho=1.0)
        with pytest.raises(ValueError):
            thomas_spectrum(cutoff_rho0=1.0, outer_rho=50.0)

    def test_more_states_than_available(self):
        spec = thomas_spectrum(cutoff_rho0=0.1, outer_rho=1e4, n_states=10,
                               n=6000)
        # the window supports only a few states; no junk levels appear
        assert 2 <= len(spec.energies) <= 4
        for r in spec.ratios:
            assert r > 1.0
