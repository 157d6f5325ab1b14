import dataclasses
import gc
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg.blas import dtbsv

from zrtrimer import (
    AngularProblem,
    PairParams,
    ParticleSystem,
    SolverError,
    count_nodes,
    critical_p_shape,
    effective_potential,
    efimov_constant,
    solve_bound_states,
    thomas_spectrum,
    trace_branch,
)
import zrtrimer.cli as cli
from zrtrimer import radial
from zrtrimer.angular import MAX_RESIDUAL
from zrtrimer.radial import _carry, _Shooter
from zrtrimer.system import DEFAULT_MASS_SCALE

from trimer_params import (HE4_A, HE4_MASS, HE4_P, HE4_REFF,
                           bundled_config_text)


class FlatPotential:
    """Constant-W stub exposing the potential interface, internal units;
    it has no `problem`, so solves pass rho_max."""

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


def _carry_reference(v, p):
    """Johnson's renormalized recursion, one point at a time: x_i = v_i +
    p_{i-1}, p_i = x_i/(1 + x_i); a node where x < -1.  Never forms an
    amplitude, so it cannot overflow."""
    nodes, ps = 0, [p]
    for vi in v.tolist():
        x = vi + p
        if x < -1.0:
            nodes += 1
        p = x / (1.0 + x)
        ps.append(p)
    return nodes, p, np.array(ps)


def _ratios(z):
    """The ratios p_i = D_{i-1}/F_i of a carry, the seed first."""
    return z[0::2] / z[1::2]


def _constant_q_v(k, h, n):
    """v along n - 2 points of g'' = k^2 g and the exact seed of exp(k t)."""
    hq = h * h * k * k
    return np.full(n - 2, hq / (1.0 - hq / 12.0)), -math.expm1(-k * h)


def _constant_q_sweep(k, h, n):
    """ln(F_i / F_0) of g'' = k^2 g carried from the exact start of
    exp(k t); F_{j+1}/F_j = 1/(1 - p_j).  Logs, so no e-fold count
    overflows."""
    ps = _ratios(_carry(*_constant_q_v(k, h, n))[1])
    return np.concatenate([[0.0], np.cumsum(-np.log1p(-ps))])


def _he4_shooter(pot, n):
    return _Shooter(pot.values, pot.w_inf, min(pot.w_inf, pot.threshold),
                    0.05, 4000.0, n)


def _thomas_shooter():
    """The shooter of the default `thomas_spectrum()`."""
    coef = efimov_constant() ** 2 + 0.25
    return _Shooter(lambda rho: -coef / (rho * rho), 0.0, 0.0,
                    0.1, 3e6, 12000, hard_wall=True)


class TestIntegrate:
    def test_inward_free_exponential(self):
        # the inward seed of the match: a decaying tail swept toward small
        # rho grows as exp(k s); exact up to the Numerov truncation error
        log_f = _constant_q_sweep(1.0, 0.01, 1001)
        assert np.max(np.abs(log_f - 0.01 * np.arange(1001))) < 1e-9
        # the ratios keep the shape over 500 e-folds, up to the truncation
        # error L h^4 / 480 = 1e-8 over L = 500
        log_f = _constant_q_sweep(1.0, 0.01, 50001)
        s = 0.01 * np.arange(50001)
        assert np.max(np.abs(log_f - log_f[-1] - (s - s[-1]))) < 2e-8

    def test_carry_rescales_past_overflow(self, monkeypatch):
        # radial loads scipy.linalg._fblas on its own; scipy.linalg.blas,
        # imported at the top of this file, exports the same routine
        assert radial.dtbsv is dtbsv
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return dtbsv(*args, **kwargs)
        monkeypatch.setattr(radial, "dtbsv", counted)
        # 2000 e-folds pass 2^1000 (693 e-folds) twice, so the band solve
        # restarts twice from a rescaled pair; the loop reference never
        # overflows
        v, p0 = _constant_q_v(1.0, 0.01, 200001)
        nodes, z = _carry(v, p0)
        ps = _ratios(z)
        assert len(calls) == 3
        assert nodes == 0
        assert np.all(np.isfinite(ps))
        assert ps[-1] == pytest.approx(_carry_reference(v, p0)[1],
                                       rel=1e-13, abs=0.0)
        # shape: truncation error L h^4 / 480 = 4.2e-8 over L = 2000
        # (measured 4.35e-8)
        s = 0.01 * np.arange(200001)
        assert np.max(np.abs(_constant_q_sweep(1.0, 0.01, 200001) - s)) < 1e-7
        # a power-of-two restart changes no bit, wherever it falls: cut
        # after every ~2 e-folds, or once in a sweep that also oscillates
        cases = [(v[:5000], p0), (np.tile(np.repeat([0.01, -0.05], 250), 10),
                                  0.3)]
        whole = [_carry(vs, seed) for vs, seed in cases]
        # one scratch band for every call, as a shooter passes it: the
        # restarts' zeros are undone, and only the odd rows of column 1
        # keep the last v
        band = np.full((2 * len(v) + 2, 3), -1.0)
        fixed = np.ones(band.shape, dtype=bool)
        fixed[1::2, 1] = False
        for big in (2.0 ** 3, 2.0 ** 60):
            monkeypatch.setattr(radial, "_BIG", big)
            for (vs, seed), (nodes, z) in zip(cases, whole):
                calls.clear()
                split = _carry(vs, seed)
                assert len(calls) > 1
                assert split[0] == nodes
                assert np.array_equal(_ratios(split[1]), _ratios(z))
                shared = _carry(vs, seed, band=band)
                assert shared[0] == nodes
                assert np.array_equal(_ratios(shared[1]), _ratios(z))
                assert np.all(band[fixed] == -1.0)

    @settings(max_examples=100, deadline=None)
    @given(stretches=st.lists(st.tuples(st.integers(1, 3000),
                                        st.floats(-8.0, 0.0), st.booleans()),
                              min_size=1, max_size=8),
           seed=st.integers(0, 2 ** 32 - 1), p=st.floats(-0.9, 1.0))
    def test_carry_matches_reference(self, stretches, seed, p):
        # forbidden (v > 0) and oscillatory (v < 0) stretches of |v| near
        # 10^mag, up to 10^4 points.  p = D/F is ill-conditioned at a node
        # (F -> 0) and at a turning of F (D -> 0), so the ratios are
        # compared with weight 1 + p^2, which bounds the error of the angle
        # arctan p;
        # measured worst over 3000 draws: 1.3e-10 on the ratios, 2.1e-13
        # on the last p
        rng = np.random.default_rng(seed)
        v = np.concatenate([
            (1.0 if forbidden else -1.0)
            * 10.0 ** (mag + 0.1 * rng.standard_normal(length))
            for length, mag, forbidden in stretches])[:10000]
        nodes, z = _carry(v, p)
        ps, p_last = _ratios(z), float(z[-2]) / float(z[-1])
        ref_nodes, ref_p, ref_ps = _carry_reference(v, p)
        assert nodes == ref_nodes
        assert np.all(np.abs(ps - ref_ps) <= 1e-8 * (1.0 + ref_ps ** 2))
        assert abs(p_last - ref_p) <= 1e-11 * (1.0 + ref_p ** 2)

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
            log_f = _constant_q_sweep(1.0, 10.0 / (n - 1), n)
            errs.append(abs(math.expm1(log_f[-1] - 10.0)))
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


@pytest.fixture(scope="module")
def window_shooters(he4_branch_potential):
    """The shooters of the bundled He4 solve and the default Thomas
    spectrum, shared by the examples of a hypothesis test."""
    return {"he4": _he4_shooter(he4_branch_potential[1], 8000),
            "thomas": _thomas_shooter()}


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
        # added in grid order, exceeds the cap; a cumsum must agree exactly.
        # The turning point im is the last sign change of W - eps over the
        # whole grid, also where eps equals a sample of W
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

        def turning_point(shooter, s):
            idx = np.nonzero(s[:-1] * s[1:] < 0.0)[0]
            im = (idx[-1] if len(idx)
                  else (0 if s.min() >= 0.0 else shooter.n - 1))
            return min(max(im, 3), shooter.n - 4)

        for shooter in (he4, thomas):
            gap = shooter.top - shooter.w_min
            samples = shooter.w[np.linspace(0, shooter.n - 1, 12).astype(int)]
            for eps in np.concatenate([
                    shooter.top - gap * np.geomspace(1e-12, 1.0, 40),
                    samples, [shooter.w_min - 1.0, shooter.w.max() + 1.0]]):
                im, stop, q = shooter._turning_and_stop(eps)
                s = shooter.w - eps
                assert np.array_equal(q, 0.25 + shooter.r2 * s)
                assert im == turning_point(shooter, s)
                assert stop == reference(shooter, im, q)

    def test_two_sided_match_at_converged_energy(self, he4_solution,
                                                 he4_branch_potential):
        # outward and inward log-derivatives agree at the interior match
        # point on an independent discretisation of the converged states
        _, pot = he4_branch_potential
        _, states = he4_solution
        shooter = _he4_shooter(pot, 6001)
        for s in states:
            eps = 2.0 * pot.problem.system.mass_scale * s.energy
            assert abs(shooter.sweep(eps).resid) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(which=st.sampled_from(["he4", "thomas"]), x=st.floats(0.0, 1.0))
    def test_phase_within_half_of_count(self, window_shooters, which, x):
        # the refine's bracket: phase - (k + 1/2) has the sign of
        # count - k - 1/2 at every trial energy in the window, whatever
        # the turning point m and the side counts are there
        shooter = window_shooters[which]
        eps = shooter.w_min + x * (shooter.top - shooter.w_min)
        sweep = shooter.sweep(eps)
        assert sweep.count - 0.5 < sweep.phase < sweep.count + 0.5

    def test_non_finite_w_is_solver_error(self):
        # a NaN trial energy would bisect forever: no sweep table hit
        def w_of(rho):
            w = -1.0 / (rho * rho)
            w[100] = math.nan
            return w

        with pytest.raises(SolverError, match="W is not finite"):
            _Shooter(w_of, 0.0, 0.0, 0.5, 50.0, 500)

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
            probes += len(s.table)
        up, down = shooter(), shooter()
        assert [up.eigenvalue(k) for k in range(4)] == alone
        assert [down.eigenvalue(k) for k in (3, 2, 1, 0)] == alone[::-1]
        assert len(up.table) < probes

    def test_shooter_freed_without_garbage_collection(self):
        # no reference cycle keeps a solved shooter and its grid arrays
        # alive after the caller drops it; the requests of a long-running
        # process would otherwise pile them up between full collections
        shooter = _Shooter(OscillatorPotential().values, 40.0, 40.0,
                           0.05, 14.0, 2000)
        shooter.eigenvalue(1)
        alive = weakref.ref(shooter)
        gc.disable()
        try:
            del shooter
            assert alive() is None
        finally:
            gc.enable()

    def test_failed_validation_is_solver_error(self, monkeypatch):
        # an energy off the eigenvalue leaves a large match residual
        monkeypatch.setattr(_Shooter, "eigenvalue",
                            lambda self, k, guess=None, width=0.0:
                            4.0 * k + 3.5)
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
        assert default_rho_max(pot.problem.system) == 4000.0     # 20|a| = 3781 < 4000
        # unitary pairs (a = inf) set no scale: the 4000 au floor
        unitary = SimpleNamespace(pairs=[SimpleNamespace(a=math.inf)] * 3)
        assert default_rho_max(unitary) == 4000.0

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
        with pytest.raises(ValueError, match="outer_rho < inf"):
            thomas_spectrum(outer_rho=math.inf)

    @pytest.mark.parametrize("n_states", [0, -1])
    def test_n_states_must_be_positive(self, n_states):
        with pytest.raises(ValueError, match="n_states >= 1"):
            thomas_spectrum(n_states=n_states)

    @pytest.mark.parametrize("g", [-1.0, 0.0, math.nan, math.inf])
    def test_strength_must_be_finite_and_positive(self, g):
        # only g^2 enters W, so g = -1 would return the spectrum of g = 1
        # labelled -1; the first level's warm guess divides by exp(2 pi/g)
        with pytest.raises(ValueError, match="finite g > 0"):
            thomas_spectrum(g=g, n_states=2)

    def test_warm_levels_match_cold(self, thomas_default):
        # each level from the second on starts from a bracket around the
        # one below divided by the last ratio; a cold solve of the same
        # shooter finds the same levels to the refine's tolerance
        shooter = _thomas_shooter()
        cold = [shooter.eigenvalue(k) / (2.0 * DEFAULT_MASS_SCALE)
                for k in range(5)]
        assert thomas_default.energies == pytest.approx(cold, rel=1e-13,
                                                        abs=0.0)

    def test_default_sweeps(self, monkeypatch):
        # 116 with cold levels and Brent on the twist
        counts = _count_sweeps(monkeypatch)
        counts.append(0)
        thomas_spectrum()
        assert counts == [45]

    def test_more_states_than_available(self):
        spec = thomas_spectrum(cutoff_rho0=0.1, outer_rho=1e4, n_states=10,
                               n=6000)
        # the window supports only a few states; no junk levels appear
        assert 2 <= len(spec.energies) <= 4
        for r in spec.ratios:
            assert r > 1.0


@st.composite
def _he4_pairs(draw):
    """He4-like pairs with P from 1.5 P_c to 0.3.  Nearer P_c the angular
    continuation often loses the branch (exit 2, see
    test_just_above_critical_p_is_solver_failure), so this is the domain
    over which the solve is claimed to work."""
    a = draw(st.floats(-400.0, -40.0))
    r_eff = draw(st.floats(4.0, 20.0))
    p_shape = draw(st.floats(1.5 * critical_p_shape(a, r_eff), 0.3))
    return PairParams(a=a, r_eff=r_eff, p_shape=p_shape)


class TestSolveProperties:
    """The whole pipeline on the bundled grids across the He4 parameter box."""

    GRID = np.exp(np.linspace(math.log(0.05), math.log(4000.0), 600))

    @example(pair=PairParams(a=HE4_A, r_eff=HE4_REFF, p_shape=HE4_P))
    @settings(max_examples=40, deadline=None)
    @given(pair=_he4_pairs())
    def test_spectrum_is_ordered_and_bounded(self, pair):
        problem = AngularProblem(ParticleSystem.identical_bosons(HE4_MASS, pair))
        branch = trace_branch(self.GRID, problem)
        assert np.abs(branch.residuals).max() <= MAX_RESIDUAL
        pot = effective_potential(branch, problem)
        states = solve_bound_states(pot)
        assert states
        assert [s.node_count for s in states] == list(range(len(states)))
        energies = [s.energy for s in states]
        assert all(e0 < e1 for e0, e1 in zip(energies, energies[1:]))
        assert pot.hartree_from_eps(float(pot.w.min())) < energies[0]
        assert energies[-1] < pot.hartree_from_eps(min(pot.w_inf, pot.threshold))


def _count_sweeps(monkeypatch) -> list[int]:
    """Sweeps per solve_bound_states call, from the CLI: a new entry per
    call, incremented by each `_Shooter._sweep` (a caller may append an
    entry of its own to count another solve)."""
    counts = []
    sweep, solve = _Shooter._sweep, cli.solve_bound_states

    def counted_sweep(self, eps):
        counts[-1] += 1
        return sweep(self, eps)

    def counted_solve(*args, **kwargs):
        counts.append(0)
        return solve(*args, **kwargs)
    monkeypatch.setattr(_Shooter, "_sweep", counted_sweep)
    monkeypatch.setattr(cli, "solve_bound_states", counted_solve)
    return counts


class TestWarmStart:
    """solve_bound_states(prior=...): brackets started from the last scan
    point by first-order perturbation theory."""

    GRID = TestSolveProperties.GRID

    @settings(max_examples=12, deadline=None)
    @given(pair=_he4_pairs(), step=st.floats(0.002, 0.03))
    def test_warm_scan_matches_cold(self, pair, step):
        # three points of a P scan: each warm solve finds the cold solve's
        # states, to the refine's tolerance
        prior = None
        for j in range(3):
            p = dataclasses.replace(pair, p_shape=pair.p_shape + j * step)
            problem = AngularProblem(
                ParticleSystem.identical_bosons(HE4_MASS, p))
            pot = effective_potential(trace_branch(self.GRID, problem),
                                      problem)
            cold = solve_bound_states(pot)
            warm = solve_bound_states(pot, prior=prior)
            assert ([s.node_count for s in warm]
                    == [s.node_count for s in cold])
            for w, c in zip(warm, cold):
                assert w.energy == pytest.approx(c.energy, rel=1e-13, abs=0.0)
            n_prior = len(prior or [])
            assert all(s.eps_predicted is not None for s in warm[:n_prior])
            assert all(s.eps_predicted is None for s in warm[n_prior:])
            prior = warm

    def test_wrong_prediction_still_finds_each_state(self, he4_cfg,
                                                     he4_solution):
        # a prior with states 0 and 1 swapped predicts each state at the
        # other: the brackets widen until their counts hold the right one
        pot, cold = he4_solution
        swapped = [dataclasses.replace(cold[0], eps=cold[1].eps),
                   dataclasses.replace(cold[1], eps=cold[0].eps)]
        warm = cli.solve_for_config(he4_cfg, swapped)[1]
        assert [s.node_count for s in warm] == [0, 1]
        for w, c in zip(warm, cold):
            assert w.energy == pytest.approx(c.energy, rel=1e-13, abs=0.0)

    def test_far_prior_and_no_prediction_fall_back(self, he4_cfg,
                                                   he4_solution):
        _, cold = he4_solution
        # a prior from far away (P = 0.3) and one whose miss is NaN: the
        # first widens, the second has no width and runs cold
        far = cli.solve_for_config(cli._with_pshape(he4_cfg, 0.3))[1]
        lost = [dataclasses.replace(s, eps_predicted=math.nan) for s in cold]
        for prior in (far, lost):
            warm = cli.solve_for_config(he4_cfg, prior)[1]
            assert [s.node_count for s in warm] == [0, 1]
            for w, c in zip(warm, cold):
                assert w.energy == pytest.approx(c.energy, rel=1e-13,
                                                 abs=0.0)

    def test_prior_on_another_grid_is_ignored(self, he4_branch_potential,
                                              he4_solution):
        _, pot = he4_branch_potential
        _, cold = he4_solution
        states = solve_bound_states(pot, n=6000, prior=cold)
        assert [s.eps_predicted for s in states] == [None, None]

    def test_bracket_that_reaches_the_window_runs_cold(self):
        # oscillator levels 3, 7, 11, ... in a window up to 40: around 39,
        # half-widths 0.5, 2, 8 and 32 never hold state 0 and 128 spans
        # the window, so the solve runs cold; state 12 lies above the
        # window, so the cold count check fails as it does without a guess
        shooter = _Shooter(OscillatorPotential().values, 40.0, 40.0,
                           0.05, 14.0, 2000)
        assert shooter._warm_bracket(0, 39.0, 0.5) is None
        assert shooter.eigenvalue(0, 39.0, 0.5) == pytest.approx(
            shooter.eigenvalue(0), rel=1e-13, abs=0.0)
        assert shooter._warm_bracket(12, 39.0, 0.5) is None
        with pytest.raises(SolverError, match="not contained"):
            shooter.eigenvalue(12, 39.0, 0.5)
        assert shooter.eigenvalue(3, 15.2, 0.01) == pytest.approx(
            shooter.eigenvalue(3), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("grid", [["--p-step", "0.015"], []])
    def test_scan_sweeps_per_point(self, tmp_path, monkeypatch, grid):
        # Numerov sweeps per scan point on either grid (P step 0.015 and
        # the default 0.005); 43 cold and up to 28 warm with Brent on
        # the twist, 34 and up to 19 with a second sweep for each wave
        path = tmp_path / "he4_trimer.cfg"
        path.write_text(bundled_config_text("he4_trimer"))
        counts = _count_sweeps(monkeypatch)
        assert cli.main(["scan-p", "--config", str(path),
                         "--p-min", "0.10", "--p-max", "0.16"] + grid) == 0
        assert counts[0] == 32
        assert max(counts[1:]) <= 18

    # 44 and 23 with Brent on the twist, 34 and 19 with a second sweep
    # for each wave
    @pytest.mark.parametrize("cfg_name, sweeps", [("he4_cfg", 33),
                                                   ("mixed_cfg", 18)])
    def test_solve_sweeps_unchanged(self, request, monkeypatch, cfg_name,
                                    sweeps):
        counts = _count_sweeps(monkeypatch)
        cli.solve_for_config(request.getfixturevalue(cfg_name))
        assert counts == [sweeps]
