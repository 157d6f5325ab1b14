import contextlib
import dataclasses
import decimal
import gc
import math
import sys
import threading
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg.blas import dtbsv
from scipy.optimize import brentq

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
from zrtrimer.system import BRENT_RTOL, DEFAULT_MASS_SCALE

from trimer_params import (HE4_A, HE4_MASS, HE4_P, HE4_REFF,
                           bundled_config_text)


class FlatPotential:
    """Constant-W stub exposing the potential interface, internal units;
    it has no `problem`, so solves pass rho_max."""

    q_convention = "leading_term"

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


def _carry_one(v, p, band=None):
    """`_carry` on one side: -v written into the odd rows of column 1 of
    the band, or of a fresh one, as a shooter writes it."""
    if band is None:
        band = np.full((2 * len(v) + 2, 3), -1.0)
    band = band[:2 * len(v) + 2]
    np.negative(v, out=band[1:-1:2, 1])
    return _carry(band, np.empty(len(band)), [(0, p)])


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
    ps = _ratios(_carry_one(*_constant_q_v(k, h, n))[1])
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
        nodes, z = _carry_one(v, p0)
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
        whole = [_carry_one(vs, seed) for vs, seed in cases]
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
                split = _carry_one(vs, seed)
                assert len(calls) > 1
                assert split[0] == nodes
                assert np.array_equal(_ratios(split[1]), _ratios(z))
                shared = _carry_one(vs, seed, band=band)
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
        nodes, z = _carry_one(v, p)
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


def _two_call_sweep(shooter, eps):
    """The sweep at eps carried as two separate one-side carries, outward
    along v[1:m] and inward along v[m + 1:stop] reversed: (count, resid),
    the sign changes on both sides and each side's z.  For hard walls or
    the seed f ~ rho (shift 0)."""
    m, stop, q = shooter._turning_and_stop(eps)
    hq = shooter.h * shooter.h * q
    tq = hq / 12.0
    v = hq / (1.0 - tq)
    if shooter.hard_wall:
        p_lo = p_hi = 1.0
    else:
        w_stop = (shooter.w_inf if stop == shooter.n - 1
                  else float(shooter.w[stop]))
        kappa = math.sqrt(max(w_stop - eps, 0.0))
        p_lo = radial._seed(tq, 0, 1, 0.5 * shooter.h)
        p_hi = radial._seed(tq, stop, stop - 1, 0.5 * shooter.h + kappa
                            * (shooter.rho[stop] - shooter.rho[stop - 1]))
    n_out, z_out = _carry_one(v[1:m], p_lo)
    n_in, z_in = _carry_one(v[m + 1:stop][::-1], p_hi)
    p_in = float(z_in[-2]) / float(z_in[-1])
    x_m = float(v[m]) + float(z_out[-2]) / float(z_out[-1])
    d = x_m + p_in
    resid = d / (abs(x_m) + abs(p_in) + shooter.h)
    turns = n_out + n_in
    return (turns + (d < 0.0), resid), turns, z_out, z_in


class TestOneCallSweep:
    """_Shooter._sweep solves the outward and the inward carry as one band
    system, in one substitution, with the seam between them zeroed."""

    @pytest.mark.parametrize("which", ["he4", "thomas"])
    def test_matches_two_carries(self, he4_branch_potential, monkeypatch,
                                 which):
        # bit for bit, also where a lowered _BIG restarts the substitution
        # on one side or on both: a restart on the outward side solves the
        # inward one again from its seed
        shooter = _window_shooter(which, he4_branch_potential[1])
        solved = []

        def recorded(*args, **kwargs):
            solved.append(len(args[2]))     # the rows substituted
            return dtbsv(*args, **kwargs)
        monkeypatch.setattr(radial, "dtbsv", recorded)
        big0, kinds = radial._BIG, set()
        gap = shooter.top - shooter.w.min()
        for eps in shooter.top - gap * np.geomspace(1e-12, 1.0, 13):
            monkeypatch.setattr(radial, "_BIG", big0)
            scalars, _, ref_out, ref_in = _two_call_sweep(shooter, eps)
            rows, seam = len(ref_out) + len(ref_in), len(ref_out)
            # a side restarts when its last pair reaches _BIG: pick one
            # between the two sides' last amplitudes and one below both,
            # at least 2 so that a rescaled pair can grow past it
            tails = (max(abs(ref_out[-2:])), max(abs(ref_in[-2:])))
            lo, hi = sorted(tails)
            bigs = {"none": big0}
            if hi > 2.0 * max(lo, 2.0):
                kind = "outward" if tails[0] == hi else "inward"
                bigs[kind] = max(2.0, math.sqrt(lo * hi))
            if lo >= 4.0:
                bigs["both"] = lo / 2.0
            for kind, big in bigs.items():
                monkeypatch.setattr(radial, "_BIG", big)
                solved.clear()
                assert tuple(shooter._sweep(eps)) == scalars
                z_out, z_in = shooter.last[2:4]
                assert np.array_equal(_ratios(z_out), _ratios(ref_out))
                assert np.array_equal(_ratios(z_in), _ratios(ref_in))
                # one substitution over both sides, then one per restart
                assert solved[0] == rows
                restarted = {"outward" if rows - n < seam else "inward"
                             for n in solved[1:]}
                assert restarted == ({"outward", "inward"} if kind == "both"
                                     else {kind} - {"none"})
                kinds.add(kind)
        assert kinds >= ({"outward", "inward"} if which == "he4"
                         else {"inward", "both"})

    @pytest.mark.parametrize("which", ["he4", "thomas"])
    def test_wave_from_the_carry(self, he4_branch_potential, monkeypatch,
                                 which):
        # each state's f, read straight from the carry, is the ratio
        # products' f within a few ulp of max|f|; with _BIG lowered so
        # that the sides restart, it is the ratio products', bit for bit
        shooter = _window_shooter(which, he4_branch_potential[1])
        sqrt_rho = np.sqrt(shooter.rho)

        def products():
            _, _, z_out, z_in, tq, _ = shooter.last
            f = shooter._amplitudes(z_out, z_in, tq) * sqrt_rho
            return f / f[np.abs(f).argmax()]
        big0 = radial._BIG
        for k in range(min(3, shooter.count(shooter.top))):
            eps = shooter.eigenvalue(k)
            for big in (big0, 4.0):
                monkeypatch.setattr(radial, "_BIG", big)
                shooter._sweep(eps)
                f = shooter.wave(eps)[1]
                carried = shooter.last[-1]
                assert carried == (big == big0)
                if carried:
                    assert np.max(np.abs(f - products())) <= 1e-14
                else:
                    assert np.array_equal(f, products())
                assert count_nodes(f) == k

    def test_side_past_rescue_leaves_the_next_exact(self):
        # v = 1e305 passes 2^1000 one step from a rescaled pair, so no
        # restart can save that side; the side after it is solved again
        # from its seed, as a one-side carry solves it
        inward = np.full(40, 0.3)
        band = np.full((42 + 82, 3), -1.0)      # 20 and 40 points
        band[1:40:2, 1] = -1e305
        np.negative(inward, out=band[43:-2:2, 1])
        _, z = _carry(band, np.empty(len(band)), [(0, 0.2), (42, 0.1)])
        assert not np.isfinite(z[40:42]).all()
        assert np.array_equal(_ratios(z[42:]),
                              _ratios(_carry_one(inward, 0.1)[1]))
        fixed = np.ones(band.shape, dtype=bool)
        fixed[1::2, 1] = False
        assert np.all(band[fixed] == -1.0)


@pytest.fixture(scope="module")
def window_shooters(he4_branch_potential):
    """The shooters of the bundled He4 solve and the default Thomas
    spectrum, shared by the examples of a hypothesis test."""
    return {"he4": _he4_shooter(he4_branch_potential[1], 8000),
            "thomas": _thomas_shooter()}


def _window_shooter(which, pot):
    """A fresh shooter, its table empty: the bundled He4 window (top below
    0), the default Thomas one (top 0) or the oscillator's (top 40)."""
    if which == "he4":
        return _he4_shooter(pot, 8000)
    if which == "thomas":
        return _thomas_shooter()
    return _Shooter(OscillatorPotential().values, 40.0, 40.0, 0.05, 14.0,
                    2000)


def _bisected_levels(shooter) -> list[float]:
    """Every state of the window by plain bisection of [w_min, top] at the
    midpoint on the count alone, down to adjacent doubles: where the count
    steps from k to k + 1, without log steps or Brent."""
    levels = []
    for k in range(shooter.count(shooter.top)):
        lo, hi = shooter.w_min, shooter.top
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (lo, mid) if shooter.count(mid) > k else (mid, hi)
        levels.append(hi)
    return levels


WINDOWS = ("he4", "thomas", "oscillator")


@pytest.fixture(scope="module")
def bisected_levels(he4_branch_potential):
    return {which: _bisected_levels(_window_shooter(
        which, he4_branch_potential[1])) for which in WINDOWS}


class TestColdEigenvalue:
    """_Shooter.eigenvalue without a guess: the window [w_min, top),
    bisected in log energy while its ends are negative and more than a
    factor 2 apart, then at the midpoint, and Newton steps from every
    iterate with k sign changes."""

    @settings(max_examples=30, deadline=None)
    @given(which=st.sampled_from(WINDOWS),
           k=st.integers(0, 9),
           spread=st.lists(st.floats(0.0, 1.0), max_size=3),
           near=st.lists(st.tuples(st.integers(0, 9), st.floats(-0.5, 0.5)),
                         max_size=3))
    def test_matches_linear_bisection(self, he4_branch_potential,
                                      bisected_levels, which, k, spread,
                                      near):
        # energies swept beforehand, spread over the window or near any
        # state, change no bit of the state found: a cold energy is a
        # function of the window alone
        levels = bisected_levels[which]
        shooter = _window_shooter(which, he4_branch_potential[1])
        swept = [shooter.w_min + x * (shooter.top - shooter.w_min)
                 for x in spread]
        swept += [levels[j % len(levels)] * (1.0 + rel) for j, rel in near]
        for eps in swept:
            shooter.sweep(min(shooter.top, max(shooter.w_min, eps)))
        k %= len(levels)
        eps = shooter.eigenvalue(k)
        assert eps == pytest.approx(levels[k], rel=1e-13, abs=0.0)
        assert eps == _window_shooter(which,
                                      he4_branch_potential[1]).eigenvalue(k)

    def test_without_newton_steps_bisects_to_the_count_step(
            self, he4_branch_potential, bisected_levels, monkeypatch):
        # with every Newton step NaN the search only bisects, until no
        # double lies inside its bracket, and returns the upper end: in
        # the oscillator window, all midpoints, the plain bisection's
        # level bit for bit
        sweep = _Shooter._sweep

        def stepless(self, eps):
            out = sweep(self, eps)
            self.steps[eps] = math.nan
            return out
        monkeypatch.setattr(_Shooter, "_sweep", stepless)
        shooter = _window_shooter("oscillator", he4_branch_potential[1])
        levels = bisected_levels["oscillator"]
        assert [shooter.eigenvalue(k) for k in range(len(levels))] == levels

    @pytest.mark.parametrize("guess", [None, 17.0])
    def test_state_below_the_floor_is_not_contained(self, guess):
        # w_min raised above state 3 (at 15): every iterate counts more
        # than 3, the bracket closes on the floor, and the count there
        # refuses the state, cold or warm
        shooter = _Shooter(OscillatorPotential().values, 40.0, 40.0,
                           0.05, 14.0, 2000)
        shooter.w_min = 16.0
        with pytest.raises(SolverError, match="state 3 not contained"):
            shooter.eigenvalue(3, guess)
        assert shooter.count(16.0) == 4


def _assert_sturm_floor(shooter):
    """The window's floor min (W + 1/(4 rho^2)) never lies below min W,
    and no state lies at or below it: there q >= 0 on the whole grid."""
    assert shooter.w_min >= shooter.w.min()
    assert shooter.count(shooter.w_min) == 0


class TestSturmFloor:
    """_Shooter.w_min, the floor of every cold window, is the Sturm floor
    min (W + 1/(4 rho^2)) over the grid: at or below it q = 1/4 + rho^2
    (W - eps) >= 0 everywhere, so no carry from the seeds changes sign
    and the count is 0."""

    @pytest.mark.parametrize("cfg_name", ["he4_cfg", "mixed_cfg"])
    @pytest.mark.parametrize("convention", ["leading_term", "none"])
    def test_bundled_potentials(self, request, cfg_name, convention):
        cfg = dataclasses.replace(request.getfixturevalue(cfg_name),
                                  q_convention=convention)
        shooters = {id(s): s for s, _, _ in
                    _states_found(lambda: cli.solve_for_config(cfg))}
        for shooter in shooters.values():
            _assert_sturm_floor(shooter)

    @pytest.mark.parametrize("g", [0.3, None, 5.0])
    @pytest.mark.parametrize("walls", [(0.1, 3e6), (0.05, 3e6), (0.1, 1e4)])
    def test_thomas_walls(self, g, walls):
        shooters = {id(s): s for s, _, _ in
                    _states_found(lambda: thomas_spectrum(g, *walls))}
        for shooter in shooters.values():
            _assert_sturm_floor(shooter)


def _twist(shooter, eps):
    """d at eps, the Newton step `_sweep` keeps for it, and (m, cutoff):
    a fresh sweep, d rebuilt from its carries as _two_call_sweep does."""
    shooter._sweep(eps)
    _, _, z_out, z_in, tq, _ = shooter.last
    m = len(z_out) // 2
    d = (12.0 * tq[m] / (1.0 - tq[m]) + z_out[-2] / z_out[-1]
         + z_in[-2] / z_in[-1])
    return float(d), shooter.steps[eps], (m, len(tq) - 1)


class TestNewtonStep:
    """The step d / (h^2 sum rho^2 g^2) of `_Shooter._sweep`: d over its
    energy derivative, read from the carries."""

    @pytest.mark.parametrize("which", WINDOWS)
    def test_matches_finite_difference(self, he4_branch_potential,
                                       bisected_levels, which):
        # -d/step against a Richardson-extrapolated central difference of
        # d at 1e-3 and 1e-4 of each state off it, where m and the cutoff
        # stay put over the stencil; measured worst 1.2e-9 (oscillator),
        # 6.1e-9 (Thomas) and 5.8e-10 (He4)
        shooter = _window_shooter(which, he4_branch_potential[1])
        for level in bisected_levels[which]:
            for rel in (-1e-3, -1e-4, 1e-4, 1e-3):
                eps, h = level * (1.0 + rel), 1e-2 * abs(rel * level)
                d, step, sides = _twist(shooter, eps)
                stencil = [_twist(shooter, eps + j * h)[::2]
                           for j in (-2, -1, 1, 2)]
                assert all(s[1] == sides for s in stencil)
                near = (stencil[2][0] - stencil[1][0]) / (2.0 * h)
                far = (stencil[3][0] - stencil[0][0]) / (4.0 * h)
                assert -d / step == pytest.approx((4.0 * near - far) / 3.0,
                                                  rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("which", ["he4", "thomas"])
    def test_restarted_carry_takes_the_ratio_products(
            self, he4_branch_potential, bisected_levels, monkeypatch,
            which):
        # a lowered _BIG restarts the substitution from rescaled pairs, so
        # F along a side lies on several scales: the step then comes from
        # the ratio products, which agree with F read straight from an
        # exact carry
        shooter = _window_shooter(which, he4_branch_potential[1])
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return dtbsv(*args, **kwargs)
        monkeypatch.setattr(radial, "dtbsv", counted)
        for level in bisected_levels[which]:
            for eps in (level * (1.0 - 1e-3), level * (1.0 + 1e-3)):
                monkeypatch.setattr(radial, "_BIG", 2.0 ** 1000)
                _, direct, _ = _twist(shooter, eps)
                monkeypatch.setattr(radial, "_BIG", 4.0)
                calls.clear()
                _, restarted, _ = _twist(shooter, eps)
                assert len(calls) > 1
                assert restarted == pytest.approx(direct, rel=1e-9, abs=0.0)


class TestLogStep:
    """A Newton step longer than _LOG_STEP |eps| from a negative iterate is
    taken in ln(-eps), to eps exp(step / eps), and judged by the same
    safeguards as a linear one."""

    @pytest.mark.parametrize("which", ["he4", "thomas"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_huge_step_bisects(self, he4_branch_potential, bisected_levels,
                               monkeypatch, which, sign):
        # the first step the search reads set to +-1e300 |eps|: toward 0 it
        # lands on eps exp(-1e300) = -0.0, outside the bracket; away from
        # 0 its exponent overflows math.exp and there is no candidate.
        # Either way the search bisects and still finds the state
        sweep = _Shooter._sweep
        for k, level in enumerate(bisected_levels[which]):
            patched = []

            def huge(self, eps):
                out = sweep(self, eps)
                if not patched and out.count - (out.resid < 0.0) == k:
                    self.steps[eps] = sign * 1e300 * abs(eps)
                    patched.append(eps)
                return out
            monkeypatch.setattr(_Shooter, "_sweep", huge)
            eps = _window_shooter(which, he4_branch_potential[1]).eigenvalue(k)
            assert patched and patched[0] < 0.0
            assert eps == pytest.approx(level, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("which", ["he4", "thomas"])
    @pytest.mark.parametrize("factor", [100.0, 0.01])
    def test_guess_two_decades_off(self, he4_branch_potential,
                                   bisected_levels, which, factor):
        # a guess two decades off the state is the first iterate (one
        # outside the window runs cold) and the search still stops within
        # a few BRENT_RTOL |eps| of the cold energy
        pot = he4_branch_potential[1]
        for k, level in enumerate(bisected_levels[which]):
            cold = _window_shooter(which, pot).eigenvalue(k)
            eps = _window_shooter(which, pot).eigenvalue(k, factor * level)
            assert abs(eps - cold) <= 4.0 * BRENT_RTOL * abs(cold)


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

    def test_inner_seed_converges_under_none(self, he4_branch_potential):
        # under q_convention = none, W -> -1/(4 rho^2) near 0: the regular
        # solution is f ~ rho^(1/2), and the outward seed takes alpha = 1/2
        # from the shift.  At a fixed log step E0 then converges in
        # radial_rho_min, about 2.8x per halving toward -483.215 mK; seeded
        # as f ~ rho it moved -11.1, -9.4 and -8.1 mK per halving
        branch, pot = he4_branch_potential
        none = effective_potential(branch, pot.problem, "none")
        rho_max = 0.1 * 2.0 ** (7644 / 500)     # log step ln 2 / 500
        e0 = [solve_bound_states(none, rho_min=0.1 / 2 ** k, rho_max=rho_max,
                                 n=7645 + 500 * k)[0].energy_mk
              for k in range(4)]
        steps = np.diff(e0)
        assert np.all(steps[:-1] / steps[1:] >= 2.5)
        assert e0[-1] == pytest.approx(-483.215, abs=0.05)

    def test_node_count_monotone_in_energy(self, he4_branch_potential):
        _, pot = he4_branch_potential
        shooter = _he4_shooter(pot, 4000)
        eps_grid = np.linspace(shooter.w.min() * 0.9,
                               shooter.top * 1.5, 25)
        counts = [shooter.count(e) for e in eps_grid]
        assert counts == sorted(counts)

    def test_cutoff_matches_loop_reference(self, he4_branch_potential):
        # the barrier cutoff: first index past im whose running action,
        # added in grid order, exceeds the cap; the windowed cumsum, rerun
        # over the whole grid when the window falls short, must agree
        # exactly.  The turning point im is the last
        # sign change of W - eps over the whole grid, also where eps equals
        # a sample of W, and q is 1/4 + rho^2 (W - eps) up to the cutoff
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

        def one_signed_tail_edges(w):
            # W[j] for j where W[j + 1:] lies strictly on one side of W[j]:
            # at eps = W[j], W - eps is 0 at the edge of its one-signed tail
            js = np.linspace(0, len(w) - 1, 60).astype(int)
            return [w[j] for j in js
                    if (w[j + 1:] > w[j]).all() or (w[j + 1:] < w[j]).all()]

        for shooter in (he4, thomas):
            gap = shooter.top - shooter.w.min()
            samples = shooter.w[np.linspace(0, shooter.n - 1, 12).astype(int)]
            edges = one_signed_tail_edges(shooter.w)
            assert len(edges) >= 4
            # deepest first, then each energy between a deep and a shallow
            # one: the action window, sized from the last sweep's cutoff,
            # then falls short of some cutoffs and is rerun
            ladder = shooter.top - gap * np.geomspace(1e-12, 1.0, 40)
            energies = np.concatenate([
                ladder[::-1], np.ravel(np.column_stack([ladder, ladder[::-1]])),
                samples, edges,
                [shooter.w.min() - 1.0, shooter.w.max() + 1.0]])
            extended = 0
            for eps in energies:
                reach = shooter.reach
                im, stop, q = shooter._turning_and_stop(eps)
                s = shooter.w - eps
                full_q = 0.25 + shooter.r2 * s
                assert np.array_equal(q, full_q[:stop + 1])
                assert im == turning_point(shooter, s)
                assert stop == reference(shooter, im, full_q)
                extended += stop - im >= reach and im + reach < shooter.n - 1
            assert extended > 0

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
    def test_count_is_turns_and_sign_of_resid(self, window_shooters, which,
                                              x):
        # count = sign changes on both sides + (resid < 0) at every trial
        # energy in the window, whatever the turning point m and the side
        # counts are there: the Newton search reads the sign changes as
        # count - (resid < 0)
        shooter = window_shooters[which]
        eps = shooter.w.min() + x * (shooter.top - shooter.w.min())
        sweep = shooter.sweep(eps)
        turns = _two_call_sweep(shooter, eps)[1]
        assert sweep.count == turns + (sweep.resid < 0.0)

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
                            lambda self, k, guess=None:
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

    @pytest.mark.parametrize("grid", [
        dict(n=1), dict(n=3), dict(n=6), dict(rho_min=1.0, rho_max=1.0),
        dict(rho_min=-1.0), dict(rho_min=10.0, rho_max=1.0),
        dict(rho_max=math.inf), dict(rho_min=math.nan)])
    def test_grid_validation(self, he4_branch_potential, grid):
        # m is clamped to [3, n - 4]; unchecked, these grids raised
        # IndexError, numpy's zero-size ValueError, ZeroDivisionError, a
        # math domain error or a misleading SolverError
        with pytest.raises(ValueError, match="n >= 7"):
            solve_bound_states(he4_branch_potential[1], **grid)

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


@pytest.fixture(scope="module")
def thomas_closed_form(thomas_default):
    """The default spectrum's levels in the continuum (hartree): between
    hard walls at rho0 = 0.1 and rho1 = 3e6, f = sqrt(rho) (A K_ig(kappa
    rho) + B Re I_ig(kappa rho)) vanishes at both, so kappa is a root of
    K_ig(kappa rho0) - Re I_ig(kappa rho0) K_ig(kappa rho1) / Re
    I_ig(kappa rho1); mpmath at 30 digits, by the secant method from each
    level of the shooter."""
    mpmath = pytest.importorskip("mpmath")
    two_m = 2.0 * DEFAULT_MASS_SCALE
    with mpmath.workdps(30):
        order = 1j * mpmath.mpf(thomas_default.g)

        def wall_misfit(kappa):
            k0, k1 = (mpmath.besselk(order, kappa * r).real
                      for r in (0.1, 3e6))
            i0, i1 = (mpmath.besseli(order, kappa * r).real
                      for r in (0.1, 3e6))
            return k0 - i0 * k1 / i1

        levels = []
        for energy in thomas_default.energies:
            kappa = mpmath.sqrt(-two_m * mpmath.mpf(energy))
            root = mpmath.findroot(wall_misfit, (kappa, kappa * (1 + 1e-8)),
                                   solver="secant")
            levels.append(float(-root * root / two_m))
    return levels


class TestThomasSpectrum:
    def test_matches_closed_form(self, thomas_default, thomas_closed_form):
        # the continuum's own levels, not the discrete problem's: measured
        # 2.9e-13 (level 0) to 1.6e-12 (level 4) relative
        assert thomas_default.energies == pytest.approx(
            thomas_closed_form, rel=3e-12, abs=0.0)

    def test_fourth_order_in_the_step(self, thomas_closed_form):
        # Numerov's h^4: from n = 3000 to 6000 the error of levels 0-3
        # falls 19.6-22.2x (16 at fourth order); past n = 12000 it flattens
        # at the rounding floor
        errors = [[abs(e / ref - 1.0) for e, ref in zip(
            thomas_spectrum(n=n, n_states=4).energies, thomas_closed_form)]
            for n in (3000, 6000)]
        assert all(coarse >= 12.0 * fine for coarse, fine in zip(*errors))

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
        with pytest.raises(ValueError, match="n >= 7"):
            thomas_spectrum(n=3)

    @pytest.mark.parametrize("n_states", [0, -1])
    def test_n_states_must_be_positive(self, n_states):
        with pytest.raises(ValueError, match="n_states >= 1"):
            thomas_spectrum(n_states=n_states)

    @pytest.mark.parametrize("g", [-1.0, 0.0, math.nan, math.inf])
    def test_strength_must_be_finite_and_positive(self, g):
        # only g^2 enters W, so g = -1 would return the spectrum of g = 1
        # labelled -1; each level's start divides by g
        with pytest.raises(ValueError, match="finite g > 0"):
            thomas_spectrum(g=g, n_states=2)

    def test_warm_levels_match_cold(self, thomas_default):
        # each level starts its search at a zero of K_ig's small-argument
        # form; a cold solve of the same shooter finds the same levels to
        # the search's tolerance
        shooter = _thomas_shooter()
        cold = [shooter.eigenvalue(k) / (2.0 * DEFAULT_MASS_SCALE)
                for k in range(5)]
        assert thomas_default.energies == pytest.approx(cold, rel=1e-13,
                                                        abs=0.0)

    def test_default_sweeps(self, monkeypatch):
        # 116 with cold levels and Brent on the twist, 45 with warm levels
        # and 41 with the lo/16 step and the refine stopped within Brent's
        # tolerance.  Moving each entry of W by up to 2 ulp at random over
        # 30 seeds gave 35-45 (mean 39.5) against 40-49 (44.2) before.
        # 30 with one Newton search per level and no sweep at w_min: over
        # 30 such seeds 25-29 (mean 27.0) against 36-43 (40.0) before.
        # 16 with each level started at a zero of K_ig's small-argument
        # form: 15-19 (mean 16.9) against 25-29 (27.0) before, by
        # tests/sweep_spread.py; the same 16 and 15-19 (16.90) with long
        # Newton steps taken in ln(-eps)
        counts = _count_sweeps(monkeypatch)
        counts.append(0)
        thomas_spectrum()
        assert counts == [16]

    @pytest.mark.parametrize("g, walls, swept", [
        (g, walls, swept)
        for g, counts in ((0.3, (4, 5, 6)), (0.6, (11, 12, 10)),
                          (None, (16, 15, 11)), (1.2, (16, 16, 16)),
                          (2.0, (15, 16, 22)), (3.0, (18, 17, 28)),
                          (5.0, (22, 22, 34)))
        for walls, swept in zip(((0.1, 3e6, 5), (0.05, 3e6, 5),
                                 (0.1, 1e4, 10)), counts)])
    def test_case_sweeps(self, monkeypatch, g, walls, swept):
        # With each level started at the one below divided by exp(2 pi/g),
        # then by the last ratio, and level 0 cold, these took 15/14/13
        # (g = 0.3), 19/20/16 (0.6), 30/22/17 (Efimov), 26/27/23 (1.2),
        # 25/24/35 (2), 27/28/45 (3) and 28/28/47 (5) sweeps.  Moving each
        # entry of W by up to 2 ulp at random over 30 seeds moves each
        # count by at most 4 (3-5 at the first case, 27-32 at g = 3 on
        # the 1e4 wall, always below the counts before), by
        # tests/sweep_spread.py.  With long Newton steps taken in ln(-eps)
        # g = 2 on the 1e4 wall went 23 -> 22 (spread 22-24, mean 23.23,
        # before; 21-24, 22.37, after); no other case moved
        counts = _count_sweeps(monkeypatch)
        counts.append(0)
        thomas_spectrum(g, *walls)
        assert counts == [swept]

    def test_gamma_phase(self):
        # arg Gamma(1 + i g), whose zeros x_j start the levels; measured
        # within 2.9e-14 of mpmath's over g in [0.05, 20]
        mpmath = pytest.importorskip("mpmath")
        for g in [*np.linspace(0.05, 20.0, 400), efimov_constant()]:
            exact = mpmath.im(mpmath.loggamma(1 + 1j * mpmath.mpf(g)))
            assert abs(radial._gamma_phase(g) - float(exact)) <= 1e-12

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
        states = []
        found = _states_found(lambda: states.extend(solve_bound_states(pot)))
        _assert_sturm_floor(found[0][0])
        assert states
        assert [s.node_count for s in states] == list(range(len(states)))
        energies = [s.energy for s in states]
        assert all(e0 < e1 for e0, e1 in zip(energies, energies[1:]))
        assert pot.hartree_from_eps(float(pot.w.min())) < energies[0]
        assert energies[-1] < pot.hartree_from_eps(min(pot.w_inf, pot.threshold))


def _states_found(run) -> list[tuple[_Shooter, int, float]]:
    """Call run() with every `_Shooter.eigenvalue` recorded: the shooter,
    k and eps of each state it returned."""
    calls = []
    eigenvalue = _Shooter.eigenvalue

    def recorded(self, k, *args):
        eps = eigenvalue(self, k, *args)
        calls.append((self, k, eps))
        return eps
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Shooter, "eigenvalue", recorded)
        run()
    assert calls
    return calls


def _stop_misses(run) -> list[float]:
    """For each state run() found (`_states_found`), |eps - ref| in units
    of BRENT_RTOL |eps|, where ref is a reference refine: scipy's `brentq`
    with no early stop, from ends 1e-9 |eps| either side whose counts hold
    the state, on phase - (k + 1/2) before its rounding, the sign changes
    less k less atan(resid)/pi.  (The rounded phase reads exactly k + 1/2
    over up to 26 doubles around state 4 of a Thomas spectrum, so a refine
    on it stops anywhere on that plateau: up to 5.2 BRENT_RTOL |eps| from
    this reference.)  Both eps and ref must give a wave with k nodes."""
    misses = []
    for shooter, k, eps in _states_found(run):
        lo, hi = eps - 1e-9 * abs(eps), eps + 1e-9 * abs(eps)
        assert (shooter.count(lo), shooter.count(hi)) == (k, k + 1)

        def exact_miss(e):
            sweep = shooter.sweep(e)
            return (sweep.count - (sweep.resid < 0.0) - k
                    - math.atan(sweep.resid) / math.pi)
        ref = brentq(exact_miss, lo, hi, xtol=1e-300, rtol=BRENT_RTOL)
        for e in (eps, ref):
            assert count_nodes(shooter.wave(e)[1]) == k
        misses.append(abs(eps - ref) / (BRENT_RTOL * abs(eps)))
    return misses


class TestRefineStop:
    """The refine stops at the first iterate whose linear distance to the
    root is within BRENT_RTOL |eps|, Brent's own tolerance: every state
    still lies within a few BRENT_RTOL |eps| of Brent's root on the
    unrounded phase without the stop (at worst 2.7 over 300 Thomas
    cutoffs and 2.2 over 40 He4 draws of these ranges when the stop was
    written; 3.3 over 1000 Thomas cutoffs and 1.6 over 40 He4 draws with
    the Newton search, whose steps are that linear distance; 3.13 over
    the same 1000 cutoffs with each Thomas level started at a zero of
    K_ig's small-argument form).  That study draws its cutoffs from numpy
    seed 7; over seeds 7-14 the worst miss per 1000 cutoffs is 3.13-3.95
    with the closed-form start against 2.90-3.63 before, none past 4, so
    a draw of test_thomas_draws lies close to BOUND more often than
    seed 7 alone shows.  With long Newton steps taken in ln(-eps) the
    Thomas seeds 7-14 read 3.13-3.95 again; 40 He4 draws (numpy seed 5)
    read 1.78 against 1.46 before, and 30 draws of the mixed-solve
    benchmark's jitter (seed 5) 3.53 against 2.19."""

    BOUND = 4.0

    @pytest.mark.parametrize("cfg_name", ["he4_cfg", "mixed_cfg"])
    def test_bundled_solves(self, request, cfg_name):
        cfg = request.getfixturevalue(cfg_name)
        assert max(_stop_misses(lambda: cli.solve_for_config(cfg))) \
            <= self.BOUND

    def test_default_thomas(self):
        assert max(_stop_misses(thomas_spectrum)) <= self.BOUND

    @settings(max_examples=6, deadline=None)
    @given(a_factor=st.floats(0.9, 1.1), p_shape=st.floats(0.10, 0.16))
    def test_he4_draws(self, a_factor, p_shape):
        pair = PairParams(a=HE4_A * a_factor, r_eff=HE4_REFF, p_shape=p_shape)
        problem = AngularProblem(ParticleSystem.identical_bosons(HE4_MASS,
                                                                 pair))
        pot = effective_potential(
            trace_branch(TestSolveProperties.GRID, problem), problem)
        assert max(_stop_misses(lambda: solve_bound_states(pot))) \
            <= self.BOUND

    @staticmethod
    def _mixed_jitter(mixed_cfg, a_factor, p_shape):
        """The mixed-solve benchmark's jitter: pair.3 (He4-He4) a scaled,
        P set on every pair, on the bundled grids."""
        cfg = cli._with_pshape(mixed_cfg, p_shape)
        pairs = list(cfg.system.pairs)
        pairs[2] = dataclasses.replace(pairs[2], a=pairs[2].a * a_factor)
        return dataclasses.replace(cfg, system=dataclasses.replace(
            cfg.system, pairs=tuple(pairs)))

    @settings(max_examples=6, deadline=None)
    @given(a_factor=st.floats(0.9, 1.1), p_shape=st.floats(0.10, 0.16))
    def test_mixed_draws(self, mixed_cfg, a_factor, p_shape):
        cfg = self._mixed_jitter(mixed_cfg, a_factor, p_shape)
        assert max(_stop_misses(lambda: cli.solve_for_config(cfg))) \
            <= self.BOUND

    @pytest.mark.xfail(strict=True, reason="state 0 stops 5.66 BRENT_RTOL "
                       "|eps| from the reference, past BOUND")
    def test_mixed_draw_past_bound(self, mixed_cfg):
        # a draw test_mixed_draws can make: the reference refine reads
        # past BOUND here, while the state lies within BOUND of the exact
        # root of its discrete equations (`_discrete_root`)
        cfg = self._mixed_jitter(mixed_cfg, 0.99999, 0.1)
        assert max(_stop_misses(lambda: cli.solve_for_config(cfg))) \
            <= self.BOUND

    @settings(max_examples=6, deadline=None)
    @given(cutoff=st.floats(0.05, 0.2))
    def test_thomas_draws(self, cutoff):
        assert max(_stop_misses(
            lambda: thomas_spectrum(cutoff_rho0=cutoff))) <= self.BOUND


def _discrete_root(shooter, eps: float) -> float:
    """The eigenvalue near eps of the shooter's Numerov equations,
    (1 - tq[i+1]) g[i+1] - 2 (1 + 5 tq[i]) g[i] + (1 - tq[i-1]) g[i-1] = 0
    with tq = h^2 q/12, solved another way: the plain recurrence from the
    inner end row on, in the standard library's decimal at 40 digits,
    from the exact values of the doubles h, rho and W, its outer end row
    bisected 40 times in eps from 1e-6 |eps| either side, to 2e-18 of
    eps.  Between hard walls the end rows are g[0] = 0 and g[n-1] = 0,
    over the whole grid.  With `_sweep`'s own seeds they are g[0] =
    exp(-a) g[1], a = inner_rate h, and g[c] = exp(-b) g[c - 1] at the
    barrier cutoff c of the sweep at eps, b = h/2 + kappa (rho[c] -
    rho[c - 1]), kappa = sqrt(max(W_c - eps, 0)), W_c = w_inf at the
    grid's end.  It is carried in c g, c = 1 - tq: c[i+1] g[i+1] = (12/c[i]
    - 10) c[i] g[i] - c[i-1] g[i-1]."""
    last = (shooter.n - 1 if shooter.hard_wall
            else shooter._turning_and_stop(eps)[1])
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        dec = decimal.Decimal
        twelve, ten, h = dec(12), dec(10), dec(shooter.h)
        h2 = h ** 2 / 12
        r2 = [h2 * dec(r) ** 2 for r in shooter.rho[:last + 1].tolist()]
        one_less = [1 - h2 / 4 - r * dec(w)
                    for r, w in zip(r2, shooter.w[:last + 1].tolist())]
        inner, w_end, step = dec(0), dec(0), dec(0)
        if not shooter.hard_wall:
            inner = (-dec(shooter.inner_rate) * h).exp()
            w_end = dec(shooter.w_inf if last == shooter.n - 1
                        else shooter.w[last])
            step = dec(shooter.rho[last]) - dec(shooter.rho[last - 1])

        def end(e) -> bool:
            c = [b + e * r for b, r in zip(one_less, r2)]
            cg0, cg1 = c[0] * inner, c[1]      # g[1] = 1
            for ci in c[1:-1]:
                cg0, cg1 = cg1, (twelve / ci - ten) * cg1 - cg0
            outer = dec(0)
            if not shooter.hard_wall:
                kappa = max(w_end - e, dec(0)).sqrt()
                outer = (-h / 2 - kappa * step).exp()
            return cg1 / c[-1] - outer * cg0 / c[-2] < 0
        lo, hi = dec(eps) * (1 + dec(1e-6)), dec(eps) * (1 - dec(1e-6))
        below = end(lo)
        assert end(hi) != below
        for _ in range(40):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if end(mid) == below else (lo, mid)
        return float((lo + hi) / 2)


#: Magnitudes at which a drawn carry restarts (`radial._BIG`): the
#: default, and two far below it, past which most carries restart.
_DRAWN_BIGS = (radial._BIG, 2.0 ** 40, 2.0 ** 16)


def _rounding_shift(shooter, eps: float) -> float:
    """The first-order move of the eigenvalue eps when each W - eps on
    the grid moves by one unit in its last place: sum rho f^2 ulp(W -
    eps) / sum rho f^2, f the state's wave.  A root of the rounded
    equations can lie this far from the exact discrete root."""
    _, f = shooter.wave(eps)
    weight = f * f * shooter.rho
    return float((weight * np.spacing(np.abs(shooter.w - eps))).sum()
                 / weight.sum())


class TestDiscreteOracle:
    """The eigenvalues against the same discrete problem solved another way:
    the Numerov equations with the shooter's end rows as a plain
    recurrence at 40 digits (`_discrete_root`), not the shooter's ratio
    carry in double precision.  The Thomas levels and the well's one state
    lie within 4 BRENT_RTOL |eps| of their roots (measured 0.15-0.59 and
    0, the same before the log step).  The draws take the inverse square
    with a cutoff, screened wells and the He4 W on coarse grids, between
    hard walls or with `_sweep`'s own seeds, with the carry restarted at
    the default 2^1000 or far below it, and hold each state to 4
    BRENT_RTOL |eps| plus ROUNDING times `_rounding_shift`: the search
    stops where its Newton step on the rounded equations is within
    BRENT_RTOL |eps|, and the rounded equations' own root lies off the
    exact one by about that shift, which exceeds BRENT_RTOL |eps| where
    eps is small beside W.  Over 8321 drawn states 0 and 1 (numpy seeds
    11-18), 53 missed by more than 4 BRENT_RTOL |eps|: up to 231 at
    |eps| = 1.4e-9 |w_min|, and up to 4.48 on the 4 of them at least
    0.003 |w_min| deep.  Every one lay within 0.54 of its bound."""

    BOUND = 4.0
    ROUNDING = 8.0

    def _check(self, shooter, k, big):
        """State k of the shooter (its last, if it holds fewer), searched
        cold with the carry restarted past big, against the oracle."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(radial, "_BIG", big)
            eps = shooter.eigenvalue(min(k, shooter.count(shooter.top) - 1))
        bound = (self.BOUND * BRENT_RTOL * abs(eps)
                 + self.ROUNDING * _rounding_shift(shooter, eps))
        assert abs(eps - _discrete_root(shooter, eps)) <= bound

    def test_thomas_levels(self):
        # levels 0-2 of thomas_spectrum(n=1500), from its own starts
        states = _states_found(lambda: thomas_spectrum(n=1500, n_states=3))
        for shooter, _, eps in states:
            assert abs(eps - _discrete_root(shooter, eps)) \
                <= self.BOUND * BRENT_RTOL * abs(eps)

    def test_screened_well(self):
        # W = -0.8 exp(-rho/7)/rho between walls at 0.05 and 400: one state
        shooter = _Shooter(lambda rho: -0.8 * np.exp(-rho / 7.0) / rho, 0.0,
                           0.0, 0.05, 400.0, 1000, hard_wall=True)
        assert shooter.count(shooter.top) == 1
        eps = shooter.eigenvalue(0)
        assert abs(eps - _discrete_root(shooter, eps)) \
            <= self.BOUND * BRENT_RTOL * abs(eps)

    @settings(max_examples=10, deadline=None)
    @given(g=st.floats(0.5, 2.0), cut=st.floats(0.3, 3.0),
           n=st.integers(400, 1500), k=st.integers(0, 1),
           hard_wall=st.booleans(), big=st.sampled_from(_DRAWN_BIGS))
    def test_inverse_square_draws(self, g, cut, n, k, hard_wall, big):
        # W = -(g^2 + 1/4) / max(rho, cut)^2 on [0.05, 1e4]
        coef = g * g + 0.25
        shooter = _Shooter(lambda rho: -coef / np.maximum(rho, cut) ** 2,
                           0.0, 0.0, 0.05, 1e4, n, hard_wall=hard_wall)
        self._check(shooter, k, big)

    @settings(max_examples=10, deadline=None)
    @given(depth=st.floats(1.0, 5.0), screen=st.floats(4.0, 20.0),
           n=st.integers(400, 1500), k=st.integers(0, 1),
           hard_wall=st.booleans(), big=st.sampled_from(_DRAWN_BIGS))
    def test_screened_well_draws(self, depth, screen, n, k, hard_wall, big):
        # W = -depth exp(-rho/screen)/rho on [0.05, 400]; depth screen >= 4
        # binds at least one state (the threshold is 1.68)
        shooter = _Shooter(
            lambda rho: -depth * np.exp(-rho / screen) / rho, 0.0, 0.0,
            0.05, 400.0, n, hard_wall=hard_wall)
        self._check(shooter, k, big)

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(800, 1500), k=st.integers(0, 1),
           hard_wall=st.booleans(), big=st.sampled_from(_DRAWN_BIGS))
    def test_he4_coarse_grid_draws(self, he4_branch_potential, n, k,
                                   hard_wall, big):
        # the bundled He4 W on the solve's window over n points
        pot = he4_branch_potential[1]
        shooter = _Shooter(pot.values, pot.w_inf,
                           min(pot.w_inf, pot.threshold), 0.05, 4000.0, n,
                           hard_wall=hard_wall)
        self._check(shooter, k, big)


class TestGridSharing:
    """Shooters on one (rho_min, rho_max, n) share the grid `_log_grid`
    builds, read-only; a prior on another grid starts no search."""

    def test_solves_share_one_read_only_grid(self, he4_branch_potential):
        _, pot = he4_branch_potential
        first, second = solve_bound_states(pot), solve_bound_states(pot)
        rho = first[0].rho
        assert all(s.rho is rho for s in first + second)
        assert rho is radial._log_grid(0.05, 4000.0, 8000).rho
        with pytest.raises(ValueError, match="read-only"):
            rho[0] = 1.0
        assert np.array_equal(
            rho, np.exp(np.linspace(math.log(0.05), math.log(4000.0), 8000)))
        for a in radial._log_grid(0.05, 4000.0, 8000)[1:]:
            assert not a.flags.writeable
        # w is each shooter's own
        assert first[0].w is not second[0].w

    def test_warm_starts_need_the_shooters_grid(self, he4_branch_potential,
                                                he4_solution):
        _, pot = he4_branch_potential
        _, cold = he4_solution

        def shooter(n):
            return _Shooter(pot.values, pot.w_inf,
                            min(pot.w_inf, pot.threshold), 0.05, 4000.0, n)
        other = solve_bound_states(pot, n=6000)
        for prior in ([other], [cold, other], [other, cold]):
            assert radial._warm_starts(shooter(8000), prior) == []
        # the same grid, shared or rebuilt as an equal array: same starts
        shared = radial._warm_starts(shooter(8000), [cold])
        copied = [dataclasses.replace(s, rho=s.rho.copy()) for s in cold]
        assert len(shared) == len(cold)
        assert radial._warm_starts(shooter(8000), [copied]) == shared


class TestScratch:
    """Every shooter of a thread sweeps in that thread's one `_Scratch`: a
    shooter reads its carries back only while its last sweep owns the
    scratch, a carry that raises leaves the band at its invariant, and
    threads never share a scratch."""

    @staticmethod
    def _energies(shooter):
        """Four energies across the window, then the deepest state."""
        gap = shooter.top - shooter.w_min
        return [*(shooter.top - gap * np.geomspace(1e-6, 0.5, 4)),
                shooter.eigenvalue(0)]

    def test_interleaved_shooters(self, he4_branch_potential):
        # a seeded shooter on 8000 points and a hard-wall one on 12000
        # sweep in turn in one scratch, sized for the larger: each one's
        # sweeps, Newton steps and waves are those it makes alone, also
        # the wave each reads after the other has swept
        _, pot = he4_branch_potential
        makers = (lambda: _he4_shooter(pot, 8000), _thomas_shooter)
        plans = [self._energies(make()) for make in makers]

        def run(kinds):
            """Each shooter's sweeps in turn, its steps, then its waves."""
            shooters = [makers[k]() for k in kinds]
            sweeps = [[] for _ in kinds]
            for i in range(len(plans[0])):
                for out, shooter, k in zip(sweeps, shooters, kinds):
                    out.append(shooter._sweep(plans[k][i]))
            waves = [shooter.wave(plans[k][-1])
                     for shooter, k in zip(shooters, kinds)]
            return list(zip(sweeps, [s.steps for s in shooters], waves))
        together = run([0, 1])
        for k, (sweeps, steps, (resid, f)) in enumerate(together):
            [(one_sweeps, one_steps, (one_resid, one_f))] = run([k])
            assert sweeps == one_sweeps
            assert steps == one_steps
            assert resid == one_resid
            assert np.array_equal(f, one_f)
        assert radial._SCRATCH.n >= 12000

    def test_band_after_a_failed_carry(self, he4_branch_potential,
                                       monkeypatch):
        # the substitution raises after the seams are zeroed: the band is
        # back at -1.0 in columns 1 and 2 outside the v rows, and the next
        # solve is bit for bit the one before the failure
        _, pot = he4_branch_potential
        before = solve_bound_states(pot)
        shooter = _he4_shooter(pot, 8000)

        def failing(*args, **kwargs):
            raise RuntimeError("substitution failed")
        monkeypatch.setattr(radial, "dtbsv", failing)
        with pytest.raises(RuntimeError, match="substitution failed"):
            shooter._sweep(before[0].eps)
        monkeypatch.setattr(radial, "dtbsv", dtbsv)
        band = radial._SCRATCH.band
        fixed = np.ones(band.shape, dtype=bool)
        fixed[1::2, 1] = False
        assert np.all(band[fixed] == -1.0)
        after = solve_bound_states(pot)
        assert [s.eps for s in after] == [s.eps for s in before]
        assert all(np.array_equal(a.f, b.f) for a, b in zip(after, before))

    def test_threads_solve_apart(self, he4_branch_potential):
        # three threads (more than the test machine's two cores) solve at
        # once, switching every microsecond: each returns the states of a
        # solve alone, energies and waves bit for bit
        _, pot = he4_branch_potential
        alone = solve_bound_states(pot)
        found = {}

        def solve(i):
            found[i] = [solve_bound_states(pot) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve, args=(i,))
                       for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(found) == [0, 1, 2]
        for states in (s for runs in found.values() for s in runs):
            assert [s.eps for s in states] == [s.eps for s in alone]
            assert all(np.array_equal(a.f, b.f)
                       for a, b in zip(states, alone))


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


@contextlib.contextmanager
def _searches():
    """(shooter, k, guess) of each `_Shooter.eigenvalue` call in the
    block."""
    searches = []
    eigenvalue = _Shooter.eigenvalue

    def recorded(self, k, guess=None):
        searches.append((self, k, guess))
        return eigenvalue(self, k, guess)
    with mock.patch.object(_Shooter, "eigenvalue", recorded):
        yield searches


class TestWarmStart:
    """solve_bound_states(prior=...): searches started from the last two
    scan points, at the Rayleigh quotient of the wave extrapolated in P."""

    GRID = TestSolveProperties.GRID

    @settings(max_examples=12, deadline=None)
    @given(pair=_he4_pairs(), step=st.floats(0.002, 0.03))
    def test_warm_scan_matches_cold(self, pair, step):
        # four points of a P scan: each warm solve finds the cold solve's
        # states, to the refine's tolerance; each state the last point
        # holds has a guess, and one inside the window is the search's
        # first iterate, so it was swept (a state just below a threshold
        # may be guessed above the window's top)
        points = []
        for j in range(4):
            p = dataclasses.replace(pair, p_shape=pair.p_shape + j * step)
            problem = AngularProblem(
                ParticleSystem.identical_bosons(HE4_MASS, p))
            pot = effective_potential(trace_branch(self.GRID, problem),
                                      problem)
            cold = solve_bound_states(pot)
            with _searches() as searches:
                warm = solve_bound_states(pot, prior=points)
            assert ([s.node_count for s in warm]
                    == [s.node_count for s in cold])
            for w, c in zip(warm, cold):
                assert w.energy == pytest.approx(c.energy, rel=1e-13, abs=0.0)
            n_prior = len(points[-1]) if points else 0
            for shooter, k, guess in searches:
                if k >= n_prior:
                    assert guess is None
                elif shooter.w_min < guess < shooter.top:
                    assert guess in shooter.table
            points = [*points[-1:], warm]

    def test_wrong_prediction_still_finds_each_state(self, he4_cfg,
                                                     he4_solution):
        # a prior with states 0 and 1 swapped predicts each state at the
        # other: each search bisects from there to the right one
        pot, cold = he4_solution
        swapped = [dataclasses.replace(cold[0], eps=cold[1].eps),
                   dataclasses.replace(cold[1], eps=cold[0].eps)]
        for prior in ([swapped], [cold, swapped]):
            warm = cli.solve_for_config(he4_cfg, prior)[1]
            assert [s.node_count for s in warm] == [0, 1]
            for w, c in zip(warm, cold):
                assert w.energy == pytest.approx(c.energy, rel=1e-13,
                                                 abs=0.0)

    def test_far_prior_falls_back(self, he4_cfg, he4_solution):
        # a prior from far away (P = 0.3 and 0.25): each search starts far
        # off and still finds its state
        _, cold = he4_solution
        far = [cli.solve_for_config(cli._with_pshape(he4_cfg, p))[1]
               for p in (0.25, 0.3)]
        for prior in (far[1:], far):
            warm = cli.solve_for_config(he4_cfg, prior)[1]
            assert [s.node_count for s in warm] == [0, 1]
            for w, c in zip(warm, cold):
                assert w.energy == pytest.approx(c.energy, rel=1e-13,
                                                 abs=0.0)

    def test_nan_energy_runs_cold(self, he4_cfg, he4_solution):
        # a NaN energy in either point makes a NaN guess, which the search
        # ignores: the cold solve, bit for bit
        _, cold = he4_solution
        lost = [dataclasses.replace(s, eps=math.nan) for s in cold]
        for prior in ([lost], [cold, lost], [lost, cold]):
            with _searches() as searches:
                warm = cli.solve_for_config(he4_cfg, prior)[1]
            assert all(math.isnan(guess) for _, _, guess in searches)
            assert [s.eps for s in warm] == [s.eps for s in cold]

    def test_prior_on_another_grid_is_ignored(self, he4_branch_potential,
                                              he4_solution):
        # states on the 8000-point grid, as the last point or the one
        # before it, start nothing on a 6000-point grid
        _, pot = he4_branch_potential
        _, cold = he4_solution
        same = solve_bound_states(pot, n=6000)
        for prior in ([cold], [same, cold], [cold, same]):
            with _searches() as searches:
                states = solve_bound_states(pot, n=6000, prior=prior)
            assert [guess for _, _, guess in searches] == [None, None]
            assert [s.eps for s in states] == [s.eps for s in same]

    def test_search_from_the_guess(self):
        # oscillator levels 3, 7, 11, ... in a window up to 40.  A guess
        # inside the window is the first iterate: near state 3 the Newton
        # steps start from it, so the table holds only the top, the guess
        # and those steps; at 39, with 9 sign changes, it is the upper end
        # state 0 is bisected down from.  A guess outside the window (NaN,
        # below w_min, at or above the top) runs cold, bit for bit.  State 12
        # lies above the window: the count at the top refuses it, guess or
        # not, after that one sweep
        def shooter():
            return _Shooter(OscillatorPotential().values, 40.0, 40.0,
                            0.05, 14.0, 2000)
        cold = {k: shooter().eigenvalue(k) for k in (0, 3)}
        for k, guess in [(3, 14.9), (3, 15.1), (3, 15.2), (0, 39.0)]:
            warm = shooter()
            assert warm.eigenvalue(k, guess) == pytest.approx(
                cold[k], rel=1e-13, abs=0.0)
            assert guess in warm.table
            if k == 3:
                assert len(warm.table) <= 7
        for guess in (math.nan, -1.0, 40.0, 50.0):
            for k in (0, 3):
                assert shooter().eigenvalue(k, guess) == cold[k]
        lost = shooter()
        with pytest.raises(SolverError, match="not contained"):
            lost.eigenvalue(12, 39.0)
        assert list(lost.table) == [lost.top]

    @pytest.mark.parametrize("grid, total", [(["--p-step", "0.015"], 45),
                                             ([], 113)])
    def test_scan_sweeps_per_point(self, tmp_path, monkeypatch, grid, total):
        # Numerov sweeps per scan point on either grid (P step 0.015 and
        # the default 0.005); 43 cold and up to 28 warm with Brent on
        # the twist, 34 and up to 19 with a second sweep for each wave,
        # 32 and 18 on the phase count, 31 and 18 on the lockstep trace
        # (totals 93 and 209), 24 and 17 with the cold bisection in log
        # energy and the guess as an end of each warm bracket (totals 88
        # and 176).  See test_solve_sweeps_unchanged on the last bits of
        # W: moving each entry of W by up to 2 ulp at random over 30 seeds
        # gave cold points of 22-33 against 29-36 on the lockstep trace,
        # warm points of up to 20 against up to 20 (0.015) and up to 18
        # against up to 22 (0.005), and mean totals of 90.0 against 95.0
        # and 179.5 against 211.9.  With each warm point's branch from the
        # last two (totals 92 and 174, largest warm point 18 and 15),
        # moving each traced node's u by up to 2 ulp over 30 seeds gave
        # largest warm points of 16-19 against 16-22 before (0.015) and
        # 14-19 against 14-18 (0.005), and totals of 80-97 (mean 87.6)
        # against 81-95 (89.6) and 169-185 (176.1) against 171-188 (179.6).
        # With the refine stopped within Brent's tolerance (totals 75 and
        # 148, cold points of 22, largest warm point 14 and 12), moving
        # each entry of W by up to 2 ulp over 30 seeds gave cold points of
        # 22-23 against 22-33, largest warm points of 14-15 against 16-20
        # (0.015) and 11-14 against 14-17 (0.005), and totals of 76-80
        # (mean 77.7) against 82-97 (88.7) and 148-155 (150.8) against
        # 170-183 (175.7).  With one Newton search per state (totals 57 and
        # 114, cold points of 15, largest warm point 12 and 10), over 30
        # such seeds: cold points of 15-16 against 22-24, largest warm
        # points of 11-12 against 14-15 (0.015) and 10-12 against 11-14
        # (0.005), totals of 54-58 (mean 55.6) against 75-79 (77.6) and
        # 113-120 (115.6) against 147-155 (150.8).  With Anderson-Bjorck
        # regula falsi closing every angular bracket (totals 57 and 116),
        # tests/sweep_spread.py gives 54-58 (mean 56.27) against 53-58
        # (55.87) before and 113-117 (114.57) against 113-119 (115.73).
        # With long Newton steps taken in ln(-eps) (totals 53 and 113, cold
        # points of 12, largest warm point 11 on both grids): 52-56 (mean
        # 53.50) against 54-58 (56.27) and 108-115 (111.43) against 113-117
        # (114.57).  With each warm state started at the Rayleigh quotient
        # of the wave extrapolated from the last two points, the second
        # point's branch one secant step off the first and each wave read
        # from the carry (totals 45 and 111, largest warm point 11 and
        # 10): 43-47 (mean 44.27) against 52-56 (53.50) and 107-112
        # (109.53) against 108-115 (111.43).  With the cold window started
        # at its Sturm floor (totals 45 and 113, cold points of 13): 43-49
        # (mean 45.93) against 43-47 (44.27) and 108-114 (111.03) against
        # 107-112 (109.53)
        path = tmp_path / "he4_trimer.cfg"
        path.write_text(bundled_config_text("he4_trimer"))
        counts = _count_sweeps(monkeypatch)
        assert cli.main(["scan-p", "--config", str(path),
                         "--p-min", "0.10", "--p-max", "0.16"] + grid) == 0
        assert counts[0] == 13
        assert max(counts[1:]) <= 11
        assert sum(counts) == total

    # 44 and 23 with Brent on the twist, 34 and 19 with a second sweep
    # for each wave, 33 and 18 on the phase count, 32 and 17 on the
    # lockstep trace, 23 and 11 with the cold bisection in log energy.
    # The counts follow the last bits of W: moving each node's u by up to
    # 2 ulp at random gave 31-36 (He4) and 18-24 (mixed) over 8 seeds on
    # the lockstep trace, and 21-30 and 11-14 over 12 seeds after the log
    # bisection.  21 and 11 with the refine stopped within Brent's
    # tolerance: moving each entry of W by up to 2 ulp over 30 seeds gave
    # 21-21 and 11-13 against 21-27 and 11-17 before.  16 and 9 with one
    # Newton search per state and no sweep at w_min: over 30 such seeds
    # 15-17 (mean 16.1) and 8-11 (8.6) against 21-21 and 11-13 (11.3).
    # Mixed 8 on the exchange-symmetric residual, whose branch differs
    # from the 3x3 determinant's in the last bits: over 30 such seeds 8-10
    # (mean 8.43) against 8-11 (8.53) on the determinant.  He4 17 and
    # mixed 8 with Anderson-Bjorck regula falsi closing every angular
    # bracket: tests/sweep_spread.py gives 15-17 (mean 16.47) and 8-12
    # (8.83) against 15-17 (15.93) and 8-11 (8.50) before.  He4 13 and
    # mixed 8 with long Newton steps taken in ln(-eps): 12-13 (12.03) and
    # 8-10 (8.93) against 15-17 (16.47) and 8-12 (8.83) before.  He4 12
    # and mixed 6 with the cold window started at its Sturm floor, min (W
    # + 1/(4 rho^2)), not at min W: 11-12 (11.97) and 6-9 (6.63) against
    # 12-13 (12.03) and 8-10 (8.93) before
    @pytest.mark.parametrize("cfg_name, sweeps", [("he4_cfg", 12),
                                                   ("mixed_cfg", 6)])
    def test_solve_sweeps_unchanged(self, request, monkeypatch, cfg_name,
                                    sweeps):
        counts = _count_sweeps(monkeypatch)
        cli.solve_for_config(request.getfixturevalue(cfg_name))
        assert counts == [sweeps]
