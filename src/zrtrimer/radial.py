"""Numerov bound-state solver for the hyper-radial equation.

The equation (-d^2/drho^2 + W(rho) - eps) f = 0 with eps = 2mE/hbar^2 is
integrated on a log grid: with t = ln(rho) and f = sqrt(rho) g(t) it turns
into g'' = q(t) g, q = 1/4 + rho^2 (W - eps), which Numerov handles with a
uniform step in t at fourth order.  One shooting core, _Shooter, sweeps a
trial energy once, outward from rho_min and inward from the barrier cutoff
to the outer turning point m.  Each side carries Numerov's recursion in
summed form, the amplitude F and its forward difference D, as one banded
forward substitution in compiled BLAS; only the ratios D/F are read, and
an amplitude past 2^1000 restarts the substitution from a power-of-two
rescale, which leaves every ratio unchanged.  The sign changes on both
sides and the sign of the twist d at m count the eigenvalues below the
trial energy, and d vanishes at each one.  The sign changes plus
atan2(1, d)/pi, with d scaled to a log-derivative mismatch, make a
continuous count, the phase, which lies within 1/2 of the count:
node-count bisection, with sweeps shared by all states, isolates state k,
then Brent's method finds where the phase crosses k + 1/2.  The two
callers differ only in the seeds at the ends:

  solve_bound_states  regular f ~ rho at rho_min, decaying exponential of
                      the local barrier at the cutoff.
  thomas_spectrum     hard walls: f = 0 at rho_min and at the cutoff.

A scan warm-starts each state from the previous point's (prior, in
solve_bound_states), solved on the same grid: the bisection starts from a
bracket around the first-order estimate eps + <f|dW|f> / <f|f>, less the
previous point's signed miss once there is one, instead of from
[min W, top].  The bracket must pass the node-count check, or it widens
4x; once it would span the whole window the solve runs cold.  A bracket
that passes the check proves the state lies in the window, so the sweep at
min W is skipped.  thomas_spectrum starts each level from the second on
the same way, around the level below divided by the expected ratio.

Trial energies far below threshold make the outer region a huge barrier;
integration is cut off once the accumulated barrier action passes ~60
e-folds (any admixture beyond that is below double precision anyway).  A
sweep checks that |h^2 q/12| stays below 1/2 up to the cutoff, so the
Numerov step is stable there; a grid too coarse for the potential, or a W
that is not finite on it, raises SolverError.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .angular import efimov_constant
from .system import DEFAULT_MASS_SCALE, SolverError, brent, hartree_to_mk


def _load_fblas():
    """scipy's f2py BLAS extension, scipy.linalg._fblas, without running
    scipy/linalg/__init__ (its decompositions and array-API layer would
    make up most of the package's import time, for one routine).  Finding
    scipy.linalg's spec imports only the scipy package, whose distributor
    init sets up the BLAS library path.  The extension is registered in
    sys.modules under its own name, so scipy.linalg, if imported later,
    reuses it, and one imported earlier is reused here."""
    name = "scipy.linalg._fblas"
    if name not in sys.modules:
        linalg = importlib.util.find_spec("scipy.linalg")
        spec = importlib.machinery.PathFinder.find_spec(
            name, linalg.submodule_search_locations)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


dtbsv = _load_fblas().dtbsv

#: Barrier action (in e-folds) after which outward/inward sweeps are cut off.
_ACTION_CAP = 60.0

#: Largest match residual accepted for a returned bound state.
_MATCH_TOL = 1e-6

#: Largest |h^2 q/12| a sweep accepts: below it 1 - h^2 q/12 lies in
#: (1/2, 3/2), v has no pole and an oscillatory step keeps h^2 |q| < 6.
_MAX_STEP_TQ = 0.5

#: Magnitude past which a carry restarts from a power-of-two rescale, well
#: short of the double-precision overflow at 2^1024.
_BIG = 2.0 ** 1000


def count_nodes(f) -> int:
    """Number of strict sign changes of the samples, ignoring zeros.

    Endpoint zeros imposed by boundary conditions therefore never count,
    and touching zeros ([1, 0, 1]) do not count as crossings.
    """
    f = np.asarray(f, dtype=float).ravel()
    neg = f[f != 0.0] < 0.0
    return int(np.count_nonzero(neg[1:] != neg[:-1]))


def _seed(tq: np.ndarray, far: int, near: int, a: float) -> float:
    """p = 1 - F_far/F_near at a boundary where g_far/g_near = exp(-a);
    tq = h^2 q/12, so F = (1 - tq) g."""
    return float((tq[far] - tq[near] - (1.0 - tq[far]) * math.expm1(-a))
                 / (1.0 - tq[near]))


def _carry(v, p: float, band=None):
    """Carry the Numerov recursion along v in its summed form.

    With F = (1 - h^2 q/12) g and v = h^2 q / (1 - h^2 q/12), the
    differences D_i = F_{i+1} - F_i obey D_i = D_{i-1} + v_i F_i and
    F_{i+1} = F_i + D_i, from F_0 = 1 and D_{-1} = p, the seed
    1 - F_{-1}/F_0 (1 at a hard wall).  Nothing forms 2 + v, so small v keep
    their digits.  The unknowns (D_{-1}, F_0, D_0, F_1, ..., D_{n-1}, F_n)
    form one unit lower triangular band system of bandwidth 2, solved by
    one BLAS forward substitution.  Each entry depends only on the ones
    before it, so all of them up to the first |z| >= 2^1000 are exact; the
    substitution restarts from the last (D, F) pair before that, scaled by
    a power of two, which changes no bit of any ratio.  Returns the number
    of sign changes of F and z; only its ratios p_i = D_{i-1}/F_i =
    z[2i]/z[2i + 1] (the seed first) are meaningful.

    band, when given, is scratch reused across calls: at least
    2 len(v) + 2 rows by 3, all -1.0 outside the odd rows of column 1,
    which each call overwrites with -v; the entries a restart zeroes are
    set back to -1.0 before returning.
    """
    n = len(v)
    if band is None:
        band = np.full((2 * n + 2, 3), -1.0)
    band = band[:2 * n + 2]                 # rows are the columns of ab
    np.negative(v, out=band[1:-1:2, 1])     # v_i couples F_i into D_i
    ab = band.T
    z = np.zeros(2 * n + 2)
    j, d, f = 0, p, 1.0
    starts = []
    while True:
        band[2 * j, 1] = 0.0    # F_j is given: it does not add D_{j-1}
        starts.append(2 * j)
        e = math.frexp(max(abs(d), abs(f)))[1]
        part = z[2 * j:]        # solved in place
        part[2:] = 0.0
        part[0], part[1] = math.ldexp(d, -e), math.ldexp(f, -e)
        part[:] = dtbsv(2, ab[:, 2 * j:], part, lower=1, diag=1,
                        overwrite_x=1)
        if part.max() < _BIG and part.min() > -_BIG:
            break
        cut = 2 * j + int(np.argmin(np.abs(part) < _BIG))
        restart = (cut - 2) // 2        # the last whole pair before the cut
        if restart <= j:
            break       # one step from a rescaled pair: v is not finite or huge
        j, d, f = restart, float(z[2 * restart]), float(z[2 * restart + 1])
    band[starts, 1] = -1.0
    neg = np.signbit(z[1::2])
    return int(np.count_nonzero(neg[1:] ^ neg[:-1])), z


@dataclass(frozen=True)
class RadialSolution:
    """One bound state: energy, node count and the sampled wave function.

    eps is the eigenvalue 2mE/hbar^2 of the radial equation and w the
    potential W it was solved in, sampled on rho like f; eps_predicted is
    the first-order estimate of eps from the prior state that started its
    bracket, None when it was solved cold.
    """

    energy: float
    energy_mk: float
    node_count: int
    rho: np.ndarray
    f: np.ndarray
    match_residual: float
    eps: float
    w: np.ndarray
    eps_predicted: float | None


class _Sweep(NamedTuple):
    """Scalars of one two-sided sweep at a trial energy."""

    count: int          # eigenvalues below the trial energy
    phase: float        # sign changes + atan2(1, resid)/pi: count +- 1/2
    resid: float        # d / (|x_m| + |p_in| + h): a log-derivative mismatch


class _Shooter:
    """Two-sided ratio sweeps, node counts and eigenvalues on a fixed log grid.

    w_of samples W over an array of rho and w_inf is its large-rho limit;
    eigenvalues are searched in [min W, search_top).  The outward sweep
    starts from the regular f ~ rho at rho_min and the inward one from the
    decaying exponential at the barrier cutoff; hard_wall puts f = 0 at both
    instead.  Both meet at the outer turning point m, where the twist d of
    the tridiagonal Numerov problem gives the inertia: count = sign changes
    on both sides + (d < 0), which steps exactly at the roots of d.  The
    phase, sign changes on both sides + atan2(1, resid)/pi, lies within
    1/2 of the count, so phase - (k + 1/2) changes sign only at the root
    of state k, where it is -resid/pi to first order.
    """

    def __init__(self, w_of, w_inf: float, search_top: float,
                 rho_min: float, rho_max: float, n: int,
                 hard_wall: bool = False):
        self.t = np.linspace(math.log(rho_min), math.log(rho_max), n)
        self.h = float(self.t[1] - self.t[0])
        self.rho = np.exp(self.t)
        self.w = w_of(self.rho)
        bad = self.rho[~np.isfinite(self.w)]
        if len(bad):    # a NaN trial energy would never leave the bisection
            raise SolverError(f"W is not finite at rho = {bad[0]:.6g}")
        self.r2 = self.rho * self.rho
        self.n = n
        self.band = np.full((2 * n + 2, 3), -1.0)   # _carry's scratch
        self.w_min = float(self.w.min())
        self.w_inf = w_inf
        self.top = search_top - abs(search_top) * 1e-12
        self.hard_wall = hard_wall
        # one sweep per trial energy, scalars only: the count, the bisection
        # and the Brent refine of every state read the same table
        self.table: dict[float, _Sweep] = {}
        # the last _sweep's (eps, _Sweep, z_out, z_in, tq); the wave at
        # Brent's root is built from it when that was the energy swept last
        self.last = None

    def _turning_and_stop(self, eps: float) -> tuple[int, int, np.ndarray]:
        """Outermost classical turning point of s = W - eps, the barrier
        cutoff beyond it and q = 1/4 + rho^2 s.

        Without a turning point the barrier action is counted from the inner
        edge when the whole grid is forbidden, from the outer edge otherwise.
        """
        s = self.w - eps
        q = self.r2 * s
        q += 0.25   # in place: one more grid-sized temporary slows every sweep
        idx = np.flatnonzero(s[:-1] * s[1:] < 0.0)
        im = (int(idx[-1]) if len(idx)
              else (0 if s.min() >= 0.0 else self.n - 1))
        im = min(max(im, 3), self.n - 4)
        action = np.cumsum(np.sqrt(np.maximum(q[im:-1], 0.0)) * self.h)
        return im, im + int(np.searchsorted(action, _ACTION_CAP, side="right")), q

    def _sweep(self, eps: float) -> _Sweep:
        """Outward from rho_min and inward from the cutoff to m; the energy,
        the scalars, both carries and tq are kept as `last` for wave."""
        self.last = None    # freed before this sweep's arrays: peak memory
        m, stop, q = self._turning_and_stop(eps)
        hq = self.h * self.h * q[:stop + 1]
        tq = hq / 12.0
        worst = float(np.abs(tq).max())
        if not worst < _MAX_STEP_TQ:   # also NaN
            raise SolverError(
                f"Numerov step unstable at eps = {eps!r}: |h^2 q/12| reaches "
                f"{worst:.3g} (limit {_MAX_STEP_TQ}); refine the radial grid")
        v = hq / (1.0 - tq)
        if self.hard_wall:
            p_lo = p_hi = 1.0
        else:
            w_stop = self.w_inf if stop == self.n - 1 else float(self.w[stop])
            kappa = math.sqrt(max(w_stop - eps, 0.0))
            p_lo = _seed(tq, 0, 1, 0.5 * self.h)
            p_hi = _seed(tq, stop, stop - 1, 0.5 * self.h
                         + kappa * (self.rho[stop] - self.rho[stop - 1]))
        n_out, z_out = _carry(v[1:m], p_lo, self.band)
        n_in, z_in = _carry(v[m + 1:stop][::-1], p_hi, self.band)
        p_in = float(z_in[-2]) / float(z_in[-1])
        x_m = float(v[m]) + float(z_out[-2]) / float(z_out[-1])
        d = x_m + p_in
        resid = d / (abs(x_m) + abs(p_in) + self.h)
        sweep = _Sweep(n_out + n_in + (d < 0.0),
                       n_out + n_in + math.atan2(1.0, resid) / math.pi, resid)
        self.last = eps, sweep, z_out, z_in, tq
        return sweep

    def sweep(self, eps: float) -> _Sweep:
        """The scalars at eps, swept once per shooter.  A plain dict: a
        functools.cache of the bound method would put the shooter in a
        reference cycle, alive with its grid arrays until a full garbage
        collection."""
        if eps not in self.table:
            self.table[eps] = self._sweep(eps)
        return self.table[eps]

    def count(self, eps: float) -> int:
        """Number of eigenvalues below eps."""
        return self.sweep(eps).count

    def wave(self, eps: float) -> tuple[float, np.ndarray]:
        """Matching residual and f at eps, max|f| = 1, dominant lobe positive,
        from the carries of the last sweep, which is at eps when Brent's
        root was the last energy it tried; otherwise eps is swept once."""
        if self.last is None or self.last[0] != eps:
            self._sweep(eps)
        _, sweep, z_out, z_in, tq = self.last
        # 1 - p is F_i/F_{i+1} outward and F_i/F_{i-1} inward; the partial
        # products are F itself, so nothing overflows
        f_out = np.cumprod(1.0 - (z_out[0::2] / z_out[1::2])[::-1])[::-1]
        f_in = np.cumprod(1.0 - (z_in[0::2] / z_in[1::2])[::-1])
        # F is zero beyond the cutoff, where tq ends
        g = np.concatenate([f_out, [1.0], f_in, np.zeros(self.n - len(tq))])
        g[:len(tq)] /= 1.0 - tq
        f = g * np.sqrt(self.rho)
        return sweep.resid, f / f[np.abs(f).argmax()]

    def eigenvalue(self, k: int, guess: float | None = None,
                   width: float = 0.0) -> float:
        """The k-th eigenvalue: node-count bisection, then `brent` on the
        phase.

        Bisects a bracket until it isolates state k: count k at its lower
        end, k + 1 at its upper one.  The phase lies within 1/2 of the
        count, so phase - (k + 1/2) changes sign across the bracket only
        where the count steps, at the eigenvalue, and equals -resid/pi
        near it, whatever the sides and m do inside.  The bracket is the
        warm one around a guess (`_warm_bracket`) when there is one, else
        [w_min, top].
        """
        bracket = (None if guess is None
                   else self._warm_bracket(k, guess, width))
        if bracket is None:
            bracket = self.w_min, self.top
            if not self.count(bracket[0]) <= k < self.count(bracket[1]):
                raise SolverError(f"state {k} not contained in search window")
        lo, hi = bracket
        while not (self.count(lo) == k and self.count(hi) == k + 1):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                return hi   # the count steps in (lo, hi]
            lo, hi = (lo, mid) if self.count(mid) > k else (mid, hi)
        return brent(lambda e: self.sweep(e).phase - (k + 0.5), lo, hi)

    def _warm_bracket(self, k: int, guess: float, width: float):
        """The first of guess +- width, 4 width, 16 width, ..., with the
        guess and the bracket clipped to the window, whose counts hold
        state k, which also proves the state lies in the window; None once
        one would span the whole window, or for a width that is not
        positive."""
        if not width > 0.0:
            return None
        guess = min(self.top, max(self.w_min, guess))   # NaN gives w_min
        while True:
            lo = max(self.w_min, guess - width)
            hi = min(self.top, guess + width)
            if (lo, hi) == (self.w_min, self.top):
                return None
            if self.count(lo) <= k < self.count(hi):
                return lo, hi
            width *= 4.0


def default_rho_max(system) -> float:
    """max(4000 au, 20 |a|) over the pairs of the system with finite a."""
    amax = max((abs(p.a) for p in system.pairs if math.isfinite(p.a)),
               default=0.0)
    return max(4000.0, 20.0 * amax)


def _warm_starts(shooter: _Shooter, prior) -> list[tuple[float, float, float]]:
    """Per prior state: the first-order estimate of its eigenvalue in W on
    the shooter's grid, eps + <f|dW|f> / <f|f> with dW = W - W_prior
    summed over the log grid (d rho = rho dt), and the guess and first
    half-width of its warm bracket.  A prior state that was itself
    predicted hands on its signed miss: the guess subtracts it and the
    half-width is its size.  Otherwise the guess is the estimate and the
    half-width 1/16 of its shift.  Either half-width is at least 1e-6 of
    the guess.  Empty when the prior was solved on another grid."""
    if not prior or not np.array_equal(prior[0].rho, shooter.rho):
        return []
    dw = shooter.w - prior[0].w
    out = []
    for state in prior:
        weight = state.f * state.f * shooter.rho
        predicted = state.eps + float(weight @ dw) / float(weight.sum())
        if state.eps_predicted is None:
            guess, width = predicted, abs(predicted - state.eps) / 16.0
        else:
            miss = state.eps - state.eps_predicted
            guess, width = predicted + miss, abs(miss)
        out.append((predicted, guess, max(width, 1e-6 * abs(guess))))
    return out


def solve_bound_states(potential, max_states: int = 4, *,
                       rho_min: float = 0.05, rho_max: float | None = None,
                       n: int = 8000, prior: list[RadialSolution] | None = None
                       ) -> list[RadialSolution]:
    """All bound states of the effective potential, deepest first.

    Returns up to max_states solutions ordered by node count; an empty list
    when the potential binds nothing.  States are searched below
    min(w_inf, threshold): the asymptote, or the bare threshold where
    P (R/|a|)^2 > 1/2 lifts the asymptote above it.  Energies are converged
    to machine precision relative tolerance; SolverError unless state k has
    k nodes and a match residual of at most _MATCH_TOL.

    prior, the states of a nearby potential on the same grid (the last
    point of a scan), warm-starts the states it holds (`_warm_starts`,
    `_Shooter._warm_bracket`); the energies agree with a cold solve to the
    refine's tolerance.
    """
    if rho_max is None:
        rho_max = default_rho_max(potential.problem.system)
    search_top = min(potential.w_inf, potential.threshold)
    shooter = _Shooter(potential.values, potential.w_inf, search_top,
                       rho_min, rho_max, n)
    n_states = min(shooter.count(shooter.top), max_states)
    warm = _warm_starts(shooter, prior)
    out = []
    for n_state in range(n_states):
        predicted, guess, width = (warm[n_state] if n_state < len(warm)
                                   else (None, None, 0.0))
        eps = shooter.eigenvalue(n_state, guess, width)
        resid, f = shooter.wave(eps)
        nodes = count_nodes(f)
        if nodes != n_state or abs(resid) > _MATCH_TOL:
            raise SolverError(f"state {n_state} fails validation: {nodes} "
                              f"node(s), match residual {abs(resid):.3g}")
        energy = potential.hartree_from_eps(eps)
        out.append(RadialSolution(
            energy=energy,
            energy_mk=hartree_to_mk(energy),
            node_count=nodes,
            rho=shooter.rho,
            f=f,
            match_residual=abs(resid),
            eps=eps,
            w=shooter.w,
            eps_predicted=predicted))
    return out


@dataclass(frozen=True)
class ThomasSpectrum:
    """Hard-wall spectrum of the attractive inverse-square potential.

    energies (hartree, default mass scale) are strictly negative and
    ascend toward zero; ratios[k] = energies[k] / energies[k+1] tends to
    exp(2 pi / g) in the scale-invariant regime.
    """

    g: float
    energies: tuple[float, ...]
    ratios: tuple[float, ...]


def thomas_spectrum(g: float | None = None, cutoff_rho0: float = 0.1,
                    outer_rho: float = 3e6, n_states: int = 5,
                    n: int = 12000) -> ThomasSpectrum:
    """Deepest bound states of W = -(g^2 + 1/4)/rho^2 between hard walls.

    This is the collapse scenario of the bare contact interaction: with the
    inner wall as the only scale, successive levels are spaced by the
    geometric factor exp(2 pi / g).  Hard-wall shooting on the common
    core; the endpoint condition f(outer wall) = 0 is applied at the
    adaptive barrier cutoff, which is equivalent within double precision.
    Each level from the second on starts from a bracket of half-width
    1e-3 of its guess, the level below divided by exp(2 pi / g), then by
    the last ratio found (`_Shooter._warm_bracket`).  ValueError unless
    0 < g < inf, 0 < 100 cutoff_rho0 <= outer_rho < inf and n_states >= 1.
    """
    if g is None:
        g = efimov_constant()
    if not 0.0 < g < math.inf:
        raise ValueError("need a finite g > 0")
    if not 0.0 < 100.0 * cutoff_rho0 <= outer_rho < math.inf:
        raise ValueError("need 0 < 100 cutoff_rho0 <= outer_rho < inf")
    if n_states < 1:
        raise ValueError("need n_states >= 1")
    coef = g * g + 0.25
    shooter = _Shooter(lambda rho: -coef / (rho * rho), 0.0, 0.0,
                       cutoff_rho0, outer_rho, n, hard_wall=True)
    levels = []
    for k in range(min(n_states, shooter.count(shooter.top))):
        guess, width = None, 0.0
        if levels:
            ratio = (math.exp(2.0 * math.pi / g) if k == 1
                     else levels[-2] / levels[-1])
            guess = levels[-1] / ratio
            width = 1e-3 * abs(guess)
        levels.append(shooter.eigenvalue(k, guess, width))
    energies = [eps / (2.0 * DEFAULT_MASS_SCALE) for eps in levels]
    ratios = tuple(energies[k] / energies[k + 1]
                   for k in range(len(energies) - 1))
    return ThomasSpectrum(g=g, energies=tuple(energies), ratios=ratios)
