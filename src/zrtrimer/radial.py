"""Numerov bound-state solver for the hyper-radial equation.

The equation (-d^2/drho^2 + W(rho) - eps) f = 0 with eps = 2mE/hbar^2 is
integrated on a log grid: with t = ln(rho) and f = sqrt(rho) g(t) it turns
into g'' = q(t) g, q = 1/4 + rho^2 (W - eps), which Numerov handles with a
uniform step in t at fourth order.  One shooting core, _Shooter, finds each
eigenvalue by node-count bisection, with probes shared by all states, and one
brentq on a boundary function g.  Its two callers differ only at the ends:

  solve_bound_states  regular start f ~ rho at rho_min; g is the two-sided
                      log-derivative matching residual at the outer
                      classical turning point.
  thomas_spectrum     hard wall f(rho_min) = 0; g is the outward end value,
                      i.e. a hard outer wall at the barrier cutoff.

Trial energies far below threshold make the outer region a huge barrier;
integration is cut off once the accumulated barrier action passes ~60
e-folds (any admixture beyond that is below double precision anyway), which
also keeps the Numerov step well inside its stability range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .angular import efimov_constant
from .system import SolverError, UnitSystem

_BIG = 1e140
_TINY = 1e-140

#: Barrier action (in e-folds) after which outward/inward sweeps are cut off.
_ACTION_CAP = 60.0

#: A node-count bracket goes to brentq once narrower than this times |hi|.
_BRACKET_REL = 1e-3
#: Largest match residual accepted for a returned bound state.
_MATCH_TOL = 1e-6


def count_nodes(f) -> int:
    """Number of strict sign changes of the samples, ignoring zeros.

    Endpoint zeros imposed by boundary conditions therefore never count,
    and touching zeros ([1, 0, 1]) do not count as crossings.
    """
    f = np.asarray(f, dtype=float).ravel()
    neg = f[f != 0.0] < 0.0
    return int(np.count_nonzero(neg[1:] != neg[:-1]))


def _numerov(q: np.ndarray, h: float, y0: float, y1: float,
             record: bool = False):
    """Propagate g'' = q g over the uniform grid that carries q.

    Returns (nodes, y[-3], y[-2], y[-1], ys) where ys is the full record or
    None.  The solution is rescaled by 1e-140 whenever it passes 1e140; the
    recorded history is rescaled with it, so relative structure survives.
    """
    n = len(q)
    h2_12 = h * h / 12.0
    c = (1.0 - h2_12 * q).tolist()
    a = [12.0 - 10.0 * ci for ci in c]
    ym, yb = y0, y1
    yp = y0
    nodes = 0
    if ym != 0.0 and yb != 0.0 and (ym < 0.0) != (yb < 0.0):
        nodes += 1
    ys = [y0, y1] if record else None
    for i in range(1, n - 1):
        yc = (a[i] * yb - c[i - 1] * ym) / c[i + 1]
        if yc != 0.0 and yb != 0.0 and (yc < 0.0) != (yb < 0.0):
            nodes += 1
        yp, ym, yb = ym, yb, yc
        if record:
            ys.append(yb)
        if abs(yb) > _BIG:
            ym *= _TINY
            yb *= _TINY
            yp *= _TINY
            if record:
                for k in range(len(ys)):
                    ys[k] *= _TINY
    return nodes, yp, ym, yb, ys


@dataclass(frozen=True)
class RadialSolution:
    """One bound state: energy, node count and the sampled wave function."""

    energy: float
    energy_mk: float
    node_count: int
    rho: np.ndarray
    f: np.ndarray
    match_residual: float


class _Shooter:
    """Node counting, bisection and end conditions on a fixed log grid.

    w_of samples W over an array of rho and w_inf is its large-rho limit;
    eigenvalues are searched in [min W, search_top).  hard_wall starts the
    outward sweep from f(rho_min) = 0 instead of the regular f ~ rho.
    """

    def __init__(self, w_of, w_inf: float, search_top: float,
                 rho_min: float, rho_max: float, n: int,
                 hard_wall: bool = False):
        self.t = np.linspace(math.log(rho_min), math.log(rho_max), n)
        self.h = float(self.t[1] - self.t[0])
        self.rho = np.exp(self.t)
        self.w = w_of(self.rho)
        self.r2 = self.rho * self.rho
        self.n = n
        self.w_min = float(self.w.min())
        self.w_inf = w_inf
        self.top = search_top - abs(search_top) * 1e-12
        if hard_wall:
            self.start = (0.0, self.h)
        else:
            self.start = (math.exp(self.t[0] / 2.0), math.exp(self.t[1] / 2.0))
        # one node-count table for all states: each bisection walks the
        # same dyadic points of [w_min, top], so each point is swept once
        self.count = functools.cache(self.count)

    def _q(self, eps: float) -> np.ndarray:
        return 0.25 + self.r2 * (self.w - eps)

    def _turning_and_stop(self, eps: float, q: np.ndarray) -> tuple[int, int]:
        """Outermost classical turning point and the barrier cutoff beyond it.

        Without a turning point the barrier action is counted from the inner
        edge when the whole grid is forbidden, from the outer edge otherwise.
        """
        s = self.w - eps
        idx = np.nonzero(s[:-1] * s[1:] < 0.0)[0]
        if len(idx):
            im = int(idx[-1])
        else:
            im = 0 if s.min() >= 0.0 else self.n - 1
        im = min(max(im, 3), self.n - 4)
        action = 0.0
        i = im
        while i < self.n - 1:
            if q[i] > 0.0:
                action += math.sqrt(q[i]) * self.h
                if action > _ACTION_CAP:
                    break
            i += 1
        return im, i

    def _outward(self, eps: float) -> tuple[int, float]:
        """Node count and end value of the outward sweep to the cutoff."""
        q = self._q(eps)
        _, stop = self._turning_and_stop(eps, q)
        nodes, _, _, y_end, _ = _numerov(q[:stop + 1], self.h, *self.start)
        return nodes, y_end

    def count(self, eps: float) -> int:
        """Number of eigenvalues below eps."""
        return self._outward(eps)[0]

    def match(self, eps: float, want_wave: bool = False):
        """Normalized difference of outward/inward log-derivatives at the
        turning point; optionally also the stitched, normalized f."""
        q = self._q(eps)
        im, stop = self._turning_and_stop(eps, q)
        _, o_m1, o_m, o_p1, o_rec = _numerov(q[:im + 2], self.h, *self.start,
                                             record=want_wave)
        # inward seed: the decaying exponential of the local barrier
        w_stop = self.w_inf if stop == self.n - 1 else float(self.w[stop])
        kappa = math.sqrt(max(w_stop - eps, 0.0))
        y_prev = math.exp(kappa * (self.rho[stop] - self.rho[stop - 1]) + 0.5 * self.h)
        _, i_p1, i_m, i_m1, i_rec = _numerov(q[im - 1:stop + 1][::-1], self.h,
                                             1.0, y_prev, record=want_wave)
        d_out = (o_p1 - o_m1) / (2.0 * self.h * o_m)
        d_in = (i_p1 - i_m1) / (2.0 * self.h * i_m)
        resid = (d_out - d_in) / (abs(d_out) + abs(d_in) + 1.0)
        if not want_wave:
            return resid
        inward = i_rec[::-1]              # grid indices im-1 .. stop
        scale = o_m / inward[1]
        g = list(o_rec[:im + 1]) + [v * scale for v in inward[2:]]
        g += [0.0] * (self.n - stop - 1)
        f = np.array(g) * np.sqrt(self.rho)
        f /= f[np.abs(f).argmax()]        # max|f| = 1, dominant lobe positive
        return resid, f

    def eigenvalue(self, k: int, g) -> float:
        """Root of the boundary function g for the k-th eigenvalue.

        Bisects [w_min, top] on node counts until the bracket isolates state
        k, is at most _BRACKET_REL * |hi| wide (keeping match-residual poles
        out) and g changes sign across it; then brentq.
        """
        lo, hi = self.w_min, self.top
        if not self.count(lo) <= k < self.count(hi):
            raise SolverError(f"state {k} not contained in search window")
        g = functools.cache(g)            # brentq re-evaluates both ends
        while not (self.count(lo) == k and self.count(hi) == k + 1
                   and hi - lo <= _BRACKET_REL * abs(hi)
                   and g(lo) * g(hi) <= 0.0):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                raise SolverError(f"state {k}: no sign change in [{lo!r}, {hi!r}]")
            lo, hi = (lo, mid) if self.count(mid) > k else (mid, hi)
        return brentq(g, lo, hi, xtol=1e-300, rtol=8.9e-16)


def default_rho_max(potential) -> float:
    """max(4000 au, 20 |a|) over all pairs of the underlying system."""
    amax = max(abs(p.a) for p in potential.problem.system.pairs
               if math.isfinite(p.a))
    return max(4000.0, 20.0 * amax)


def solve_bound_states(potential, max_states: int = 4, *,
                       rho_min: float = 0.05, rho_max: float | None = None,
                       n: int = 8000) -> list[RadialSolution]:
    """All bound states of the effective potential, deepest first.

    Returns up to max_states solutions ordered by node count; an empty list
    when the potential binds nothing.  Energies are converged to machine
    precision relative tolerance; SolverError unless state k has k nodes
    and a match residual of at most _MATCH_TOL.
    """
    if rho_max is None:
        rho_max = default_rho_max(potential)
    search_top = min(potential.w_inf, potential.threshold)
    shooter = _Shooter(potential.values, potential.w_inf, search_top,
                       rho_min, rho_max, n)
    n_states = min(shooter.count(shooter.top), max_states)
    units = potential.problem.system.units
    out = []
    for n_state in range(n_states):
        eps = shooter.eigenvalue(n_state, shooter.match)
        resid, f = shooter.match(eps, want_wave=True)
        nodes = count_nodes(f)
        if nodes != n_state or abs(resid) > _MATCH_TOL:
            raise SolverError(f"state {n_state} fails validation: {nodes} "
                              f"node(s), match residual {abs(resid):.3g}")
        energy = potential.hartree_from_eps(eps)
        out.append(RadialSolution(
            energy=energy,
            energy_mk=units.hartree_to_mk(energy),
            node_count=nodes,
            rho=shooter.rho,
            f=f,
            match_residual=abs(resid)))
    return out


@dataclass(frozen=True)
class ThomasSpectrum:
    """Hard-wall spectrum of the attractive inverse-square potential.

    energies (hartree, default mass scale) are strictly negative and
    ascend toward zero; ratios[k] = energies[k] / energies[k+1] tends to
    exp(2 pi / g) in the scale-invariant regime.
    """

    cutoff_rho0: float
    outer_rho: float
    g: float
    energies: tuple[float, ...]
    ratios: tuple[float, ...]


def thomas_spectrum(g: float | None = None, cutoff_rho0: float = 0.1,
                    outer_rho: float = 3e6, n_states: int = 5,
                    n: int = 12000,
                    units: UnitSystem | None = None) -> ThomasSpectrum:
    """Deepest bound states of W = -(g^2 + 1/4)/rho^2 between hard walls.

    This is the collapse scenario of the bare contact interaction: with the
    inner wall as the only scale, successive levels are spaced by the
    geometric factor exp(2 pi / g).  Hard-wall shooting on the common
    core; the endpoint condition f(outer wall) = 0 is applied at the
    adaptive barrier cutoff, which is equivalent within double precision.
    """
    if g is None:
        g = efimov_constant()
    if not 0.0 < cutoff_rho0 < outer_rho:
        raise ValueError("need 0 < cutoff_rho0 < outer_rho")
    if outer_rho < 100.0 * cutoff_rho0:
        raise ValueError("outer_rho must be well outside cutoff_rho0")
    units = units or UnitSystem()
    coef = g * g + 0.25
    shooter = _Shooter(lambda rho: -coef / (rho * rho), 0.0, 0.0,
                       cutoff_rho0, outer_rho, n, hard_wall=True)
    n_states = min(n_states, shooter.count(shooter.top))
    energies = [shooter.eigenvalue(k, lambda e: shooter._outward(e)[1])
                / (2.0 * units.mass_scale) for k in range(n_states)]
    ratios = tuple(energies[k] / energies[k + 1]
                   for k in range(len(energies) - 1))
    return ThomasSpectrum(cutoff_rho0=cutoff_rho0, outer_rho=outer_rho, g=g,
                          energies=tuple(energies), ratios=ratios)
