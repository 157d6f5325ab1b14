"""Numerov bound-state solver for the hyper-radial equation.

The equation (-d^2/drho^2 + W(rho) - eps) f = 0 with eps = 2mE/hbar^2 is
integrated on a log grid: with t = ln(rho) and f = sqrt(rho) g(t) it turns
into g'' = q(t) g, q = 1/4 + rho^2 (W - eps), which Numerov handles with a
uniform step in t at fourth order.  One shooting core, _Shooter, isolates
each eigenvalue by node-count bisection on the outward solution.  Its two
callers differ only at the boundaries:

  solve_bound_states  regular start f ~ rho at rho_min; refined on the
                      two-sided log-derivative matching residual at the
                      outer classical turning point.
  thomas_spectrum     hard wall f(rho_min) = 0; refined on the outward end
                      value, i.e. a hard outer wall at the barrier cutoff.

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

    def isolate(self, n_state: int, max_iter: int = 220) -> tuple[float, float]:
        """Bisect on node counts until [lo, hi] contains exactly the
        n_state-th eigenvalue."""
        lo, hi = self.w_min, self.top
        c_lo, c_hi = self.count(lo), self.count(hi)
        if not (c_lo <= n_state < c_hi):
            raise SolverError(f"state {n_state} not contained in search window")
        for _ in range(max_iter):
            if c_lo == n_state and c_hi == n_state + 1:
                break
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            c_mid = self.count(mid)
            if c_mid > n_state:
                hi, c_hi = mid, c_mid
            else:
                lo, c_lo = mid, c_mid
        return lo, hi

    def refine_match(self, n_state: int, lo: float, hi: float) -> float:
        """Root of the matching residual inside an isolating bracket."""
        # narrowing to 1e-3 relative width keeps residual poles out
        while hi - lo > 1e-3 * abs(hi):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if self.count(mid) > n_state:
                hi = mid
            else:
                lo = mid
        f_lo, f_hi = self.match(lo), self.match(hi)
        while f_lo * f_hi > 0.0:
            # residual pole inside: shrink toward the node-count flip
            mid = 0.5 * (lo + hi)
            if hi - lo <= 1e-13 * abs(hi) or mid in (lo, hi):
                return mid
            if self.count(mid) > self.count(lo):
                hi, f_hi = mid, self.match(mid)
            else:
                lo, f_lo = mid, self.match(mid)
        return brentq(self.match, lo, hi, xtol=1e-300, rtol=8.9e-16)

    def refine_end(self, lo: float, hi: float) -> float:
        """Root of the outward end value inside an isolating bracket; the
        midpoint when the end value shows no sign change there."""
        @functools.cache                  # brentq re-evaluates both ends
        def end(eps: float) -> float:
            return self._outward(eps)[1]

        if end(lo) * end(hi) < 0.0:
            return brentq(end, lo, hi, xtol=1e-300, rtol=8.9e-16)
        return 0.5 * (lo + hi)


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
    precision relative tolerance and validated against match_residual.
    """
    if max_states <= 0:
        return []
    if rho_max is None:
        rho_max = default_rho_max(potential)
    search_top = min(potential.w_inf, potential.threshold)
    shooter = _Shooter(potential.values, potential.w_inf, search_top,
                       rho_min, rho_max, n)
    if shooter.w_min >= search_top:
        return []
    n_states = min(shooter.count(shooter.top), max_states)
    units = potential.problem.system.units
    out = []
    for n_state in range(n_states):
        eps = shooter.refine_match(n_state, *shooter.isolate(n_state))
        resid, f = shooter.match(eps, want_wave=True)
        energy = potential.hartree_from_eps(eps)
        out.append(RadialSolution(
            energy=energy,
            energy_mk=units.hartree_to_mk(energy),
            node_count=count_nodes(f),
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
    energies = [shooter.refine_end(*shooter.isolate(k)) / (2.0 * units.mass_scale)
                for k in range(n_states)]
    ratios = tuple(energies[k] / energies[k + 1]
                   for k in range(len(energies) - 1))
    return ThomasSpectrum(cutoff_rho0=cutoff_rho0, outer_rho=outer_rho, g=g,
                          energies=tuple(energies), ratios=ratios)
