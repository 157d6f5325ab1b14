"""Numerov bound-state solver for the hyper-radial equation.

The equation (-d^2/drho^2 + W(rho) - eps) f = 0 with eps = 2mE/hbar^2 is
integrated on a log grid: with t = ln(rho) and f = sqrt(rho) g(t) it turns
into g'' = q(t) g, q = 1/4 + rho^2 (W - eps), which Numerov handles with a
uniform step in t at fourth order.  One shooting core, _Shooter, sweeps a
trial energy once, outward from rho_min and inward from the barrier cutoff
to the outer turning point m.  Each side carries Numerov's recursion in
summed form, the amplitude F and its forward difference D; the two sides
are one band system, solved by one forward substitution in compiled BLAS.
Only the ratios D/F are read.  Each side's last pair tells whether an
amplitude passed 2^1000, since one that overflows leaves only inf or NaN
after it; only then is the side scanned and the substitution restarted
from a power-of-two rescale, which leaves every ratio unchanged.  The
sign changes on both sides and the sign of the twist d at m count the
eigenvalues below the trial energy, and d vanishes at each one.  With
both sides normalised to F = 1 at m, d is minus row m of the symmetric
Numerov matrix applied to F, so its energy derivative is the wave's own
norm, -h^2 sum rho^2 g^2 (Cooley's energy correction), read from the
same carry at a tenth of a sweep's cost.  One safeguarded Newton
iteration on d (`rtsafe`) finds each state: every iterate narrows a
bracket by its count, a step is taken only from an iterate with k sign
changes, where d vanishes only at state k, and only while it stays in
the bracket and halves the move before it (or, at d's rounding floor,
keeps its way); otherwise the bracket is bisected, in log energy while
both ends are negative and more than a factor 2 apart (states below a
threshold near 0 lie decades apart), at 1/16 of the lower end from a top
at 0, else at the midpoint.  For the same reason a step longer than
|eps|/100 from a negative iterate is taken in ln(-eps), to eps
exp(step/eps), which cannot pass 0.  The search stops at the first
iterate whose step is within BRENT_RTOL |eps|, or, where d's rounding
keeps the steps from shrinking, at the iterate of least step.  A cold
state starts from the search window [w_min, top), so its energy depends
on the window alone; w_min is swept only if the bracket closes on it.
The window's floor w_min is the Sturm floor min (W + 1/(4 rho^2)) over
the grid, never below min W: at or below it q >= 0 at every point, so no
carry from the seeds changes sign, d >= 0 and the count is 0.  A state
below it would end as not contained, never as another state.
The two callers differ only in the seeds at the ends:

  solve_bound_states  regular f ~ rho^alpha at rho_min, alpha = 1/2 +
                      sqrt(1/4 - s) for W ~ -s/rho^2 there (s the
                      q_convention's shift: alpha = 1 for leading_term,
                      1/2 for none), decaying exponential of the local
                      barrier at the cutoff.
  thomas_spectrum     hard walls: f = 0 at rho_min and at the cutoff.

A scan warm-starts each state from the last two points' (prior, in
solve_bound_states), solved on the same grid: the search starts its
Newton steps at the Rayleigh quotient <f|H|f> / <f|f> of the wave
extrapolated in P, f = 2 f_1 - f_2, with H f_j = (eps_j + W - W_j) f_j
by each point's own equation (from one point, the first-order estimate
eps + <f|dW|f> / <f|f>), in the same window and with the same stops as
a cold search.  The wave of a state is read from the last sweep's
carries, each side over its F at m.  thomas_spectrum starts each
level the same way, at a zero of the small-argument form of K_ig(kappa
rho_0) (DLMF 10.45), the closed form of the inverse-square levels.

Trial energies far below threshold make the outer region a huge barrier;
integration is cut off once the accumulated barrier action passes ~60
e-folds (any admixture beyond that is below double precision anyway).
The turning point is read off the suffix extremes of W, and the action
is summed from it, and q built, only up to a window's end past it, sized
from the last sweep's cutoff, so a sweep scans no whole grid.  A
sweep checks that |h^2 q/12| stays below 1/2 up to the cutoff, so the
Numerov step is stable there; a grid too coarse for the potential, or a W
that is not finite on it, raises SolverError.
"""

from __future__ import annotations

import cmath
import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .angular import efimov_constant
from .potential import _SHIFT
from .system import BRENT_RTOL, DEFAULT_MASS_SCALE, SolverError, hartree_to_mk


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

#: Node-count bisection steps at the geometric mean -sqrt(lo hi) while both
#: ends are negative and further apart than this factor: bound states sit
#: decades apart below a threshold near 0.
_GEOMETRIC_RATIO = 2.0

#: Newton steps longer than this fraction of |eps| from a negative eps are
#: taken in ln(-eps), which keeps every candidate below 0: a linear step
#: toward a state just below a threshold near 0 overshoots it.
_LOG_STEP = 0.01

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
    t_far, t_near = tq.item(far), tq.item(near)
    return (t_far - t_near - (1.0 - t_far) * math.expm1(-a)) / (1.0 - t_near)


def _carry(band, seeds, given=None) -> tuple[int, np.ndarray]:
    """Carry the Numerov recursion in its summed form, every side at once.

    With F = (1 - h^2 q/12) g and v = h^2 q / (1 - h^2 q/12), the
    differences D_i = F_{i+1} - F_i obey D_i = D_{i-1} + v_i F_i and
    F_{i+1} = F_i + D_i, from F_0 = 1 and D_{-1} = p, the seed
    1 - F_{-1}/F_0 (1 at a hard wall).  Nothing forms 2 + v, so small v keep
    their digits.  A side's unknowns (D_{-1}, F_0, D_0, F_1, ..., D_{n-1},
    F_n) form one unit lower triangular band system of bandwidth 2; the
    sides follow each other in one system, decoupled by zeroing the
    entries that tie a side's first pair to the last pair before it, and
    one BLAS forward substitution solves them all.

    Each entry depends only on the ones before it, and once one overflows
    every later one on its side is inf or NaN, so each side's last (D, F)
    pair tells whether the side is exact.  Only when it is not finite or
    at least 2^1000 is the side scanned for the first |z| >= 2^1000, and
    the substitution restarted from the last pair before it, scaled by a
    power of two, which changes no bit of any ratio.  A restart solves
    everything past it again, the later sides' seeds put back: an
    overflow also reaches the next side through the zeroed couplings
    (0 inf = NaN).  Returns the number of sign changes of F within the
    sides and z; only its ratios p_i = D_{i-1}/F_i = z[s + 2i]/z[s + 2i + 1]
    (each side's seed first) are meaningful.

    band holds the system's rows: -v_i of the side starting at row s in
    row s + 2i + 1 of column 1, -1.0 everywhere else in columns 1 and 2,
    as a shooter's scratch keeps it; the entries zeroed here are set back
    to -1.0 before returning.  seeds are (s, p) per side, ascending in
    the even start row s; a side ends where the next begins.  given, a
    list when passed, receives the row of every pair the substitution
    starts from: the starts alone unless a side restarted.
    """
    ab = band.T             # band's rows are the columns of ab
    z = np.zeros(len(band))
    starts = [s for s, _ in seeds]
    for s in starts[1:]:
        band[s - 2, 2] = band[s - 1, 1] = band[s - 1, 2] = 0.0
    given = [] if given is None else given

    def solve(j, d, f):
        # from the pair (d, f) at row j and every later side's seed, each
        # rescaled: its F is given, so it does not add the D before it.
        # z[j:] is contiguous, so dtbsv solves it in place
        for s, d, f in [(j, d, f), *((s, p, 1.0) for s, p in seeds if s > j)]:
            band[s, 1] = 0.0
            given.append(s)
            e = math.frexp(max(abs(d), abs(f)))[1]
            z[s], z[s + 1] = math.ldexp(d, -e), math.ldexp(f, -e)
        dtbsv(2, ab[:, j:], z[j:], lower=1, diag=1, overwrite_x=1)

    solve(0, seeds[0][1], 1.0)
    for j, e in zip(starts, [*starts[1:], len(z)]):
        while not (abs(z.item(e - 2)) < _BIG and abs(z.item(e - 1)) < _BIG):
            cut = j + int(np.argmin(np.abs(z[j:e]) < _BIG))
            restart = 2 * ((cut - 2) // 2)  # the last whole pair before it
            if restart <= j:
                # one step from a rescaled pair: v is not finite or huge;
                # the later sides start again from their seeds
                if e < len(z):
                    z[e:] = 0.0
                    solve(e, seeds[starts.index(e)][1], 1.0)
                break
            j, d, f = restart, z.item(restart), z.item(restart + 1)
            z[j + 2:] = 0.0
            solve(j, d, f)
    for s in given:
        band[s, 1] = -1.0
    neg = np.signbit(z[1::2])
    changes = neg[1:] ^ neg[:-1]
    for s in starts[1:]:
        band[s - 2, 2] = band[s - 1, 1] = band[s - 1, 2] = -1.0
        changes[s // 2 - 1] = False     # across the seam
    return int(np.count_nonzero(changes)), z


def _norm(f, f_m, den, rho) -> float:
    """sum (rho f / (f_m den))^2, in one dot product."""
    a = f / den
    a *= rho
    return float(a @ a) / (f_m * f_m)


@dataclass(frozen=True)
class RadialSolution:
    """One bound state: energy, node count and the sampled wave function.

    eps is the eigenvalue 2mE/hbar^2 of the radial equation and w the
    potential W it was solved in, sampled on rho like f; rho is the
    read-only array every state on the same grid shares.
    """

    energy: float
    energy_mk: float
    node_count: int
    rho: np.ndarray
    f: np.ndarray
    match_residual: float
    eps: float
    w: np.ndarray


class _Sweep(NamedTuple):
    """Scalars of one two-sided sweep at a trial energy."""

    count: int          # eigenvalues below the trial energy
    resid: float        # d / (|x_m| + |p_in| + h): a log-derivative mismatch


class _Grid(NamedTuple):
    """A log grid's step and read-only arrays, shared by its shooters."""

    h: float            # the step in t = ln(rho)
    rho: np.ndarray
    r2: np.ndarray      # rho^2
    quarter: np.ndarray  # 1/(4 rho^2), for the window's floor
    root: np.ndarray    # sqrt(rho), for each wave


@lru_cache(maxsize=1)
def _log_grid(rho_min: float, rho_max: float, n: int) -> _Grid:
    """The n-point log grid from rho_min to rho_max, built once while it is
    the last one asked for: the points of a scan share it."""
    t = np.linspace(math.log(rho_min), math.log(rho_max), n)
    rho = np.exp(t)
    r2 = rho * rho
    grid = _Grid(float(t[1] - t[0]), rho, r2, 0.25 / r2, np.sqrt(rho))
    for a in grid[1:]:
        a.setflags(write=False)
    return grid


class _Shooter:
    """Two-sided ratio sweeps, node counts and eigenvalues on a fixed log grid.

    w_of samples W over an array of rho and w_inf is its large-rho limit;
    eigenvalues are searched in [w_min, search_top), w_min = min (W +
    1/(4 rho^2)) over the grid, where q >= 0 everywhere.  The outward sweep
    starts from the regular f ~ rho^alpha at rho_min, alpha = 1/2 +
    sqrt(1/4 - shift) for a W that goes as -shift/rho^2 there (f ~ rho for
    the default shift 0), and the inward one from the decaying exponential
    at the barrier cutoff; hard_wall puts f = 0 at both instead.  Both
    meet at the outer turning point m, where the twist d of the
    tridiagonal Numerov problem gives the inertia: count = sign changes
    on both sides + (d < 0), which steps exactly at the roots of d.  The
    resid, d over a positive scale, has the sign of d, so count -
    (resid < 0) is the sign changes alone: k on the iterates from which
    the search for state k takes a Newton step.  The grid comes from
    `_log_grid`, shared by every shooter on it and read-only; w and
    the band scratch are each shooter's own.  ValueError unless
    0 < rho_min < rho_max < inf and n >= 7: m is clamped to [3, n - 4].
    """

    def __init__(self, w_of, w_inf: float, search_top: float,
                 rho_min: float, rho_max: float, n: int,
                 hard_wall: bool = False, shift: float = 0.0):
        if not (0.0 < rho_min < rho_max < math.inf and n >= 7):
            raise ValueError("need 0 < rho_min < rho_max < inf and n >= 7")
        self.grid = _log_grid(rho_min, rho_max, n)
        self.h, self.rho, self.r2 = self.grid[:3]
        self.w = w_of(self.rho)
        bad = self.rho[~np.isfinite(self.w)]
        if len(bad):    # a NaN trial energy would never leave the bisection
            raise SolverError(f"W is not finite at rho = {bad[0]:.6g}")
        self.n = n
        self.band = np.full((2 * n + 2, 3), -1.0)   # _carry's scratch
        # the window's floor, where q >= 0 at every point
        self.w_min = float((self.w + self.grid.quarter).min())
        # min W[k:] and -max W[k:], both ascending in k, for searchsorted
        self.tail_min = np.minimum.accumulate(self.w[::-1])[::-1]
        self.tail_neg_max = -np.maximum.accumulate(self.w[::-1])[::-1]
        self.reach = n      # the last sweep's cutoff less its turning point
        self.w_inf = w_inf
        self.top = search_top - abs(search_top) * 1e-12
        self.hard_wall = hard_wall
        # g = f/sqrt(rho) ~ exp((alpha - 1/2) t) at rho_min
        self.inner_rate = math.sqrt(0.25 - shift)
        # one sweep per trial energy, scalars only: the count and the
        # search of every state read the same table, and the Newton step
        # to the root of d of each energy swept
        self.table: dict[float, _Sweep] = {}
        self.steps: dict[float, float] = {}
        # the last _sweep's (eps, _Sweep, z_out, z_in, tq); the wave at the
        # returned energy is built from it when that was the energy swept last
        self.last = None

    def _turning_and_stop(self, eps: float) -> tuple[int, int, np.ndarray]:
        """Outermost classical turning point of s = W - eps, the barrier
        cutoff beyond it and q = 1/4 + rho^2 s on [0, cutoff].

        Past the first k where W[k:] lies strictly on one side of eps, read
        off the suffix extremes, s keeps its sign, so the last sign change
        is (k - 1, k); only where s[k - 1] = 0 is s[:k] scanned for it.
        Without a turning point the barrier action is counted from the inner
        edge when the whole grid is forbidden, from the outer edge
        otherwise.  The action is summed in grid order from the turning
        point over 5/4 of the last sweep's reach plus 16 points, and to
        the grid's end when the cap lies beyond that, so the cutoff is
        that of one whole-grid cumsum.
        """
        n = self.n
        k = min(int(self.tail_min.searchsorted(eps, side="right")),
                int(self.tail_neg_max.searchsorted(-eps, side="right")))
        if k and self.w.item(k - 1) != eps:
            im = k - 1
        else:
            s = self.w[:k] - eps
            idx = np.flatnonzero(s[:-1] * s[1:] < 0.0)
            im = (int(idx[-1]) if len(idx)
                  else (0 if self.tail_min[0] >= eps else n - 1))
        im = min(max(im, 3), n - 4)
        end = min(im + self.reach, n - 1)
        q = self.w[:end + 1] - eps     # in place from here: a temporary
        q *= self.r2[:end + 1]         # slows every sweep
        q += 0.25
        action = np.maximum(q[im:end], 0.0)
        np.sqrt(action, out=action)
        action *= self.h
        np.cumsum(action, out=action)
        stop = im + int(action.searchsorted(_ACTION_CAP, side="right"))
        if stop == end < n - 1:     # the cap lies past the window
            self.reach = n
            return self._turning_and_stop(eps)
        self.reach = (stop - im) * 5 // 4 + 16
        return im, stop, q[:stop + 1]

    def _sweep(self, eps: float) -> _Sweep:
        """Outward from rho_min and inward from the cutoff to m, in one
        _carry; the energy, the scalars, both carries and tq are kept as
        `last` for wave, and the Newton step d / (h^2 sum rho^2 g^2) in
        `steps`.  With the sides normalised to F = 1 at m, d is minus row
        m of the symmetric Numerov matrix applied to F, so its energy
        derivative is F^T (dv/deps) F = -h^2 sum rho^2 g^2 over the points
        1 .. stop - 1, g = F/(1 - tq) (J. W. Cooley, Math. Comp. 15, 363
        (1961)); the seeds' own dependence on eps is left out.  F is read
        straight from the carry, or, on a side that restarted from a
        rescaled pair, from the ratio products."""
        self.last = None    # freed before this sweep's arrays: peak memory
        m, stop, hq = self._turning_and_stop(eps)
        hq *= self.h * self.h       # h^2 q, in place on q
        tq = hq / 12.0
        top, bottom = tq.max(), tq.min()
        if not (top < _MAX_STEP_TQ and -bottom < _MAX_STEP_TQ):   # also NaN
            raise SolverError(
                f"Numerov step unstable at eps = {eps!r}: |h^2 q/12| reaches "
                f"{max(top, -bottom):.3g} (limit {_MAX_STEP_TQ}); refine the "
                "radial grid")
        # -v = h^2 q / (h^2 q/12 - 1) straight into the band: outward at
        # points 1..m - 1, then inward at stop - 1 down to m + 1
        band = self.band[:2 * stop]
        den = tq - 1.0
        np.divide(hq[1:m], den[1:m], out=band[1:2 * m - 2:2, 1])
        np.divide(hq[stop - 1:m:-1], den[stop - 1:m:-1],
                  out=band[2 * m + 1:-2:2, 1])
        if self.hard_wall:
            p_lo = p_hi = 1.0
        else:
            w_stop = self.w_inf if stop == self.n - 1 else self.w.item(stop)
            kappa = math.sqrt(max(w_stop - eps, 0.0))
            p_lo = _seed(tq, 0, 1, self.inner_rate * self.h)
            p_hi = _seed(tq, stop, stop - 1, 0.5 * self.h + kappa
                         * (self.rho.item(stop) - self.rho.item(stop - 1)))
        given = []
        turns, z = _carry(band, [(0, p_lo), (2 * m, p_hi)], given)
        z_out, z_in = z[:2 * m], z[2 * m:]
        p_in = z_in.item(-2) / z_in.item(-1)
        x_m = (hq.item(m) / (1.0 - tq.item(m))
               + z_out.item(-2) / z_out.item(-1))
        d = x_m + p_in
        resid = d / (abs(x_m) + abs(p_in) + self.h)
        sweep = _Sweep(turns + (d < 0.0), resid)
        # sum rho^2 g^2 straight from each side's F over its F_m, unless a
        # side restarted or the sum overflows: then from the ratio products
        norm = math.inf
        carried = given == [0, 2 * m]
        if carried:
            norm = (_norm(z_out[1::2], z_out.item(-1), den[1:m + 1],
                          self.rho[1:m + 1])
                    + _norm(z_in[1:-2:2], z_in.item(-1), den[stop - 1:m:-1],
                            self.rho[stop - 1:m:-1]))
        if not norm < math.inf:
            norm = _norm(self._amplitudes(z_out, z_in, tq), 1.0, 1.0, self.rho)
        self.steps[eps] = d / (self.h * self.h * norm)
        self.last = eps, sweep, z_out, z_in, tq, carried
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
        from the carries of the last sweep, which is at eps when the search
        returned the last energy it swept; otherwise eps is swept once.  F
        is read straight from the carry when neither side restarted, else
        from the ratio products."""
        if self.last is None or self.last[0] != eps:
            self._sweep(eps)
        _, sweep, z_out, z_in, tq, carried = self.last
        f = self._amplitudes(z_out, z_in, tq, carried) * self.grid.root
        return sweep.resid, f / f[np.abs(f).argmax()]

    def _amplitudes(self, z_out, z_in, tq, carried=False) -> np.ndarray:
        """g = F/(1 - tq) over the grid from a sweep's carries, F = 1 at m.
        carried, when neither side restarted, reads F straight from the
        carry, each side over its own F_m, with F_{-1} = F_0 - D_{-1} at
        rho_min and at the cutoff.  Otherwise 1 - p is F_i/F_{i+1} outward
        and F_i/F_{i-1} inward; the partial products are F itself, so
        nothing overflows, whatever scale each stretch of a carry was
        solved in."""
        m, stop = len(z_out) // 2, len(tq) - 1
        g = np.zeros(self.n)    # F is zero beyond the cutoff
        if carried:
            g[0], g[stop] = z_out[1] - z_out[0], z_in[1] - z_in[0]
            g[1:m + 1] = z_out[1::2]
            g[stop - 1:m:-1] = z_in[1:-2:2]
            g[:m + 1] /= z_out[-1]
            g[m + 1:stop + 1] /= z_in[-1]
        else:
            g[:m] = np.cumprod(1.0 - (z_out[0::2] / z_out[1::2])[::-1])[::-1]
            g[m] = 1.0
            g[m + 1:stop + 1] = np.cumprod(
                1.0 - (z_in[0::2] / z_in[1::2])[::-1])
        g[:stop + 1] /= 1.0 - tq
        return g

    def eigenvalue(self, k: int, guess: float | None = None) -> float:
        """The k-th eigenvalue: one safeguarded Newton iteration on the
        twist d, as `rtsafe` (Numerical Recipes) runs it, each iterate
        swept once.

        The bracket starts as the window [w_min, top), and each iterate's
        count moves one of its ends: a count above k makes it the upper
        one.  The first iterate is the guess when there is one inside the
        window.  From an iterate with k sign changes, where d vanishes
        only at state k, the next one is its Newton step (`_sweep`) if
        that lands inside the bracket and either halves the move before
        it or, within 64 BRENT_RTOL |eps|, where d's rounding shows,
        still points the way of that move (the root not yet passed).  A
        step longer than _LOG_STEP |eps| from a negative iterate is the
        same Newton step in y = ln(-eps), eps exp(step/eps), which stays
        below 0; an exponent past math.exp's range gives no candidate.
        Every other next iterate bisects the bracket: at -sqrt(lo hi)
        while both its ends are negative and more than _GEOMETRIC_RATIO
        apart, at lo/16 while lo < 0 = hi, else at the midpoint.  So a
        window whose top is 0 takes lo/16 steps until hi < 0 and log
        steps after: a state below a threshold at 0 lies decades above
        the window's floor.  The search returns

          the first iterate with k sign changes whose step is at most
            BRENT_RTOL |eps|, Brent's tolerance;
          the iterate of least |step| among those with k sign changes,
            once a step within 64 BRENT_RTOL |eps| is not taken;
          the upper end, once no double lies inside the bracket.

        d changes sign with k sign changes only at the count's step from
        k to k + 1, so the first two exits prove the state; the last one
        sweeps w_min if it is still the lower end, so an energy depends
        on the window and the guess alone, never on what the sweep table
        holds.  SolverError unless state k lies in the window.
        """
        lo, hi = self.w_min, self.top
        x = guess if guess is not None and lo < guess < hi else None
        last, best = -math.inf, []      # the first move counts as infinite
        while k < self.count(self.top):     # swept once, then a table hit
            if x is None:
                x = (-math.sqrt(-lo) * math.sqrt(-hi)
                     if lo < _GEOMETRIC_RATIO * hi < 0.0
                     else lo / 16.0 if lo < 0.0 == hi else 0.5 * (lo + hi))
                if x in (lo, hi):   # the count steps in (lo, hi]
                    if self.count(lo) <= k:
                        return hi
                    break
            moved = x - last
            sweep, step, last = self.sweep(x), self.steps[x], x
            lo, hi = (lo, x) if sweep.count > k else (x, hi)
            x = None
            if sweep.count - (sweep.resid < 0.0) == k:
                best.append((abs(step), last))
                if abs(step) <= BRENT_RTOL * abs(last):
                    return last
                floor = abs(step) <= 64.0 * BRENT_RTOL * abs(last)
                nxt = last + step
                if last < 0.0 and abs(step) > _LOG_STEP * abs(last):
                    try:    # the same Newton step in ln(-eps)
                        nxt = last * math.exp(step / last)
                    except OverflowError:
                        nxt = math.nan
                if lo < nxt < hi and (abs(step) <= 0.5 * abs(moved)
                                      or floor and step * moved > 0):
                    x = nxt
                elif floor:
                    return min(best)[1]
        raise SolverError(f"state {k} not contained in search window")


def default_rho_max(system) -> float:
    """max(4000 au, 20 |a|) over the pairs of the system with finite a."""
    amax = max((abs(p.a) for p in system.pairs if math.isfinite(p.a)),
               default=0.0)
    return max(4000.0, 20.0 * amax)


def _warm_starts(shooter: _Shooter, prior) -> list[float]:
    """Per state of the last prior point: the energy its search starts
    from, the Rayleigh quotient sum rho f H f / sum rho f^2 over the log
    grid (d rho = rho dt) of f = 2 f_1 - f_2, the wave extrapolated in P
    from the last two points.  H f_j = (eps_j + W - W_j) f_j by each
    prior's own equation, -f_j'' = (eps_j - W_j) f_j, so no derivative is
    taken.  From one point, or for a state the point before lacks, f_2 =
    f_1, and the quotient is the first-order estimate eps_1 + <f_1|W -
    W_1|f_1> / <f_1|f_1>.  Empty unless every point was solved on the
    shooter's grid: the same array, shared through `_log_grid`, or one
    equal to it."""
    points = (prior or [[]])[-2:]
    if not all(s.rho is shooter.rho or np.array_equal(s.rho, shooter.rho)
               for p in points for s in p[:1]):
        return []
    w, out = shooter.w, []
    for k, state in enumerate(points[-1]):
        before = points[0][k] if k < len(points[0]) else state
        f = 2.0 * state.f - before.f
        hf = (2.0 * (state.eps + w - state.w) * state.f
              - (before.eps + w - before.w) * before.f)
        weight = f * shooter.rho
        out.append(float(weight @ hf) / float(weight @ f))
    return out


def solve_bound_states(potential, max_states: int = 4, *,
                       rho_min: float = 0.05, rho_max: float | None = None,
                       n: int = 8000,
                       prior: list[list[RadialSolution]] | None = None
                       ) -> list[RadialSolution]:
    """All bound states of the effective potential, deepest first.

    Returns up to max_states solutions ordered by node count; an empty list
    when the potential binds nothing.  States are searched below
    min(w_inf, threshold): the asymptote, or the bare threshold where
    P (R/|a|)^2 > 1/2 lifts the asymptote above it.  Each eps is the
    Newton search's stop (`_Shooter.eigenvalue`), within a few BRENT_RTOL
    |eps| of the root Brent's method finds on the phase without a stop
    (tested to 4 BRENT_RTOL |eps|); SolverError unless state k has k nodes
    and a match residual of at most _MATCH_TOL, ValueError for a grid the
    shooter refuses (`_Shooter`).

    prior, the states of the earlier points of a scan on the same grid,
    one list per point, last one last, warm-starts the states the last
    point holds: each search starts at the Rayleigh quotient of the wave
    extrapolated from the last two points (`_warm_starts`), in the same
    window and with the same stops as a cold search; the energies agree
    with a cold solve to the search's tolerance.
    """
    if rho_max is None:
        rho_max = default_rho_max(potential.problem.system)
    search_top = min(potential.w_inf, potential.threshold)
    shooter = _Shooter(potential.values, potential.w_inf, search_top,
                       rho_min, rho_max, n,
                       shift=_SHIFT[potential.q_convention])
    n_states = min(shooter.count(shooter.top), max_states)
    warm = _warm_starts(shooter, prior)
    out = []
    for n_state in range(n_states):
        guess = warm[n_state] if n_state < len(warm) else None
        eps = shooter.eigenvalue(n_state, guess)
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
            w=shooter.w))
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


#: Stirling's series for ln Gamma(z) past (z - 1/2) ln z - z + ln(2 pi)/2:
#: B_2k / (2k (2k - 1)) z^(1 - 2k), k = 1..6.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


def _gamma_phase(g: float) -> float:
    """arg Gamma(1 + i g), continuous in g (the imaginary part of
    ln Gamma): Stirling's series at z = 13 + i g, where its first
    omitted term is below 1e-15, less arg(1 + j + i g) for j = 0..11 by
    the recurrence Gamma(z + 1) = z Gamma(z)."""
    z = complex(13.0, g)
    series = (z - 0.5) * cmath.log(z) - z
    power, z2 = 1.0 / z, z * z
    for c in _STIRLING:
        series += c * power
        power /= z2
    return series.imag - sum(math.atan2(g, 1.0 + j) for j in range(12))


def thomas_spectrum(g: float | None = None, cutoff_rho0: float = 0.1,
                    outer_rho: float = 3e6, n_states: int = 5,
                    n: int = 12000) -> ThomasSpectrum:
    """Deepest bound states of W = -(g^2 + 1/4)/rho^2 between hard walls.

    This is the collapse scenario of the bare contact interaction: with the
    inner wall as the only scale, successive levels are spaced by the
    geometric factor exp(2 pi / g).  Hard-wall shooting on the common
    core; the endpoint condition f(outer wall) = 0 is applied at the
    adaptive barrier cutoff, which is equivalent within double precision.
    The levels are the zeros of K_ig(kappa cutoff_rho0), and for x =
    kappa cutoff_rho0 << 1 those lie at x_j = 2 exp((phi - j pi)/g),
    phi = arg Gamma(1 + i g) (DLMF 10.45), so each level starts its
    Newton search (`_Shooter.eigenvalue`) at one of them, eps = -(x /
    cutoff_rho0)^2 with x = x_j exp(x_j^2 / (4 (1 + g^2))), the shift of
    the series' next term (DLMF 10.25.2), which leaves x off by order x^4:
    by 1.7e-12 on the second default level, 1.0e-6 without it.  The
    first level starts at the largest x_j <= 1, each later one at the
    zero after the one nearest the level below.  A start moves only
    the search's cost: each level is proved by its count, with the same
    stops.  ValueError unless 0 < g < inf, 0 < 100 cutoff_rho0 <=
    outer_rho < inf, n_states >= 1 and n >= 7.
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
    phase = _gamma_phase(g)

    def start(j: int) -> float:
        x = 2.0 * math.exp((phase - j * math.pi) / g)
        x *= math.exp(x * x / (4.0 * (1.0 + g * g)))
        return -(x / cutoff_rho0) ** 2
    # the largest x_j <= 1; the form fails past x ~ 1
    guess = start(math.ceil((phase + g * math.log(2.0)) / math.pi))
    levels = []
    for k in range(min(n_states, shooter.count(shooter.top))):
        levels.append(shooter.eigenvalue(k, guess))
        # the zero after the one nearest the level just solved
        j = round((phase - g * math.log(
            0.5 * cutoff_rho0 * math.sqrt(-levels[-1]))) / math.pi)
        guess = start(j + 1)
    energies = [eps / (2.0 * DEFAULT_MASS_SCALE) for eps in levels]
    ratios = tuple(energies[k] / energies[k + 1]
                   for k in range(len(energies) - 1))
    return ThomasSpectrum(g=g, energies=tuple(energies), ratios=ratios)
