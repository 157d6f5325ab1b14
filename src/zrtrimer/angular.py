"""Hyperangular eigenvalue equation of the zero-range three-body problem.

The lowest hyperangular eigenvalue lambda(rho) enters the hyper-radial
equation through u(rho) = nu^2(rho) = lambda(rho) + 4.  A nontrivial angular
solution exists where the 3x3 boundary-condition matrix M(nu, rho) is
singular; for three identical bosons det M = 0 factorizes and the symmetric
root solves a single transcendental equation.

Everything here works on the real variable u = nu^2.  All transcendental
combinations are even in nu, so u < 0 (imaginary nu = i*kappa) is evaluated
with hyperbolic forms and no complex arithmetic appears anywhere.  The
normalization of every matrix row by sin(nu pi/2) introduces poles at
u = (2n)^2, n >= 1, which are excluded by a guard band.  Every root search
is one sign-change ladder, `_walk`, plus a Brent refine (`system.brent`)
that reuses the values at the bracket's ends: two-sided for branch
continuation, one-sided from a window edge to seed the first node.

Continuation (trace_branch) predicts each node by the quadratic through the
three previous ones and starts the walk with a rung sized by the previous
node's miss, so a node costs about 6 residual evaluations on the bundled
configs: the prediction, the first rung each way and the refine; the
residual it stores is the one the refine evaluated at the root.

The searches read one scaled residual per problem, `AngularProblem.residual`,
built from constants computed once.  For identical bosons it is the boson
equation with C(u) and the sine ratio over one sin/sinh denominator.  In
the general case it is the 3x3 determinant in closed form, with each row
divided by its largest term taken before the diagonal sum C(u) + bc_i
cancels: in a bound row both are ~13 and cancel to ~1e-15 at a root, so
scaling by what is left would turn one ulp of u into a residual of 1e-8.
Scaled this way the residual is relative, and trace_branch rejects any
node whose residual exceeds MAX_RESIDUAL with SolverError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .system import (KinematicConstants, PairParams, ParticleSystem, SolverError,
                     _brent, brent, dimer_binding_energy, dimer_pole_kappa,
                     reduced_masses)

SQRT3 = math.sqrt(3.0)

#: Exclusion half-width around the normalization poles u = (2n)^2.
POLE_GUARD = 1e-6

#: trace_branch may halve a step toward the next node this many times.
MAX_HALVINGS = 12

#: Largest scaled residual trace_branch accepts at a branch node.
MAX_RESIDUAL = 1e-10


class PoleProximityError(SolverError):
    """Evaluation requested inside the guard band of a pole u = (2n)^2."""


class RootSearchError(SolverError):
    """No sign change found in the maximal search window."""


def _check_pole(u: float) -> None:
    if u < 4.0 - POLE_GUARD:
        return
    lo, hi = _cell_interval(u)
    # closed interval: the guard-band edge itself stays evaluable, so root
    # brackets clipped to a cell boundary never trip the guard
    if not lo <= u <= hi:
        pole = 4 * round(math.sqrt(u) / 2.0) ** 2
        raise PoleProximityError(
            f"u = {u!r} lies within the guard band of the pole u = {pole}")


def _cell_interval(u: float) -> tuple[float, float]:
    """Pole-free open interval containing u (clipped by guard bands)."""
    if u < 4.0:
        return (-math.inf, 4.0 - POLE_GUARD)
    n = math.floor(math.sqrt(u) / 2.0)
    return (4.0 * n * n + POLE_GUARD, 4.0 * (n + 1) ** 2 - POLE_GUARD)


def _sinh_ratio(x: float, y: float) -> float:
    """sinh(x)/sinh(y) for 0 <= x <= y, safe against overflow."""
    if x == 0.0:
        return 0.0
    return math.exp(x - y) * (-math.expm1(-2.0 * x)) / (-math.expm1(-2.0 * y))


def nu_cot_half_pi(u: float) -> float:
    """C(u) = nu cos(nu pi/2) / sin(nu pi/2), even in nu, u = nu^2.

    For u > 0 this is sqrt(u) cot(sqrt(u) pi/2); for u < 0 it turns into
    kappa coth(kappa pi/2) with kappa = sqrt(-u); the u -> 0 limit is 2/pi.
    """
    _check_pole(u)
    if u == 0.0:
        return 2.0 / math.pi
    if u > 0.0:
        nu = math.sqrt(u)
        return nu / math.tan(nu * math.pi / 2.0)
    kappa = math.sqrt(-u)
    return kappa / math.tanh(kappa * math.pi / 2.0)


def sin_ratio(u: float, phi: float) -> float:
    """S(u, phi) = sin(nu (phi - pi/2)) / sin(nu pi/2), even in nu.

    phi must lie in (0, pi/2).  For u < 0 the value is
    -sinh(kappa (pi/2 - phi)) / sinh(kappa pi/2); for u -> 0 it tends to
    (phi - pi/2) / (pi/2).
    """
    if not 0.0 < phi < math.pi / 2.0:
        raise ValueError(f"phi = {phi!r} outside (0, pi/2)")
    _check_pole(u)
    if u == 0.0:
        return (phi - math.pi / 2.0) / (math.pi / 2.0)
    if u > 0.0:
        nu = math.sqrt(u)
        return math.sin(nu * (phi - math.pi / 2.0)) / math.sin(nu * math.pi / 2.0)
    kappa = math.sqrt(-u)
    return -_sinh_ratio(kappa * (math.pi / 2.0 - phi), kappa * math.pi / 2.0)


@lru_cache(maxsize=1)
def efimov_constant() -> float:
    """Positive root g of  g cosh(g pi/2) = (8/sqrt3) sinh(g pi/6).

    The imaginary roots nu = +-i g of the unitary boson equation drive the
    scale-invariant 1/rho^2 attraction; g is about 1.00624.
    """

    def f(g: float) -> float:
        return (g * math.cosh(g * math.pi / 2.0)
                - (8.0 / SQRT3) * math.sinh(g * math.pi / 6.0))

    return brent(f, 0.5, 2.0, xtol=1e-14)


class Dimer(NamedTuple):
    """The bound pair with the deepest bare threshold: its spectator index,
    reduced mass, threshold -2mB/hbar^2 = -1/(mu a^2) (1/bohr^2) and pole
    momentum kappa of the extended boundary condition."""

    index: int
    mu: float
    threshold: float
    kappa: float


@dataclass(frozen=True)
class AngularProblem:
    """A three-body system prepared for the angular eigenvalue equation.

    The bare 1/a boundary condition is the pairs' own r_eff = p_shape = 0.
    Its roots are bracketed by the one walker `_walk` (see `_first_node_u`
    and `solve_at_rho`) and refined by `brent` to a relative tolerance
    (rtol 8.9e-16; xtol 1e-300 leaves roots near u = 0 their digits).
    """

    system: ParticleSystem

    @cached_property
    def kinematics(self) -> KinematicConstants:
        return reduced_masses(self.system)

    @cached_property
    def residual(self):
        """Scaled residual f(u, rho) for bracketing and root refinement:
        the boson equation over max(1, |LHS|, |RHS|) for identical bosons
        (`_boson_residual`), else det of the normalized matrix with each
        row over its largest term, taken before C + bc_i can cancel
        (`_general_residual`).  Scaling moves no root, so at an accepted
        root the value is a relative residual that trace_branch holds below
        MAX_RESIDUAL."""
        if self.system.is_identical:
            return _boson_residual(self)
        return _general_residual(self)

    @cached_property
    def dimer(self) -> Dimer | None:
        """The pair with the deepest dimer threshold -2mB/hbar^2 (the first
        of equals), or None when no pair binds."""
        mass_scale = self.system.mass_scale
        best = None
        for i, pair in enumerate(self.system.pairs):
            mu = self.kinematics.mu[i]
            b_energy = dimer_binding_energy(pair, mu, mass_scale)
            thr = 0.0 if b_energy is None else -2.0 * mass_scale * b_energy
            if thr < (0.0 if best is None else best[2]):
                best = (i, mu, thr)
        return None if best is None else Dimer(
            *best, dimer_pole_kappa(self.system.pairs[best[0]]))


def _bc_bracket(u: float, rho: float, pair: PairParams, mu: float) -> float:
    """rho/sqrt(mu) * [1/a + (R/2)(mu u/rho^2) + P R^3 (mu u/rho^2)^2].

    This is the boundary-condition side of the diagonal, written in u so
    that (sqrt(mu) nu / rho)^2 = mu u / rho^2 stays real for u < 0.
    """
    inv_a = 0.0 if math.isinf(pair.a) else 1.0 / pair.a
    if pair.r_eff == 0.0:
        return rho / math.sqrt(mu) * inv_a
    if rho == 0.0:
        if u == 0.0:
            return 0.0
        raise ValueError("rho = 0 admits only u = 0 under the extended "
                         "boundary condition")
    k2 = mu * u / (rho * rho)
    return (rho / math.sqrt(mu)) * (inv_a + 0.5 * pair.r_eff * k2
                                    + pair.p_shape * pair.r_eff ** 3 * k2 * k2)


def boson_lhs(u: float) -> float:
    """-C(u) + (8/sqrt3) sin(nu pi/6)/sin(nu pi/2)  (even in nu)."""
    # sin_ratio(u, pi/3) = -sin(nu pi/6)/sin(nu pi/2)
    return -nu_cot_half_pi(u) - (8.0 / SQRT3) * sin_ratio(u, math.pi / 3.0)


def boson_residual(u: float, rho: float, pair: PairParams, mu: float) -> float:
    """LHS(u) - RHS(u, rho) of the identical-boson eigenvalue equation.

    Zero residual means u is an angular eigenvalue at hyper-radius rho.
    The extended boundary condition enters through the pair's R and P.
    """
    return boson_lhs(u) - _bc_bracket(u, rho, pair, mu)


def build_matrix(u: float, rho: float, problem: AngularProblem) -> np.ndarray:
    """3x3 boundary-condition matrix, rows normalized by sin(nu pi/2).

    Diagonal: C(u) + rho/sqrt(mu_i) [1/a_i + (R_i/2) mu_i u/rho^2
    + P_i R_i^3 (mu_i u/rho^2)^2]; off-diagonal (i != j):
    2 S(u, phi_ij) / sin(2 phi_ij).  Its singularity encodes the three
    two-body boundary conditions simultaneously.
    """
    kin = problem.kinematics
    m = np.empty((3, 3))
    c = nu_cot_half_pi(u)
    for i in range(3):
        pair = problem.system.pairs[i]
        m[i, i] = c + _bc_bracket(u, rho, pair, kin.mu[i])
        for j in range(3):
            if i != j:
                phi = kin.phi[i][j]
                m[i, j] = 2.0 * sin_ratio(u, phi) / math.sin(2.0 * phi)
    return m


def _boson_residual(problem: AngularProblem):
    """(boson_lhs - _bc_bracket) / max(1, |LHS|, |RHS|), in scalars.

    The constants of the boundary condition are computed once, and C(u)
    and the pi/3 sine ratio share one sin/sinh denominator.
    """
    pair = problem.system.pairs[0]
    mu = problem.kinematics.mu[0]
    extended = pair.r_eff > 0.0
    # rhs = rho s (1/a + x (h + p x)), x = u/rho^2
    s = 1.0 / math.sqrt(mu)
    ia = 0.0 if math.isinf(pair.a) else 1.0 / pair.a
    h = 0.5 * pair.r_eff * mu
    p = pair.p_shape * pair.r_eff ** 3 * mu * mu
    w = 8.0 / SQRT3
    lhs0 = -2.0 / math.pi + w / 3.0
    half_pi, sixth_pi, third_pi = math.pi / 2.0, math.pi / 6.0, math.pi / 3.0
    sin, cos, sqrt, exp, expm1 = (math.sin, math.cos, math.sqrt, math.exp,
                                  math.expm1)
    guard = 4.0 - POLE_GUARD

    def resid(u: float, rho: float) -> float:
        # LHS = -C(u) + w sin(nu pi/6) / sin(nu pi/2), even in nu
        if u > 0.0:
            if u >= guard:
                _check_pole(u)
            nu = sqrt(u)
            lhs = (w * sin(nu * sixth_pi) - nu * cos(nu * half_pi)) / sin(
                nu * half_pi)
        elif u < 0.0:
            # sinh(k pi/6)/sinh(k pi/2) = e^(-k pi/3) (1 - e^(-k pi/3))
            # / (1 - e^(-k pi)), coth(k pi/2) = (2 - den)/den
            k = sqrt(-u)
            den = -expm1(-k * math.pi)
            lhs = (-w * exp(-k * third_pi) * expm1(-k * third_pi)
                   - k * (2.0 - den)) / den
        else:
            lhs = lhs0
        if rho == 0.0:
            if extended and u != 0.0:
                raise ValueError("rho = 0 admits only u = 0 under the "
                                 "extended boundary condition")
            rhs = 0.0
        else:
            x = u / (rho * rho)
            rhs = rho * s * (ia + x * (h + p * x))
        return (lhs - rhs) / max(1.0, abs(lhs), abs(rhs))

    return resid


def _general_residual(problem: AngularProblem):
    """det(build_matrix) / prod_i max(|C|, |bc_i|, |o_ij|, |o_ik|), in scalars.

    The matrix is symmetric, so its three distinct off-diagonals o_ij share
    one sin/sinh denominator and the determinant is written out in closed
    form.  Each row is scaled by the largest of its terms taken apart:
    scaled after C + bc_i has cancelled, a root one ulp off reads as a
    residual of 1e-8 in a bound row.
    """
    kin = problem.kinematics
    pairs = problem.system.pairs
    extended = any(p.r_eff > 0.0 for p in pairs)
    # row i: bc_i = rho s_i (1/a_i + x (h_i + p_i x)), x = u/rho^2
    (s0, ia0, h0, p0), (s1, ia1, h1, p1), (s2, ia2, h2, p2) = (
        (1.0 / math.sqrt(mu), 0.0 if math.isinf(p.a) else 1.0 / p.a,
         0.5 * p.r_eff * mu, p.p_shape * p.r_eff ** 3 * mu * mu)
        for p, mu in zip(pairs, kin.mu))
    # pairs (0, 1), (1, 2), (0, 2): phi, pi/2 - phi and 2/sin(2 phi)
    f01, f12, f02 = phis = (kin.phi[0][1], kin.phi[1][2], kin.phi[0][2])
    g01, g12, g02 = (math.pi / 2.0 - phi for phi in phis)
    w01, w12, w02 = (2.0 / math.sin(2.0 * phi) for phi in phis)
    half_pi = math.pi / 2.0
    sin, tan, sqrt, exp, expm1 = (math.sin, math.tan, math.sqrt, math.exp,
                                  math.expm1)

    def resid(u: float, rho: float) -> float:
        _check_pole(u)
        # C(u) and o_ij = 2 S(u, phi_ij) / sin(2 phi_ij), even in nu
        if u > 0.0:
            nu = sqrt(u)
            den = sin(nu * half_pi)
            c = nu / tan(nu * half_pi)
            o01 = -w01 * sin(nu * g01) / den
            o12 = -w12 * sin(nu * g12) / den
            o02 = -w02 * sin(nu * g02) / den
        elif u < 0.0:
            # sinh(k g)/sinh(k pi/2) = e^(-k phi) (1 - e^(-2k g))/(1 - e^(-k pi))
            k = sqrt(-u)
            den = -expm1(-k * math.pi)
            c = k * (2.0 - den) / den
            o01 = w01 * exp(-k * f01) * expm1(-2.0 * k * g01) / den
            o12 = w12 * exp(-k * f12) * expm1(-2.0 * k * g12) / den
            o02 = w02 * exp(-k * f02) * expm1(-2.0 * k * g02) / den
        else:
            c = 1.0 / half_pi
            o01 = -w01 * g01 / half_pi
            o12 = -w12 * g12 / half_pi
            o02 = -w02 * g02 / half_pi
        if rho == 0.0:
            if extended and u != 0.0:
                raise ValueError("rho = 0 admits only u = 0 under the "
                                 "extended boundary condition")
            b0 = b1 = b2 = 0.0
        else:
            x = u / (rho * rho)
            b0 = rho * s0 * (ia0 + x * (h0 + p0 * x))
            b1 = rho * s1 * (ia1 + x * (h1 + p1 * x))
            b2 = rho * s2 * (ia2 + x * (h2 + p2 * x))
        d0, d1, d2 = c + b0, c + b1, c + b2
        det = (d0 * d1 * d2 + 2.0 * o01 * o12 * o02
               - d0 * o12 * o12 - d1 * o02 * o02 - d2 * o01 * o01)
        ac, a01, a12, a02 = abs(c), abs(o01), abs(o12), abs(o02)
        scale = (max(ac, abs(b0), a01, a02) * max(ac, abs(b1), a01, a12)
                 * max(ac, abs(b2), a02, a12))
        return det / max(scale, 1e-300)

    return resid


def _walk(f, x0: float, lo: float, hi: float, h0: float, grow: float,
          max_steps: int) -> tuple[float, float]:
    """Root of f nearest to x0 in [lo, hi], by ladder bracketing, with f
    at the root as the walk or the refine evaluated it.

    Walks outward from x0 in both directions, with a step that starts at h0
    and is multiplied by `grow` after each rung, clipped to the window, and
    refines the first bracket that shows a sign change with `brent` from
    the values at its ends, to relative machine precision also for roots
    near u = 0 (the first node sits at u ~ -3e-4), so the branch residual
    invariant holds with margin even where the residual is steep in u.  If
    both directions bracket on the same rung the root closer to x0 wins.  A
    walk that starts at an edge of its window runs one way only.
    """
    f0 = f(x0)
    if f0 == 0.0:
        return x0, f0
    xp = xm = x0
    fp = fm = f0
    h = h0
    for _ in range(max_steps):
        brackets = []
        if xp < hi:
            x2 = min(xp + h, hi)
            f2 = f(x2)
            if f2 == 0.0:
                return x2, f2
            if fp * f2 < 0.0:
                brackets.append((xp, x2, fp, f2))
            xp, fp = x2, f2
        if xm > lo:
            x2 = max(xm - h, lo)
            f2 = f(x2)
            if f2 == 0.0:
                return x2, f2
            if fm * f2 < 0.0:
                brackets.append((x2, xm, f2, fm))
            xm, fm = x2, f2
        if brackets:
            roots = [_brent(f, *bracket, 1e-300) for bracket in brackets]
            return min(roots, key=lambda r: abs(r[0] - x0))
        h *= grow
    raise RootSearchError(
        f"no sign change near u = {x0:g} (searched [{xm:g}, {xp:g}])")


def solve_at_rho(rho: float, problem: AngularProblem, guess: float,
                 step: float | None = None, *, residual: bool = False):
    """Angular eigenvalue u = nu^2 at one hyper-radius, continuing a branch.

    Returns the root of the eigenvalue condition closest to `guess`, by a
    two-sided walk inside the pole-free cell containing the guess; with
    residual, the pair (u, problem.residual(u, rho)), the residual as the
    walk or its refine evaluated it.  The walk's first rung is `step` when
    given (a caller that knows how far its guesses miss), else
    1e-4 (1 + |guess|); it grows by 1.4 per rung either way.  Raises
    RootSearchError when that cell shows no sign change, and
    PoleProximityError on pole collision.
    """
    f = problem.residual
    lo, hi = _cell_interval(guess)
    h0 = max(1e-9, 1e-4 * (1.0 + abs(guess))) if step is None else step
    x0 = min(max(guess, lo + h0), hi - h0)
    root = _walk(lambda u: f(u, rho), x0, lo, hi, h0, 1.4, 400)
    return root if residual else root[0]


def _first_node_u(rho: float, problem: AngularProblem) -> tuple[float, float]:
    """Lowest-branch root at the first grid node and its residual: a walk
    from a window edge.

    Under the extended boundary condition the branch leaves u(0) = 0 heading
    negative, so near the origin the walk steps down from zero (one-sided: a
    mirror root sits just above zero).  Otherwise (bare, zero-range, a large
    first rho, unitary) it steps up uniformly from the floor of
    u in [-(rho/(sqrt(mu)|a|) + 20)^2, 4) to the first, most negative root.
    """
    f = problem.residual
    d = problem.dimer
    scale = (0.0 if d is None else 1.0 / (
        math.sqrt(d.mu) * abs(problem.system.pairs[d.index].a)))
    extended = any(pair.r_eff > 0.0 for pair in problem.system.pairs)
    if extended and rho * scale < 0.3:
        return _walk(lambda u: f(u, rho), -1e-14, -1e12, -1e-14, 5e-8, 1.25, 400)
    lo, hi = -((rho * scale + 20.0) ** 2), 4.0 - POLE_GUARD
    return _walk(lambda u: f(u, rho), lo, lo, hi, (hi - lo) / 799, 1.0, 800)


@dataclass(frozen=True)
class NuBranch:
    """Lowest angular branch u(rho) = nu^2(rho) sampled on a rho grid.

    residuals holds the scaled solver residual at each accepted node, as
    the solve evaluated it; lam is lambda = u - 4 exactly.
    """

    rho: np.ndarray
    u: np.ndarray
    residuals: np.ndarray

    @property
    def lam(self) -> np.ndarray:
        return self.u - 4.0

    def __len__(self) -> int:
        return len(self.rho)


def trace_branch(grid, problem: AngularProblem) -> NuBranch:
    """Trace the lowest branch over a strictly increasing rho grid.

    Each solve is seeded by the quadratic through the three previous nodes
    (linear from two, the first analytically), and its walk starts with a
    rung of 4x the previous node's miss |u - guess|, floored at
    1e-13 (1 + |guess|) and capped at solve_at_rho's default.  If the
    prediction lands past a pole, or the root is lost or jumps between
    nodes, the step toward the next node is bisected, up to MAX_HALVINGS
    times, before giving up.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError("grid must be a nonempty 1-d array")
    if np.any(np.diff(grid) <= 0.0) or grid[0] <= 0.0:
        raise ValueError("grid must be positive and strictly increasing")

    us = np.empty_like(grid)
    res = np.empty_like(grid)

    # continuation state: last three accepted (rho, u) points, and the miss
    # |u - guess| of the last solve
    hist: list[tuple[float, float]] = []
    miss = None

    def extrapolate(r: float) -> float:
        """The Lagrange polynomial through the points in hist, at r."""
        total = 0.0
        for i, (ri, ui) in enumerate(hist):
            for j, (rj, _) in enumerate(hist):
                if j != i:
                    ui *= (r - rj) / (ri - rj)
            total += ui
        return total

    def advance(rho_target: float) -> tuple[float, float]:
        """Continue the branch from hist[-1] to rho_target, subdividing on
        failure; the step may be halved down to 2^-MAX_HALVINGS of the gap.
        Returns u at rho_target and its residual."""
        nonlocal miss
        gap0 = rho_target - hist[-1][0]
        min_step = gap0 / (2.0 ** MAX_HALVINGS)
        pending = [rho_target]
        while pending:
            tgt = pending[-1]
            guess = extrapolate(tgt)
            du_pred = guess - hist[-1][1]
            step = None
            if miss is not None:
                scale = 1.0 + abs(guess)
                step = min(max(4.0 * miss, 1e-13 * scale), 1e-4 * scale)
            ok = False
            # a branch cannot cross a pole: a guess past one has jumped
            lo, hi = _cell_interval(hist[-1][1])
            if lo <= guess <= hi:
                try:
                    u_new, r_new = solve_at_rho(tgt, problem, guess, step,
                                                residual=True)
                    trust = max(0.5, 0.25 * abs(guess), 8.0 * abs(du_pred))
                    ok = abs(u_new - guess) <= trust
                except RootSearchError:
                    pass
            if ok:
                pending.pop()
                miss = abs(u_new - guess)
                hist.append((tgt, u_new))
                if len(hist) > 3:
                    del hist[0]
            else:
                mid = 0.5 * (hist[-1][0] + tgt)
                if mid - hist[-1][0] < min_step:
                    raise RootSearchError(
                        f"branch continuation failed near rho = {tgt:g} "
                        f"(step refined below gap/2^{MAX_HALVINGS})")
                pending.append(mid)
        return u_new, r_new

    # builtin floats: an np.float64 rho would spread through every iterate
    # into hist and slow each later residual call
    for k, rho in enumerate(grid.tolist()):
        if k == 0:
            u, r = _first_node_u(rho, problem)
            hist.append((rho, u))
        else:
            u, r = advance(rho)
        us[k] = u
        res[k] = r
        if not abs(r) <= MAX_RESIDUAL:
            raise SolverError(
                f"branch residual {abs(r):.3g} at rho = {rho:g}, u = {u!r} "
                f"exceeds {MAX_RESIDUAL:g}")
    return NuBranch(rho=grid, u=us, residuals=res)


def nu2_asymptotic(rho: float, pair: PairParams, mu: float,
                   branch: str = "bound") -> float:
    """Large-rho expansion of u = nu^2 on the bare (1/a only) equation.

    branch="free" (no bound dimer): nu = 2 - (12/pi) sqrt(mu) a / rho, so
    u = 4 - (48/pi) sqrt(mu) a / rho to the order kept.  branch="bound":
    u = -x^2 - (16/sqrt3) x exp(-x pi/3) with x = rho/(sqrt(mu)|a|), the
    dimer-channel parabola plus its exponential correction.  Valid for
    rho >> max(|a|, R); the caller is responsible for the domain.
    """
    if branch == "free":
        return 4.0 - (48.0 / math.pi) * math.sqrt(mu) * pair.a / rho
    if branch == "bound":
        if not pair.has_bound_dimer:
            raise ValueError("bound-branch asymptote requires a < 0")
        return dimer_channel_u(rho, 1.0 / abs(pair.a), mu)
    raise ValueError(f"unknown branch {branch!r}")


def dimer_channel_u(rho, kappa: float, mu: float):
    """u(rho) of the dimer channel for pole momentum kappa: the asymptote
    -x^2 - (16/sqrt3) x e^(-x pi/3), x = kappa rho / sqrt(mu).  rho may be
    a scalar or an array."""
    x = kappa * rho / math.sqrt(mu)
    return -(x * x) - (16.0 / SQRT3) * x * np.exp(-x * math.pi / 3.0)
