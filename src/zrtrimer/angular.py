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
is one sign-change ladder that climbs one way, `_walk`, plus a regula
falsi refine (`system.regula_falsi`) that reuses the values at the
bracket's ends: from a window edge to seed the first node, and for branch
continuation toward the nearest root with the orientation of the node
before (the sign of the residual just above it).

trace_branch continues the branch node by node over a coarse sub-grid,
nodes at most COARSE_STEP apart in ln rho (87 of the bundled 600): each
node is predicted by the quadratic through the three previous ones, its
walk's first rung is sized by the previous node's miss and its second by
the residual's slope across the first.  From the fourth node on, a walk
whose bracket is at most HANDOVER_WIDTH |g - u_prev| wide (g the
prediction, u_prev the node before) is not refined: the continuation
goes on from the bracket's secant point, and the bracket is closed in
the lockstep.  The other nodes are solved in lockstep over numpy arrays:
guesses from a monotone cubic through the coarse nodes, brackets of
half-width about the guesses' median miss, widened around all of them
at once, and the same regula falsi on the nodes still open, the coarse
brackets handed over among them, until each bracket closes.  The array
form of the residual, `AngularProblem.residual_array`, covers the lowest
cell u < 4 - POLE_GUARD, where the branch lives; an array whose every u
lies below 0, as on a bound branch, takes the u < 0 forms with no mask.  A
node the lockstep cannot bracket near its guess, or close in
BRENT_MAXITER rounds, sends the whole grid back to the node-by-node
walk.  Every stored residual is one a search evaluated at the stored
root: on the bundled configs about 0.5 scalar calls and 6.5 to 7.3
array points per node.

Every branch trace_branch returns, cold or warm, passes one acceptance
check, `_verify`, the corrector's acceptance step of predictor-corrector
continuation: every residual within MAX_RESIDUAL, and every node within
the walk's trust max(0.5, |g|/4, 8 |g - u_prev|) of g, the quadratic
through the three nodes before it, wherever the grid resolves the branch
(steps up to COARSE_STEP in ln rho).  A node past that trust is a jump
between grid nodes, as at a fold just above P_c, and raises
BranchFoldError, as does a walk that loses its root after every
halving of its step.

A scan in the shape parameter P continues the branch in P as well
(natural-parameter continuation; E. L. Allgower and K. Georg, Numerical
Continuation Methods, 1990): given the branches of the previous points
on the same grid, every node but the first is one lockstep from the
line in P through the last two, or from one secant step on the new
residual off the only one, and no node is walked.  The first node
is seeded as in the cold trace once the lockstep has kept every node,
and the warm branch is kept only if it passes `_verify`; otherwise the
cold trace runs, unchanged.  On the bundled scans at P step 0.015 a
warm point takes 15 to 19 scalar calls, the first node's, and 6.0 to 6.2
array points per node, 8.0 to 8.3 at the second point.

The searches read one scaled residual per problem, `AngularProblem.residual`,
built from constants computed once.  For identical bosons it is the boson
equation, for two identical particles the exchange-symmetric factor of
the 3x3 determinant, two rows in closed form, and in the general case the
3x3 determinant in closed form.  Each form keeps only its bound-branch
path inline: for u < 0 it evaluates C(u) and its off-diagonals over one
sinh denominator in its own expressions (for bosons, C(u) and the pi/3
sinh ratio combined).  Every other u, u = 0 and u > 0 in any cell, takes
the shared `_couplings` behind the pole guard; the arrays' masked path
takes `_couplings_array`.  On the bundled configs neither off-branch path
runs.  Every form takes rho > 0, as on every grid trace_branch accepts.
Each row is divided by its largest term taken before the diagonal sum
C(u) + bc_i cancels: in a bound row both are ~13 and cancel to ~1e-15 at
a root, so scaling by what is left would turn one ulp of u into a
residual of 1e-8.
Scaled this way the residual is relative, and `_verify` rejects any
node whose residual exceeds MAX_RESIDUAL with SolverError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .system import (BRENT_MAXITER, BRENT_RTOL, KinematicConstants, PairParams,
                     ParticleSystem, SolverError, _Pchip, dimer_binding_energy,
                     dimer_pole_kappa, reduced_masses, regula_falsi)

SQRT3 = math.sqrt(3.0)

#: Exclusion half-width around the normalization poles u = (2n)^2.
POLE_GUARD = 1e-6

#: trace_branch may halve a step toward the next node this many times.
MAX_HALVINGS = 12

#: Largest scaled residual trace_branch accepts at a branch node.
MAX_RESIDUAL = 1e-10

#: Widest gap in ln(rho) between the nodes trace_branch continues one by one.
COARSE_STEP = 0.15

#: After its first rung, a walk from inside its window reaches this
#: multiple of |f0 / slope| past its start, the slope the secant through
#: the rung.
NEWTON_REACH = 1.25

#: A walk that continues a branch halves a rung at most this many times
#: where f turned back from zero inside it.
MAX_SPLITS = 8

#: First half-width of a lockstep bracket, over 1 + |guess|: about the
#: median miss of the guesses on the bundled traces (1.7e-5 He4, 1.8e-5
#: mixed).
LOCKSTEP_WIDTH = 2e-5

#: A coarse node's walk bracket at most this multiple of |g - u_prev| wide
#: (g its prediction, u_prev the node before) is closed in the lockstep.
HANDOVER_WIDTH = 0.1


class PoleProximityError(SolverError):
    """Evaluation requested inside the guard band of a pole u = (2n)^2."""


class RootSearchError(SolverError):
    """No sign change found in the maximal search window."""


class BranchFoldError(SolverError):
    """The lowest branch does not continue from node to node: it jumps
    past the continuation's trust between two grid nodes, or is lost
    after every halving of a step.  Seen just above P_c, where two roots
    of the angular equation meet (a fold)."""


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


@lru_cache(maxsize=1)
def efimov_constant() -> float:
    """Positive root g of  g cosh(g pi/2) = (8/sqrt3) sinh(g pi/6).

    The imaginary roots nu = +-i g of the unitary boson equation drive the
    scale-invariant 1/rho^2 attraction; g is about 1.00624.
    """

    def f(g: float) -> float:
        return (g * math.cosh(g * math.pi / 2.0)
                - (8.0 / SQRT3) * math.sinh(g * math.pi / 6.0))

    return regula_falsi(f, 0.5, 2.0)[0]


class Dimer(NamedTuple):
    """The bound pair with the deepest pole threshold -kappa^2/mu: its
    spectator index, reduced mass, bare threshold -2mB/hbar^2 =
    -1/(mu a^2) (1/bohr^2) and pole momentum kappa of the extended
    boundary condition."""

    index: int
    mu: float
    threshold: float
    kappa: float


@dataclass(frozen=True)
class AngularProblem:
    """A three-body system prepared for the angular eigenvalue equation.

    The bare 1/a boundary condition is the pairs' own r_eff = p_shape = 0.
    Its roots are bracketed by the one walker `_walk` (see `_first_node_u`
    and `solve_at_rho`) and refined by `regula_falsi` to a bracket
    2 BRENT_RTOL |u| wide, relative, so roots near u = 0 keep their
    digits.
    """

    system: ParticleSystem

    @cached_property
    def kinematics(self) -> KinematicConstants:
        return reduced_masses(self.system)

    @cached_property
    def extended(self) -> bool:
        """Whether some pair has r_eff > 0: the extended boundary
        condition, under which rho = 0 admits only u = 0 and the branch
        leaves u(0) = 0 heading negative."""
        return any(pair.r_eff > 0.0 for pair in self.system.pairs)

    @cached_property
    def _residual_forms(self):
        if self.system.is_identical:
            return _boson_residual(self)
        masses = self.system.masses
        for i, j in ((0, 1), (0, 2), (1, 2)):
            if masses[i] == masses[j]:
                return _pair_residual(self, i, 3 - i - j)
        return _general_residual(self)

    @cached_property
    def residual(self):
        """Scaled residual f(u, rho) for bracketing and root refinement:
        the boson equation over max(1, |LHS|, |RHS|) for identical bosons
        (`_boson_residual`); for two identical particles i and j, the
        exchange-symmetric factor (d + o) d_k - 2 o'^2 of det D = (d - o)
        [(d + o) d_k - 2 o'^2] (`_pair_residual`), since d - o vanishes
        only on states odd under the exchange of i and j, which two
        identical bosons do not have; else det of the normalized matrix
        (`_general_residual`).  Every row of a determinant or factor is
        divided by its largest term, taken before C + bc_i can cancel.
        Scaling moves no root, so at an accepted root the value is a
        relative residual that trace_branch holds below MAX_RESIDUAL.
        Each form evaluates u < 0, the bound branch, inline; every other
        u goes through the shared `_couplings` (C(u) and the
        off-diagonals, with the pole guard).  rho must be positive, as on
        every grid trace_branch accepts: the forms divide by rho^2."""
        return self._residual_forms[0]

    @cached_property
    def residual_array(self):
        """`residual` over equal-shape arrays of u < 4 - POLE_GUARD and
        rho > 0, the lowest pole-free cell, where it checks nothing.  It
        differs from `residual` in the last bits only, where np.sin and
        np.exp round differently from math."""
        return self._residual_forms[1]

    @cached_property
    def dimer(self) -> Dimer | None:
        """Of the pairs with a bare threshold -2mB/hbar^2 below 0, the one
        with the deepest pole threshold -kappa^2/mu (the first of equals),
        or None when no pair binds.  Far out the lowest branch follows the
        channel of the deepest pole, which need not be that of the deepest
        bare threshold when the pairs' r_eff differ; for r_eff = 0 the two
        agree, kappa = 1/|a|."""
        mass_scale = self.system.mass_scale
        # b is None for a > 0 and 0 for a = -inf: no bound dimer
        dimers = [Dimer(i, mu, -2.0 * mass_scale * b, dimer_pole_kappa(pair))
                  for i, (pair, mu) in enumerate(zip(self.system.pairs,
                                                     self.kinematics.mu))
                  if (b := dimer_binding_energy(pair, mu, mass_scale))]
        return min(dimers, key=lambda d: -d.kappa * d.kappa / d.mu,
                   default=None)


def _bc_constants(pair: PairParams, mu: float
                  ) -> tuple[float, float, float, float]:
    """(s, 1/a, h, p) with the boundary-condition term of the diagonal,
    rho/sqrt(mu) [1/a + (R/2)(mu u/rho^2) + P R^3 (mu u/rho^2)^2], equal to
    rho s (1/a + x (h + p x)), x = u/rho^2."""
    return (1.0 / math.sqrt(mu), 0.0 if math.isinf(pair.a) else 1.0 / pair.a,
            0.5 * pair.r_eff * mu, pair.p_shape * pair.r_eff ** 3 * mu * mu)


def _coupling_constants(phi: float) -> tuple[float, float, float]:
    """(phi, pi/2 - phi, 2/sin(2 phi)): the off-diagonal 2 S(u, phi) /
    sin(2 phi) is -w sin(nu g)/sin(nu pi/2), or w e^(-k phi) (e^(-2k g)
    - 1)/(1 - e^(-k pi)) for u = -k^2, with (phi, g, w) these three."""
    return phi, math.pi / 2.0 - phi, 2.0 / math.sin(2.0 * phi)


def _couplings(u: float, angles) -> tuple[float, list[float]]:
    """C(u) and the off-diagonal of each `_coupling_constants` triple in
    angles at one u off the bound branch: u >= 0 in any cell, behind the
    pole guard.  The three residual forms share it and keep their u < 0
    forms inline, where a bound branch lies."""
    _check_pole(u)
    half_pi = math.pi / 2.0
    if u == 0.0:
        return 1.0 / half_pi, [-w * g / half_pi for _, g, w in angles]
    nu = math.sqrt(u)
    den = math.sin(nu * half_pi)
    return nu / math.tan(nu * half_pi), [-w * math.sin(nu * g) / den
                                         for _, g, w in angles]


def _couplings_array(u: np.ndarray, angles
                     ) -> tuple[np.ndarray, list[np.ndarray]]:
    """C(u) and the off-diagonal of each `_coupling_constants` triple in
    angles, over an array of u in the lowest cell: the scalar forms'
    branches, each on its own mask, so none sees a u it would warn on.
    An array whose every u is below 0 (a bound branch, every lockstep of
    it) takes the u < 0 forms whole, with no mask, gather or scatter: the
    same values bit for bit."""
    if u.max(initial=-math.inf) < 0.0:
        return _couplings_below_zero(u, angles)
    half_pi = math.pi / 2.0
    c = np.empty_like(u)
    offs = [np.empty_like(u) for _ in angles]
    pos, neg, zero = u > 0.0, u < 0.0, u == 0.0
    nu = np.sqrt(u[pos])
    den = np.sin(nu * half_pi)
    c[pos] = nu / np.tan(nu * half_pi)
    for o, (_, g, w) in zip(offs, angles):
        o[pos] = -w * np.sin(nu * g) / den
    c[neg], below = _couplings_below_zero(u[neg], angles)
    for o, b in zip(offs, below):
        o[neg] = b
    c[zero] = 1.0 / half_pi
    for o, (_, g, w) in zip(offs, angles):
        o[zero] = -w * g / half_pi
    return c, offs


def _couplings_below_zero(u: np.ndarray, angles
                          ) -> tuple[np.ndarray, list[np.ndarray]]:
    """`_couplings_array` over an array of u < 0, with no mask."""
    k = np.sqrt(-u)
    den = -np.expm1(-k * math.pi)
    return k * (2.0 - den) / den, [
        w * np.exp(-k * f) * np.expm1(-2.0 * k * g) / den
        for f, g, w in angles]


def _boson_residual(problem: AngularProblem):
    """(LHS - RHS) / max(1, |LHS|, |RHS|) of the boson equation, LHS =
    -C(u) + (8/sqrt3) sin(nu pi/6)/sin(nu pi/2) and RHS the diagonal's
    boundary-condition term (`_bc_constants`), in scalars and over arrays
    of the lowest cell (AngularProblem.residual_array).

    The constants of the boundary condition are computed once.  For u < 0,
    the bound branch, C(u) and the pi/3 sinh ratio share one denominator
    inline, in scalars and on an array's u < 0 entries; every other u
    takes the shared `_couplings` (`_couplings_array` over arrays), with
    LHS = -(C + 2 o) for o the off-diagonal at phi = pi/3.
    """
    pair = problem.system.pairs[0]
    # rhs = rho s (1/a + x (h + p x)), x = u/rho^2
    s, ia, h, p = _bc_constants(pair, problem.kinematics.mu[0])
    angles = (_coupling_constants(math.pi / 3.0),)
    w = 8.0 / SQRT3
    third_pi = math.pi / 3.0
    sqrt, exp, expm1 = math.sqrt, math.exp, math.expm1

    def resid(u: float, rho: float) -> float:
        # LHS = -C(u) + w sin(nu pi/6) / sin(nu pi/2), even in nu
        if u < 0.0:
            # sinh(k pi/6)/sinh(k pi/2) = e^(-k pi/3) (1 - e^(-k pi/3))
            # / (1 - e^(-k pi)), coth(k pi/2) = (2 - den)/den
            k = sqrt(-u)
            den = -expm1(-k * math.pi)
            lhs = (-w * exp(-k * third_pi) * expm1(-k * third_pi)
                   - k * (2.0 - den)) / den
        else:
            c, (o,) = _couplings(u, angles)
            lhs = -(c + 2.0 * o)
        x = u / (rho * rho)
        rhs = rho * s * (ia + x * (h + p * x))
        return (lhs - rhs) / max(1.0, abs(lhs), abs(rhs))

    def below_zero(u: np.ndarray) -> np.ndarray:
        k = np.sqrt(-u)
        den = -np.expm1(-k * math.pi)
        return (-w * np.exp(-k * third_pi) * np.expm1(-k * third_pi)
                - k * (2.0 - den)) / den

    def resid_array(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
        # all below 0 (the bound branch): no mask.  Else the whole array
        # through `_couplings_array`, its u < 0 entries then overwritten by
        # the combined form, so they read as on the mask-free path
        if u.max(initial=-math.inf) < 0.0:
            lhs = below_zero(u)
        else:
            c, (o,) = _couplings_array(u, angles)
            lhs = -(c + 2.0 * o)
            neg = u < 0.0
            lhs[neg] = below_zero(u[neg])
        x = u / (rho * rho)
        rhs = rho * s * (ia + x * (h + p * x))
        return (lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)),
                                        1.0)

    return resid, resid_array


def _general_residual(problem: AngularProblem):
    """det D / prod_i max(|C|, |bc_i|, |o_ij|, |o_ik|), in scalars and
    over arrays of the lowest cell (residual_array), D the 3x3
    boundary-condition matrix with rows normalized by sin(nu pi/2): D_ii =
    C(u) + bc_i and D_ij = o_ij = 2 S(u, phi_ij) / sin(2 phi_ij), S(u,
    phi) = sin(nu (phi - pi/2)) / sin(nu pi/2).

    The matrix is symmetric, so its three distinct off-diagonals o_ij share
    one sin/sinh denominator and the determinant is written out in closed
    form.  Each row is scaled by the largest of its terms taken apart:
    scaled after C + bc_i has cancelled, a root one ulp off reads as a
    residual of 1e-8 in a bound row.
    """
    kin = problem.kinematics
    pairs = problem.system.pairs
    # row i: bc_i = rho s_i (1/a_i + x (h_i + p_i x)), x = u/rho^2
    (s0, ia0, h0, p0), (s1, ia1, h1, p1), (s2, ia2, h2, p2) = map(
        _bc_constants, pairs, kin.mu)
    # pairs (0, 1), (1, 2), (0, 2)
    angles = tuple(map(_coupling_constants, (kin.phi[0][1], kin.phi[1][2],
                                             kin.phi[0][2])))
    (f01, g01, w01), (f12, g12, w12), (f02, g02, w02) = angles
    sqrt, exp, expm1 = math.sqrt, math.exp, math.expm1

    def resid(u: float, rho: float) -> float:
        # C(u) and o_ij = 2 S(u, phi_ij) / sin(2 phi_ij), even in nu
        if u < 0.0:
            # sinh(k g)/sinh(k pi/2) = e^(-k phi) (1 - e^(-2k g))/(1 - e^(-k pi))
            k = sqrt(-u)
            den = -expm1(-k * math.pi)
            c = k * (2.0 - den) / den
            o01 = w01 * exp(-k * f01) * expm1(-2.0 * k * g01) / den
            o12 = w12 * exp(-k * f12) * expm1(-2.0 * k * g12) / den
            o02 = w02 * exp(-k * f02) * expm1(-2.0 * k * g02) / den
        else:
            c, (o01, o12, o02) = _couplings(u, angles)
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

    def resid_array(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
        c, (o01, o12, o02) = _couplings_array(u, angles)
        x = u / (rho * rho)
        b0 = rho * s0 * (ia0 + x * (h0 + p0 * x))
        b1 = rho * s1 * (ia1 + x * (h1 + p1 * x))
        b2 = rho * s2 * (ia2 + x * (h2 + p2 * x))
        d0, d1, d2 = c + b0, c + b1, c + b2
        det = (d0 * d1 * d2 + 2.0 * o01 * o12 * o02
               - d0 * o12 * o12 - d1 * o02 * o02 - d2 * o01 * o01)
        ac, a01, a12, a02 = np.abs(c), np.abs(o01), np.abs(o12), np.abs(o02)
        mx = np.maximum
        scale = (mx(mx(ac, np.abs(b0)), mx(a01, a02))
                 * mx(mx(ac, np.abs(b1)), mx(a01, a12))
                 * mx(mx(ac, np.abs(b2)), mx(a02, a12)))
        return det / mx(scale, 1e-300)

    return resid, resid_array


def _pair_residual(problem: AngularProblem, i: int, k: int):
    """((d + o) d_k - 2 o'^2) / (max(|C|, |bc_i|, |o|, |o'|)
    max(|C|, |bc_k|, |o'|)) for particles i and j identical and k the
    spectator, in scalars and over arrays of the lowest cell
    (residual_array).

    With D_ii = D_jj = d = C + bc_i, D_ij = o, D_ik = D_jk = o' and
    D_kk = d_k = C + bc_k, det D = (d - o) [(d + o) d_k - 2 o'^2].  The
    second factor is D on the vectors even under the exchange of i and j,
    its rows scaled as `_general_residual` scales rows i and k.  Its
    constants come from the system relabelled so that i, j, k are 0, 1,
    2, so every placement of the identical pair gives the same residual
    bit for bit.
    """
    system = problem.system
    pair, pair_k = system.pairs[i], system.pairs[k]
    kin = reduced_masses(ParticleSystem(
        (system.masses[i], system.masses[i], system.masses[k]),
        (pair, pair, pair_k), system.mass_scale))
    # rows i and k: bc = rho s (1/a + x (h + p x)), x = u/rho^2
    (s, ia, h, p), (sk, iak, hk, pk) = (
        _bc_constants(pair, kin.mu[0]), _bc_constants(pair_k, kin.mu[2]))
    # o = o_ij and o' = o_ik
    angles = tuple(map(_coupling_constants, (kin.phi[0][1], kin.phi[0][2])))
    (f1, g1, w1), (f2, g2, w2) = angles
    sqrt, exp, expm1 = math.sqrt, math.exp, math.expm1

    def resid(u: float, rho: float) -> float:
        if u < 0.0:
            q = sqrt(-u)
            den = -expm1(-q * math.pi)
            c = q * (2.0 - den) / den
            o = w1 * exp(-q * f1) * expm1(-2.0 * q * g1) / den
            o2 = w2 * exp(-q * f2) * expm1(-2.0 * q * g2) / den
        else:
            c, (o, o2) = _couplings(u, angles)
        x = u / (rho * rho)
        b = rho * s * (ia + x * (h + p * x))
        bk = rho * sk * (iak + x * (hk + pk * x))
        ac, ao2 = abs(c), abs(o2)
        scale = max(ac, abs(b), abs(o), ao2) * max(ac, abs(bk), ao2)
        return ((c + b + o) * (c + bk) - 2.0 * o2 * o2) / max(scale, 1e-300)

    def resid_array(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
        c, (o, o2) = _couplings_array(u, angles)
        x = u / (rho * rho)
        b = rho * s * (ia + x * (h + p * x))
        bk = rho * sk * (iak + x * (hk + pk * x))
        ac, ao2 = np.abs(c), np.abs(o2)
        mx = np.maximum
        scale = (mx(mx(ac, np.abs(b)), mx(np.abs(o), ao2))
                 * mx(mx(ac, np.abs(bk)), ao2))
        return ((c + b + o) * (c + bk) - 2.0 * o2 * o2) / mx(scale, 1e-300)

    return resid, resid_array


def _walk(f, x0: float, lo: float, hi: float, h0: float, grow: float,
          max_steps: int, above: float | None = None, narrow: float = 0.0
          ) -> tuple[float, float, float | None, tuple | None]:
    """Nearest root of f to one side of x0 in [lo, hi], by ladder
    bracketing, with f at the root as the walk or the refine evaluated
    it, the root's orientation: the sign of f at the upper end of its
    bracket (None where the walk lands on an exact zero), and None.  A
    bracket at most `narrow` wide is not refined: the walk returns its
    secant point, NaN for f there, its orientation and the bracket
    (a, b, f(a), f(b)).

    The walk goes one way: given `above`, the sign f takes just above the
    root sought, down where f0 = f(x0) has that sign and else up, so the
    first root it brackets has that orientation; with no `above`, up from
    the floor of its window and down from anywhere else, as from its top.
    Its step starts at h0 and is multiplied by `grow` after each rung,
    clipped to the window, and it refines the first bracket that shows a
    sign change with `regula_falsi` from the values at its ends.  A walk
    that does not start at the floor of its window sizes its second rung
    from the first: the secant through the first rung's ends puts the
    root about |f0 / slope| from x0, and the second rung merges the
    ladder's rungs that end short of NEWTON_REACH times that (at most
    1 + |x0|).  The rungs after it end where the ladder's would, so the
    merge skips no pair of close roots that the ladder would split beyond
    it; a walk up from the floor keeps the ladder's rungs, which find the
    lowest root.  Given `above`, a rung whose end keeps the sign of its
    start but lies further from zero passed a turn of f back from zero,
    where two roots closer than the rung can hide; the rung is halved
    toward its start, up to MAX_SPLITS times per walk, until its end
    shows a sign change or lies no further from zero than its start (so
    the trace follows the first root of such a pair).  The refine closes
    to relative machine precision also for roots near u = 0 (the first
    node sits at u ~ -3e-4), so the branch residual invariant holds with
    margin even where the residual is steep in u.  A walk that reaches
    its window's edge, or takes max_steps rungs, with no sign change
    raises RootSearchError.
    """
    f0 = f(x0)
    if f0 == 0.0:
        return x0, f0, None, None
    down = x0 > lo if above is None else (f0 > 0.0) == (above > 0.0)
    edge = lo if down else hi
    x, fx = x0, f0
    h = step = h0      # the ladder's rung and the rung taken
    splits = MAX_SPLITS if above is not None else 0
    for rung in range(max_steps):
        if x == edge:
            break
        x2 = max(x - step, lo) if down else min(x + step, hi)
        f2 = f(x2)
        while splits and fx * f2 > 0.0 and abs(f2) > abs(fx):
            splits -= 1
            x2 = 0.5 * (x + x2)
            f2 = f(x2)
        if f2 == 0.0:
            return x2, f2, None, None
        if fx * f2 < 0.0:
            a, b, fa, fb = (x2, x, f2, fx) if down else (x, x2, fx, f2)
            if b - a <= narrow:
                return (b - (b - a) * (fb / (fb - fa)), math.nan,
                        math.copysign(1.0, fb), (a, b, fa, fb))
            return (*regula_falsi(f, a, b, fa, fb), math.copysign(1.0, fb),
                    None)
        x, fx = x2, f2
        h *= grow
        step = h
        if rung == 0 and lo < x0 and fx != f0:
            # the next rung merges the ladder's rungs that end short of a
            # little past the secant's root (at most 1 + |x0| from x0);
            # the rungs after it end where the ladder's would, which split
            # the same pairs of roots as without the merge
            reach = min(NEWTON_REACH * abs(f0 * (x - x0) / (fx - f0)),
                        1.0 + abs(x0))
            while h0 + step < reach:
                h *= grow
                step += h
    raise RootSearchError(f"no sign change near u = {x0:g} (searched "
                          f"[{min(x, x0):g}, {max(x, x0):g}])")


def solve_at_rho(rho: float, problem: AngularProblem, guess: float,
                 step: float | None = None, *, above: float | None = None,
                 narrow: float = 0.0):
    """Angular eigenvalue u = nu^2 at one hyper-radius, continuing a branch.

    Returns `_walk`'s (u, problem.residual(u, rho), orientation, None) for
    the nearest root to `guess` with orientation `above` (the sign of the
    residual just above it), by a one-way walk toward it inside the
    pole-free cell containing the guess; with no `above`, the nearest
    root below the guess.  The residual is the one the walk or its refine
    evaluated; where the walk's bracket is at most `narrow` wide (the cold
    trace's hand-over to its lockstep; 0 by default) it returns the
    bracket's secant point, NaN, the orientation and the bracket
    unrefined.  The walk's first rung is `step` when given (a caller that
    knows how far its guesses miss), else 1e-4 (1 + |guess|); the ladder
    grows by 1.4 per rung, and its second rung reaches past the root of
    the secant through the first rung's ends.  Raises RootSearchError
    when the walk shows no sign change in that cell, and
    PoleProximityError on pole collision.
    """
    f = problem.residual
    lo, hi = _cell_interval(guess)
    h0 = max(1e-9, 1e-4 * (1.0 + abs(guess))) if step is None else step
    x0 = min(max(guess, lo + h0), hi - h0)
    return _walk(lambda u: f(u, rho), x0, lo, hi, h0, 1.4, 400, above, narrow)


def _first_node_u(rho: float, problem: AngularProblem
                  ) -> tuple[float, float, float | None, None]:
    """Lowest-branch root at the first grid node, its residual and its
    orientation, as `_walk` returns them: a one-way walk from an edge of
    its window, with no `above`.

    Under the extended boundary condition (`AngularProblem.extended`) the
    branch leaves u(0) = 0 heading negative, so near the origin the walk
    steps down from zero (a mirror root sits just above zero),
    its rungs after the first merged up to NEWTON_REACH past the secant's
    root (16 to 19 residual calls on the bundled configs).  Otherwise
    (bare, zero-range, a large first rho, unitary) it steps up uniformly
    from the floor of u in [-(rho/(sqrt(mu)|a|) + 20)^2, 4) to the first,
    most negative root, with no merge.
    """
    f = problem.residual
    d = problem.dimer
    scale = (0.0 if d is None else 1.0 / (
        math.sqrt(d.mu) * abs(problem.system.pairs[d.index].a)))
    if problem.extended and rho * scale < 0.3:
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


def trace_branch(grid, problem: AngularProblem,
                 prior: list[NuBranch] | None = None) -> NuBranch:
    """Trace the lowest branch over a strictly increasing rho grid.

    The branch is continued node by node (`_continue`) over a coarse
    sub-grid: the first and last nodes and every node that cannot be
    skipped without leaving a gap over COARSE_STEP in ln rho.  The other
    nodes are solved together by `_lockstep`, from the monotone cubic in
    ln rho through the coarse nodes, and so are the coarse nodes whose
    walk handed its bracket over unrefined, from that bracket.  If it
    loses any node, no root within the trust max(0.5, |guess|/4) or no
    closed bracket in BRENT_MAXITER rounds, the branch may have jumped
    inside a coarse step, and the whole grid is continued node by node
    instead, every bracket refined by its walk.  On a grid spaced wider
    than COARSE_STEP/2 in ln rho every node is coarse, and every walk
    refines its own bracket.

    prior, the branches of the earlier points of a scan in P with a fixed
    step, last one last, all on this grid, continues the branch in P
    instead: every node but the first is one `_lockstep`, guessed by the
    line in P through the last two prior branches, or one secant step on
    this problem's residual from the only one, its slope across 1e-7 (1 +
    |u|), with first half-widths of 1/4 of the guess's shift, and only if
    it keeps every node is node 0 solved, by `_first_node_u` as in the
    cold trace.
    No node is walked.  A grid of fewer than 4 nodes, a prior on another
    grid, or a warm branch that loses a node or fails `_verify` gets the
    trace above, unchanged.

    Every branch returned has passed `_verify`: a residual over
    MAX_RESIDUAL is a SolverError, a jump between nodes a BranchFoldError.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError("grid must be a nonempty 1-d array")
    # written so that NaN fails: a NaN or infinite node would halve forever
    if not (np.all(np.diff(grid, prepend=0) > 0) and grid[-1] < math.inf):
        raise ValueError("grid must be positive, finite and strictly increasing")

    if prior and len(grid) >= 4 and all(
            np.array_equal(b.rho, grid) for b in prior[-2:]):
        u1 = prior[-1].u[1:]
        if len(prior) > 1:
            shift = u1 - prior[-2].u[1:]
        else:
            # one secant step on this problem's residual from the prior
            # root, its slope across 1e-7 (1 + |u|) above it: at most
            # 5e-7 from a root below 4 - POLE_GUARD, short of the pole
            du = 1e-7 * (1.0 + np.abs(u1))
            f0, f1 = np.split(problem.residual_array(
                np.concatenate((u1, u1 + du)), np.tile(grid[1:], 2)), 2)
            shift = np.divide(f0 * du, f0 - f1, out=np.zeros_like(du),
                              where=f0 != f1)
        # either guess misses by a fraction of its shift; the floor keeps
        # a node that did not move from a bracket of width 0
        guess = u1 + shift
        width = np.maximum(0.25 * np.abs(shift),
                           1e-10 * (1.0 + np.abs(guess)))
        found = _lockstep(problem, grid[1:], guess, width)
        if found is not None:
            u0, r0 = _first_node_u(grid[0].item(), problem)[:2]
            us, res = np.insert(found[0], 0, u0), np.insert(found[1], 0, r0)
            try:
                _verify(grid, us, res)
            except SolverError:
                pass
            else:
                return NuBranch(rho=grid, u=us, residuals=res)
    log_rho = np.log(grid)
    lr = log_rho.tolist()
    coarse = np.zeros(len(grid), dtype=bool)
    coarse[0] = coarse[-1] = True
    last = lr[0]
    for k in range(1, len(lr) - 1):
        if lr[k + 1] - last > COARSE_STEP:
            coarse[k] = True
            last = lr[k]
    fine = ~coarse
    ends = np.full((4, len(grid)), math.nan) if fine.any() else None
    us, res = _continue(grid, problem, coarse, ends)
    if ends is not None:
        # the fine nodes and the coarse ones handed over, in one lockstep
        todo = fine | ~np.isnan(ends[0])
        guess = _Pchip(log_rho[coarse], us[coarse])(log_rho[todo])
        found = _lockstep(problem, grid[todo], guess, ends=ends[:, todo])
        if found is None:
            us, res = _continue(grid, problem, np.ones_like(coarse))
        else:
            us[todo], res[todo] = found
    _verify(grid, us, res)
    return NuBranch(rho=grid, u=us, residuals=res)


def _verify(grid: np.ndarray, us: np.ndarray, res: np.ndarray) -> None:
    """Accept a finished branch or raise.

    Every residual must be within MAX_RESIDUAL (SolverError), and every
    node the grid resolves must lie within the continuation's trust
    max(0.5, |g|/4, 8 |g - u_prev|) of g, the quadratic through the three
    nodes before it (BranchFoldError).  A node is resolved from the fourth
    on, at most COARSE_STEP in ln rho past the node before it: the first
    nodes have no quadratic, and across a wider step the walk's own
    sub-steps, each held to this trust, are the branch's only samples.
    """
    bad = np.flatnonzero(~(np.abs(res) <= MAX_RESIDUAL))
    if bad.size:
        k = bad[0]
        raise SolverError(f"branch residual {abs(res[k]):.3g} at rho = "
                          f"{grid[k]:g}, u = {float(us[k])!r} exceeds "
                          f"{MAX_RESIDUAL:g}")
    pred = _lagrange([(grid[j:j - 3], us[j:j - 3]) for j in range(3)],
                     grid[3:])
    trust = np.maximum(np.maximum(0.5, 0.25 * np.abs(pred)),
                       8.0 * np.abs(pred - us[2:-1]))
    resolved = np.diff(np.log(grid))[2:] <= COARSE_STEP
    bad = np.flatnonzero(resolved & ~(np.abs(us[3:] - pred) <= trust))
    if bad.size:
        k = bad[0] + 3
        raise BranchFoldError(
            f"branch jumps at rho = {grid[k]:g} from u = {us[k - 1]:g} to "
            f"{us[k]:g}, {abs(us[k] - pred[k - 3]):.3g} from its "
            f"prediction {pred[k - 3]:g} (trust {trust[k - 3]:.3g})")


def _lagrange(points, r):
    """The Lagrange polynomial through the (rho, u) points, at r; over
    arrays, one polynomial per entry."""
    total = 0.0
    for i, (ri, ui) in enumerate(points):
        for j, (rj, _) in enumerate(points):
            if j != i:
                ui = ui * ((r - rj) / (ri - rj))
        total = total + ui
    return total


def _continue(grid: np.ndarray, problem: AngularProblem, nodes: np.ndarray,
              ends: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """u and its residual at the grid nodes in the mask `nodes`, by
    continuation from node to node, the first node seeded by
    `_first_node_u`; the other entries are left unset.

    Given `ends`, a (4, len(grid)) array of NaN, a node from the fourth on
    whose walk, on its first try, brackets the root in at most
    HANDOVER_WIDTH |g - u_prev| (g its prediction, u_prev the node before)
    is handed over: its walk returns the bracket unrefined, which goes in
    ends' column (a, b, f(a), f(b)), and its u is the bracket's secant
    point, its residual NaN, for the caller's `_lockstep` to close.  The
    continuation goes on from that secant point.

    Each solve is seeded by the quadratic through the three previous
    nodes (linear from two, the first analytically), and its walk starts
    with a rung of 4x the previous node's miss |u - guess|, floored at
    1e-13 (1 + |guess|) and capped at solve_at_rho's default.  It walks
    one way only, toward the nearest root of the previous node's
    orientation, the sign of the residual at the upper end of the
    bracket that node refined.  If the prediction lands past a pole, or
    the root is lost or jumps between nodes, the step toward the next
    node is bisected, up to MAX_HALVINGS times, before giving up with
    BranchFoldError.  The branch is accepted by the caller (`_verify`),
    not here.
    """
    us = np.empty_like(grid)
    res = np.empty_like(grid)

    # continuation state: last three accepted (rho, u) points, and the miss
    # |u - guess| of the last solve
    hist: list[tuple[float, float]] = []
    miss = above = None

    def advance(rho_target: float) -> tuple[float, float, tuple | None]:
        """Continue the branch from hist[-1] to rho_target, subdividing on
        failure; the step may be halved down to 2^-MAX_HALVINGS of the gap.
        Returns u at rho_target, its residual and the bracket handed over
        (None where the walk refined it)."""
        nonlocal miss, above
        gap0 = rho_target - hist[-1][0]
        min_step = gap0 / (2.0 ** MAX_HALVINGS)
        pending = [rho_target]
        handover = ends is not None and len(hist) == 3
        while pending:
            tgt = pending[-1]
            guess = _lagrange(hist, tgt)
            du_pred = guess - hist[-1][1]
            step = None
            if miss is not None:
                scale = 1.0 + abs(guess)
                step = min(max(4.0 * miss, 1e-13 * scale), 1e-4 * scale)
            ok = False
            narrow = HANDOVER_WIDTH * abs(du_pred) if handover else 0.0
            # a branch cannot cross a pole: a guess past one has jumped
            lo, hi = _cell_interval(hist[-1][1])
            if lo <= guess <= hi:
                try:
                    # toward the root of the last one's orientation
                    u_new, r_new, sign, bracket = solve_at_rho(
                        tgt, problem, guess, step, above=above, narrow=narrow)
                    trust = max(0.5, 0.25 * abs(guess), 8.0 * abs(du_pred))
                    ok = abs(u_new - guess) <= trust
                except RootSearchError:
                    pass
            if ok:
                pending.pop()
                miss = abs(u_new - guess)
                above = sign or above
                hist.append((tgt, u_new))
                if len(hist) > 3:
                    del hist[0]
            else:
                mid = 0.5 * (hist[-1][0] + tgt)
                if mid - hist[-1][0] < min_step:
                    raise BranchFoldError(
                        f"branch lost near rho = {tgt:g}: no root within "
                        f"trust of the guess u = {guess:g} from u = "
                        f"{hist[-1][1]:g} (step below gap/2^{MAX_HALVINGS})")
                pending.append(mid)
                handover = False
        return u_new, r_new, bracket

    # builtin floats: an np.float64 rho would spread through every iterate
    # into hist and slow each later residual call
    rhos = grid.tolist()
    for k in np.flatnonzero(nodes).tolist():
        if not hist:
            u, r, above, _ = _first_node_u(rhos[k], problem)
            hist.append((rhos[k], u))
        else:
            u, r, bracket = advance(rhos[k])
            if bracket is not None:
                ends[:, k] = bracket
        us[k], res[k] = u, r
    return us, res


def _lockstep(problem: AngularProblem, rho: np.ndarray, guess: np.ndarray,
              width: np.ndarray | None = None, ends: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray] | None:
    """Roots of the residual next to each guess below u = 4, all at once,
    and the residual at each; None if any node has no root near its guess
    or is still open after BRENT_MAXITER rounds.

    ends, a (4, len(rho)) array, gives the nodes whose column is not NaN
    their bracket (a, b, f(a), f(b)) with a sign change: those skip the
    widening below and are refined with the others.

    Each bracket [g - w, g + w] (its top clipped to the cell edge
    4 - POLE_GUARD) starts at w = width, by default LOCKSTEP_WIDTH
    (1 + |g|), about the median miss of the guesses from the coarse nodes,
    and widens 4x a round, up to the trust max(0.5, |g|/4), until its ends
    differ in sign.
    The brackets are refined on the still active nodes by regula falsi
    with the Anderson-Bjorck rule (N. Anderson and A. Bjorck, BIT 13,
    253 (1973)), `system.regula_falsi`'s update and close test over
    arrays, until one is at most 2 BRENT_RTOL |u| wide; a step shorter
    than BRENT_RTOL |u| is lengthened to it, so an iterate that has
    reached the root from one side closes the bracket.  A root is the
    bracket end of smaller |residual|, a value the search evaluated.
    """
    f = problem.residual_array
    top = 4.0 - POLE_GUARD
    if not np.all(guess <= top):
        return None
    n = len(rho)
    a, b, fa, fb = np.full((4, n), math.nan) if ends is None else ends.copy()
    trust = np.maximum(0.5, 0.25 * np.abs(guess))
    w = LOCKSTEP_WIDTH * (1.0 + np.abs(guess)) if width is None else width
    todo = np.flatnonzero(np.isnan(a))
    while todo.size:
        g, r, wt = guess[todo], rho[todo], w[todo]
        a[todo], b[todo] = g - wt, np.minimum(g + wt, top)
        ends = f(np.concatenate((a[todo], b[todo])), np.concatenate((r, r)))
        fa[todo], fb[todo] = ends[:todo.size], ends[todo.size:]
        todo = todo[((fa[todo] < 0.0) == (fb[todo] < 0.0))
                    & (fa[todo] != 0.0) & (fb[todo] != 0.0)]
        if np.any(w[todo] >= trust[todo]):
            return None
        w[todo] = np.minimum(4.0 * w[todo], trust[todo])

    u, res = np.empty(n), np.empty(n)
    # x0 is the retained end with its scaled value f0 and true value t0;
    # x1 is the newest iterate
    idx, x0, f0, t0, x1, f1, r = np.arange(n), a, fa, fa, b, fb, rho
    for rnd in range(BRENT_MAXITER + 1):
        done = ((np.abs(x1 - x0) <= 2.0 * BRENT_RTOL * np.abs(x1))
                | (f1 == 0.0) | (t0 == 0.0))
        if done.any():
            end0 = np.abs(t0[done]) < np.abs(f1[done])
            u[idx[done]] = np.where(end0, x0[done], x1[done])
            res[idx[done]] = np.where(end0, t0[done], f1[done])
            keep = ~done
            idx, x0, f0, t0, x1, f1, r = (
                v[keep] for v in (idx, x0, f0, t0, x1, f1, r))
        if rnd == BRENT_MAXITER or not idx.size:
            break
        # the ratio first, as in `regula_falsi`
        x2 = x1 - (x1 - x0) * (f1 / (f1 - f0))
        # a step below the tolerance moves by the tolerance, toward x0, so
        # that a root found from one side closes its bracket
        tol = BRENT_RTOL * np.abs(x1)
        x2 = np.where(np.abs(x2 - x1) < tol,
                      x1 + np.copysign(tol, x0 - x1), x2)
        f2 = f(x2, r)
        flip = (f2 < 0.0) != (f1 < 0.0)
        # Anderson-Bjorck: an end kept past a step scales f0 by m, or by
        # 1/2 where m <= 0
        m = 1.0 - f2 / f1
        x0 = np.where(flip, x1, x0)
        t0 = np.where(flip, f1, t0)
        f0 = np.where(flip, f1, np.where(m > 0.0, m, 0.5) * f0)
        x1, f1 = x2, f2
    return None if idx.size else (u, res)


def dimer_channel_u(rho, kappa: float, mu: float):
    """u(rho) of the dimer channel for pole momentum kappa: the asymptote
    -x^2 - (16/sqrt3) x e^(-x pi/3), x = kappa rho / sqrt(mu).  rho may be
    a scalar or an array."""
    x = kappa * rho / math.sqrt(mu)
    return -(x * x) - (16.0 / SQRT3) * x * np.exp(-x * math.pi / 3.0)
