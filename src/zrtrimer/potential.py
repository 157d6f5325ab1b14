"""Effective hyper-radial potential built from a traced angular branch.

The hyper-radial equation reads  (-d^2/drho^2 + W(rho) - 2mE/hbar^2) f = 0,
and W is stored directly in 2mE/hbar^2 units (1/bohr^2).  Two conventions
for the diagonal coupling term are supported:

  leading_term   W = u(rho)/rho^2          (the -1/(4 rho^2) Langer-type
                                            leading term of the coupling
                                            cancels the -1/4 in u - 1/4)
  none           W = (u(rho) - 1/4)/rho^2  (no coupling correction at all)

leading_term is the default and is the convention that reproduces the
published helium-trimer energies.

Between grid nodes u(rho) is interpolated by a monotone cubic in log(rho),
`_Pchip`.  Inside the first node u follows a power law fitted to the first
two nodes (the extended boundary condition gives u ~ rho^(3/2) there, i.e.
W ~ rho^(-1/2)).  Beyond the last node the dimer-channel asymptote continues
the branch; its pole momentum comes from the extended two-body equation so
that the tail joins the traced branch without a seam.  Where the points
of the last query fall on the nodes is worked out once (`_Plan`) and kept
for equal queries on equal nodes, such as the radial grid the shooters
share, so sampling W there again costs only the cubic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .angular import AngularProblem, NuBranch, dimer_channel_u
from .system import _Pchip, hartree_to_mk

#: q_convention -> shift s in W = (u - s)/rho^2
_SHIFT = {"leading_term": 0.0, "none": 0.25}
Q_CONVENTIONS = tuple(_SHIFT)


class _Plan(NamedTuple):
    """Where queries fall on a branch's nodes: the masks of those below the
    first node, past the last and on the nodes, the first two kinds' rho,
    and `_Pchip.locate` of the last kind's ln rho."""

    lo: np.ndarray
    hi: np.ndarray
    mid: np.ndarray
    rho_lo: np.ndarray
    rho_hi: np.ndarray
    where: tuple[np.ndarray, ...]


#: [(query, knots, plan)] of the last query, copies of the query and the
#: nodes it was planned on; empty before any
_PLANS: list[tuple[np.ndarray, np.ndarray, _Plan]] = []


@dataclass(frozen=True)
class EffectivePotential:
    """Sampled hyper-radial potential with analytic continuation.

    threshold is the bare threshold -2mB/hbar^2 = -1/(mu a^2) of
    `AngularProblem.dimer`, the pair with the deepest pole, or 0 without
    a bound dimer; w_inf is the
    large-rho limit -kappa^2/mu of the branch, with the dimer's pole kappa
    of the extended boundary condition.  solve_bound_states searches below
    min(w_inf, threshold): w_inf unless P (R/|a|)^2 > 1/2 puts kappa
    below 1/|a|.  branch is the traced branch W was sampled from.
    """

    rho: np.ndarray
    w: np.ndarray
    threshold: float
    q_convention: str
    problem: AngularProblem
    w_inf: float
    branch: NuBranch = field(repr=False)
    _u_interp: _Pchip = field(repr=False)
    _inner: tuple[float, float, str] = field(repr=False)

    def values(self, rhos) -> np.ndarray:
        """W(rho) in 2mE/hbar^2 units over an array of rho values."""
        rhos = np.asarray(rhos, dtype=float)
        return (self._u(rhos) - _SHIFT[self.q_convention]) / (rhos * rhos)

    def _u(self, rhos: np.ndarray) -> np.ndarray:
        """u = nu^2 at any rho: the inner law below the first node, the
        interpolated branch on the grid and the analytic tail beyond it."""
        plan = self._plan(rhos)
        u = np.empty(rhos.size)
        u[plan.mid] = self._u_interp.cubic(plan.where)
        if plan.rho_lo.size:
            c, p, kind = self._inner
            r = plan.rho_lo
            u[plan.lo] = c * r ** p if kind == "power" else c + p * r
        if plan.rho_hi.size:
            dimer = self.problem.dimer
            if dimer is not None:
                u[plan.hi] = dimer_channel_u(plan.rho_hi, dimer.kappa,
                                             dimer.mu)
            else:
                u_last = self.branch.u[-1]
                u[plan.hi] = 4.0 - (4.0 - u_last) * (self.rho[-1]
                                                     / plan.rho_hi)
        return u.reshape(rhos.shape)

    def _plan(self, rhos: np.ndarray) -> _Plan:
        """Where rhos fall on the branch's nodes.  The plan is kept until
        another query comes, and an equal query on equal nodes, from any
        branch, reuses it."""
        for query, knots, plan in _PLANS:
            if np.array_equal(query, rhos) and np.array_equal(knots, self.rho):
                return plan
        flat = rhos.ravel()
        if flat.size and flat.min() <= 0.0:
            raise ValueError("rho must be positive")
        lo = flat < self.rho[0]
        hi = flat > self.rho[-1]
        mid = ~(lo | hi)
        where = self._u_interp.locate(np.log(flat[mid]))
        plan = _Plan(lo, hi, mid, flat[lo], flat[hi], where)
        _PLANS[:] = [(rhos.copy(), self.rho.copy(), plan)]
        return plan

    def hartree_from_eps(self, eps: float) -> float:
        """E in hartree from 2mE/hbar^2."""
        return eps / (2.0 * self.problem.system.mass_scale)

    @property
    def threshold_mk(self) -> float:
        return hartree_to_mk(self.hartree_from_eps(self.threshold))


def _inner_law(rho: np.ndarray, u: np.ndarray) -> tuple[float, float, str]:
    """Continuation below the first node: u = c rho^p through the first two
    nodes when their signs allow it, a straight line otherwise."""
    r1, r2 = float(rho[0]), float(rho[1])
    u1, u2 = float(u[0]), float(u[1])
    if u1 * u2 > 0.0:
        p = math.log(u2 / u1) / math.log(r2 / r1)
        p = min(max(p, -0.5), 3.0)
        return (u1 / r1 ** p, p, "power")
    slope = (u2 - u1) / (r2 - r1)
    return (u1 - slope * r1, slope, "linear")


def effective_potential(branch: NuBranch, problem: AngularProblem,
                        q_convention: str = "leading_term") -> EffectivePotential:
    """Build the effective potential W from a traced branch.

    W = (u - shift)/rho^2 with shift = 0 (leading_term) or 1/4 (none).
    The threshold and the outer analytic tail come from `problem.dimer`;
    the tail uses its extended-model pole, so it continues the traced
    branch smoothly.
    """
    if q_convention not in Q_CONVENTIONS:
        raise ValueError(f"q_convention must be one of {Q_CONVENTIONS}")
    if len(branch) < 2:
        raise ValueError("need a branch of at least 2 nodes")
    rho = np.asarray(branch.rho, dtype=float)
    u = np.asarray(branch.u, dtype=float)
    w = (u - _SHIFT[q_convention]) / (rho * rho)
    dimer = problem.dimer
    if dimer is None:
        threshold = w_inf = 0.0
    else:
        threshold, w_inf = dimer.threshold, -dimer.kappa * dimer.kappa / dimer.mu
    return EffectivePotential(
        rho=rho, w=w, threshold=threshold,
        q_convention=q_convention, problem=problem, w_inf=w_inf,
        branch=branch, _u_interp=_Pchip(np.log(rho), u),
        _inner=_inner_law(rho, u))
