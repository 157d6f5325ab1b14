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

Between grid nodes u(rho) is interpolated by a monotone cubic in log(rho).
Inside the first node u follows a power law fitted to the first two nodes
(the extended boundary condition gives u ~ rho^(3/2) there, i.e. W ~
rho^(-1/2)).  Beyond the last node the dimer-channel asymptote continues
the branch; its pole momentum comes from the extended two-body equation so
that the tail joins the traced branch without a seam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .angular import AngularProblem, NuBranch, dimer_channel_u
from .system import dimer_binding_energy, dimer_pole_kappa

Q_CONVENTIONS = ("leading_term", "none")


@dataclass(frozen=True)
class EffectivePotential:
    """Sampled hyper-radial potential with analytic continuation.

    threshold is the bare dimer threshold -2mB/hbar^2 (B = 1/(2 mu m a^2))
    or 0 without a bound dimer; w_inf is the actual large-rho limit of the
    traced branch, which under the extended boundary condition sits at
    -kappa_d^2/mu with a kappa_d slightly above 1/|a|.
    """

    rho: np.ndarray
    w: np.ndarray
    threshold: float
    q_convention: str
    problem: AngularProblem
    w_inf: float
    bound_kappa: float | None
    bound_mu: float | None
    _u_interp: PchipInterpolator = field(repr=False)
    _inner: tuple[float, float, str] = field(repr=False)
    _u_last: float = field(repr=False)

    @property
    def shift(self) -> float:
        return 0.0 if self.q_convention == "leading_term" else 0.25

    def values(self, rhos) -> np.ndarray:
        """W(rho) in 2mE/hbar^2 units over an array of rho values."""
        rhos = np.asarray(rhos, dtype=float)
        return (self._u(rhos) - self.shift) / (rhos * rhos)

    def u_at(self, rho: float) -> float:
        """Angular eigenvalue u = nu^2 at a single rho."""
        return float(self._u(np.asarray(rho, dtype=float)))

    def _u(self, rhos: np.ndarray) -> np.ndarray:
        """u = nu^2 at any rho: the inner law below the first node, the
        interpolated branch on the grid and the analytic tail beyond it."""
        flat = rhos.ravel()
        if flat.size and flat.min() <= 0.0:
            raise ValueError("rho must be positive")
        u = np.empty_like(flat)
        lo = flat < self.rho[0]
        hi = flat > self.rho[-1]
        mid = ~(lo | hi)
        if mid.any():
            u[mid] = self._u_interp(np.log(flat[mid]))
        if lo.any():
            c, p, kind = self._inner
            u[lo] = c * flat[lo] ** p if kind == "power" else c + p * flat[lo]
        if hi.any():
            if self.bound_kappa is not None:
                u[hi] = dimer_channel_u(flat[hi], self.bound_kappa, self.bound_mu)
            else:
                u[hi] = 4.0 - (4.0 - self._u_last) * (self.rho[-1] / flat[hi])
        return u.reshape(rhos.shape)

    def hartree_from_eps(self, eps: float) -> float:
        """E in hartree from 2mE/hbar^2."""
        return eps / (2.0 * self.problem.system.units.mass_scale)

    @property
    def threshold_mk(self) -> float:
        return self.problem.system.units.hartree_to_mk(
            self.hartree_from_eps(self.threshold))


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
    The threshold is filled from the deepest bound pair, if any; the outer
    analytic tail uses the extended-model dimer pole so that it continues
    the traced branch smoothly.
    """
    if q_convention not in Q_CONVENTIONS:
        raise ValueError(f"q_convention must be one of {Q_CONVENTIONS}")
    if len(branch) == 0:
        raise ValueError("branch is empty")
    rho = np.asarray(branch.rho, dtype=float)
    u = np.asarray(branch.u, dtype=float)
    shift = 0.0 if q_convention == "leading_term" else 0.25
    w = (u - shift) / (rho * rho)

    bound_i = problem.bound_pair
    if bound_i is not None:
        pair = problem.system.pairs[bound_i]
        mu = problem.kinematics.mu[bound_i]
        units = problem.system.units
        threshold = -2.0 * units.mass_scale * dimer_binding_energy(pair, mu, units)
        kappa = dimer_pole_kappa(pair)
        w_inf = -kappa * kappa / mu
    else:
        threshold, kappa, mu, w_inf = 0.0, None, None, 0.0

    if len(rho) >= 2:
        inner = _inner_law(rho, u)
        interp = PchipInterpolator(np.log(rho), u, extrapolate=False)
    else:
        inner = (float(u[0]), 0.0, "linear")
        interp = PchipInterpolator(np.log([rho[0], rho[0] * 1.0001]),
                                   [u[0], u[0]], extrapolate=True)

    return EffectivePotential(
        rho=rho, w=w, threshold=threshold,
        q_convention=q_convention, problem=problem, w_inf=w_inf,
        bound_kappa=kappa, bound_mu=mu,
        _u_interp=interp, _inner=inner, _u_last=float(u[-1]))
