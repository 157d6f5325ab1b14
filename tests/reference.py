"""Independent references for the angular residual forms and the potential.

Slow, direct evaluations that the tests compare the package against: the
even-in-nu functions C(u) and S(u, phi) one call at a time, the
identical-boson equation, the full 3x3 boundary-condition matrix, the
large-rho expansion of the bare branch, and u at one rho of an
`EffectivePotential`.  No command runs them.  Their pole guard is their
own, so a change to the package's guard band shows against it.
"""

from __future__ import annotations

import math

import numpy as np

from zrtrimer import AngularProblem, EffectivePotential, PairParams
from zrtrimer.angular import SQRT3, PoleProximityError, dimer_channel_u

#: Half-width of the guard band around the poles u = (2n)^2, n >= 1, of
#: the functions normalized by sin(nu pi/2), as the package documents it.
GUARD = 1e-6


def _check_pole(u: float) -> None:
    """PoleProximityError strictly inside the guard band of the nearest
    pole u = 4 m^2; the band's edges stay evaluable."""
    m = round(math.sqrt(max(u, 4.0)) / 2.0)
    if 4.0 * m * m - GUARD < u < 4.0 * m * m + GUARD:
        raise PoleProximityError(f"u = {u!r} is inside a pole's guard band")


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


def _bc_bracket(u: float, rho: float, pair: PairParams, mu: float) -> float:
    """rho/sqrt(mu) * [1/a + (R/2)(mu u/rho^2) + P R^3 (mu u/rho^2)^2].

    This is the boundary-condition side of the diagonal, written in u so
    that (sqrt(mu) nu / rho)^2 = mu u / rho^2 stays real for u < 0.  At
    rho = 0 it is 0: the bare condition (R = 0) admits every u there, the
    extended one only u = 0, and any other u raises ValueError.
    """
    inv_a = 0.0 if math.isinf(pair.a) else 1.0 / pair.a
    if pair.r_eff == 0.0:
        return rho / math.sqrt(mu) * inv_a
    if rho == 0.0:
        if u != 0.0:
            raise ValueError("rho = 0 admits only u = 0 under the extended "
                             "boundary condition")
        return 0.0
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


def u_at(pot: EffectivePotential, rho: float) -> float:
    """Angular eigenvalue u = nu^2 of pot at a single rho."""
    return float(pot._u(np.asarray(rho, dtype=float)))
