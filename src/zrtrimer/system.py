"""Particles, pair interactions, units and hyperspherical kinematics.

Internal unit system: atomic units with hbar = 1, lengths in Bohr radii and
masses expressed as multiples of the mass scale m, ParticleSystem.mass_scale
(1822.887 electron masses by default, i.e. roughly one atomic mass unit).
Energies appear in three units:

  eps = 2mE/hbar^2    (1/bohr^2, m the mass scale) what the solvers work in:
                      W, EffectivePotential.threshold and w_inf, and
                      RadialSolution.eps.
  hartree             RadialSolution.energy, ThomasSpectrum.energies and
                      dimer_binding_energy; EffectivePotential.hartree_from_eps
                      converts from eps.
  millikelvin         RadialSolution.energy_mk and
                      EffectivePotential.threshold_mk, converted from hartree
                      by hartree_to_mk; the CLI prints these.

Sign convention for the two-body input: a negative scattering length means
the pair supports a bound dimer with pole momentum kappa ~ 1/|a|.

`brent` is the one bracketing root solver of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Pinned CODATA value for the hartree -> kelvin conversion.  The source
#: material quotes energies in mK without stating the constant it used, so
#: this one is fixed here to keep regression numbers deterministic.
KELVIN_PER_HARTREE = 3.1577464e5

#: Energy conversion factor, hartree per millikelvin.
HARTREE_PER_MK = 1.0 / (KELVIN_PER_HARTREE * 1e3)

#: Default mass scale in electron masses (about one atomic mass unit).
DEFAULT_MASS_SCALE = 1822.887


class SolverError(Exception):
    """A numerical solve found no acceptable answer for valid input."""


#: Relative tolerance of `brent`: 4 machine epsilons, rounded up.
BRENT_RTOL = 8.9e-16

#: Iteration limit of `brent`, scipy's default.
BRENT_MAXITER = 100


def brent(f, a: float, b: float, fa: float | None = None,
          fb: float | None = None, *, xtol: float = 1e-300) -> float:
    """Root of f in [a, b] by Brent's method (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4).

    A line-for-line port of the loop of scipy.optimize.brentq, so it returns
    the same root bit for bit; fa and fb, when given, stand for f(a) and
    f(b) and save their evaluations.  The root is fixed to
    xtol + BRENT_RTOL |x|; the default xtol keeps relative machine
    precision also for roots near 0.  Raises ValueError on a NaN value or
    on ends of one sign, SolverError after BRENT_MAXITER iterations.
    """
    return _brent(f, a, b, fa, fb, xtol)[0]


# Derived from scipy.optimize.brentq, Copyright (c) 2001-2002 Enthought,
# Inc. 2003, SciPy Developers; BSD-3-Clause, see NOTICE.
def _brent(f, a: float, b: float, fa: float | None, fb: float | None,
           xtol: float) -> tuple[float, float]:
    """`brent`'s root together with f there: the root is always a point
    the loop has evaluated (or an end whose value was given), so a caller
    that needs f at the root does not evaluate it again."""
    xpre, xcur = a, b
    fpre = f(a) if fa is None else fa
    fcur = f(b) if fb is None else fb
    if fpre != fpre or fcur != fcur:
        raise ValueError(f"f is NaN at an end of [{a!r}, {b!r}]")
    if fpre == 0.0:
        return xpre, fpre
    if fcur == 0.0:
        return xcur, fcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            lim = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < lim else lim):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if fcur != fcur:
            raise ValueError(f"f is NaN at x = {xcur!r}")
    raise SolverError(f"Brent's method failed to converge after {BRENT_MAXITER} "
                      f"iterations (x = {xcur!r})")


def hartree_to_mk(value_hartree: float) -> float:
    """An energy in hartree converted to millikelvin."""
    return value_hartree / HARTREE_PER_MK


def critical_p_shape(a: float, r_eff: float) -> float:
    """P_c: the pole equation  P x^4 - x^2/2 + x + R/a = 0  (x = kappa R)
    has only the physical root, one for finite a < 0 and none otherwise,
    exactly for P > P_c.  Two roots meet at x_c = (3 + sqrt(9 + 16 R/a))/2,
    where P_c = (x_c - 1)/(4 x_c^3): 1/54 for R/a -> 0.  Below P_c the extra
    roots are deep, unphysical dimers; for 1/2 < R/|a| < 9/16 the dimer can
    merge with one of them, leaving one deep root.  For R/|a| > 9/16 no real
    merge point exists and the lone root is the deep one unless the quartic
    rises for every x > 0, i.e. P >= 1/27: P_c = 1/27, its value at 9/16."""
    disc = 9.0 + 16.0 * r_eff / a
    if disc < 0.0:
        return 1.0 / 27.0
    x_c = 0.5 * (3.0 + math.sqrt(disc))
    return (x_c - 1.0) / (4.0 * x_c ** 3)


@dataclass(frozen=True)
class PairParams:
    """Low-energy interaction parameters of one two-body subsystem.

    The boundary condition imposed on the pair wave function is the
    effective-range expansion  k cot(delta) = 1/a + (R/2) k^2 + P R^3 k^4,
    with `a` the scattering length (au), `r_eff` the effective range R (au)
    and `p_shape` the dimensionless shape/regularization parameter P.

    With r_eff > 0 it is a usable model only for P > critical_p_shape(a, R),
    and construction raises ValueError otherwise.
    """

    a: float
    r_eff: float = 0.0
    p_shape: float = 0.0

    def __post_init__(self):
        if self.a == 0.0 or math.isnan(self.a):
            raise ValueError("scattering length must be a nonzero number")
        if not (0.0 <= self.r_eff < math.inf and math.isfinite(self.p_shape)):
            raise ValueError("need a finite r_eff >= 0 and a finite p_shape")
        if self.r_eff == 0.0 and self.p_shape != 0.0:
            raise ValueError("the shape term is inert when r_eff = 0; "
                             "set p_shape = 0 as well")
        if self.r_eff > 0.0:
            p_c = critical_p_shape(self.a, self.r_eff)
            if not self.p_shape > p_c:
                raise ValueError(
                    f"P = {self.p_shape:g} is outside the validity domain "
                    f"P > P_c = {p_c:.4g}, below which the pole equation "
                    "has spurious deep dimer poles")

    @property
    def has_bound_dimer(self) -> bool:
        return self.a < 0.0


@dataclass(frozen=True)
class ParticleSystem:
    """Three particles plus their pairwise interactions.

    `masses[i]` is the mass of particle i in units of `mass_scale`, itself
    in electron masses.  `pairs[i]` holds the interaction of the pair formed
    by the other two particles, i.e. pairs are indexed by the spectator.
    """

    masses: tuple[float, float, float]
    pairs: tuple[PairParams, PairParams, PairParams]
    mass_scale: float = DEFAULT_MASS_SCALE

    def __post_init__(self):
        if len(self.masses) != 3 or len(self.pairs) != 3:
            raise ValueError("exactly three masses and three pairs required")
        if not all(0.0 < m < math.inf for m in (*self.masses, self.mass_scale)):
            raise ValueError("masses and mass_scale must be finite and positive")
        # identical particles (same mass) must face identical interactions
        for j in range(3):
            for k in range(j + 1, 3):
                if self.masses[j] == self.masses[k] and self.pairs[j] != self.pairs[k]:
                    raise ValueError(
                        f"particles {j + 1} and {k + 1} have equal masses but "
                        f"their facing pairs differ")

    @classmethod
    def identical_bosons(cls, mass: float, pair: PairParams,
                         mass_scale: float = DEFAULT_MASS_SCALE
                         ) -> "ParticleSystem":
        return cls((mass, mass, mass), (pair, pair, pair), mass_scale)

    @property
    def is_identical(self) -> bool:
        return (self.masses[0] == self.masses[1] == self.masses[2]
                and self.pairs[0] == self.pairs[1] == self.pairs[2])


@dataclass(frozen=True)
class KinematicConstants:
    """Reduced masses and rotation angles of the hyperspherical frame.

    mu[i] is the reduced mass of the pair facing spectator i, in units of
    the mass scale; phi[i][j] is the rotation angle between Jacobi systems
    i and j.
    """

    mu: tuple[float, float, float]
    phi: tuple[tuple[float, float, float], ...]


def reduced_masses(system: ParticleSystem) -> KinematicConstants:
    """Kinematic constants of the mass-weighted Jacobi/hyperspherical frame.

    With masses m_i as multiples of the scale:
      mu_i   = m_j m_k / (m_j + m_k)
      phi_ij = arctan sqrt(m_k (m_1 + m_2 + m_3) / (m_i m_j))
    where (i, j, k) are all distinct.  For equal masses every phi is pi/3.
    """
    m = system.masses
    total = m[0] + m[1] + m[2]
    others = ((1, 2), (0, 2), (0, 1))
    mu = tuple(m[j] * m[k] / (m[j] + m[k]) for j, k in others)
    phi_rows = []
    for i in range(3):
        row = []
        for j in range(3):
            if i == j:
                row.append(0.0)
            else:
                k = 3 - i - j
                row.append(math.atan(math.sqrt(m[k] * total / (m[i] * m[j]))))
        phi_rows.append(tuple(row))
    return KinematicConstants(mu=mu, phi=tuple(phi_rows))


def dimer_binding_energy(pair: PairParams, mu: float,
                         mass_scale: float = DEFAULT_MASS_SCALE
                         ) -> float | None:
    """Two-body binding energy B = 1/(2 mu m a^2) in hartree, or None.

    Uses the leading zero-range relation kappa = 1/|a|; a pair with a > 0
    carries no bound dimer in this convention and yields None.
    """
    if not pair.has_bound_dimer:
        return None
    return 1.0 / (2.0 * mu * mass_scale * pair.a * pair.a)


def dimer_pole_kappa(pair: PairParams) -> float | None:
    """Bound-dimer pole momentum of the extended boundary condition (1/au).

    Root of  kappa + 1/a - (R/2) kappa^2 + P R^3 kappa^4 = 0, i.e. the
    k cot(delta) expansion continued to k = i*kappa.  Reduces to 1/|a| for
    R = P = 0.  Returns None when no bound dimer exists (a > 0).
    """
    if not pair.has_bound_dimer:
        return None
    a, reff, pshape = pair.a, pair.r_eff, pair.p_shape
    if reff == 0.0:
        return -1.0 / a

    def f(k: float) -> float:
        return k + 1.0 / a - 0.5 * reff * k * k + pshape * reff ** 3 * k ** 4

    # PairParams holds P > P_c, so the dimer is the one positive root; at
    # x = kappa R = max(1/sqrt(P), sqrt(2R/|a|)) the quartic exceeds R/|a|
    hi = max(1.0 / math.sqrt(pshape), math.sqrt(-2.0 * reff / a)) / reff
    return brent(f, 0.0, hi)
