"""Particles, pair interactions, units and hyperspherical kinematics.

Internal unit system: atomic units with hbar = 1, lengths in Bohr radii and
masses expressed as multiples of a configurable mass scale (1822.887 electron
masses by default, i.e. roughly one atomic mass unit).  Energies are carried
in hartree inside the library; millikelvin appears only at I/O boundaries.

Sign convention for the two-body input: a negative scattering length means
the pair supports a bound dimer with pole momentum kappa ~ 1/|a|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

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


@dataclass(frozen=True)
class UnitSystem:
    """Unit conventions shared by every computation on a system.

    Parameters
    ----------
    mass_scale : float
        Mass scale m in electron masses; particle masses are multiples of it.
    """

    mass_scale: float = DEFAULT_MASS_SCALE

    def __post_init__(self):
        if self.mass_scale <= 0:
            raise ValueError("mass_scale must be positive")

    def hartree_to_mk(self, value_hartree: float) -> float:
        return value_hartree / HARTREE_PER_MK


@dataclass(frozen=True)
class PairParams:
    """Low-energy interaction parameters of one two-body subsystem.

    The boundary condition imposed on the pair wave function is the
    effective-range expansion  k cot(delta) = 1/a + (R/2) k^2 + P R^3 k^4,
    with `a` the scattering length (au), `r_eff` the effective range R (au)
    and `p_shape` the dimensionless shape/regularization parameter P.
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

    @property
    def has_bound_dimer(self) -> bool:
        return self.a < 0.0


@dataclass(frozen=True)
class ParticleSystem:
    """Three particles plus their pairwise interactions.

    `masses[i]` is the mass of particle i in units of the mass scale.
    `pairs[i]` holds the interaction of the pair formed by the other two
    particles, i.e. pairs are indexed by the spectator.
    """

    masses: tuple[float, float, float]
    pairs: tuple[PairParams, PairParams, PairParams]
    units: UnitSystem = UnitSystem()

    def __post_init__(self):
        if len(self.masses) != 3 or len(self.pairs) != 3:
            raise ValueError("exactly three masses and three pairs required")
        if any(m <= 0 for m in self.masses):
            raise ValueError("masses must be positive")
        # identical particles (same mass) must face identical interactions
        for j in range(3):
            for k in range(j + 1, 3):
                if self.masses[j] == self.masses[k] and self.pairs[j] != self.pairs[k]:
                    raise ValueError(
                        f"particles {j + 1} and {k + 1} have equal masses but "
                        f"their facing pairs differ")

    @classmethod
    def identical_bosons(cls, mass: float, pair: PairParams,
                         units: UnitSystem | None = None) -> "ParticleSystem":
        return cls((mass, mass, mass), (pair, pair, pair), units or UnitSystem())

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
                         units: UnitSystem | None = None) -> float | None:
    """Two-body binding energy B = 1/(2 mu m a^2) in hartree, or None.

    Uses the leading zero-range relation kappa = 1/|a|; a pair with a > 0
    carries no bound dimer in this convention and yields None.
    """
    units = units or UnitSystem()
    if not pair.has_bound_dimer:
        return None
    return 1.0 / (2.0 * mu * units.mass_scale * pair.a * pair.a)


def dimer_pole_kappa(pair: PairParams) -> float | None:
    """Bound-dimer pole momentum of the extended boundary condition (1/au).

    Root of  kappa + 1/a - (R/2) kappa^2 + P R^3 kappa^4 = 0, i.e. the
    k cot(delta) expansion continued to k = i*kappa.  Reduces to 1/|a| for
    R = P = 0.  Returns None when no bound dimer exists (a > 0).
    """
    if not pair.has_bound_dimer:
        return None
    a, reff, pshape = pair.a, pair.r_eff, pair.p_shape

    def f(k: float) -> float:
        return k + 1.0 / a - 0.5 * reff * k * k + pshape * reff ** 3 * k ** 4

    hi = 2.0 / abs(a)
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > 1e6 / abs(a):
            raise SolverError("no dimer pole found for %r" % (pair,))
    return brentq(f, 0.0, hi, xtol=1e-300, rtol=8.9e-16)
