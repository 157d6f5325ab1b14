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

`regula_falsi` is the one scalar root refiner of the package, its rule
applied over arrays by `angular._lockstep`, and `_Pchip` the one
interpolant, a port of scipy's (see NOTICE).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


#: Relative tolerance of a root, scipy.optimize.brentq's default rtol (4
#: machine epsilons, rounded up): a bracket closes at 2 BRENT_RTOL |x|.
BRENT_RTOL = 8.9e-16

#: Iteration cap of a root search, brentq's default maxiter.
BRENT_MAXITER = 100


def regula_falsi(f, a: float, b: float, fa: float | None = None,
                 fb: float | None = None) -> tuple[float, float]:
    """Root of f in [a, b] and f there, by regula falsi with the
    Anderson-Bjorck rule (N. Anderson and A. Bjorck, BIT 13, 253 (1973)).

    fa and fb, when given, stand for f(a) and f(b) and save their
    evaluations.  After a step that lands on the side of the newest end,
    the value kept at the other end is scaled by 1 - f_new/f_newest, or
    halved when that is not positive.  The bracket closes at
    2 BRENT_RTOL |x| wide, so a root at 0 closes only where f is 0; a
    step shorter than BRENT_RTOL |x| is lengthened to it, so an iterate
    that reaches the root from one side closes the bracket.  The root is
    the end of smaller |f|, a point f was evaluated at (or an end whose
    value was given).  Raises ValueError on a NaN value or on ends of one
    sign, SolverError when the bracket is still open after BRENT_MAXITER
    steps.  `angular._lockstep` applies the same rule over arrays.
    """
    x0, x1 = a, b
    t0 = f(a) if fa is None else fa
    f1 = f(b) if fb is None else fb
    if t0 != t0 or f1 != f1:
        raise ValueError(f"f is NaN at an end of [{a!r}, {b!r}]")
    if t0 != 0.0 and f1 != 0.0 and (t0 < 0.0) == (f1 < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    # x0 is the retained end with its scaled value f0 and true value t0;
    # x1 is the newest iterate
    f0 = t0
    for it in range(BRENT_MAXITER + 1):
        if (f1 == 0.0 or t0 == 0.0
                or abs(x1 - x0) <= 2.0 * BRENT_RTOL * abs(x1)):
            return (x0, t0) if abs(t0) < abs(f1) else (x1, f1)
        if it == BRENT_MAXITER:
            break
        # the ratio first: f1 (x1 - x0) underflows for tiny f and x
        x2 = x1 - (x1 - x0) * (f1 / (f1 - f0))
        tol = BRENT_RTOL * abs(x1)
        if abs(x2 - x1) < tol:
            x2 = x1 + math.copysign(tol, x0 - x1)
        f2 = f(x2)
        if f2 != f2:
            raise ValueError(f"f is NaN at x = {x2!r}")
        if (f2 < 0.0) != (f1 < 0.0):
            x0, f0, t0 = x1, f1, f1
        else:
            m = 1.0 - f2 / f1
            f0 *= m if m > 0.0 else 0.5
        x1, f1 = x2, f2
    raise SolverError(f"regula falsi left [{x0!r}, {x1!r}] open after "
                      f"{BRENT_MAXITER} iterations")


# Derived from scipy.interpolate.PchipInterpolator, Copyright (c) 2001-2002
# Enthought, Inc. 2003, SciPy Developers; BSD-3-Clause, see NOTICE.
class _Pchip:
    """Monotone piecewise cubic Hermite interpolant through (x, y), NaN
    outside [x[0], x[-1]] (F. N. Fritsch and R. E. Carlson, SIAM J. Numer.
    Anal. 17, 238 (1980)).

    Built and summed as scipy's PchipInterpolator(x, y, extrapolate=False):
    interior slopes are weighted harmonic means of the neighbouring secants,
    0 where those differ in sign or one is flat; end slopes are one-sided
    three-point estimates, kept on the side of the end secant and at most 3
    times it across an extremum; two nodes give a straight line.  Each cubic
    is summed in the power basis from the constant term up, as scipy does:
    a Horner form moves results by an ulp.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        h = np.diff(x)
        if not (np.isfinite(x).all() and np.isfinite(y).all() and len(x) > 1
                and (h > 0.0).all()):
            raise ValueError("need finite y on finite, strictly increasing x "
                             "of at least 2 nodes")
        m = np.diff(y) / h
        if len(x) == 2:
            d = np.array([m[0], m[0]])
        else:
            d = np.zeros_like(y)
            sm = np.sign(m)
            mean = (sm[1:] == sm[:-1]) & (m[1:] != 0.0) & (m[:-1] != 0.0)
            w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
            with np.errstate(divide="ignore", invalid="ignore"):
                whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            d[1:-1][mean] = 1.0 / whmean[mean]
            h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
            end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            cap = ((np.sign(m0) != np.sign(m1))
                   & (np.abs(end) > 3.0 * np.abs(m0)))
            d[[0, -1]] = np.where(np.sign(end) != np.sign(m0), 0.0,
                                  np.where(cap, 3.0 * m0, end))
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.x = x
        # coefficients of s^3, s^2, s, 1 on each interval, s = x - x_i
        self.c = (t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        return self.cubic(self.locate(xs))

    def locate(self, xs: np.ndarray) -> tuple[np.ndarray, ...]:
        """Where each query falls: its interval i, its offset s from the
        interval's start with s^2 and s^3, and the mask of the queries
        outside [x[0], x[-1]].  These depend on the knots and the queries
        alone."""
        x = self.x
        i = x.searchsorted(xs, side="right") - 1
        np.clip(i, 0, len(x) - 2, out=i)
        s = xs - x[i]
        s2 = s * s
        return i, s, s2, s2 * s, ~((xs >= x[0]) & (xs <= x[-1]))

    def cubic(self, where: tuple[np.ndarray, ...]) -> np.ndarray:
        """The interpolant at the queries `locate` placed."""
        i, s, s2, s3, outside = where
        c0, c1, c2, c3 = (c[i] for c in self.c)
        out = c3 + c2 * s + c1 * s2 + c0 * s3
        out[outside] = np.nan
        return out


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
    return regula_falsi(f, 0.0, hi)[0]
