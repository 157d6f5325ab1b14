"""Run configuration: strict `key = value` files with [section] headers.

Sections: [system], [pair.1], [pair.2], [pair.3], [grid], [solver].
Pair sections are indexed by the spectator particle, so
[pair.3] describes the interaction between particles 1 and 2.  Unknown
sections or keys are errors; missing optional sections fall back to
defaults.  See the bundled configs under zrtrimer/data/ for examples.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass

from .potential import Q_CONVENTIONS
from .radial import default_rho_max
from .system import DEFAULT_MASS_SCALE, PairParams, ParticleSystem


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


_ALLOWED = {
    "system": {"masses", "mass_scale"},
    "pair": {"a", "r_eff", "p_shape"},
    "grid": {"rho_min", "rho_max", "n"},
    "solver": {"q_convention", "radial_n", "radial_rho_min", "radial_rho_max",
               "max_states"},
}

_REQUIRED_HINT = (
    "required: [system] masses = m1, m2, m3 and [pair.1], [pair.2], "
    "[pair.3] each with a scattering length key 'a'")


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration."""

    system: ParticleSystem
    rho_min: float
    rho_max: float
    n: int
    q_convention: str
    radial_n: int
    radial_rho_min: float
    radial_rho_max: float | None   # None means automatic
    max_states: int
    sha256: str


def _floats(text: str, where: str, count: int | None = None) -> list[float]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {text!r} as numbers") from exc
    if count is not None and len(vals) != count:
        raise ConfigError(f"{where}: expected {count} comma-separated values")
    return vals


def _number(section, key: str, default, where: str, kind=float):
    raw = section.get(key)
    if raw is None:
        return default
    try:
        return kind(raw)
    except ValueError as exc:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where}.{key}: cannot parse {raw!r} as {what}") from exc


def _choice(section, key: str, default: str, allowed, where: str) -> str:
    raw = section.get(key, default)
    val = raw.strip()
    if val not in allowed:
        raise ConfigError(f"{where}.{key}: {val!r} not in {tuple(allowed)}")
    return val


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration; raises ConfigError on problems."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    for name in parser.sections():
        base = "pair" if name.startswith("pair.") else name
        if base not in _ALLOWED or (base == "pair"
                                    and name not in ("pair.1", "pair.2", "pair.3")):
            raise ConfigError(f"unknown section [{name}]")
        for key in parser[name]:
            if key not in _ALLOWED[base]:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")

    if "system" not in parser:
        raise ConfigError(f"missing section [system]; {_REQUIRED_HINT}")
    sys_sec = parser["system"]
    if "masses" not in sys_sec:
        raise ConfigError(f"[system] is missing 'masses'; {_REQUIRED_HINT}")
    masses = _floats(sys_sec["masses"], "[system].masses", count=3)

    mass_scale = _number(sys_sec, "mass_scale", DEFAULT_MASS_SCALE, "[system]")

    pairs = []
    for i in (1, 2, 3):
        sec_name = f"pair.{i}"
        if sec_name not in parser:
            raise ConfigError(f"missing section [{sec_name}]; {_REQUIRED_HINT}")
        sec = parser[sec_name]
        if "a" not in sec:
            raise ConfigError(f"[{sec_name}] is missing 'a'; {_REQUIRED_HINT}")
        where = f"[{sec_name}]"
        a = _number(sec, "a", math.nan, where)
        try:
            pairs.append(PairParams(a, _number(sec, "r_eff", 0.0, where),
                                    _number(sec, "p_shape", 0.0, where)))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    try:
        system = ParticleSystem(masses=tuple(masses), pairs=tuple(pairs),
                                mass_scale=mass_scale)
    except ValueError as exc:
        raise ConfigError(f"[system]: {exc}") from exc

    grid = parser["grid"] if "grid" in parser else {}
    rho_min = _number(grid, "rho_min", 0.05, "[grid]")
    rho_max = _number(grid, "rho_max", 4000.0, "[grid]")
    n = _number(grid, "n", 600, "[grid]", int)
    if not 0.0 < rho_min < rho_max < math.inf:
        raise ConfigError("[grid]: need 0 < rho_min < rho_max < inf")
    if n < 2:
        raise ConfigError("[grid].n: need at least 2 grid nodes")

    solver = parser["solver"] if "solver" in parser else {}
    q_convention = _choice(solver, "q_convention", "leading_term",
                           Q_CONVENTIONS, "[solver]")
    radial_n = _number(solver, "radial_n", 8000, "[solver]", int)
    if radial_n < 7:
        # the radial shooter keeps its turning point in [3, n - 4]
        raise ConfigError("[solver].radial_n: need at least 7 radial grid points")
    radial_rho_min = _number(solver, "radial_rho_min", 0.05, "[solver]")
    if not radial_rho_min > 0.0:
        raise ConfigError("[solver].radial_rho_min: must be positive")
    radial_rho_max = None
    if solver.get("radial_rho_max", "auto").strip() != "auto":
        radial_rho_max = _number(solver, "radial_rho_max", 0.0, "[solver]")
        if not radial_rho_min < radial_rho_max < math.inf:
            raise ConfigError("[solver].radial_rho_max: must be finite and "
                              "exceed radial_rho_min, or be 'auto'")
    elif not radial_rho_min < default_rho_max(system):
        raise ConfigError(
            "[solver].radial_rho_min: must lie below the automatic "
            f"radial_rho_max = {default_rho_max(system):g}, or set "
            "radial_rho_max")
    max_states = _number(solver, "max_states", 4, "[solver]", int)
    if max_states < 1:
        raise ConfigError("[solver].max_states: need at least 1 state")

    return RunConfig(
        system=system, rho_min=rho_min, rho_max=rho_max, n=n,
        q_convention=q_convention, radial_n=radial_n,
        radial_rho_min=radial_rho_min, radial_rho_max=radial_rho_max,
        max_states=max_states,
        sha256=hashlib.sha256(text.encode("utf-8")).hexdigest())
