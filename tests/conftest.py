"""Shared fixtures.  Expensive pipeline products are session-scoped."""

import dataclasses
import math

import numpy as np
import pytest

from zrtrimer import (
    AngularProblem,
    PairParams,
    ParticleSystem,
    effective_potential,
    parse_config,
    thomas_spectrum,
    trace_branch,
)
from zrtrimer.cli import potential_for_config, solve_for_config

from trimer_params import HE4_A, HE4_MASS, POLE_NOT_BARE, bundled_config_text


@pytest.fixture(scope="session")
def he4_cfg():
    return parse_config(bundled_config_text("he4_trimer"))


@pytest.fixture(scope="session")
def mixed_cfg():
    return parse_config(bundled_config_text("he4he4he3"))


@pytest.fixture(scope="session")
def distinct_cfg(mixed_cfg):
    """The mixed config's grids with POLE_NOT_BARE's system, three distinct
    masses: the one bundled-grid trace on the 3x3 determinant."""
    return dataclasses.replace(mixed_cfg,
                               system=ParticleSystem(*POLE_NOT_BARE))


@pytest.fixture(scope="session")
def he4_problem(he4_cfg):
    return AngularProblem(he4_cfg.system)


@pytest.fixture(scope="session")
def he4_branch_potential(he4_cfg):
    pot = potential_for_config(he4_cfg)
    return pot.branch, pot


@pytest.fixture(scope="session")
def he4_solution(he4_cfg):
    return solve_for_config(he4_cfg)


@pytest.fixture(scope="session")
def mixed_solution(mixed_cfg):
    return solve_for_config(mixed_cfg)


@pytest.fixture(scope="session")
def bare_he4_pair():
    return PairParams(a=HE4_A)


@pytest.fixture(scope="session")
def bare_he4_problem(bare_he4_pair):
    system = ParticleSystem.identical_bosons(HE4_MASS, bare_he4_pair)
    return AngularProblem(system)


@pytest.fixture(scope="session")
def bare_he4_trace(bare_he4_problem):
    """Bare (1/a only) trace out beyond 50|a|, for asymptotics checks."""
    rho_top = 1.05 * 50.0 * abs(HE4_A)
    grid = np.exp(np.linspace(math.log(0.05), math.log(rho_top), 400))
    branch = trace_branch(grid, bare_he4_problem)
    return bare_he4_problem, branch


@pytest.fixture(scope="session")
def bare_he4_potential(bare_he4_trace):
    problem, branch = bare_he4_trace
    return effective_potential(branch, problem, "leading_term")


@pytest.fixture(scope="session")
def unitary_problem():
    pair = PairParams(a=-math.inf)
    system = ParticleSystem.identical_bosons(HE4_MASS, pair)
    return AngularProblem(system)


@pytest.fixture(scope="session")
def thomas_default():
    return thomas_spectrum()
