"""Helium parameters and bundled-config access shared by the test modules.

Kept out of conftest.py: `from conftest import ...` is ambiguous once
another test directory with its own conftest.py is collected in the same
run.
"""

import importlib.resources as ir

HE4_A = -189.054
HE4_REFF = 13.843
HE4_P = 0.13
HE4_MASS = 4.002603
MU4 = HE4_MASS / 2.0


def bundled_config_text(name: str) -> str:
    return (ir.files("zrtrimer") / "data" / f"{name}.cfg").read_text()
