"""Helium parameters and bundled-config access shared by the test modules.

Kept out of conftest.py: `from conftest import ...` is ambiguous once
another test directory with its own conftest.py is collected in the same
run.
"""

import importlib.resources as ir

from zrtrimer import PairParams

HE4_A = -189.054
HE4_REFF = 13.843
HE4_P = 0.13
HE4_MASS = 4.002603
MU4 = HE4_MASS / 2.0

#: Three distinct masses, so the 3x3 determinant is traced, and pairs whose
#: deepest bare threshold (pair.3, -1.7853 mK) and deepest pole threshold
#: (pair.1, -2.0702 mK) belong to different pairs.
POLE_NOT_BARE = ((5.269722766055607, 5.285531934353774, 11.872768433379255),
                 (PairParams(a=-116.05192639108952, r_eff=16.828234037300433,
                             p_shape=0.07589823302873612),
                  PairParams(a=-116.2840302438717, r_eff=16.828234037300433,
                             p_shape=0.07589823302873612),
                  PairParams(a=-135.5928977655824, r_eff=11.568228096841981,
                             p_shape=0.0490425747325559)))


def bundled_config_text(name: str) -> str:
    return (ir.files("zrtrimer") / "data" / f"{name}.cfg").read_text()
