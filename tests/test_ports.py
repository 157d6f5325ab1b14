"""The in-house root refiner and PCHIP interpolant against scipy.

scipy stays the oracle here.  `system.regula_falsi` closes a bracket to
2 BRENT_RTOL |x|, so its root must lie that close to the root of
scipy.optimize.brentq at BRENT_RTOL.  `system._Pchip` builds and sums the
cubics as scipy.interpolate.PchipInterpolator(extrapolate=False) does, so
every interpolated value must be exactly equal.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

import zrtrimer
from zrtrimer import system
from zrtrimer.cli import potential_for_config
from zrtrimer.system import BRENT_RTOL, SolverError, _Pchip, regula_falsi


def _curve(root: float, k: float, c: float, sign: float):
    """A monotone test function with one root, exactly 0 at `root`."""
    def f(x: float) -> float:
        t = x - root
        return sign * (math.tanh(k * t) + c * t * t * t)
    return f


def _brentq(f, a: float, b: float) -> float:
    """scipy's root at the refiner's relative tolerance; xtol = 1e-300
    keeps roots near 0 their digits."""
    return brentq(f, a, b, xtol=1e-300, rtol=BRENT_RTOL)


def _near(x: float, want: float) -> bool:
    """x within the refiner's closed width of scipy's root (plus scipy's
    own xtol, which bounds it near 0)."""
    return abs(x - want) <= 2.0 * BRENT_RTOL * abs(want) + 1e-300


def _checked(f, a: float, b: float, fa: float, fb: float
             ) -> tuple[float, float]:
    """regula_falsi from [a, b] with and without the end values: the same
    root and value, f at the root, and fa and fb saving two evaluations."""
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)
    got = regula_falsi(counted, a, b)
    full = len(calls)
    assert regula_falsi(counted, a, b, fa, fb) == got
    assert len(calls) - full == full - 2
    assert got[1] == f(got[0])
    return got


class TestRegulaFalsi:
    @example(root=0.0, k=1.0, c=0.0, sign=1.0, lo=1.0, hi=2.0, at_end=0,
             swap=False)
    @example(root=0.0, k=1.0, c=0.0, sign=1.0, lo=1.0, hi=1.0, at_end=None,
             swap=False)
    @example(root=7.195081856945727e-224, k=1.0, c=0.0, sign=1.0, lo=1.0,
             hi=1.0, at_end=None, swap=False)
    @settings(max_examples=300, deadline=None)
    @given(root=st.floats(-1e3, 1e3), k=st.floats(1e-3, 1e3),
           c=st.floats(0.0, 10.0), sign=st.sampled_from([1.0, -1.0]),
           lo=st.floats(1e-12, 1e3), hi=st.floats(1e-12, 1e3),
           at_end=st.sampled_from([None, 0, 1]), swap=st.booleans())
    def test_root_near_brentq(self, root, k, c, sign, lo, hi, at_end, swap):
        # both sign orders, either end first, and zeros at an end
        f = _curve(root, k, c, sign)
        a, b = root - lo, root + hi
        if at_end == 0:
            a = root
        elif at_end == 1:
            b = root
        if swap:
            a, b = b, a
        assume(a != b and (f(a) == 0.0 or f(b) == 0.0 or
                           (f(a) < 0.0) != (f(b) < 0.0)))
        try:
            want = _brentq(f, a, b)
        except RuntimeError:
            # brentq runs out of iterations on a root of 7e-224 in [-1, 1]:
            # its end at 1 stays and its steps creep by delta.  The curve
            # is 0 at `root` exactly
            want = root
        x, _ = _checked(f, a, b, f(a), f(b))
        assert _near(x, want)

    @pytest.mark.parametrize("cfg_name", ["he4_cfg", "mixed_cfg"])
    def test_bundled_residuals_around_traced_nodes(self, request, cfg_name):
        # the roots the walker refines: brackets of several widths and
        # offsets around every 25th node of the bundled traces
        pot = potential_for_config(request.getfixturevalue(cfg_name))
        branch, f = pot.branch, pot.problem.residual
        checked = 0
        for rho, u in zip(branch.rho[::25], branch.u[::25]):
            rho, u = float(rho), float(u)
            g = lambda x: f(x, rho)     # noqa: E731
            for rel, off in ((1e-12, 0.3), (1e-8, -0.45), (1e-5, 0.1),
                             (1e-3, 0.0)):
                h = rel * (1.0 + abs(u))
                a, b = u - h * (1.0 - off), min(u + h * (1.0 + off), 4.0 - 1e-6)
                fa, fb = g(a), g(b)
                if (fa < 0.0) == (fb < 0.0):
                    continue
                x, _ = _checked(g, a, b, fa, fb)
                assert _near(x, _brentq(g, a, b))
                checked += 1
        assert checked >= 3 * len(branch.rho[::25])

    @pytest.mark.parametrize("scale", [1e-160, 1e-230, 1e-300])
    @pytest.mark.parametrize("root", [0.1 * math.pi, -2.2])
    def test_underflowing_slopes(self, root, scale):
        # the secant slopes are ~scale, and products of two values
        # underflow to 0: the step is formed from the ratio of the values
        curve = _curve(root, 1.0, 0.5, 1.0)

        def f(x):
            return scale * curve(x)
        x, _ = _checked(f, -3.0, 4.0, f(-3.0), f(4.0))
        assert _near(x, _brentq(f, -3.0, 4.0))

    def test_errors(self, monkeypatch):
        # brentq's contract: ValueError on a NaN and on ends of one sign
        f = _curve(0.3, 2.0, 0.0, 1.0)
        nan_end = lambda x: math.nan if x == 1.0 else f(x)  # noqa: E731
        nan_inside = lambda x: f(x) if x in (0.0, 1.0) else math.nan  # noqa: E731
        for g, a, b in ((f, 0.5, 1.0), (nan_end, 0.0, 1.0),
                        (nan_inside, 0.0, 1.0)):
            with pytest.raises(ValueError):
                brentq(g, a, b)
            with pytest.raises(ValueError):
                regula_falsi(g, a, b)
        with pytest.raises(ValueError):
            regula_falsi(f, 0.0, 1.0, math.nan, f(1.0))
        with pytest.raises(ValueError, match="different signs"):
            regula_falsi(f, 0.0, 1.0, 1.0, f(1.0))
        # a jump at 0 that f is never 0 at: no bracket around it closes to
        # a width relative to |x|, and the cap raises SolverError
        step = lambda x: -1.0 if x < 0.0 else 1.0   # noqa: E731
        with pytest.raises(SolverError, match="100 iterations"):
            regula_falsi(step, -1.0, 2.0)
        # the cap is system's: a root it takes 6 steps to reach fails at 4
        monkeypatch.setattr(system, "BRENT_MAXITER", 4)
        with pytest.raises(SolverError, match="after 4 iterations"):
            regula_falsi(f, 0.0, 1.0)


@st.composite
def _nodes(draw):
    """Strictly increasing x with n from 2 up, and y with flat runs and
    sign changes of the slope."""
    n = draw(st.integers(2, 12))
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n))
    x = draw(st.floats(-100.0, 100.0)) + np.cumsum(steps)
    levels = st.one_of(st.sampled_from([0.0, 1.0, -2.5]),
                       st.floats(-1e3, 1e3))
    y = np.array(draw(st.lists(levels, min_size=n, max_size=n)))
    return x, y


class TestPchip:
    @example(nodes=(np.array([0.0, 1.0]), np.array([1.0, 3.0])),
             fractions=[0.25, 0.5])
    @example(nodes=(np.array([0.0, 1.0, 3.0]), np.array([1.0, 3.0, 2.0])),
             fractions=[0.1, 0.5, 0.9])
    @example(nodes=(np.array([0.0, 1.0, 3.0]), np.array([1.0, 1.0, 2.0])),
             fractions=[0.1, 0.5, 0.9])
    @example(nodes=(np.array([0.0, 0.5, 3.0, 4.0]),
                    np.array([0.0, 1.0, 1.0, -2.0])),
             fractions=[0.05, 0.3, 0.6, 0.95])
    @settings(max_examples=300, deadline=None)
    @given(nodes=_nodes(), fractions=st.lists(st.floats(0.0, 1.0),
                                              min_size=1, max_size=20))
    def test_values_equal_scipy(self, nodes, fractions):
        x, y = nodes
        # the nodes, points between them, and points outside (NaN)
        span = x[-1] - x[0]
        xs = np.concatenate([x, x[0] + span * np.array(fractions),
                             [x[0] - 1.0, x[-1] + 1.0]])
        # subnormal levels overflow the harmonic mean in both alike
        with np.errstate(over="ignore"):
            want = PchipInterpolator(x, y, extrapolate=False)(xs)
            got = _Pchip(x, y)(xs)
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("x, y", [
        ([0.0, 1.0, 2.0], [0.0, math.nan, 1.0]),
        ([0.0, math.nan, 2.0], [0.0, 1.0, 1.0]),
        ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, math.inf]),
        ([0.0, math.inf], [0.0, 1.0]),
        ([0.0, 0.0, 1.0], [1.0, 2.0, 3.0]),
        ([1.0, 0.0, 2.0], [1.0, 2.0, 3.0]),
        ([0.0], [1.0])])
    def test_same_errors_as_scipy(self, x, y):
        x, y = np.array(x), np.array(y)
        with pytest.raises(ValueError):
            PchipInterpolator(x, y, extrapolate=False)
        with pytest.raises(ValueError):
            _Pchip(x, y)

    def test_bundled_branch(self, he4_cfg, mixed_cfg):
        for cfg in (he4_cfg, mixed_cfg):
            branch = potential_for_config(cfg).branch
            t = np.log(branch.rho)
            mid = 0.5 * (t[1:] + t[:-1])
            xs = np.concatenate([t, mid, t[:-1] + 0.01 * np.diff(t)])
            want = PchipInterpolator(t, branch.u, extrapolate=False)(xs)
            assert np.array_equal(_Pchip(t, branch.u)(xs), want)


def test_import_leaves_out_optimize_interpolate_and_linalg():
    # in a fresh interpreter: of scipy.linalg the program loads only the
    # BLAS extension _fblas, for the carry's dtbsv, and never the package
    code = ("import sys, zrtrimer.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(("
            "'scipy.optimize', 'scipy.interpolate', 'scipy.linalg'))))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(zrtrimer.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "['scipy.linalg._fblas']"
