"""The package's own Gauss-Kronrod rule (``_quad``) against
``scipy.integrate``, which the package no longer imports and the tests keep
as an independent oracle: ``integrate`` ports QUADPACK's dqagse/dqagpe,
which ``quad`` wraps."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import scipy.integrate as si

from randvendor import (
    Empirical,
    Exponential,
    LogNormal,
    Mixture,
    TruncatedNormal,
    Uniform,
    UpperTruncated,
    expected_max,
)
from randvendor import _quad
from randvendor.distributions import _half_max

ROOT = Path(__file__).resolve().parents[1]

DENSITIES = [
    Uniform(0.2, 1.7),
    Uniform(3.0, 40.0),
    Exponential(0.8),
    Exponential(0.0366845),
    LogNormal(0.0, 1.0),
    LogNormal(3.0, 0.2),
    LogNormal(1.0, 0.9),
    TruncatedNormal(1.0, 0.5),
    TruncatedNormal(-1.0, 2.0),
    TruncatedNormal(30.0, 10.0),
    TruncatedNormal(14.719546153405139, 0.735977),
    UpperTruncated(LogNormal(1.0, 0.5), 4.0),
    Mixture([(0.5, Uniform(0.0, 1.0)), (0.5, Exponential(1.4))]),
]
SURVIVALS = DENSITIES + [Empirical([0.4, 1.1, 2.0, 2.5]), Empirical([3.0])]


def _quadpack(fn, lo, hi, points=()):
    """scipy's quad with the arguments ``integrate`` gives its own rule."""
    pts = sorted({float(p) for p in points if lo < p < hi})
    assert len(pts) <= _quad._MAX_POINTS
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", si.IntegrationWarning)
        return si.quad(
            fn,
            lo,
            hi,
            points=pts or None,
            limit=_quad._LIMIT,
            epsabs=_quad._EPSABS,
            epsrel=_quad._EPSREL,
        )


def _agrees(fn, lo, hi, points=()):
    ref, ref_err = _quadpack(fn, lo, hi, points)
    pts = sorted({float(p) for p in points if lo < p < hi})
    value, err = _quad._adaptive(fn, lo, hi, pts, _quad._LIMIT)
    assert _quad.integrate(fn, lo, hi, points) == value
    assert value == pytest.approx(ref, rel=1e-14, abs=1e-300)
    assert err == pytest.approx(ref_err, rel=1e-5)


@pytest.mark.parametrize("dist", SURVIVALS, ids=repr)
@pytest.mark.parametrize("u", [0.05, 0.5, 0.95, 0.999])
def test_survival_integrands_agree_with_quad(dist, u):
    q = dist.quantile(u)
    cdf = dist.cdf
    _agrees(lambda t: 1.0 - cdf(t), 0.0, q, dist.breakpoints())
    _agrees(lambda t: t * (1.0 - cdf(t)), 0.0, q, dist.breakpoints())


@pytest.mark.parametrize("x", DENSITIES, ids=repr)
def test_density_cdf_integrands_agree_with_quad(x):
    for y in DENSITIES:
        cut = max(x.upper_cut(), y.upper_cut())
        lo = max(x.support()[0], y.support()[0])
        hi = min(x.support()[1], cut)
        pts = set(x.breakpoints()) | set(y.breakpoints())
        _agrees(lambda t: t * x.pdf(t) * y.cdf(t), lo, hi, pts)


# -- the first-panel guard ----------------------------------------------------------


def test_narrow_peak_between_the_first_nodes():
    # no node of [0, 100] lies within 8 widths of the peak: the first panel
    # reads ~5e-14 with an error estimate at dqk21's cap, below the
    # tolerance, and only the guard on that cap bisects it
    def peak(t):
        return math.exp(-0.5 * ((t - 37.3) / 0.25) ** 2)

    first, err, _, cap = _quad._gk21(peak, 0.0, 100.0)
    assert first < 1e-13 and err == cap <= _quad._EPSABS
    exact = 0.25 * math.sqrt(2.0 * math.pi)
    assert _quad.integrate(peak, 0.0, 100.0) == pytest.approx(exact, rel=1e-14)
    _agrees(peak, 0.0, 100.0)


def test_narrow_truncated_normal_against_exponential():
    # all 21 nodes of [0, 627.67] miss the peak of this truncated normal; the
    # first panel reads 9.4e-17 for the expected maximum's half. Without the
    # guard, search picked a wrong best policy on two benchmark scenarios
    x, y = TruncatedNormal(14.719546153405139, 0.735977), Exponential(0.0366845)
    cut = max(x.upper_cut(), y.upper_cut())

    def fn(t):
        return t * x.pdf(t) * y.cdf(t)

    assert _quad._gk21(fn, 0.0, cut)[0] < 1e-15
    ref, _ = _quadpack(fn, 0.0, cut)
    # with the truncated normal's tail beyond the cut, which rounds to 0
    half = _half_max(x, y, cut, set())
    assert half == pytest.approx(ref, rel=1e-14)
    assert half == pytest.approx(6.150034885392636, rel=1e-12)
    pts = set(x.breakpoints()) | set(y.breakpoints())
    total = _half_max(x, y, cut, pts) + _half_max(y, x, cut, pts)
    assert expected_max(x, y) == total
    _agrees(lambda t: t * y.pdf(t) * x.cdf(t), 0.0, cut, pts)


# -- no scipy.integrate on the command paths -----------------------------------------

_COMMANDS = """
import contextlib, io, sys
from randvendor import cli
out = sys.argv[1]
for name in sys.argv[2:]:
    for cmd in ("solve", "search", "validate"):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([cmd, name, "--json", out])
        assert code == 0, (cmd, name, code)
print("scipy.integrate" in sys.modules)
"""


def test_commands_do_not_import_scipy_integrate(tmp_path):
    shipped = sorted(str(p) for p in (ROOT / "scenarios").glob("*.json"))
    assert len(shipped) == 3
    done = subprocess.run(
        [sys.executable, "-c", _COMMANDS, str(tmp_path / "report.json"), *shipped],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
