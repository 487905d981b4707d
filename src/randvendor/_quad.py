"""Adaptive quadrature wrapper shared by the distribution kernels."""

import numpy as np
from scipy import integrate as _integrate

from .errors import NumericalIntegrityError

_EPSABS = 1e-12
_EPSREL = 1e-10
_LIMIT = 300
_MAX_POINTS = 40

# quad's error estimate may not exceed this, relative to max(1, |value|)
_MAX_ERROR = 1e-8

# quad's and quad_vec's Gauss-Kronrod rule evaluates the integrand this often
# per panel
_VECTOR_EVALS_PER_PANEL = 21

# Infinite supports are cut at quantile(1 - TAIL_PROB); callers add an exact
# tail term where one is available.
TAIL_PROB = 1e-10


def integrate(fn, lo: float, hi: float, points=(), every_point: bool = False) -> float:
    """Integrate ``fn`` over [lo, hi], splitting panels at interior points.

    More than ``_MAX_POINTS`` points are thinned to that many, unless
    ``every_point``: then quad splits at each of them and may subdivide
    ``_LIMIT`` times beyond them (it refuses points that reach its limit).
    Raises NumericalIntegrityError when quad's own error estimate is too
    large to trust the value.
    """
    if hi <= lo:
        return 0.0
    pts = sorted({float(p) for p in points if lo < p < hi})
    limit = _LIMIT
    if every_point:
        limit += len(pts)
    elif len(pts) > _MAX_POINTS:
        step = len(pts) / _MAX_POINTS
        pts = [pts[int(i * step)] for i in range(_MAX_POINTS)]
    value, err = _integrate.quad(
        fn, lo, hi, points=pts or None, limit=limit, epsabs=_EPSABS, epsrel=_EPSREL
    )
    if not err <= _MAX_ERROR * max(1.0, abs(value)):
        raise NumericalIntegrityError(
            f"quadrature over [{lo!r}, {hi!r}] has error estimate {err:.3g} on value {value!r}"
        )
    return value


def integrate_vector(fn, lo: float, hi: float, size: int, points=()) -> np.ndarray:
    """Integrate the ``size`` components of ``fn`` over [lo, hi] at once.

    One adaptive pass of ``quad_vec`` serves every component; it splits at
    every interior point, without thinning, and stops when the largest
    component's error is small. Its error estimate bounds each component's
    error, and so any convex combination of them: it must pass the same test
    as in ``integrate``, with the largest component as the value.
    """
    if hi <= lo:
        return np.zeros(size)
    pts = sorted({float(p) for p in points if lo < p < hi})
    value, err = _integrate.quad_vec(
        lambda t: np.broadcast_to(fn(t), (size,)),
        lo,
        hi,
        epsabs=_EPSABS,
        epsrel=_EPSREL,
        norm="max",
        limit=_LIMIT,
        points=pts or None,
    )
    scale = float(np.max(np.abs(value)))
    if not err <= _MAX_ERROR * max(1.0, scale):
        raise NumericalIntegrityError(
            f"vector quadrature over [{lo!r}, {hi!r}] has error estimate {err:.3g} "
            f"on values up to {scale!r}"
        )
    return value


def vector_pays(size: int, lo: float, hi: float, points) -> bool:
    """Whether one quadrature that evaluates all ``size`` components of a
    stacked mixture at every node beats ``size`` calls of ``integrate``, one
    per component, over [lo, hi]. It routes the survival integrals between
    one scalar ``integrate`` of the whole mixture and one per component, and
    the expected maximum's ``int t f F`` between one ``integrate_vector`` and
    one per component.

    Either whole-mixture pass evaluates every component at 21 nodes of every
    panel between points, and each of those evaluations costs about as much
    as one scalar quad of a single component: 40-55 us each for 64 to 4,096
    uniform components on a 2-core VM, where the two paths then break even at
    about size / 21 panels. Components that each add a kink of their own
    therefore keep one quad each; without kinks the whole-mixture pass wins
    from a few dozen components on, and below that both take about a
    millisecond. These costs were measured on the vector pass; the scalar
    pass evaluates more cheaply, so for the survival integrals the rule errs
    towards one quad per component.
    """
    panels = 1 + sum(1 for p in points if lo < p < hi)
    return _VECTOR_EVALS_PER_PANEL * panels < size
