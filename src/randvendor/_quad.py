"""Adaptive quadrature wrapper shared by the distribution kernels."""

from scipy import integrate as _integrate

from .errors import NumericalIntegrityError

_EPSABS = 1e-12
_EPSREL = 1e-10
_LIMIT = 300
_MAX_POINTS = 40

# quad's error estimate may not exceed this, relative to max(1, |value|)
_MAX_ERROR = 1e-8

# Infinite supports are cut at quantile(1 - TAIL_PROB); callers add an exact
# tail term where one is available.
TAIL_PROB = 1e-10


def integrate(fn, lo: float, hi: float, points=()) -> float:
    """Integrate ``fn`` over [lo, hi], splitting panels at interior points.

    Raises NumericalIntegrityError when quad's own error estimate is too
    large to trust the value.
    """
    if hi <= lo:
        return 0.0
    pts = sorted({float(p) for p in points if lo < p < hi})
    if len(pts) > _MAX_POINTS:
        step = len(pts) / _MAX_POINTS
        pts = [pts[int(i * step)] for i in range(_MAX_POINTS)]
    value, err = _integrate.quad(
        fn, lo, hi, points=pts or None, limit=_LIMIT, epsabs=_EPSABS, epsrel=_EPSREL
    )
    if not err <= _MAX_ERROR * max(1.0, abs(value)):
        raise NumericalIntegrityError(
            f"quadrature over [{lo!r}, {hi!r}] has error estimate {err:.3g} on value {value!r}"
        )
    return value
