"""Univariate distribution kernels on the non-negative half-line.

Each family defines the CDF ``F`` and the partial moments
``M1(q) = int_0^q t f(t) dt`` and ``M2(q) = int_0^q t^2 f(t) dt`` in closed
form, at a point by ``math`` and, for the parametric families, over arrays
by their ``_*_block`` kernels, which agree with it bit for bit (see
``_math_map``). ``Distribution`` derives the rest once, by parts: the
integrated CDF ``q F - M1``, its first-moment weighting
``int_0^q t F = (q^2 F - M2) / 2`` and the upper partial expectation
``mean - M1``. Adaptive quadrature (the package's own Gauss-Kronrod rule,
``_quad``) is used only for ``survival_integral`` and
``weighted_survival_integral``, the independent forms the newsvendor profit
and variance are cross-checked against, and for the expected maximum of the
pairs that have no closed form. ``_route`` is the one table of the expected
maximum's routes, for one pair and for a search's candidates over arrays.

A mixture is a sum of parts (``Mixture._parts``): one stack (``_Stack``)
per parametric family and truncated-normal tail form, held as parameter
arrays and evaluated by one array call per kernel, and one part of every
other component. A kernel at a point is the weighted sum over all parts,
rounded correctly as ``math.fsum`` rounds it over the components
(``_exact_sum``); quadrature over a stack takes its weighted sum by numpy at
each node, and a mixture's quantile is a bisection decided on numpy sums
whose rounding is bounded. A compound built from its grid of parameters
makes its stacks from the arrays, and component objects only for the paths
that walk them.

Every draw goes through one uniform map per distribution, in place,
``_inverse_cdf(v, p)``, which ``from_uniform`` and a Monte-Carlo column's
``_draw_block`` apply; a mixture's finds each draw's component by one
binary search over its cumulative weights, and each stack maps its draws by
one family call over their parameter rows (``_Rows``). A mixture column's
per-batch ``_column_sampler`` draws by the batch's component counts (see
``simulate``).

Instances are immutable after construction and safe to share across
threads. Sampling derives a counter-based generator from an explicit seed
and never touches global state.
"""

from __future__ import annotations

import bisect
import csv
import functools
import itertools
import json
import math
import operator
import os

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from ._quad import (
    _MAX_POINTS,
    TAIL_PROB,
    integrate,
    integrate_many,
    scalar_pays,
)
from .errors import NumericalIntegrityError

_EPS = math.ulp(1.0)
_ROOT_2PI = math.sqrt(2.0 * math.pi)
_LOG_ROOT_2PI = 0.5 * math.log(2.0 * math.pi)
# A uniform narrower than this share of its upper end is left out of the
# closed-form expected maximum, whose H(b) - H(a) cancels like eps * b / (b - a)
_MIN_UNIFORM_WIDTH = 1e-3


# The array layer: ``_cdf_block(x, p, fast)``, ``_pdf_block(x, p, fast)``,
# ``_m1_block(q, p, fast)`` and ``_m2_block(q, p)`` of each parametric family.
# ``p`` is an instance, or holds the parameters and derived constants as
# arrays under the instance's attribute names (a stack, or its gathered rows);
# the point is a float or an array that broadcasts against them. Each runs its
# scalar kernel's own IEEE operations: ``math`` on a float and element by
# element over an array (``_exp``, ``_expm1``, ``_log``), scipy's ufuncs as
# they are, and guards by ``_where``; so each value equals the scalar
# kernel's bit for bit. ``fast``, which only quadrature integrands pass, takes
# numpy's transcendentals over arrays, which may differ in the last bit (M1,
# where it cancels, in the last bit of its component's mean). The scalar
# kernels stay plain ``math``: on a float, the lognormal F and f here took
# about 0.9 and 1.0 us, against 0.4-0.6 and 0.35 us (2-core VM).


def _math_map(fn, x: np.ndarray) -> np.ndarray:
    # element-wise through math: numpy's vectorized exp and expm1 round some
    # inputs differently, and M1, M2 can magnify that by cancellation
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _elementwise(fn, ufunc):
    """``fn`` of ``math`` on a float, and over an array element by element
    (``_math_map``) or, when ``fast``, by numpy's ``ufunc``."""

    def apply(x, fast=False):
        if isinstance(x, np.ndarray):
            # fast: one math call per element would cost most of a quadrature
            # integrand's time over a block of nodes, and the last bit of a
            # node's value does not matter
            return ufunc(x) if fast else _math_map(fn, x)
        return fn(x)

    return apply


_exp = _elementwise(math.exp, np.exp)
_expm1 = _elementwise(math.expm1, np.expm1)
_log = _elementwise(math.log, np.log)


def _where(cond, a, b):
    """``np.where(cond, a, b)``, or ``a if cond else b`` for one truth value:
    a guard at a float point costs no array call."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _norm_pdf(z, fast=False):
    return _exp(-0.5 * z * z, fast) / _ROOT_2PI


# ``from_uniform`` maps at most this many draws at a time, so that the
# temporaries of a sampler that gathers per draw (an index, gathered
# parameters) stay small however many draws one call maps; the Monte-Carlo
# pass (``simulate._column_blocks``) reads its streams in blocks of as many
# observations, whose buffers fit in a core's L2 cache
_SAMPLE_BLOCK = 32_768


def _finite(name: str, value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


class Distribution:
    """A univariate distribution supported on a subset of [0, inf)."""

    has_density = True
    # F, M1 and M2 keep their precision relative to their own size, so the
    # closed-form expected maximum against a uniform may be built from them
    _closed_form_max = True

    # -- family hooks -------------------------------------------------------

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def pdf(self, x: float) -> float:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def _quantile(self, u: float) -> float:
        raise NotImplementedError

    def _partial_expectation(self, q: float) -> float:
        """M1(q) = int_0^q t f(t) dt, for q >= 0."""
        raise NotImplementedError

    def _second_partial_moment(self, q: float) -> float:
        """M2(q) = int_0^q t^2 f(t) dt, for q >= 0."""
        raise NotImplementedError

    @staticmethod
    def _inverse_cdf(v: np.ndarray, p) -> np.ndarray:
        """Overwrite the uniform draws ``v`` with draws of the distribution
        ``p`` and return them: its inverse CDF, or a mixture's stratified
        composition. ``p`` is an instance or, for a parametric family, holds
        its parameters as arrays aligned with ``v`` (a stack's ``_Rows``). It
        is the one uniform map of each distribution: ``from_uniform`` and
        ``_draw_block`` apply it, and a Monte-Carlo column's
        ``_column_sampler`` calls ``_draw_block``."""
        raise NotImplementedError

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Map uniform(0,1) draws to draws from this distribution: a scalar
        for a scalar ``u``, else an array shaped like it; ``u`` is left as it
        was. The draws are a copy of ``u`` mapped in place by
        ``_inverse_cdf`` in blocks of at most ``_SAMPLE_BLOCK``, which is
        element-wise, so the draws do not depend on the blocks.
        """
        out = np.array(u, dtype=float, order="C")
        flat = out.reshape(-1)
        for start in range(0, flat.size, _SAMPLE_BLOCK):
            self._inverse_cdf(flat[start : start + _SAMPLE_BLOCK], self)
        return out[()]

    @classmethod
    def _draw_block(cls, rng, p, out, flipped=None) -> None:
        """Fill ``out`` with the next draws of a Monte-Carlo column read from
        ``rng``, and ``flipped``, when given, with their antithetic partners:
        uniforms u and 1 - u through ``_inverse_cdf`` with ``p``. One draw
        reads one double, so a column read in blocks reads the same draws."""
        rng.random(out=out)
        halves = (out,) if flipped is None else (out, np.subtract(1.0, out, out=flipped))
        for half in halves:
            cls._inverse_cdf(half, p)

    def _column_sampler(self, rng: np.random.Generator, m: int):
        """The sampler of one batch of a Monte-Carlo column, m draws read
        from ``rng``, made once per batch before its first draw: a callable
        ``draw(out, flipped=None)`` that fills ``out`` with the batch's next
        ``out.size`` draws. Here it is ``_draw_block`` on ``rng``, which
        keeps no state between blocks."""
        return functools.partial(self._draw_block, rng, self)

    def to_dict(self) -> dict:
        raise NotImplementedError

    def atoms(self):
        """(values, weights) arrays when the distribution is purely atomic, else None."""
        return None

    def breakpoints(self) -> tuple[float, ...]:
        """Points where the CDF or density has a kink; quadrature splits here."""
        lo, hi = self.support()
        return tuple(p for p in (lo, hi) if math.isfinite(p))

    # -- derived operations -------------------------------------------------

    def quantile(self, u: float) -> float:
        """Smallest x with cdf(x) >= u, for 0 < u < 1."""
        if not 0.0 < u < 1.0:
            raise ValueError(f"quantile requires 0 < u < 1, got {u}")
        return self._quantile(float(u))

    def partial_expectation(self, q: float) -> float:
        """int_0^q t f(t) dt, the demand mass realized below q."""
        q = self._check_cutoff(q)
        return self._partial_expectation(q)

    def integrated_cdf(self, q: float) -> float:
        """int_0^q F(t) dt = q F(q) - M1(q)."""
        q = self._check_cutoff(q)
        return q * self.cdf(q) - self._partial_expectation(q)

    def weighted_integrated_cdf(self, q: float) -> float:
        """int_0^q t F(t) dt = (q^2 F(q) - M2(q)) / 2."""
        q = self._check_cutoff(q)
        return 0.5 * (q * q * self.cdf(q) - self._second_partial_moment(q))

    def upper_partial_expectation(self, q: float) -> float:
        """int_q^inf t f(t) dt = mean - partial_expectation(q)."""
        q = self._check_cutoff(q)
        return max(0.0, self.mean() - self._partial_expectation(q))

    def survival_integral(self, q: float) -> float:
        """int_0^q P(X > t) dt by quadrature of the survival function; kept
        independent of the closed forms so that it can cross-check them."""
        q = self._check_cutoff(q)
        return self._survival_integral(q)

    def weighted_survival_integral(self, q: float) -> float:
        """int_0^q t P(X > t) dt, by quadrature like survival_integral; it
        complements weighted_integrated_cdf to q^2 / 2 and cross-checks M2."""
        q = self._check_cutoff(q)
        return self._survival_integral(q, weighted=True)

    def _survival_integral(self, q: float, weighted: bool = False) -> float:
        cdf = self.cdf
        if weighted:
            return integrate(lambda t: t * (1.0 - cdf(t)), 0.0, q, self.breakpoints())
        return integrate(lambda t: 1.0 - cdf(t), 0.0, q, self.breakpoints())

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n deterministic draws for the given seed (counter-based generator)."""
        if n < 1:
            raise ValueError(f"sample requires n >= 1, got {n}")
        rng = _generator(seed)
        return self.from_uniform(rng.random(int(n)))

    def upper_cut(self) -> float:
        """Finite stand-in for the upper support bound used by quadrature."""
        hi = self.support()[1]
        if math.isfinite(hi):
            return hi
        cached = getattr(self, "_cut_cache", None)
        if cached is None:
            cached = self._quantile(1.0 - TAIL_PROB)
            object.__setattr__(self, "_cut_cache", cached)
        return cached

    def _order_key(self) -> str:
        """The record as canonical JSON, cached; expected_max orders its
        arguments by it (``_sorts_before``)."""
        key = getattr(self, "_key_cache", None)
        if key is None:
            key = json.dumps(self.to_dict(), sort_keys=True)
            object.__setattr__(self, "_key_cache", key)
        return key

    @staticmethod
    def _check_cutoff(q) -> float:
        q = float(q)
        if not q >= 0.0:
            raise ValueError(f"integration cutoff must be >= 0, got {q}")
        return q

    # -- plumbing ------------------------------------------------------------

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.to_dict().items() if k != "family")
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        return isinstance(other, Distribution) and self.to_dict() == other.to_dict()

    __hash__ = None


class Uniform(Distribution):
    def __init__(self, lo: float, hi: float):
        lo = _finite("uniform lo", lo)
        hi = _finite("uniform hi", hi)
        if not 0.0 <= lo < hi:
            raise ValueError(f"uniform requires 0 <= lo < hi, got lo={lo}, hi={hi}")
        self.lo = lo
        self.hi = hi
        self._width = hi - lo
        self._closed_form_max = _UniformStack.closed_form(lo, hi)

    def support(self):
        return (self.lo, self.hi)

    def cdf(self, x):
        if x <= self.lo:
            return 0.0
        if x >= self.hi:
            return 1.0
        return (x - self.lo) / self._width

    def pdf(self, x):
        return 1.0 / self._width if self.lo <= x <= self.hi else 0.0

    def mean(self):
        return 0.5 * (self.lo + self.hi)

    def _quantile(self, u):
        return self.lo + u * self._width

    @staticmethod
    def _inverse_cdf(v, p):
        v *= p._width
        v += p.lo
        return v

    def _partial_expectation(self, q):
        if q <= self.lo:
            return 0.0
        q = min(q, self.hi)
        return (q * q - self.lo * self.lo) / (2.0 * self._width)

    def _second_partial_moment(self, q):
        if q <= self.lo:
            return 0.0
        q, lo = min(q, self.hi), self.lo
        # factored so that a narrow interval does not cancel
        return (q - lo) * (q * q + q * lo + lo * lo) / (3.0 * self._width)

    # the array layer (see _math_map)

    @staticmethod
    def _cdf_block(x, p, fast=False):
        return _where(x <= p.lo, 0.0, _where(x >= p.hi, 1.0, (x - p.lo) / p._width))

    @staticmethod
    def _pdf_block(x, p, fast=False):
        return _where((p.lo <= x) & (x <= p.hi), 1.0 / p._width, 0.0)

    @staticmethod
    def _m1_block(q, p, fast=False):
        top = np.minimum(q, p.hi)
        return _where(q <= p.lo, 0.0, (top * top - p.lo * p.lo) / (2.0 * p._width))

    @staticmethod
    def _m2_block(q, p):
        top, lo = np.minimum(q, p.hi), p.lo
        moment = (top - lo) * (top * top + top * lo + lo * lo) / (3.0 * p._width)
        return _where(q <= lo, 0.0, moment)

    def to_dict(self):
        return {"family": "uniform", "lo": self.lo, "hi": self.hi}


# Below this rate * cutoff x the closed-form exponential M1 and M2 cancel:
# they subtract terms of size x and x^2 for results of size x^2 and x^3. The
# lower incomplete gamma series, M1 = q x e^-x sum_n x^n / (n + 2)! and
# M2 = q^2 x e^-x sum_n 2 x^n / (n + 3)!, has positive terms; 18 of them are
# exact to rounding for x < 1, where the closed form is within 1.1e-15.
_EXP_SERIES_MAX = 1.0
# coefficients from the highest power down, for Horner's rule
_EXP_M1_SERIES = tuple(1.0 / math.factorial(n + 2) for n in reversed(range(18)))
_EXP_M2_SERIES = tuple(2.0 / math.factorial(n + 3) for n in reversed(range(18)))


def _horner(coeffs, x):
    """sum_n coeffs[-1 - n] x^n, by the same IEEE operations for a float x
    and element-wise for an array."""
    total = 0.0
    for c in coeffs:
        total = total * x + c
    return total


class Exponential(Distribution):
    def __init__(self, rate: float):
        rate = _finite("exponential rate", rate)
        if rate <= 0.0:
            raise ValueError(f"exponential requires rate > 0, got {rate}")
        self.rate = rate

    def support(self):
        return (0.0, math.inf)

    def cdf(self, x):
        return -math.expm1(-self.rate * x) if x > 0.0 else 0.0

    def pdf(self, x):
        return self.rate * math.exp(-self.rate * x) if x >= 0.0 else 0.0

    def mean(self):
        return 1.0 / self.rate

    def _quantile(self, u):
        return -math.log1p(-u) / self.rate

    @staticmethod
    def _inverse_cdf(v, p):
        np.negative(v, out=v)
        np.log1p(v, out=v)
        np.negative(v, out=v)
        v /= p.rate
        return v

    def _partial_expectation(self, q):
        lam = self.rate
        x = lam * q
        if x < _EXP_SERIES_MAX:
            return q * x * math.exp(-x) * _horner(_EXP_M1_SERIES, x)
        return -math.expm1(-x) / lam - q * math.exp(-x)

    def _second_partial_moment(self, q):
        x = self.rate * q
        if x < _EXP_SERIES_MAX:
            return q * q * x * math.exp(-x) * _horner(_EXP_M2_SERIES, x)
        # by parts: M2 = 2 M1 / rate - q^2 exp(-rate q)
        return 2.0 * self._partial_expectation(q) / self.rate - q * q * math.exp(-x)

    # the array layer (see _math_map)

    @staticmethod
    def _cdf_block(x, p, fast=False):
        # guarded at the points, not over the (points x components) values:
        # at a point taken to 0, -expm1(-rate * 0) is 0
        return -_expm1(-p.rate * _where(x > 0.0, x, 0.0), fast)

    @staticmethod
    def _pdf_block(x, p, fast=False):
        # below the support the point is taken to inf, where rate exp(-inf) is 0
        return p.rate * _exp(-p.rate * _where(x >= 0.0, x, math.inf), fast)

    @staticmethod
    def _m1_block(q, p, fast=False):
        x = p.rate * q
        closed = -_expm1(-x, fast) / p.rate - q * _exp(-x, fast)
        return Exponential._series_block(x, closed, _EXP_M1_SERIES, q, fast)

    @staticmethod
    def _m2_block(q, p):
        x = p.rate * q
        closed = 2.0 * Exponential._m1_block(q, p) / p.rate - q * q * _exp(-x)
        return Exponential._series_block(x, closed, _EXP_M2_SERIES, q * q)

    @staticmethod
    def _series_block(x, closed, coeffs, scale, fast=False):
        """The small-x series of the scalar kernels where x = rate * q is
        below ``_EXP_SERIES_MAX``, else ``closed``."""
        small = x < _EXP_SERIES_MAX
        if not np.any(small):
            return closed
        x = _where(small, x, 0.0)
        series = scale * x * _exp(-x, fast) * _horner(coeffs, x)
        return _where(small, series, closed)

    def to_dict(self):
        return {"family": "exponential", "rate": self.rate}


class LogNormal(Distribution):
    def __init__(self, log_mean: float, log_sd: float):
        self.log_mean = _finite("lognormal log_mean", log_mean)
        self.log_sd = _finite("lognormal log_sd", log_sd)
        if self.log_sd <= 0.0:
            raise ValueError(f"lognormal requires log_sd > 0, got {log_sd}")

    def support(self):
        return (0.0, math.inf)

    def cdf(self, x):
        if x <= 0.0:
            return 0.0
        return float(ndtr((math.log(x) - self.log_mean) / self.log_sd))

    def pdf(self, x):
        # x * log_sd is not positive below the support, and underflows to 0
        # at a subnormal x, where the density is taken as 0 (``_pdf_block``)
        scale = x * self.log_sd
        if scale <= 0.0:
            return 0.0
        z = (math.log(x) - self.log_mean) / self.log_sd
        # _norm_pdf(z), inlined: quadrature calls this per node
        return math.exp(-0.5 * z * z) / _ROOT_2PI / scale

    def mean(self):
        return self._mean

    # constants shared with a stack, under its names; taken on first use, so
    # that a member whose moments overflow is still built

    @functools.cached_property
    def log_var(self):
        # by pow, which rounds differently from log_sd * log_sd about once in
        # a thousand
        return self.log_sd**2

    @functools.cached_property
    def _mean(self):
        return math.exp(self.log_mean + 0.5 * self.log_var)

    @functools.cached_property
    def m2_scale(self):
        return math.exp(2.0 * (self.log_mean + self.log_var))

    def _quantile(self, u):
        return math.exp(self.log_mean + self.log_sd * float(ndtri(u)))

    @staticmethod
    def _inverse_cdf(v, p):
        ndtri(v, out=v)
        return LogNormal._from_normal(v, p)

    @staticmethod
    def _from_normal(z, p):
        """exp(log_mean + log_sd z) of standard normal draws z, in place."""
        z *= p.log_sd
        z += p.log_mean
        return np.exp(z, out=z)

    @staticmethod
    def _draw_block(rng, p, out, flipped=None):
        # standard normals z by the ziggurat, and -z as their partners, with
        # no inverse CDF; the ziggurat reads whole draws from the stream, so
        # a column read in blocks still reads the same draws
        rng.standard_normal(out=out)
        halves = (out,) if flipped is None else (out, np.negative(out, out=flipped))
        for half in halves:
            LogNormal._from_normal(half, p)

    def _partial_expectation(self, q):
        if q <= 0.0:
            return 0.0
        z = (math.log(q) - self.log_mean - self.log_var) / self.log_sd
        return self._mean * float(ndtr(z))

    def _second_partial_moment(self, q):
        if q <= 0.0:
            return 0.0
        z = (math.log(q) - self.log_mean - 2.0 * self.log_var) / self.log_sd
        return self.m2_scale * float(ndtr(z))

    # the array layer (see _math_map)

    @staticmethod
    def _cdf_block(x, p, fast=False):
        # guarded at the points, not over the (points x components) values:
        # below the support the log is -inf, and ndtr(-inf) is 0
        inside = x > 0.0
        logs = _where(inside, _log(_where(inside, x, 1.0), fast), -math.inf)
        return ndtr((logs - p.log_mean) / p.log_sd)

    @staticmethod
    def _pdf_block(x, p, fast=False):
        # below the support the point is taken to inf, where the density is
        # 0; where x * log_sd underflows to 0, at a subnormal x, it is taken
        # as 0 too, as the scalar kernel takes it, by a division by inf
        x = _where(x > 0.0, x, math.inf)
        z = (_log(x, fast) - p.log_mean) / p.log_sd
        scale = x * p.log_sd
        return _norm_pdf(z, fast) / _where(scale > 0.0, scale, math.inf)

    @staticmethod
    def _m1_block(q, p, fast=False):
        inside = q > 0.0
        logs = _log(_where(inside, q, 1.0), fast)
        return _where(inside, p._mean * ndtr((logs - p.log_mean - p.log_var) / p.log_sd), 0.0)

    @staticmethod
    def _m2_block(q, p):
        inside = q > 0.0
        logs = _log(_where(inside, q, 1.0))
        z = (logs - p.log_mean - 2.0 * p.log_var) / p.log_sd
        return _where(inside, p.m2_scale * ndtr(z), 0.0)

    def to_dict(self):
        return {"family": "lognormal", "log_mean": self.log_mean, "log_sd": self.log_sd}


class TruncatedNormal(Distribution):
    """Normal(mean, sd) conditioned on the non-negative half-line."""

    # M1 and M2 are differences of terms of size ~ mean^2 + sd^2, so they lose
    # relative precision at cutoffs well below the bulk
    _closed_form_max = False

    def __init__(self, mean: float, sd: float):
        self.norm_mean = _finite("truncated_normal mean", mean)
        self.norm_sd = _finite("truncated_normal sd", sd)
        if self.norm_sd <= 0.0:
            raise ValueError(f"truncated_normal requires sd > 0, got {sd}")
        self._alpha = -self.norm_mean / self.norm_sd
        self._f0 = float(ndtr(self._alpha))
        self._z = float(ndtr(-self._alpha))
        if self._z <= 0.0:
            raise ValueError("truncated_normal has no mass on [0, inf) at this mean/sd")
        # a negative mean: masses and quantiles are taken between upper tails
        self._upper_tail = self._alpha > 0.0
        # a stack derives it under the same name
        self._pdf_alpha = _norm_pdf(self._alpha)

    def support(self):
        return (0.0, math.inf)

    def _mass(self, beta: float) -> float:
        """Phi(beta) - Phi(alpha), the parent mass on [0, mean + sd * beta].

        Taken between upper tails when the mean is negative, so it keeps its
        precision when almost no parent mass lies above zero.
        """
        if self._upper_tail:
            return self._z - float(ndtr(-beta))
        return float(ndtr(beta)) - self._f0

    def cdf(self, x):
        if x <= 0.0:
            return 0.0
        mass = self._mass((x - self.norm_mean) / self.norm_sd)
        return min(1.0, max(0.0, mass / self._z))

    def pdf(self, x):
        if x < 0.0:
            return 0.0
        z = (x - self.norm_mean) / self.norm_sd
        # _norm_pdf(z), inlined: quadrature calls this per node
        return math.exp(-0.5 * z * z) / _ROOT_2PI / (self.norm_sd * self._z)

    def mean(self):
        return _truncnorm_mean(self.norm_mean, self.norm_sd)

    def _quantile(self, u):
        # _inverse_cdf for one draw, without the cost of numpy on a scalar
        if self._upper_tail:
            return self.norm_mean - self.norm_sd * float(ndtri((1.0 - u) * self._z))
        return self.norm_mean + self.norm_sd * float(ndtri(self._f0 + u * self._z))

    @staticmethod
    def _inverse_cdf(v, p):
        if p._upper_tail:
            # mean - sd * ndtri((1 - u) Z): for a negative mean, where Phi(alpha) ~ 1
            np.subtract(1.0, v, out=v)
            v *= p._z
            ndtri(v, out=v)
            v *= p.norm_sd
            return np.subtract(p.norm_mean, v, out=v)
        # mean + sd * ndtri(Phi(alpha) + u Z)
        v *= p._z
        v += p._f0
        ndtri(v, out=v)
        v *= p.norm_sd
        v += p.norm_mean
        return v

    def _partial_expectation(self, q):
        if q <= 0.0:
            return 0.0
        m, s = self.norm_mean, self.norm_sd
        beta = (q - m) / s
        mass = self._mass(beta)
        return (m * mass + s * (self._pdf_alpha - _norm_pdf(beta))) / self._z

    def _second_partial_moment(self, q):
        if q <= 0.0:
            return 0.0
        m, s = self.norm_mean, self.norm_sd
        beta = (q - m) / s
        mass = self._mass(beta)
        tails = m * self._pdf_alpha - (m + q) * _norm_pdf(beta)
        return ((m * m + s * s) * mass + s * tails) / self._z

    # the array layer (see _math_map)

    @staticmethod
    def _mass_block(beta, p):
        if p._upper_tail:
            return p._z - ndtr(-beta)
        return ndtr(beta) - p._f0

    @staticmethod
    def _cdf_block(x, p, fast=False):
        # guarded at the points, not over the (points x components) values:
        # at a point taken to -inf the mass is -Phi(alpha) (or Z - 1), not
        # positive, so the clamp below makes it 0
        x = _where(x <= 0.0, -math.inf, x)
        ratio = TruncatedNormal._mass_block((x - p.norm_mean) / p.norm_sd, p) / p._z
        # min(1.0, max(0.0, ratio)), as Python takes them: np.maximum(a, b) is
        # np.where(a >= b, a, b) where neither is nan
        return np.minimum(1.0, np.maximum(0.0, ratio))

    @staticmethod
    def _pdf_block(x, p, fast=False):
        # below the support the point is taken to -inf, where the density is 0
        z = (_where(x < 0.0, -math.inf, x) - p.norm_mean) / p.norm_sd
        return _norm_pdf(z, fast) / (p.norm_sd * p._z)

    @staticmethod
    def _m1_block(q, p, fast=False):
        m, s = p.norm_mean, p.norm_sd
        beta = (q - m) / s
        mass = TruncatedNormal._mass_block(beta, p)
        moment = (m * mass + s * (p._pdf_alpha - _norm_pdf(beta, fast))) / p._z
        return _where(q <= 0.0, 0.0, moment)

    @staticmethod
    def _m2_block(q, p):
        m, s = p.norm_mean, p.norm_sd
        beta = (q - m) / s
        mass = TruncatedNormal._mass_block(beta, p)
        tails = m * p._pdf_alpha - (m + q) * _norm_pdf(beta)
        return _where(q <= 0.0, 0.0, ((m * m + s * s) * mass + s * tails) / p._z)

    def to_dict(self):
        return {"family": "truncated_normal", "mean": self.norm_mean, "sd": self.norm_sd}


def _truncnorm_mean(location, sd):
    """Mean of Normal(location, sd) conditioned on [0, inf), for floats or
    element-wise over arrays alike."""
    z = location / sd
    log_tail = log_ndtr(z)
    if not isinstance(log_tail, np.ndarray):
        # a Python float, so that an infinite z makes nan without a warning
        log_tail = float(log_tail)
    # the inverse Mills ratio in log space; where z is far below zero the two
    # terms of the exponent cancel, and the result may overflow
    return location + sd * _exp(-0.5 * z * z - _LOG_ROOT_2PI - log_tail)


class Empirical(Distribution):
    """Step-function distribution over an observed sample.

    The CDF is right-continuous; the quantile is the left-continuous
    generalized inverse (smallest sample value with cdf >= u).
    """

    has_density = False

    def __init__(self, values):
        arr = np.sort(np.asarray(list(values), dtype=float))
        if arr.size == 0:
            raise ValueError("empirical requires a non-empty sample")
        if not np.all(np.isfinite(arr)) or arr[0] < 0.0:
            raise ValueError("empirical sample values must be finite and >= 0")
        self.values = arr
        self._n = arr.size

    def support(self):
        return (float(self.values[0]), float(self.values[-1]))

    def cdf(self, x):
        return float(np.searchsorted(self.values, x, side="right")) / self._n

    def pdf(self, x):
        raise ValueError("empirical distribution has no density")

    def mean(self):
        return float(np.mean(self.values))

    def _quantile(self, u):
        idx = int(math.ceil(self._n * u - 1e-9)) - 1
        return float(self.values[min(max(idx, 0), self._n - 1)])

    @staticmethod
    def _inverse_cdf(v, p):
        idx = np.ceil(v * p._n - 1e-9).astype(int) - 1
        return np.take(p.values, idx, out=v, mode="clip")

    def atoms(self):
        return self.values, np.full(self._n, 1.0 / self._n)

    def breakpoints(self):
        return tuple(np.unique(self.values))

    def _partial_expectation(self, q):
        return float(self.values[self.values <= q].sum()) / self._n

    def _second_partial_moment(self, q):
        below = self.values[self.values <= q]
        return float((below * below).sum()) / self._n

    def _survival_integral(self, q, weighted=False):
        # exact segment walk over the step function
        def length(a, b):
            return 0.5 * (b - a) * (b + a) if weighted else b - a

        total = 0.0
        prev = 0.0
        for i, v in enumerate(self.values):
            if v >= q:
                break
            total += length(prev, v) * (1.0 - i / self._n)
            prev = v
        else:
            i = self._n
        total += length(prev, q) * (1.0 - i / self._n)
        return total

    def to_dict(self):
        return {"family": "empirical", "values": [float(v) for v in self.values]}


def _summed(kernel: str):
    """A ``Mixture`` kernel: the exact sum of its ``_products``."""
    return lambda self, *args: _exact_sum(self._products(kernel, *args))


def _each(method: str):
    """A ``_Members`` kernel: each member's own ``method``, as an array."""
    return lambda self, *args: np.array([getattr(d, method)(*args) for d in self.dists], float)


class Mixture(Distribution):
    """Finite mixture; weights must be positive and sum to 1 within 1e-12.

    Its components are split into parts (``_parts_of``): one ``_Stack`` per
    parametric family and truncated-normal tail form, and one ``_Members``
    of every other component (an empirical one, an upper truncation, a
    nested mixture). Each kernel is the correctly rounded sum of the
    weighted values of all parts (``_exact_sum``), as ``math.fsum`` over the
    components. A compound is built from its parameter grid (``_of_grid``),
    and ``components`` creates its component objects on first use.
    """

    def __init__(self, components):
        comps = [(float(w), d) for w, d in components]
        if not comps:
            raise ValueError("mixture requires at least one component")
        for w, d in comps:
            if not (math.isfinite(w) and w > 0.0):
                raise ValueError(f"mixture weights must be positive, got {w}")
            if not isinstance(d, Distribution):
                raise ValueError("mixture components must be distributions")
        total = math.fsum(w for w, _ in comps)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1 within 1e-12, got {total}")
        self._init(np.array([w for w, _ in comps]), tuple(comps), None)

    @classmethod
    def _of_grid(cls, family: type, params: dict[str, np.ndarray]) -> Mixture:
        """The equal-weight mixture of ``family`` over parameter arrays keyed
        as in its record, every entry of which is valid (``valid_parameters``)."""
        size = next(iter(params.values())).size
        mix = cls.__new__(cls)
        mix._init(np.full(size, 1.0 / size), None, (family, params))
        return mix

    def _init(self, weights, components, grid):
        self._weights = weights
        self._components = components
        # (family, parameter arrays) of a mixture built from its grid
        self._grid = grid
        # (u, quantile(u)) of the last call: a command asks for q* repeatedly
        self._last_quantile = None
        # (q, {part: (survival integral, weighted one)}) of the stacks' last
        # passes: the two cross-checks at q* read the same nodes
        self._last_survival = None

    @property
    def components(self) -> tuple:
        """(weight, distribution) pairs; a mixture built from its grid creates
        them on first use."""
        if self._components is None:
            family, params = self._grid
            columns = [params[name].tolist() for name in _STACKS[family].params]
            weights = self._weights.tolist()
            self._components = tuple(
                (w, family(*args)) for w, args in zip(weights, zip(*columns))
            )
        return self._components

    @functools.cached_property
    def _parts(self) -> tuple:
        if self._grid is None:
            return _parts_of(self._weights, [d for _, d in self._components])
        family, params = self._grid
        return tuple(_stacks(family, params, self._weights, np.arange(self._weights.size)))

    @functools.cached_property
    def _stretches(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stretches of consecutive components of one part, in component
        order: the component each begins at (and, last, the number of
        components), its part, and the shift from a component of it to its
        row in that part. A mixture of one part is one stretch."""
        firsts = []
        for k, part in enumerate(self._parts):
            # a part's index increases: a stretch begins where it skips
            index = part.index
            rows = [0, *(np.flatnonzero(index[1:] - index[:-1] != 1) + 1).tolist()]
            firsts += [(int(index[row]), k, row - int(index[row])) for row in rows]
        begins, parts, shifts = np.array(sorted(firsts)).T
        return np.append(begins, self._weights.size), parts, shifts

    def _products(self, kernel: str, *args) -> np.ndarray:
        """Each component's weight times its value of the kernel, by part."""
        return np.concatenate([part.weights * getattr(part, kernel)(*args) for part in self._parts])

    @functools.cached_property
    def _pieces(self) -> list:
        """The stacks, and every other component alone: the walks a stack
        shares with a distribution fold over them."""
        groups = (part.dists if isinstance(part, _Members) else [part] for part in self._parts)
        return [piece for group in groups for piece in group]

    @functools.cached_property
    def _closed_form_max(self):
        return all(piece._closed_form_max for piece in self._pieces)

    @functools.cached_property
    def has_density(self):
        return all(piece.has_density for piece in self._pieces)

    @functools.cached_property
    def _support(self):
        ends = [piece.support() for piece in self._pieces]
        return (min(lo for lo, _ in ends), max(hi for _, hi in ends))

    def support(self):
        return self._support

    cdf, pdf = _summed("cdf"), _summed("pdf")
    _partial_expectation = _summed("_partial_expectation")
    _second_partial_moment = _summed("_second_partial_moment")

    @functools.cached_property
    def _mean(self):
        return _exact_sum(self._products("means"))

    def mean(self):
        return self._mean

    def cdf_reaches(self, x: float, u: float) -> tuple[bool, float]:
        """Whether ``cdf(x) >= u``, bit for bit, and numpy's sum s of the n
        weighted component CDF values, which steers the quantile's regula
        falsi (``_narrowed``). In any order, s is within n * eps * s of the
        exact sum of these products, none negative. So the exact sum exceeds
        u when s less that bound does, and rounds below u when s plus it is
        below u's float predecessor; only the points in between, next to the
        quantile, take ``_exact_sum``."""
        products = self._products("cdf", x)
        total = float(products.sum())
        bound = products.size * _EPS * total
        if total - bound > u:
            return True, total
        if total + bound < math.nextafter(u, -math.inf):
            return False, total
        return _exact_sum(products) >= u, total

    def _quantile(self, u):
        last = self._last_quantile
        if last is not None and last[0] == u:
            return last[1]
        q = self._bisect_quantile(u)
        self._last_quantile = (u, q)
        return q

    def _bisect_quantile(self, u):
        """The generalized inverse of the CDF at u, by bisection of the span
        of the component quantiles (each part's ``quantile_range``); it
        handles flat segments and jumps. Each step is decided by whether the
        CDF reaches u (``cdf_reaches``). Illinois regula falsi first narrows
        the span, steered by the CDF's values (``_narrowed``); the bisection
        then runs its steps unchanged, deciding a midpoint at or below the
        largest point found short of u, or at or above the smallest found to
        reach it, by those points alone. Where the decisions are monotone in
        x, it returns the bisection's bits in a few CDF passes."""
        ranges = [part.quantile_range(u) for part in self._parts]
        lo, hi = min(r[0] for r in ranges), max(r[1] for r in ranges)
        if hi <= lo:
            return lo
        short, reached = _narrowed(self.cdf_reaches, u, lo, hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid <= short:
                lo = mid
            elif mid >= reached:
                hi = mid
            elif self.cdf_reaches(mid, u)[0]:
                hi = reached = mid
            else:
                lo = short = mid
            if hi - lo <= 1e-15 * max(1.0, abs(hi)):
                break
        return hi

    @staticmethod
    def _inverse_cdf(v, p):
        # stratified composition: the uniform draw picks the component and the
        # position within it, so the map stays deterministic and vectorized
        weights, edges = p._weights, p._edges
        idx = np.searchsorted(edges, v, side="right") - 1
        np.clip(idx, 0, weights.size - 1, out=idx)
        v -= edges[idx]
        v /= weights[idx]
        np.clip(v, 0.0, np.nextafter(1.0, 0.0), out=v)
        begins, parts, shifts = p._stretches
        stretch = np.searchsorted(begins, idx, side="right") - 1
        which, row = parts[stretch], idx + shifts[stretch]
        for k, part in enumerate(p._parts):
            where = np.flatnonzero(which == k)
            if where.size:
                v[where] = part.inverse_cdf(v[where], row[where])
        return v

    @functools.cached_property
    def _edges(self):
        # cumulative weights from 0 to 1: component i owns [edges[i], edges[i + 1])
        edges = np.concatenate(([0.0], np.cumsum(self._weights)))
        edges[-1] = 1.0
        return edges

    def _column_sampler(self, rng, m):
        # composition by counts (Devroye 1986, II.4): the multinomial counts
        # of the batch's m draws come first in the stream, and the column is
        # the components' runs in component order. Every statistic of the
        # pass is a symmetric sum over the observations, and the other
        # columns are drawn i.i.d. in order (simulate._sampled_blocks), so a
        # column grouped by component gives it exactly the law of i.i.d. draws.
        # The parts' samplers are made next, a nested mixture's drawing its
        # own counts
        counts = rng.multinomial(m, self._weights)
        samplers = [part.run_sampler(rng, counts) for part in self._parts]
        return _Runs(counts, samplers, self._stretches)

    @functools.cached_property
    def _atoms(self):
        # read-only, since every caller shares the arrays; only a mixture of
        # one part can be atomic, as no stack is
        (part, *others) = self._parts
        atoms = None if others or isinstance(part, _Stack) else part.atoms()
        for array in atoms or ():
            array.setflags(write=False)
        return atoms

    def atoms(self):
        return self._atoms

    @functools.cached_property
    def _breakpoints(self):
        return tuple(sorted(set().union(*(piece.breakpoints() for piece in self._pieces))))

    def breakpoints(self):
        return self._breakpoints

    def _survival_integral(self, q, weighted=False):
        # quadrature of F, so that it checks M1 and M2 independently: a stack
        # takes one quadrature of its own survival function for both
        # integrals at q, split at its every kink, unless its components'
        # kinks make quadratures of each cheaper (scalar_pays); every other
        # component takes its own
        last = self._last_survival
        if last is None or last[0] != q:
            last = self._last_survival = (q, {})
        pairs, terms, parts = last[1], [], self._parts
        for k, part in enumerate(parts):
            pts = part.breakpoints() if isinstance(part, _Stack) else None
            if pts is not None and scalar_pays(part.size, 0.0, q, pts):
                if k not in pairs:
                    mass = 1.0 if len(parts) == 1 else math.fsum(part.weights.tolist())
                    pairs[k] = _survival_pair(part, q, pts, mass)
                terms.append(pairs[k][weighted])
            else:
                members = map(self.components.__getitem__, part.index.tolist())
                terms += [w * d._survival_integral(q, weighted) for w, d in members]
        return math.fsum(terms)

    def to_dict(self):
        return {
            "family": "mixture",
            "components": [{"weight": w, "dist": d.to_dict()} for w, d in self.components],
        }


def _parts_of(weights: np.ndarray, dists: list) -> tuple:
    """Distributions weighted by ``weights`` as parts: the members of each
    parametric family as its stacks (``_stacks``), and every other one in
    one ``_Members``. Each part holds the positions of its rows (``index``)."""
    groups: dict[type | None, list[int]] = {}
    for k, d in enumerate(dists):
        groups.setdefault(type(d) if type(d) in _STACKS else None, []).append(k)
    parts = []
    for family, index in groups.items():
        members, index = [dists[k] for k in index], np.array(index)
        if family is None:
            parts.append(_Members(members, weights[index], index))
        else:
            parts += _stacks(family, _member_params(family, members), weights[index], index)
    return tuple(parts)


def _stacks(family: type, params: dict[str, np.ndarray], weights, index) -> list:
    """Members of a parametric family, by their parameter columns keyed as
    in its record, as one stack per tail form: a truncated normal's, which a
    stack reads once for all its rows."""
    forms = [slice(None)]
    if family is TruncatedNormal:
        # TruncatedNormal._upper_tail
        upper = -params["mean"] / params["sd"] > 0.0
        forms = [rows for rows in (upper, ~upper) if rows.any()]
    return [
        _STACKS[family]({name: a[rows] for name, a in params.items()}, weights[rows], index[rows])
        for rows in forms
    ]


class _Members:
    """The components of a mixture that no stack takes, as one part, with a
    stack's interface: each kernel is each member's own value, and each
    draw its own map or sampler."""

    cdf, pdf, means = _each("cdf"), _each("pdf"), _each("mean")
    _partial_expectation = _each("_partial_expectation")
    _second_partial_moment = _each("_second_partial_moment")

    def __init__(self, dists: list, weights: np.ndarray, index: np.ndarray):
        self.dists, self.weights, self.index, self.size = dists, weights, index, len(dists)

    def quantile_range(self, u):
        quantiles = [d._quantile(u) for d in self.dists]
        return min(quantiles), max(quantiles)

    def atoms(self):
        atoms = [d.atoms() for d in self.dists]
        if any(a is None for a in atoms):
            return None
        weighted = [w * p for w, (_, p) in zip(self.weights.tolist(), atoms)]
        return np.concatenate([values for values, _ in atoms]), np.concatenate(weighted)

    def inverse_cdf(self, v, rows):
        for j, d in enumerate(self.dists):
            where = np.flatnonzero(rows == j)
            if where.size:
                v[where] = d._inverse_cdf(v[where], d)
        return v

    def run_sampler(self, rng, counts):
        # each member's own sampler, made now, in order, by its count among
        # the batch's counts of every component
        counts = counts[self.index].tolist()
        samplers = [d._column_sampler(rng, n) if n else None for d, n in zip(self.dists, counts)]

        def draw(row, runs, out, flipped):
            start = 0
            for sampler, n in zip(samplers[row:], runs.tolist()):
                if n:
                    part = slice(start, start + n)
                    sampler(out[part], None if flipped is None else flipped[part])
                    start += n

        return draw


def _survival_pair(stack, q, pts, mass=1.0):
    """int_0^q P(X > t) dt and int_0^q t P(X > t) dt over a stack, with
    P(X > t) its ``mass`` (1, or a part's own) less its weighted CDFs, split
    at every point of ``pts``: one ``integrate_many`` of two spans, each on
    its own ``_dqagse`` path, so that each has the bits of its quadrature
    alone. Each round reads every distinct node of its panels against the
    components once, in chunks of at most _SAMPLE_BLOCK products, and the
    weighted span's values are t times the plain ones."""
    weights, cdf = stack.weights, stack.cdf
    rows = max(1, _SAMPLE_BLOCK // stack.size)

    def survival(owner, t):
        nodes, at = np.unique(t, return_inverse=True)
        tails = np.empty(nodes.size)
        for start in range(0, nodes.size, rows):
            part = slice(start, start + rows)
            tails[part] = (weights * cdf(nodes[part, None], fast=True)).sum(axis=1)
        values = (mass - tails)[at.reshape(t.shape)]
        weighted = owner == 1
        values[weighted] *= t[weighted]
        return values

    plain, weighted = integrate_many(survival, [(0.0, q, pts)] * 2, every_point=True)
    return plain, weighted


def _narrowed(probe, u, lo, hi):
    """The largest point of [lo, hi] found short of u and the smallest found
    to reach it (-inf and inf where none is), by Illinois regula falsi
    (Dowell and Jarratt, BIT 11, 1971). ``probe(x, u)`` gives whether the
    CDF reaches u at x and a value of the CDF there, near enough to steer.
    Each step reads the secant point of the two points kept, on the logit of
    the values less that of u, the one kept twice in a row halved, and on
    log x over a span of positive x: a tail's CDF bends least there. It
    stops when the two points are as close as ``_bisect_quantile``'s
    tolerance, when a value does not fall strictly between theirs, so that
    the values no longer resolve the points, or after ``_NARROW_STEPS``
    steps."""
    (at_lo, value_lo), (at_hi, value_hi) = probe(lo, u), probe(hi, u)
    if at_lo:
        return -math.inf, lo
    if not at_hi:
        return hi, math.inf
    target = _logit(u)
    a, va, fa = lo, value_lo, _logit(value_lo) - target
    b, vb, fb = hi, value_hi, _logit(value_hi) - target
    kept = None
    for _ in range(_NARROW_STEPS):
        width, tol = b - a, 1e-15 * max(1.0, abs(b))
        if width <= tol:
            break
        t = fa / (fa - fb) if -math.inf < fa < fb < math.inf else 0.5
        x = a * (b / a) ** t if a > 0.0 else a + width * t
        # at least half the tolerance inside, so that an end whose value has
        # rounded to u, the secant point, is not read again
        x = min(max(x, a + 0.5 * tol), b - 0.5 * tol)
        reaches, value = probe(x, u)
        resolved = va < value < vb
        if reaches:
            b, vb, fb = x, value, _logit(value) - target
            if kept == "short":
                fa *= 0.5
            kept = "short"
        else:
            a, va, fa = x, value, _logit(value) - target
            if kept == "reached":
                fb *= 0.5
            kept = "reached"
        if not resolved:
            break
    return a, b


# a bound on the steps of a quantile's narrowing: the four stacked compounds
# of tests/test_stacked_quadrature.py, the 10,000-component compound and a
# mixture of three families took at most 17 at each of 69 quantiles from
# u = 1e-12 to 1 - 1e-10, where the bisection alone takes 46-52 steps
_NARROW_STEPS = 32


def _logit(p: float) -> float:
    """log(p / (1 - p)), -inf at or below 0 and inf at or above 1."""
    if p <= 0.0:
        return -math.inf
    if p >= 1.0:
        return math.inf
    return math.log(p) - math.log1p(-p)


class _Runs:
    """The sampler of one batch of a mixture's Monte-Carlo column, whose
    draws are ``counts[i]`` draws of component i, the components' runs in
    order. Each call ``draw(out, flipped=None)`` takes the batch's next
    ``out.size`` draws, each stretch of consecutive components of one part
    by one call of its sampler (``run_sampler``), as their rows in it are
    consecutive too."""

    __slots__ = ("_edges", "_start", "_samplers", "_stretches")

    def __init__(self, counts: np.ndarray, samplers, stretches):
        # component i's run is draws edges[i] to edges[i + 1]
        self._edges = np.concatenate(([0], np.cumsum(counts)))
        self._start = 0
        # Mixture._stretches, as lists
        self._samplers, self._stretches = samplers, [a.tolist() for a in stretches]

    def __call__(self, out, flipped=None):
        start, stop = self._start, self._start + out.size
        self._start = stop
        edges = self._edges
        # the component whose run holds the first draw, and past the one
        # whose run holds the last
        first = int(np.searchsorted(edges, start, side="right")) - 1
        last = int(np.searchsorted(edges, stop, side="left"))
        # where each component's run ends in ``out``
        ends = np.clip(edges[first : last + 1], start, stop) - start
        runs = np.diff(ends)
        begins, parts, shifts = self._stretches
        # the stretches that hold components first to last - 1
        for k in range(bisect.bisect_right(begins, first) - 1, bisect.bisect_left(begins, last)):
            # their positions in ``runs``
            a, b = max(begins[k], first) - first, min(begins[k + 1], last) - first
            i, j = int(ends[a]), int(ends[b])
            if j > i:
                pair = None if flipped is None else flipped[i:j]
                self._samplers[parts[k]](first + a + shifts[k], runs[a:b], out[i:j], pair)


# -- stacked single-family mixtures --------------------------------------------


# ``_exact_sum`` of one row shorter than this is ``math.fsum`` at once: the
# split's two dozen numpy calls cost about 13 us, and fsum about 32 ns a term
# (2-core VM), so that they break even near 400 terms
_SPLIT_MIN_TERMS = 512


def _exact_sum(products):
    """``math.fsum`` of each row, bit for bit: a float for one row (1-D), an
    array of one sum per row for a 2-D block.

    The error-free split of Rump, Ogita and Oishi (Accurate floating-point
    summation, Part I, 2008), certified per row. With n terms, max|p| below
    2^e and sigma = 2^(e + ceil(log2(n + 2))), the high parts
    (p + sigma) - sigma are multiples of ulp(sigma) / 2 whose partial sums
    stay below sigma, so numpy adds them exactly in any order. The low parts
    are exact and at most ulp(sigma) / 2 = eps sigma / 2 each, so numpy's
    sum of them, in any order, is within n^2 eps^2 sigma / 4 of theirs; the
    bound taken is 2 n^2 eps^2 sigma. TwoSum of the two totals gives r and
    an exact residual. r is the correctly rounded sum when the residual,
    widened by the bound either way, stays inside half the smaller gap next
    to r: the gap below a power of two is half the one above, so the smaller
    one holds on both sides. A row that this does not certify takes
    ``math.fsum``: a half-ulp tie, a sum of zero (whose sign fsum decides), or
    a term that is not finite or so large that sigma overflows, so that such
    a row returns or raises exactly as fsum does. So does one row of fewer
    than ``_SPLIT_MIN_TERMS`` terms, for which fsum costs less.
    """
    p = np.asarray(products, dtype=float)
    n = p.shape[-1]
    if p.ndim == 1 and n < _SPLIT_MIN_TERMS:
        return math.fsum(p.tolist())
    with np.errstate(all="ignore"):
        top = np.abs(p).max(axis=-1)
        sigma = np.ldexp(1.0, np.frexp(top)[1] + (n + 1).bit_length())
        column = sigma[..., np.newaxis]
        high = p + column
        high -= column
        low = np.subtract(p, high).sum(axis=-1)
        high = high.sum(axis=-1)
        total = high + low
        back = total - high
        residual = (high - (total - back)) + (low - back)
        bound = sigma * (2.0 * n * n * _EPS * _EPS)
        size = abs(total)
        # false wherever a nan has reached either side
        certified = 2.0 * (abs(residual) + bound) < size - np.nextafter(size, 0.0)
    if p.ndim == 1:
        return float(total) if certified else math.fsum(p.tolist())
    for i in np.flatnonzero(~certified).tolist():
        total[i] = math.fsum(p[i].tolist())
    return total


class _Stack:
    """Members of one parametric family, of one tail form for truncated
    normals, as arrays: a part of a mixture (``_parts_of``), or a search's
    candidates.

    It is built from the family's parameters, one array each, keyed as in the
    family's record and in the order of its constructor (``params``); every
    entry must pass ``valid``. ``_derive`` computes the constants of the
    scalar constructor by the same expressions, under the family's own
    attribute names; ``fields`` names every per-component array, which
    ``_Rows`` takes per draw or per row.

    The kernels are the family's array layer (see _math_map) with the stack
    for ``p``, defined here once for every family; the subclasses define only
    what concerns the parameters. At a scalar point a kernel returns one value
    per component (or 0.0 where all vanish), by the scalar kernel's own
    operations, so that every weighted sum equals the per-component one bit
    for bit. ``cdf(x, fast=True)`` and ``pdf(x, fast=True)``, for quadrature
    integrands, may differ in the last bit.
    """

    family: type
    params: tuple[str, ...]
    fields: tuple[str, ...]

    has_density = True

    def __init__(self, params: dict[str, np.ndarray], weights: np.ndarray, index=None):
        self.weights = weights
        self.size = weights.size
        # the positions of the rows in a mixture's components
        self.index = index
        self._params = params
        self._derive(**params)

    @staticmethod
    def valid(**params) -> np.ndarray:
        """Per entry, whether the family's constructor accepts the parameters."""
        raise NotImplementedError

    @classmethod
    def closed_form(cls, **params):
        """Per entry, the member's ``_closed_form_max``: the family's own."""
        return cls.family._closed_form_max

    def _derive(self, **params) -> None:
        raise NotImplementedError

    def means(self) -> np.ndarray:
        raise NotImplementedError

    def cdf(self, x, fast=False):
        return self.family._cdf_block(x, self, fast)

    def pdf(self, x, fast=False):
        return self.family._pdf_block(x, self, fast)

    def _partial_expectation(self, q):
        return self.family._m1_block(q, self)

    def _second_partial_moment(self, q):
        return self.family._m2_block(q, self)

    @property
    def _closed_form_max(self) -> bool:
        """``Mixture._closed_form_max`` of the components."""
        return bool(np.all(self.closed_form(**self._params)))

    def support(self) -> tuple[float, float]:
        """``Mixture.support`` of the components: the three families other
        than the uniform are supported on [0, inf)."""
        return (0.0, math.inf)

    def breakpoints(self) -> tuple[float, ...]:
        """``Mixture.breakpoints`` of the components: the three families
        other than the uniform are supported on [0, inf)."""
        return (0.0,)

    def quantile_range(self, u: float) -> tuple[float, float]:
        """Smallest and largest component quantile at u, bit for bit. The
        sampling formula matches the scalar quantile of the uniform and the
        truncated normal; families whose quantile calls ``math`` override."""
        q = self.family._inverse_cdf(np.full(self.size, float(u)), self)
        return float(q.min()), float(q.max())

    def inverse_cdf(self, v: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The family's uniform map of ``v``, each draw by its row's parameters."""
        return self.family._inverse_cdf(v, _Rows(self, operator.itemgetter(rows)))

    def run_sampler(self, rng, counts):
        """``draw(row, runs, out, flipped)``: ``runs[i]`` draws of row ``row + i``
        in order, by one ``_draw_block`` on ``rng`` (see ``_Runs``). The
        batch's ``counts`` of every component are not read."""

        def draw(row, runs, out, flipped):
            rows = _Rows(self, lambda a: np.repeat(a[row : row + runs.size], runs))
            self.family._draw_block(rng, rows, out, flipped)

        return draw


class _Rows:
    """A stack's rows: each per-component array taken by ``take`` on access,
    such as ``a[idx]`` for one row per draw or each row of a slice repeated
    by the counts of its run, so that one taken array at a time is alive
    while a formula runs; other attributes are the stack's own."""

    __slots__ = ("_stack", "_take")

    def __init__(self, stack: _Stack, take):
        self._stack = stack
        self._take = take

    def __getattr__(self, name):
        value = getattr(self._stack, name)
        return self._take(value) if name in self._stack.fields else value


class _UniformStack(_Stack):
    family = Uniform
    params = ("lo", "hi")
    fields = ("lo", "hi", "_width")

    @staticmethod
    def valid(lo, hi):
        return np.isfinite(lo) & np.isfinite(hi) & (0.0 <= lo) & (lo < hi)

    def _derive(self, lo, hi):
        self.lo, self.hi = lo, hi
        self._width = hi - lo

    def means(self):
        return 0.5 * (self.lo + self.hi)

    @staticmethod
    def closed_form(lo, hi):
        # the one statement of the width rule, for a uniform and per row
        return hi - lo >= _MIN_UNIFORM_WIDTH * hi

    def support(self):
        # by Python's min and max, which order 0.0 and -0.0 as the
        # per-component walk does
        return (min(self.lo.tolist()), max(self.hi.tolist()))

    def breakpoints(self):
        return tuple(np.unique(np.concatenate((self.lo, self.hi))).tolist())


class _ExponentialStack(_Stack):
    family = Exponential
    params = fields = ("rate",)

    @staticmethod
    def valid(rate):
        return np.isfinite(rate) & (rate > 0.0)

    def _derive(self, rate):
        self.rate = rate

    def means(self):
        return 1.0 / self.rate

    def quantile_range(self, u):
        # log1p of the one argument through math, as in the scalar quantile
        q = -math.log1p(-u) / self.rate
        return float(q.min()), float(q.max())


class _LogNormalStack(_Stack):
    family = LogNormal
    params = ("log_mean", "log_sd")
    fields = ("log_mean", "log_sd", "log_var", "_mean", "m2_scale")

    @staticmethod
    def valid(log_mean, log_sd):
        return np.isfinite(log_mean) & np.isfinite(log_sd) & (log_sd > 0.0)

    def _derive(self, log_mean, log_sd):
        self.log_mean, self.log_sd = log_mean, log_sd
        self.log_var = _squares(log_sd)
        self._mean = _exp(log_mean + 0.5 * self.log_var)
        self.m2_scale = _exp(2.0 * (log_mean + self.log_var))

    def means(self):
        return self._mean

    def quantile_range(self, u):
        # exp is monotone, so the extremes are taken before it, by math.exp
        # as in the scalar quantile
        x = self.log_mean + self.log_sd * float(ndtri(u))
        return math.exp(x.min()), math.exp(x.max())


def _squares(x: np.ndarray) -> np.ndarray:
    """x**2 per entry by Python's pow, as ``LogNormal.log_var`` squares, and
    raising as it raises: numpy's square rounds differently."""
    return np.fromiter(map(operator.pow, x.tolist(), itertools.repeat(2)), float, x.size)


class _TruncatedNormalStack(_Stack):
    family = TruncatedNormal
    params = ("mean", "sd")
    fields = ("norm_mean", "norm_sd", "_f0", "_z", "_pdf_alpha")

    @staticmethod
    def valid(mean, sd):
        # no mass on [0, inf) where Z = Phi(-alpha), alpha = -mean / sd, underflows
        alpha = -mean / sd
        return np.isfinite(mean) & np.isfinite(sd) & (sd > 0.0) & (ndtr(-alpha) > 0.0)

    def _derive(self, mean, sd):
        self.norm_mean, self.norm_sd = mean, sd
        alpha = -mean / sd
        self._f0 = ndtr(alpha)
        self._z = ndtr(-alpha)
        # one tail form for every row, as ``_stacks`` splits them
        self._upper_tail = bool(alpha[0] > 0.0)
        self._pdf_alpha = _norm_pdf(alpha)

    def means(self):
        return _truncnorm_mean(self.norm_mean, self.norm_sd)


_STACKS = {
    stack.family: stack
    for stack in (_UniformStack, _ExponentialStack, _LogNormalStack, _TruncatedNormalStack)
}


def valid_parameters(family: type, params: dict[str, np.ndarray]) -> np.ndarray:
    """Which entries of the parameter arrays, keyed as in the record of the
    parametric ``family``, make a member of it: exactly those for which its
    constructor does not raise, by one array test."""
    stack = _STACKS.get(family)
    if stack is None:
        raise ValueError(f"{family.__name__} is not a parametric family")
    # non-finite and zero entries fail the test; they need not warn
    with np.errstate(all="ignore"):
        return stack.valid(**params)


class UpperTruncated(Distribution):
    """Any base family conditioned on values <= upper."""

    def __init__(self, base: Distribution, upper: float):
        upper = _finite("truncation upper bound", upper)
        if isinstance(base, UpperTruncated):
            upper = min(upper, base.upper)
            base = base.base
        z = base.cdf(upper)
        if z <= 0.0:
            raise ValueError(f"upper truncation at {upper} leaves no mass")
        self.base = base
        self.upper = upper
        self._z = z
        self._closed_form_max = base._closed_form_max

    @property
    def has_density(self):
        return self.base.has_density

    def support(self):
        lo, hi = self.base.support()
        return (lo, min(hi, self.upper))

    def cdf(self, x):
        if x >= self.upper:
            return 1.0
        return self.base.cdf(x) / self._z

    def pdf(self, x):
        if x > self.upper:
            return 0.0
        return self.base.pdf(x) / self._z

    def mean(self):
        return self.base._partial_expectation(self.upper) / self._z

    def _quantile(self, u):
        return min(self.base._quantile(u * self._z), self.upper)

    @staticmethod
    def _inverse_cdf(v, p):
        # u Z through the base's draws is a draw below the bound only where
        # those draws are its quantiles; a mixture's go by composition
        split = p._split()
        if split is not None:
            return Mixture._inverse_cdf(v, split)
        v *= p._z
        p.base._inverse_cdf(v, p.base)
        return np.minimum(v, p.upper, out=v)

    def _split(self):
        """An upper truncation of a mixture as the mixture of its components'
        truncations, weighted w_i F_i(u) / F(u) over the components with
        F_i(u) > 0, built once; None for any other base."""
        split = getattr(self, "_split_cache", None)
        if split is None and isinstance(self.base, Mixture):
            u, z = self.upper, self._z
            parts = [(w, d, d.cdf(u)) for w, d in self.base.components]
            parts = [(w * f / z, UpperTruncated(d, u)) for w, d, f in parts if f > 0.0]
            split = Mixture.__new__(Mixture)
            # weights that sum to 1 up to the rounding of each ratio
            split._init(np.array([w for w, _ in parts]), tuple(parts), None)
            self._split_cache = split
        return split

    def atoms(self):
        base_atoms = self.base.atoms()
        if base_atoms is None:
            return None
        values, weights = base_atoms
        keep = values <= self.upper
        return values[keep], weights[keep] / self._z

    def breakpoints(self):
        pts = {p for p in self.base.breakpoints() if p <= self.upper}
        pts.add(self.upper)
        return tuple(sorted(pts))

    def _partial_expectation(self, q):
        return self.base._partial_expectation(min(q, self.upper)) / self._z

    def _second_partial_moment(self, q):
        return self.base._second_partial_moment(min(q, self.upper)) / self._z

    def to_dict(self):
        record = dict(self.base.to_dict())
        record["upper"] = self.upper
        return record


# -- expected maximum of independent draws -----------------------------------


def expected_max(dist_a: Distribution, dist_b: Distribution) -> float:
    """E[max(X, Y)] for independent X ~ dist_a, Y ~ dist_b, by the route that
    ``_route`` gives the pair (see its table), bit-identical under swaps."""
    return _expected_max(dist_a, dist_b, ordered=False)


def _expected_max(x: Distribution, y: Distribution, ordered: bool = True) -> float:
    """Route, then evaluate; by default the pair as given, past the closed
    forms: the route an upper truncation's components re-enter (``split``)."""
    tag, operands = _route(x, y, ordered)
    return _EVALUATORS[tag](*operands)


def _route(x: Distribution, y: Distribution, ordered: bool = False) -> tuple[str, tuple]:
    """The one table of routes of E[max(X, Y)]: (tag, operands) of the first
    row the pair meets, which ``_EVALUATORS[tag](*operands)`` evaluates for
    one pair (``expected_max``), and, as one array pass per tag of
    ``_ORDER_BATCHES``, for a search's candidates (``_order_maxima``).

    The closed forms, in either order, when the F, M1 and M2 of both sides
    keep their relative precision (``_closed_form_max``: no truncated
    normal, and no uniform narrower than ``_MIN_UNIFORM_WIDTH`` of its upper
    end, ``_UniformStack.closed_form``, is or is in either side), the side
    ``_uniform_rank`` ranks lower being the uniform U:

    - ``uniform``, U a uniform: E[D] + (H(b) - H(a)) / (b - a) from the
      other side's mean, F, M1 and M2 (``_expected_max_uniform``);
    - ``uniform_mixture``, U a mixture of one stack of uniforms and the
      other side neither: the weighted sum over U's components.

    Then the pair in canonical order (``_sorts_before``), or as given when
    ``ordered``:

    - ``atoms``, either side (x first) with atoms only: exact conditioning
      on them, E[max(a, Y)] = a F_Y(a) + UPE_Y(a) at each atom a;
    - ``mixtures``, a mixture of several parts against another mixture: the
      weighted sum of ``expected_max`` over its components, so that each
      is integrated over on a ladder of its own;
    - ``halves``, two members of parametric families:
      int t f_X F_Y dt + int t f_Y F_X dt (``_density_maxima``);
    - ``over``, any other pair with densities: E_X[h_Y(X)], one quadrature
      over the side X that ``_integration_rank`` ranks lower
      (``_expected_max_over``);
    - ``components``, a mixture with both atoms and a density: the weighted
      sum over its components, each by its closed form where
      ``expected_max`` takes one, else in its place (``_components_max``);
    - ``split``, an upper truncation of one: ``_expected_max`` of its
      components' truncations, weighted w_i F_i(u) / F(u) (``_split``).

    A pair that meets no row raises ValueError. A side whose density a
    quadrature integrates and whose quartiles round to one float is refused
    with NumericalIntegrityError (``_check_resolved``).
    """
    closed = None if ordered else _closed_form(x, y)
    if closed is not None:
        return closed
    if not ordered and _sorts_before(y, x):
        x, y = y, x
    for atomic, other in ((x, y), (y, x)):
        atoms = atomic.atoms()
        if atoms is not None:
            return "atoms", (atoms, other)
    for mix, other in ((x, y), (y, x)):
        if isinstance(mix, Mixture) and isinstance(other, Mixture) and _stack_of(mix) is None:
            return "mixtures", (mix, other)
    if x.has_density and y.has_density:
        if type(x) in _STACKS and type(y) in _STACKS:
            return "halves", (x, y)
        if _integration_rank(y) < _integration_rank(x):
            x, y = y, x
        return "over", (x, y)
    if isinstance(x, Mixture):
        return "components", (x, y, True)
    if isinstance(y, Mixture):
        return "components", (y, x, False)
    if isinstance(x, UpperTruncated) and x._split() is not None:
        return "split", (x._split(), y)
    if isinstance(y, UpperTruncated) and y._split() is not None:
        return "split", (x, y._split())
    raise ValueError("expected_max cannot decompose these distributions")


def _closed_form(x: Distribution, y: Distribution):
    """(tag, operands) of the closed-form row of ``_route`` that the pair
    meets, in either order, or None."""
    if x._closed_form_max and y._closed_form_max:
        u, other = sorted((x, y), key=_uniform_rank)
        if _uniform_rank(u)[0] == 0:
            return "uniform", (u, other)
        if _uniform_rank(u) < _uniform_rank(other):
            return "uniform_mixture", (u, other)
    return None


def _components_max(mix: Mixture, y: Distribution, first: bool) -> float:
    """The ``components`` route: the weighted sum of E[max] of each of the
    mixture's components against y, by its closed form where
    ``expected_max`` takes one (``_closed_form``), else by the row of the
    pair in its place, the mixture's side first where ``first``."""
    terms = []
    for w, d in mix.components:
        tag, operands = _closed_form(d, y) or _route(*((d, y) if first else (y, d)), ordered=True)
        terms.append(w * _EVALUATORS[tag](*operands))
    return math.fsum(terms)


def _order_maxima(family: type, params: dict[str, np.ndarray], demand: Distribution) -> np.ndarray:
    """E[max(Q, D)] of each member Q of a parametric family, given as its
    parameter columns keyed as in its record, against the demand, bit for
    bit as ``expected_max``. A member's route depends only on its family and
    its ``closed_form``, so ``_route`` routes the rows of each flag by its
    ``_PROTOTYPES`` member. The rows of a tag in ``_ORDER_BATCHES`` run as
    one batch each; every other row first, in order, by ``expected_max``.
    Members are made for those rows and the lockstep's only."""
    size = next(iter(params.values())).size
    closed = np.broadcast_to(_STACKS[family].closed_form(**params), size)
    rows_of = {}
    for flag in np.unique(closed).tolist():
        tag = _route(_PROTOTYPES[family, flag], demand)[0]
        # the rows of a tag with no batch, under None
        tag = tag if tag in _ORDER_BATCHES else None
        rows_of[tag] = rows_of.get(tag, False) | (closed == flag)
    values = np.empty(size)
    for k in np.flatnonzero(rows_of.get(None, False)).tolist():
        values[k] = expected_max(_member(family, params, k), demand)
    for tag, batch in _ORDER_BATCHES.items():
        if tag in rows_of:
            rows = rows_of[tag]
            taken = {name: column[rows] for name, column in params.items()}
            values[rows] = batch(family, taken, demand)
    return values


def _member(family: type, params: dict[str, np.ndarray], k: int) -> Distribution:
    """Row k of a parametric family's parameter columns, as a member."""
    return family(*(params[name][k] for name in _STACKS[family].params))


def _sorts_before(a: Distribution, b: Distribution) -> bool:
    """Whether a's record sorts before b's as canonical JSON (``_order_key``).
    A mixture's record begins '{"components"' and every other one
    '{"family"', an upper truncation keeping its base's first key; so only
    two mixtures need their full records, which create every component. The
    records of two different parametric families differ first in the family
    name, which no JSON is made for."""
    mixture_a, mixture_b = _mixture_record(a), _mixture_record(b)
    if mixture_a != mixture_b:
        return mixture_a
    if type(a) is not type(b) and type(a) in _STACKS and type(b) in _STACKS:
        return a.to_dict()["family"] < b.to_dict()["family"]
    return a._order_key() < b._order_key()


def _mixture_record(d: Distribution) -> bool:
    """Whether d's record is a mixture's, or an upper truncation of one."""
    if isinstance(d, UpperTruncated):
        d = d.base
    return isinstance(d, Mixture)


def expected_min(dist_a: Distribution, dist_b: Distribution) -> float:
    """E[min(X, Y)] via min + max = X + Y."""
    return dist_a.mean() + dist_b.mean() - expected_max(dist_a, dist_b)


def _uniform_rank(d: Distribution) -> tuple:
    """Lowest for a uniform (ordered by its interval), then a mixture of
    uniforms: the side the closed-form expected maximum integrates over."""
    if isinstance(d, Uniform):
        return (0, d.lo, d.hi)
    if getattr(_stack_of(d), "family", None) is Uniform:
        return (1,)
    return (2,)


def _expected_max_uniform(u: Uniform, other: Distribution) -> float:
    kernels = (other.cdf, other._partial_expectation, other._second_partial_moment)
    return _uniform_closed_form(other.mean(), u.lo, u.hi, u._width, *kernels)


def _uniform_closed_form(mean, lo, hi, width, cdf, m1, m2):
    """E[max(Q, D)] for Q ~ U(lo, hi), from D's mean, F, M1 and M2, for
    floats or element-wise over arrays alike."""

    # E[max(Q, D)] = E[D] + E[(Q - D)+], and for Q ~ U(a, b) the second term
    # is the mean of int_0^x F over [a, b]: (H(b) - H(a)) / (b - a) with
    # H(x) = E[((x - D)+)^2] / 2 = (x^2 F - 2 x M1 + M2) / 2
    def h(x):
        return 0.5 * (x * x * cdf(x) - 2.0 * x * m1(x) + m2(x))

    return mean + (h(hi) - h(lo)) / width


def _blocks(d, *kernels):
    """d's kernels over blocks, named without the ``_block`` suffix, as
    functions of the points: its family's, or else its scalar F, M1 and M2
    element by element (``_math_map``)."""
    family = type(d) if isinstance(d, Distribution) else d.family
    if family in _STACKS:
        return [functools.partial(getattr(family, f"_{name}_block"), p=d) for name in kernels]
    scalar = {"cdf": d.cdf, "m1": d._partial_expectation, "m2": d._second_partial_moment}
    return [functools.partial(_math_map, scalar[name]) for name in kernels]


def _uniform_maxima(stack: _Stack, demand: Distribution) -> np.ndarray:
    """The ``uniform`` route of each row of a stack against the demand, over
    arrays. A uniform demand is the uniform side of another family's rows
    and of a uniform row whose (lo, hi) sorts after its own; else the row
    is, by ``_uniform_maxima_over`` against a stacked mixture."""
    mixture = _stack_of(demand)
    if mixture is not None:
        return _uniform_maxima_over(stack, demand.mean(), mixture)
    if type(demand) is Uniform:
        kernels = _blocks(stack, "cdf", "m1", "m2")
        swapped = _uniform_closed_form(stack.means(), demand.lo, demand.hi, demand._width, *kernels)
        if stack.family is not Uniform:
            return swapped
    lo, hi = stack.lo, stack.hi
    kernels = _blocks(demand, "cdf", "m1", "m2")
    values = _uniform_closed_form(demand.mean(), lo, hi, stack._width, *kernels)
    if type(demand) is Uniform:
        swap = (demand.lo < lo) | ((demand.lo == lo) & (demand.hi < hi))
        values = np.where(swap, swapped, values)
    return values


def _uniform_maxima_over(orders: _Stack, mean: float, mixture: _Stack) -> np.ndarray:
    """``_uniform_maxima`` against a stacked mixture of the given mean. Each
    kernel takes a column of the orders' lo or hi against the components and
    sums each row by ``_exact_sum``, the products and their rounding being
    those of the mixture's kernels at one point; the orders go in chunks of
    at most ``_SAMPLE_BLOCK`` products a block."""

    def summed(kernel):
        return lambda x: _exact_sum(mixture.weights * kernel(x[:, np.newaxis]))

    kernels = [summed(kernel) for kernel in _blocks(mixture, "cdf", "m1", "m2")]
    rows = max(1, _SAMPLE_BLOCK // mixture.size)
    chunks = []
    for start in range(0, orders.size, rows):
        part = slice(start, start + rows)
        lo, hi, width = orders.lo[part], orders.hi[part], orders._width[part]
        chunks.append(_uniform_closed_form(mean, lo, hi, width, *kernels))
    return np.concatenate(chunks)


def _expected_max_at(t: float, y: Distribution) -> float:
    """E[max(t, Y)] = t F_Y(t) + int_t^inf s f_Y(s) ds, for a point t."""
    return t * y.cdf(t) + y.upper_partial_expectation(t)


def _check_resolved(*sides: Distribution) -> None:
    """Raise NumericalIntegrityError for the first side whose quartiles round
    to one float: the nodes of a quadrature over its density round onto a
    few floats, and no panel beside them sees its mass."""
    for d in sides:
        below = d._quantile(0.25)
        if below == d._quantile(0.75):
            raise NumericalIntegrityError(
                f"{d!r} is narrower than the floats at its median {below!r}: "
                "no quadrature over its density resolves it"
            )


def _integration_rank(d: Distribution) -> tuple:
    """Lower for the side ``_expected_max_over`` integrates over: one whose
    record is not a mixture's (``_mixture_record``), the narrower of two such
    by interquartile range, so that a narrow order is integrated over and
    its own M1 never read; else the mixture with fewer kinks, at which the
    quadrature splits its density. A tie keeps the first in canonical
    order."""
    if _mixture_record(d):
        return (True, len(d.breakpoints()))
    return (False, d._quantile(0.75) - d._quantile(0.25))


def _expected_max_over(x: Distribution, y: Distribution) -> float:
    """E[max(X, Y)] = E_X[h_Y(X)] with h_Y(t) = E[max(t, Y)]: one quadrature
    of h_Y f_X over X's support below the larger upper cut of the two, plus
    X's tail moment beyond it, where h_Y(t) is t within TAIL_PROB. An unresolved X is
    refused (``_check_resolved``).

    The quadrature splits at X's own kinks and at the ladder around X's bulk
    (``_ladder``), so that a narrow X is not stepped over. Y's kinks cannot
    be stepped over: h_Y is continuously differentiable, with derivative
    F_Y, so a narrow component of Y is a bend in h_Y, which the adaptive rule
    refines. But the rule's error estimate underrates a jump in h_Y'' = f_Y:
    it left errors up to 1e-10 of the value against two uniforms. So it
    splits at Y's kinks too, where they fit within ``_MAX_POINTS`` with the
    ladder, which is never thinned.

    A stacked side is one numpy weighted sum at each node, by the ``fast``
    kernels: h_Y(t) = E[Y] + sum_i w_i (t F_i(t) - M1_i(t)), and
    f_X(t) = sum_i w_i f_i(t)."""
    _check_resolved(x)
    lo, top = x.support()
    hi = min(top, max(x.upper_cut(), y.upper_cut()))
    y_stack, x_stack = _stack_of(y), _stack_of(x)
    if y_stack is None:
        h = functools.partial(_expected_max_at, y=y)
    else:
        family, weights, mean = y_stack.family, y_stack.weights, y.mean()

        def h(t):
            below = t * family._cdf_block(t, y_stack, True) - family._m1_block(t, y_stack, True)
            return mean + float((weights * below).sum())

    if x_stack is None:
        pdf = x.pdf
    else:
        weights_x, pdf_x = x_stack.weights, x_stack.pdf

        def pdf(t):
            return float((weights_x * pdf_x(t, fast=True)).sum())

    points = {p for p in _ladder(x, lo, hi).union(x.breakpoints()) if lo < p < hi}
    kinks = points.union(p for p in y.breakpoints() if lo < p < hi)
    if len(kinks) <= _MAX_POINTS:
        points = kinks
    value = integrate(lambda t: h(t) * pdf(t), lo, hi, points)
    # a finite support below the cut leaves no tail
    return value + (x.upper_partial_expectation(hi) if hi < top else 0.0)


def _density_maxima(orders: list[Distribution], demand: Distribution) -> list[float]:
    """E[max(Q, D)] of each order Q of a parametric family against a
    parametric demand D, as two halves: int t f_X(t) F_Y(t) dt over both
    supports below the cut, for (X, Y) = (Q, D) and (D, Q), each plus X's
    exact tail moment beyond it, where F_Y is within TAIL_PROB of 1.

    Every half is one span of one ``integrate_many``, the half of the side
    whose record sorts first (``_sorts_before``) first, so that a failure
    raises the error of the first order, and of its first half, that fails.
    The integrand is the families' block kernels on numpy's transcendentals
    (``fast``), as every mixture integrand is. ``expected_max`` of one pair
    is this with one order, which is its own parameter rows; the orders of a
    batch come from one stack per family and tail form (``_HalvesRows``).
    The demand's quartiles, cut, kinks and support are read once a batch,
    and its tail moment once for each distinct cut."""
    leads = [not _sorts_before(demand, g) for g in orders]
    for k, g in enumerate(orders):
        # the demand is checked with the first order, in its place
        sides = (g, demand) if leads[k] else (demand, g)
        try:
            _check_resolved(*(sides if k == 0 else (g,)))
        except NumericalIntegrityError:
            # the candidates before it come first, and may fail first
            if k:
                _density_maxima(orders[:k], demand)
            raise
    demand_support, demand_cut = demand.support(), demand.upper_cut()
    demand_points = set(demand.breakpoints())
    demand_tail = functools.cache(demand.upper_partial_expectation)
    spans, tails, sides = [], [], []
    for g, order_first in zip(orders, leads):
        cut = max(g.upper_cut(), demand_cut)
        pts = demand_points.union(g.breakpoints())
        support = g.support()
        lo = max(support[0], demand_support[0])
        for order_x in (order_first, not order_first):
            hi = min((support if order_x else demand_support)[1], cut)
            tail = g.upper_partial_expectation if order_x else demand_tail
            spans.append((lo, hi, pts))
            tails.append(tail(max(hi, lo)))
            sides.append(order_x)
    demand_pdf, demand_cdf = _blocks(demand, "pdf", "cdf")
    sort = _HalvesRows(orders, sides).sort

    def integrand(owner, t):
        # t f_x(t) F_y(t), with the order as x on the rows of its side
        by_group, groups = sort(owner)
        nodes = t[by_group]
        values = np.empty(t.shape)
        for rows, side, family, p in groups:
            block = nodes[rows]
            if side:
                values[rows] = block * family._pdf_block(block, p, True) * demand_cdf(block, fast=True)
            else:
                values[rows] = block * demand_pdf(block, fast=True) * family._cdf_block(block, p, True)
        if isinstance(by_group, slice):
            return values
        out = np.empty(t.shape)
        out[by_group] = values
        return out

    halves = [value + tail for value, tail in zip(integrate_many(integrand, spans), tails)]
    return [first + second for first, second in zip(halves[::2], halves[1::2])]


class _HalvesRows:
    """The rows of each round of ``_density_maxima``'s lockstep by group: a
    stack of the orders and a side, the order's density on the spans where
    it is x and its CDF on the others. Each span's group and row in its
    stack are laid out once a batch; a round sorts its rows by group, stably,
    so that each group is a slice. One order is its own parameter rows, and
    ``integrate_many`` lists a round's panels by span, so its rows are the
    first half's, then the second's, in place."""

    def __init__(self, orders: list[Distribution], sides: list[bool]):
        self.sides = sides
        self.order = orders[0] if len(orders) == 1 else None
        if self.order is not None:
            return
        # the weights are not read
        self.stacks = _parts_of(np.ones(len(orders)), orders)
        part, row = np.empty(len(orders), int), np.empty(len(orders), int)
        for i, stack in enumerate(self.stacks):
            part[stack.index] = i
            row[stack.index] = np.arange(stack.size)
        # two groups a stack, the spans where its order is x first
        self.span_group = 2 * np.repeat(part, 2) + np.logical_not(sides)
        self.span_row = np.repeat(row, 2)

    def sort(self, owner: np.ndarray):
        """The round's rows in group order, as an index or a slice, and
        (rows, side, family, p) of each group with rows: its slice of them,
        and its family and parameters for the family's kernels."""
        if self.order is not None:
            split = int(owner.searchsorted(1))
            family, groups = type(self.order), []
            # a span with no panels has no support below the cut
            if split:
                groups.append((slice(split), self.sides[0], family, self.order))
            if split < owner.size:
                groups.append((slice(split, None), self.sides[1], family, self.order))
            return slice(None), groups
        group = self.span_group[owner]
        by_group = np.argsort(group, kind="stable")
        index = self.span_row[owner[by_group]]
        groups, start = [], 0
        for g, end in enumerate(np.bincount(group).cumsum().tolist()):
            if end > start:
                stack = self.stacks[g // 2]
                taken = _Rows(stack, operator.itemgetter((index[start:end], None)))
                groups.append((slice(start, end), g % 2 == 0, stack.family, taken))
            start = end
        return by_group, groups


# each tag of ``_route`` and the evaluator of its operands
_EVALUATORS = {
    "uniform": _expected_max_uniform,
    "uniform_mixture": lambda u, other: math.fsum(
        w * _expected_max_uniform(c, other) for w, c in u.components
    ),
    "atoms": lambda atoms, y: math.fsum(w * _expected_max_at(v, y) for v, w in zip(*atoms)),
    "mixtures": lambda mix, other: math.fsum(w * expected_max(d, other) for w, d in mix.components),
    "halves": lambda x, y: _density_maxima([x], y)[0],
    "over": _expected_max_over,
    "components": _components_max,
    "split": _expected_max,
}

# a member of each parametric family for each ``closed_form`` it takes, which
# routes every member of that flag (``_order_maxima``)
_PROTOTYPES = {
    (Uniform, True): Uniform(0.0, 1.0),
    (Uniform, False): Uniform(1.0, 1.0 + 1e-9),
    (Exponential, True): Exponential(1.0),
    (LogNormal, True): LogNormal(0.0, 1.0),
    (TruncatedNormal, False): TruncatedNormal(0.0, 1.0),
}

# the tags whose rows ``_order_maxima`` evaluates as one batch, from the
# family, the rows' parameter columns and the demand
_ORDER_BATCHES = {
    "uniform": lambda family, params, demand: _uniform_maxima(_equal_stack(family, params), demand),
    "halves": lambda family, params, demand: _density_maxima(
        [_member(family, params, k) for k in range(next(iter(params.values())).size)], demand
    ),
}


# Rungs of ``_ladder`` on each side of the median: with the median, 33
# points, which leaves room within _quad._MAX_POINTS for the few kinks of a
# family, so that the quadrature does not thin them
_RUNGS = 16


def _ladder(d: Distribution, lo: float, hi: float) -> set[float]:
    """Points of (lo, hi) around d's bulk for a quadrature over d's density
    to split at: d's median, and the median minus and plus
    d's interquartile range times 2^k for k = 0, 1, ..., until both leave
    [lo, hi] or after ``_RUNGS`` steps, so that the ladder stays short even
    where the range rounds to nothing next to the median.

    A narrow density then lies between points, and each panel outward is at
    most twice as wide as the one inside it, so that the 21 nodes of no
    panel miss the density or its tails. Fixed quantiles are not enough: the
    panel beyond the outermost one is wide, and the tail mass beyond a
    quantile at 1e-3, ..., 1e-10 was lost in full."""
    median = d._quantile(0.5)
    step = d._quantile(0.75) - d._quantile(0.25)
    points = {median}
    for _ in range(_RUNGS):
        below, above = median - step, median + step
        points.update((below, above))
        if below <= lo and above >= hi:
            break
        step *= 2.0
    return {p for p in points if lo < p < hi}


def _stack_of(d: Distribution):
    """The stack of a mixture whose one part is a stack, else None."""
    if isinstance(d, Mixture) and len(d._parts) == 1 and isinstance(d._parts[0], _Stack):
        return d._parts[0]
    return None


def _member_params(family: type, dists) -> dict[str, np.ndarray]:
    """The parameter arrays of members of a parametric family, keyed as in
    its record, as its stack takes them."""
    records = [d.to_dict() for d in dists]
    return {name: np.array([r[name] for r in records]) for name in _STACKS[family].params}


def _equal_stack(family: type, params: dict[str, np.ndarray]) -> _Stack:
    """Members of one parametric family, by their parameter columns and with
    one tail form for truncated normals, as an equal-weight stack."""
    size = next(iter(params.values())).size
    return _STACKS[family](params, np.full(size, 1.0 / size))


# -- serialization ------------------------------------------------------------


def distribution_from_dict(record: dict, base_dir: str = ".") -> Distribution:
    """Build a distribution from its structured-text record."""
    if not isinstance(record, dict):
        raise ValueError("distribution record must be a mapping")
    record = dict(record)
    upper = record.pop("upper", None)
    family = record.pop("family", None)
    if family == "uniform":
        dist = Uniform(_field(record, "lo"), _field(record, "hi"))
    elif family == "exponential":
        dist = Exponential(_field(record, "rate"))
    elif family == "lognormal":
        dist = LogNormal(_field(record, "log_mean"), _field(record, "log_sd"))
    elif family == "truncated_normal":
        dist = TruncatedNormal(_field(record, "mean"), _field(record, "sd"))
    elif family == "empirical":
        if "csv" in record:
            dist = Empirical(_read_sample_csv(os.path.join(base_dir, record.pop("csv"))))
        else:
            values = _field(record, "values")
            if not isinstance(values, (list, tuple)):
                raise ValueError("empirical 'values' must be an array")
            dist = Empirical(values)
    elif family == "mixture":
        entries = _field(record, "components")
        if not isinstance(entries, (list, tuple)) or not entries:
            raise ValueError("mixture 'components' must be a non-empty array")
        comps = []
        for entry in entries:
            if not isinstance(entry, dict) or "weight" not in entry or "dist" not in entry:
                raise ValueError("mixture components need 'weight' and 'dist'")
            comps.append((entry["weight"], distribution_from_dict(entry["dist"], base_dir)))
        dist = Mixture(comps)
    else:
        raise ValueError(f"unknown distribution family {family!r}")
    if record:
        raise ValueError(f"unexpected fields for family {family!r}: {sorted(record)}")
    if upper is not None:
        dist = UpperTruncated(dist, upper)
    return dist


def _field(record: dict, name: str):
    if name not in record:
        raise ValueError(f"missing field {name!r}")
    return record.pop(name)


def _read_sample_csv(path: str) -> list[float]:
    """One-column CSV of sample values; a single header row is tolerated."""
    values: list[float] = []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row or not row[0].strip():
                continue
            try:
                values.append(float(row[0]))
            except ValueError:
                if i == 0:
                    continue  # header
                raise ValueError(f"non-numeric sample value {row[0]!r} in {path}")
    if not values:
        raise ValueError(f"no sample values found in {path}")
    return values


# -- deterministic generators --------------------------------------------------

_SEED_MOD = 2**64


def _seed_sequence(*entropy: int) -> np.random.SeedSequence:
    """The seed sequence of an entropy tuple, each entry taken mod 2^64; every
    generator of the package is keyed through it."""
    return np.random.SeedSequence(entropy=tuple(int(e) % _SEED_MOD for e in entropy))


def _generator(*entropy: int) -> np.random.Generator:
    """Counter-based generator keyed on the entropy tuple; replayable anywhere."""
    return np.random.Generator(np.random.Philox(_seed_sequence(*entropy)))
