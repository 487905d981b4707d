"""Univariate distribution kernels on the non-negative half-line.

Each family defines the CDF ``F`` and the partial moments
``M1(q) = int_0^q t f(t) dt`` and ``M2(q) = int_0^q t^2 f(t) dt`` in closed
form. ``Distribution`` derives the rest once, by parts: the integrated CDF
``q F - M1``, its first-moment weighting ``int_0^q t F = (q^2 F - M2) / 2``
and the upper partial expectation ``mean - M1``. The expected maximum of
a uniform and any other distribution follows from the other side's F, M1
and M2 in closed form, and is linear over a mixture of uniforms. Adaptive
quadrature (the package's own Gauss-Kronrod rule, ``_quad``) is used only
for ``survival_integral`` and ``weighted_survival_integral`` (independent
forms the newsvendor profit and variance are cross-checked against) and
for the expected maximum of the remaining pairs that both have a density,
including those with a uniform too narrow for the closed form or a
truncated normal, whose partial moments lose relative precision below its
bulk. Between two parametric families, that expected maximum is the sum of
two halves ``int t f_X(t) F_Y(t) dt``. Every other pair, a mixture or an
upper truncation on either side, is E_X[h_Y(X)] with
h_Y(t) = E[max(t, Y)] = t F_Y(t) + mean_Y - M1_Y(t): one quadrature over X,
the side that is not a mixture and the narrower of two such (of two
mixtures, the one with fewer kinks), split at a ladder of points around its
bulk (``_ladder``), so that a narrow density there is not stepped over; a
mixture of several families against another mixture is the sum over its
components. A density whose quartiles round to one float is refused rather
than integrated over.

A mixture whose components share one parametric family is evaluated and
sampled as one stacked family (``_Stack``), one array call per kernel and
per Monte-Carlo batch, with the same results bit for bit as the sum over its
components; a mixture of different families, or of truncated normals with
means on both sides of zero, keeps that sum. A quadrature integrand that
reads a stacked mixture takes its weighted sum by numpy at each node: a
survival integral is one such quadrature split at every kink, each round's
nodes one block against the components (``integrate_many``), unless its
components' kinks make one quadrature each cheaper (``scalar_pays``), and
h_Y of a stacked Y is one weighted sum per node. At a point, a stack's
weighted sum is rounded correctly, as ``math.fsum`` rounds the sum over its
components, by an error-free split certified row by row (``_exact_sum``),
which takes fsum itself for a row it cannot certify and for one short row.
A stacked mixture's quantile is bisected on a numpy sum whose rounding is
bounded, falling back to that correctly rounded sum only where the bound
leaves the step open. A stack is built from parameter arrays, so a compound
built from its grid of parameters creates component objects only for the
paths that walk them.

Kernels come in two layers: each family's methods at one point, by
``math``, and each parametric family's ``_*_block`` kernels, the only array
definition of each formula, which stacks, gathered rows and the lockstep
quadrature share; the two agree bit for bit.

``expected_maxima`` evaluates the expected maxima of many orders against one
demand, the candidates of a search, with the same values bit for bit as
``expected_max`` of each pair: closed-form uniforms over arrays, against a
stacked mixture as blocks of the candidates against its components summed
row by row, and density pairs of two parametric families in one lockstep
quadrature (``integrate_many``), whose integrands are the families' array
kernels over a block of points.

Instances are immutable after construction and safe to share across
threads. Sampling derives a counter-based generator from an explicit seed
and never touches global state.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
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
# kernels stay plain ``math``, as quadrature calls them at every node:
# on a float, the lognormal F and f here took about 0.9 and 1.0 us, against
# 0.4-0.6 and 0.35 us (2-core VM).


def _math_map(fn, x: np.ndarray) -> np.ndarray:
    # element-wise through math: numpy's vectorized exp and expm1 round some
    # inputs differently, and M1, M2 can magnify that by cancellation
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _elementwise(fn, ufunc):
    """``fn`` of ``math`` on a float, and over an array element by element
    (``_math_map``) or, when ``fast``, by numpy's ``ufunc``."""

    def apply(x, fast=False):
        if isinstance(x, np.ndarray):
            # fast: one math call per component would cost most of a
            # quadrature integrand's time, and its last bit does not matter
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


def _sample_in_place(dist, u, out):
    """``from_uniform`` of a family with an in-place ``_inverse_cdf``: it runs
    on ``out`` holding a copy of ``u`` (in ``u`` itself when ``out is u``), or
    on a fresh copy whose 0-d result is returned as a scalar."""
    if out is None:
        return dist._inverse_cdf(np.array(u, dtype=float), dist)[()]
    if out is not u:
        np.copyto(out, u)
    return dist._inverse_cdf(out, dist)


# Samplers that gather per draw (an index, gathered parameters) take at most
# this many draws at a time, so that their temporaries stay small however
# many draws one call maps; the Monte-Carlo pass
# (``simulate._column_blocks``) reads its streams in blocks of as many
# observations, whose buffers fit in a core's L2 cache
_SAMPLE_BLOCK = 32_768


def _blocked(sample_into, u, out):
    """``from_uniform`` by ``sample_into(u_block, out_block)`` over blocks of
    at most ``_SAMPLE_BLOCK`` draws; every sampler is element-wise, so the
    draws do not depend on the blocks. ``out_block`` is ``u_block`` itself
    when ``out is u``, so ``sample_into`` reads each draw before it writes
    the draw's own position and no other."""
    u = np.asarray(u, dtype=float)
    if out is None:
        out = np.empty(u.shape)
    flat_u, flat_out = u.reshape(-1), out.reshape(-1)
    for start in range(0, flat_u.size, _SAMPLE_BLOCK):
        block = slice(start, start + _SAMPLE_BLOCK)
        sample_into(flat_u[block], flat_out[block])
    return out


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

    def from_uniform(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Map uniform(0,1) draws to draws from this distribution.

        With ``out``, a 1-d float array shaped like ``u``, the draws are
        written there and ``out`` is returned; ``out`` may be ``u`` itself,
        which is then overwritten, but must not otherwise overlap it.
        """
        raise NotImplementedError

    def _draw_column(self, rng: np.random.Generator, out: np.ndarray, flipped=None) -> None:
        """Fill ``out`` with draws of a column of the Monte-Carlo pass read
        from ``rng``, and ``flipped``, when given, with their antithetic
        partners: uniforms u and 1 - u through ``from_uniform``. One draw
        reads one double, so a column read in blocks reads the same draws."""
        rng.random(out=out)
        halves = (out,) if flipped is None else (out, np.subtract(1.0, out, out=flipped))
        for half in halves:
            self.from_uniform(half, out=half)

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
        self._closed_form_max = self._width >= _MIN_UNIFORM_WIDTH * hi

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

    def from_uniform(self, u, out=None):
        return _sample_in_place(self, u, out)

    @staticmethod
    def _inverse_cdf(v, p):
        """Overwrite the uniform draws ``v`` with draws of the family whose
        parameters ``p`` holds, as floats or as arrays aligned with ``v``; an
        instance and a stacked mixture (``_Gathered``) share this formula.
        ``from_uniform`` passes draws it may overwrite (``_sample_in_place``)."""
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

    def from_uniform(self, u, out=None):
        return _sample_in_place(self, u, out)

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
        inside = x > 0.0
        return _where(inside, -_expm1(-p.rate * _where(inside, x, 0.0), fast), 0.0)

    @staticmethod
    def _pdf_block(x, p, fast=False):
        inside = x >= 0.0
        return _where(inside, p.rate * _exp(-p.rate * _where(inside, x, 0.0), fast), 0.0)

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
        if x <= 0.0:
            return 0.0
        z = (math.log(x) - self.log_mean) / self.log_sd
        # _norm_pdf(z), inlined: quadrature calls this per node
        return math.exp(-0.5 * z * z) / _ROOT_2PI / (x * self.log_sd)

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

    def from_uniform(self, u, out=None):
        return _sample_in_place(self, u, out)

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

    def _draw_column(self, rng, out, flipped=None):
        # standard normals z by the ziggurat, and -z as their partners, with
        # no inverse CDF; the ziggurat reads whole draws from the stream, so
        # a column read in blocks still reads the same draws
        rng.standard_normal(out=out)
        halves = (out,) if flipped is None else (out, np.negative(out, out=flipped))
        for half in halves:
            self._from_normal(half, self)

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
        inside = x > 0.0
        x = _where(inside, x, 1.0)
        z = (_log(x, fast) - p.log_mean) / p.log_sd
        return _where(inside, _norm_pdf(z, fast) / (x * p.log_sd), 0.0)

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

    def from_uniform(self, u, out=None):
        return _sample_in_place(self, u, out)

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
        ratio = TruncatedNormal._mass_block((x - p.norm_mean) / p.norm_sd, p) / p._z
        # min(1.0, max(0.0, ratio)), as Python takes them: np.maximum(a, b) is
        # np.where(a >= b, a, b) where neither is nan
        return _where(x <= 0.0, 0.0, np.minimum(1.0, np.maximum(0.0, ratio)))

    @staticmethod
    def _pdf_block(x, p, fast=False):
        z = (x - p.norm_mean) / p.norm_sd
        return _where(x < 0.0, 0.0, _norm_pdf(z, fast) / (p.norm_sd * p._z))

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

    def from_uniform(self, u, out=None):
        return _blocked(self._sample_into, u, out)

    def _sample_into(self, u, out):
        idx = np.ceil(u * self._n - 1e-9).astype(int) - 1
        np.take(self.values, idx, out=out, mode="clip")

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


class Mixture(Distribution):
    """Finite mixture; weights must be positive and sum to 1 within 1e-12.

    When every component comes from the same parametric family, the mixture
    evaluates and samples as one stacked family (``_Stack``): each kernel is
    one array call over the components. Mixed families, and truncated normals
    with means on both sides of zero, keep the sum over their components.

    A compound is built from its parameter grid (``_of_grid``) and holds no
    component objects: ``components`` creates them on first use, for the
    paths that walk them.
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
        # built on first use, so that constructing a compound stays cheap
        self._closed_form = None
        self._mean = None
        # (u, quantile(u)) of the last call: a command asks for q* repeatedly
        self._last_quantile = None
        self._has_density = None
        self._support = None
        self._breakpoints = None
        self._atoms = None
        self._stack = None
        self._strata = None

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

    @property
    def _closed_form_max(self):
        if self._closed_form is None:
            stack = self._stacked()
            if stack is not None:
                self._closed_form = stack.closed_form_max()
            else:
                self._closed_form = all(d._closed_form_max for _, d in self.components)
        return self._closed_form

    @property
    def has_density(self):
        if self._has_density is None:
            self._has_density = self._stacked() is not None or all(
                d.has_density for _, d in self.components
            )
        return self._has_density

    def support(self):
        if self._support is None:
            stack = self._stacked()
            if stack is not None:
                self._support = stack.support()
            else:
                lo = min(d.support()[0] for _, d in self.components)
                hi = max(d.support()[1] for _, d in self.components)
                self._support = (lo, hi)
        return self._support

    def _family(self):
        """The one class of every component, else None."""
        if self._grid is not None:
            return self._grid[0]
        family = type(self._components[0][1])
        return family if all(type(d) is family for _, d in self._components) else None

    def _stacked(self):
        """The components as one ``_Stack`` when they share a parametric
        family, else None."""
        if self._stack is None:
            self._stack = False
            family = self._family()
            stack = _STACKS.get(family)
            if stack is not None:
                if self._grid is not None:
                    params = self._grid[1]
                else:
                    # a hand-built mixture: its components' records, once
                    params = _member_params(family, [d for _, d in self._components])
                if stack.accepts(params):
                    self._stack = stack(params, self._weights)
        return self._stack or None

    def cdf(self, x):
        stack = self._stacked()
        if stack is not None:
            return stack.combine(stack.cdf(x))
        return math.fsum(w * d.cdf(x) for w, d in self.components)

    def pdf(self, x):
        stack = self._stacked()
        if stack is not None:
            return stack.combine(stack.pdf(x))
        return math.fsum(w * d.pdf(x) for w, d in self.components)

    def mean(self):
        if self._mean is None:
            stack = self._stacked()
            if stack is not None:
                self._mean = stack.combine(stack.means())
            else:
                self._mean = math.fsum(w * d.mean() for w, d in self.components)
        return self._mean

    def _quantile(self, u):
        last = self._last_quantile
        if last is not None and last[0] == u:
            return last[1]
        q = self._bisect_quantile(u)
        self._last_quantile = (u, q)
        return q

    def _bisect_quantile(self, u):
        stack = self._stacked()
        if stack is not None:
            lo, hi = stack.quantile_range(u)
            reaches = stack.cdf_reaches
        else:
            lo = min(d._quantile(u) for _, d in self.components)
            hi = max(d._quantile(u) for _, d in self.components)
            reaches = lambda x, u: self.cdf(x) >= u  # noqa: E731
        if hi <= lo:
            return lo
        # generalized inverse by bisection; handles flat segments and jumps
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if reaches(mid, u):
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-15 * max(1.0, abs(hi)):
                break
        return hi

    def from_uniform(self, u, out=None):
        return _blocked(self._sample_into, u, out)

    def _sample_into(self, u, out):
        # stratified composition: the uniform draw picks the component and the
        # position within it, so the map stays deterministic and vectorized
        weights, edges, _, _ = self._sampling_tables()
        idx = self._component_index(u)
        v = np.subtract(u, edges[idx], out=out)
        v /= weights[idx]
        np.clip(v, 0.0, np.nextafter(1.0, 0.0), out=v)
        stack = self._stacked()
        if stack is not None:
            stack.family._inverse_cdf(v, _Gathered(stack, idx))
            return
        for j, (_, d) in enumerate(self.components):
            where = np.flatnonzero(idx == j)
            if where.size:
                part = v[where]
                v[where] = d.from_uniform(part, out=part)

    def _sampling_tables(self):
        """(weights, edges, upper edges, guide table) of the composition.

        ``edges`` are the cumulative weights from 0 to 1 and component i owns
        [edges[i], edges[i + 1]). The guide table has a power-of-two size g,
        so that c = floor(u g) and c / g are exact, and holds the component
        that owns c / g; every u in cell c belongs to that one or a later one.
        """
        if self._strata is None:
            weights = self._weights
            edges = np.concatenate(([0.0], np.cumsum(weights)))
            edges[-1] = 1.0
            # the last component also takes u >= 1, as a clip would
            upper = np.append(edges[1:-1], np.inf)
            k = weights.size
            g = 1 << (k - 1).bit_length()
            cells = np.arange(g) / g
            guide = np.clip(np.searchsorted(edges, cells, side="right") - 1, 0, k - 1)
            self._strata = (weights, edges, upper, guide.astype(np.int32))
        return self._strata

    def _component_index(self, u: np.ndarray) -> np.ndarray:
        """Component of each draw: searchsorted(edges, u, "right") - 1, clipped
        to the components, found by a guide-table lookup and steps to the right."""
        _, _, upper, guide = self._sampling_tables()
        cell = np.array(u * guide.size, dtype=np.int32)
        np.clip(cell, 0, guide.size - 1, out=cell)
        idx = guide[cell]
        del cell
        while True:
            step = upper[idx] <= u
            if not step.any():
                return idx
            idx += step

    def atoms(self):
        # cached read-only, since every caller shares the arrays; False when
        # a component is not atomic, as no member of a stack's family is
        if self._atoms is None:
            self._atoms = False
            parts = [None] if self._stacked() else [d.atoms() for _, d in self.components]
            if all(p is not None for p in parts):
                values = np.concatenate([vals for vals, _ in parts])
                weights = np.concatenate(
                    [w * wts for (_, wts), (w, _) in zip(parts, self.components)]
                )
                values.setflags(write=False)
                weights.setflags(write=False)
                self._atoms = (values, weights)
        return self._atoms or None

    def breakpoints(self):
        if self._breakpoints is None:
            stack = self._stacked()
            if stack is not None:
                self._breakpoints = stack.breakpoints()
            else:
                pts = set()
                for _, d in self.components:
                    pts.update(d.breakpoints())
                self._breakpoints = tuple(sorted(pts))
        return self._breakpoints

    def _partial_expectation(self, q):
        stack = self._stacked()
        if stack is not None:
            return stack.combine(stack._partial_expectation(q))
        return math.fsum(w * d._partial_expectation(q) for w, d in self.components)

    def _second_partial_moment(self, q):
        stack = self._stacked()
        if stack is not None:
            return stack.combine(stack._second_partial_moment(q))
        return math.fsum(w * d._second_partial_moment(q) for w, d in self.components)

    def _survival_integral(self, q, weighted=False):
        # quadrature of F on either path, so it checks the stacked M1 and M2
        # independently: a stack takes one quadrature of its own survival
        # function, split at every kink, unless its components' kinks make
        # one quadrature each cheaper (scalar_pays)
        stack, pts = self._stacked(), self.breakpoints()
        if stack is None or not scalar_pays(stack.size, 0.0, q, pts):
            return math.fsum(w * d._survival_integral(q, weighted) for w, d in self.components)
        weights, cdf = stack.weights, stack.cdf
        rows = max(1, _SAMPLE_BLOCK // stack.size)

        def survival(_, t):
            # each round's nodes against the components, in chunks of at
            # most _SAMPLE_BLOCK products
            nodes = t.reshape(-1, 1)
            tails = np.empty(nodes.size)
            for start in range(0, nodes.size, rows):
                part = slice(start, start + rows)
                tails[part] = (weights * cdf(nodes[part], fast=True)).sum(axis=1)
            tails = 1.0 - tails
            return (tails * nodes[:, 0] if weighted else tails).reshape(t.shape)

        (value,) = integrate_many(survival, [(0.0, q, pts)], every_point=True)
        return value

    def to_dict(self):
        return {
            "family": "mixture",
            "components": [{"weight": w, "dist": d.to_dict()} for w, d in self.components],
        }


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
    """A mixture of one parametric family as arrays over its components.

    It is built from the family's parameters, one array each, keyed as in the
    family's record and in the order of its constructor (``params``); every
    entry must pass ``valid``. ``_derive`` computes the constants of the
    scalar constructor by the same expressions, under the family's own
    attribute names; ``fields`` names every per-component array, which
    ``_Gathered`` gathers per draw or per row.

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

    def __init__(self, params: dict[str, np.ndarray], weights: np.ndarray):
        self.weights = weights
        self.size = weights.size
        self._derive(**params)

    @staticmethod
    def valid(**params) -> np.ndarray:
        """Per entry, whether the family's constructor accepts the parameters."""
        raise NotImplementedError

    @staticmethod
    def accepts(params) -> bool:
        """Whether these members of the family can share one stack."""
        return True

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

    def closed_form_max(self) -> bool:
        """``Mixture._closed_form_max`` of the components."""
        return self.family._closed_form_max

    def support(self) -> tuple[float, float]:
        """``Mixture.support`` of the components: the three families other
        than the uniform are supported on [0, inf)."""
        return (0.0, math.inf)

    def combine(self, values):
        """sum_i w_i values_i, correctly rounded (``_exact_sum``), as the
        per-component sum by ``math.fsum``: the products are the same IEEE
        operations. ``values`` at one point gives a float; a 2-D block, one
        row of the components per point, gives one sum per row."""
        return _exact_sum(self.weights * values)

    def cdf_reaches(self, x: float, u: float) -> bool:
        """Whether ``combine(cdf(x)) >= u``, bit for bit, mostly without the
        exact sum. In whatever order numpy adds the products, its sum s is
        within size * eps * sum|products| of their exact sum, and the products
        of positive weights and CDF values are not negative, so that bound is
        size * eps * s. The exact sum therefore exceeds u when s - bound > u,
        and rounds below u when s + bound is below u's float predecessor; only
        the steps in between, next to the quantile, take ``combine``."""
        values = self.cdf(x)
        total = float((self.weights * values).sum())
        bound = self.size * _EPS * total
        if total - bound > u:
            return True
        if total + bound < math.nextafter(u, -math.inf):
            return False
        return self.combine(values) >= u

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


class _Gathered:
    """A stack's parameter arrays gathered per draw on access, so that one
    gathered array at a time is alive while a sampling formula runs; other
    attributes are the stack's own."""

    __slots__ = ("_stack", "_idx")

    def __init__(self, stack: _Stack, idx: np.ndarray):
        self._stack = stack
        self._idx = idx

    def __getattr__(self, name):
        value = getattr(self._stack, name)
        return value[self._idx] if name in self._stack.fields else value


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

    def closed_form_max(self):
        return bool(np.all(self._width >= _MIN_UNIFORM_WIDTH * self.hi))

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
        # squared by pow, as LogNormal.log_var
        squares = map(math.pow, log_sd.tolist(), itertools.repeat(2.0))
        self.log_var = np.fromiter(squares, float, log_sd.size)
        self._mean = _exp(log_mean + 0.5 * self.log_var)
        self.m2_scale = _exp(2.0 * (log_mean + self.log_var))

    def means(self):
        return self._mean

    def quantile_range(self, u):
        # exp is monotone, so the extremes are taken before it, by math.exp
        # as in the scalar quantile
        x = self.log_mean + self.log_sd * float(ndtri(u))
        return math.exp(x.min()), math.exp(x.max())


class _TruncatedNormalStack(_Stack):
    family = TruncatedNormal
    params = ("mean", "sd")
    fields = ("norm_mean", "norm_sd", "_f0", "_z", "_pdf_alpha")

    @staticmethod
    def valid(mean, sd):
        # no mass on [0, inf) where Z = Phi(-alpha), alpha = -mean / sd, underflows
        alpha = -mean / sd
        return np.isfinite(mean) & np.isfinite(sd) & (sd > 0.0) & (ndtr(-alpha) > 0.0)

    @staticmethod
    def accepts(params):
        # one tail form for all: a compound's uncertain means are quantiles
        # of a distribution on [0, inf), so a grid of both signs is only
        # ever written by hand
        upper = -params["mean"] / params["sd"] > 0.0
        return bool(upper.all() or not upper.any())

    def _derive(self, mean, sd):
        self.norm_mean, self.norm_sd = mean, sd
        alpha = -mean / sd
        self._f0 = ndtr(alpha)
        self._z = ndtr(-alpha)
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

    def from_uniform(self, u, out=None):
        return _blocked(self._sample_into, u, out)

    def _sample_into(self, u, out):
        np.multiply(u, self._z, out=out)
        self.base.from_uniform(out, out=out)
        np.minimum(out, self.upper, out=out)

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
    """E[max(X, Y)] for independent X ~ dist_a, Y ~ dist_b.

    When one side is a uniform, or a mixture of uniforms, it is evaluated in
    closed form from the other side's F, M1 and M2, unless either side is or
    mixes in a uniform narrower than ``_MIN_UNIFORM_WIDTH`` of its upper end
    or a truncated normal, whose partial moments are too coarse for it.
    Otherwise it goes through exact atom conditioning, or, when both sides
    have a density:

    - between two parametric families, through the decomposition
      ``int x g(x) F(x) dx + int y f(y) G(y) dy``;
    - otherwise (a mixture, or an upper truncation, on either side), through
      E_X[h_Y(X)] with h_Y(t) = E[max(t, Y)], one quadrature over X
      (``_expected_max_over``), the side ``_integration_rank`` ranks lower:
      one that is not a mixture, the narrower of two such, else the mixture
      with fewer kinks; a mixture of several families against another
      mixture is the weighted sum over its components.

    A side whose density a quadrature integrates and whose quartiles round
    to one float is refused with NumericalIntegrityError: no node would see
    its mass.

    Arguments are put in a canonical order first so the result is
    bit-identical under swaps.
    """
    pair = _closed_form_pair(dist_a, dist_b)
    if pair is not None:
        u, other = pair
        if isinstance(u, Uniform):
            return _expected_max_uniform(u, other)
        # a mixture of uniforms against anything but another one
        return math.fsum(w * _expected_max_uniform(c, other) for w, c in u.components)
    if _sorts_before(dist_b, dist_a):
        dist_a, dist_b = dist_b, dist_a
    return _expected_max(dist_a, dist_b)


def expected_maxima(orders, demand: Distribution) -> list[float]:
    """``[expected_max(g, demand) for g in orders]``, bit for bit, for the
    candidates of a search, evaluated together where that pays.

    Uniforms that take the closed form against a uniform, exponential or
    lognormal demand, or against a stacked mixture of one of them, are
    evaluated over arrays (``_uniform_maxima``); against a stack, each kernel
    is one block of the candidates against the components, summed per row
    as ``Mixture`` sums it at one point. Orders of a parametric family that
    take the density-pair quadrature against a parametric demand share one
    lockstep quadrature (``_density_maxima``). The rest, such as any other
    order against a mixture or an upper truncation, take ``expected_max``
    one by one.
    """
    values = [0.0] * len(orders)
    closed, dense, alone = [], [], []
    arrays = type(demand) in _STACKS or _stack_of(demand) is not None
    for k, g in enumerate(orders):
        if _closed_form_pair(g, demand) is not None:
            # the demand has the closed-form maximum: no truncated normal
            batch = closed if type(g) is Uniform and arrays else alone
        else:
            batch = dense if _parametric_pair(g, demand) else alone
        batch.append(k)
    for k in alone:
        values[k] = expected_max(orders[k], demand)
    for batch, maxima in ((closed, _uniform_maxima), (dense, _density_maxima)):
        if batch:
            for k, value in zip(batch, maxima([orders[k] for k in batch], demand)):
                values[k] = value
    return values


def _sorts_before(a: Distribution, b: Distribution) -> bool:
    """Whether a's record sorts before b's as canonical JSON (``_order_key``).
    A mixture's record begins '{"components"' and every other one
    '{"family"', an upper truncation keeping its base's first key; so only
    two mixtures need their full records, which create every component."""
    mixture_a, mixture_b = _mixture_record(a), _mixture_record(b)
    if mixture_a != mixture_b:
        return mixture_a
    return a._order_key() < b._order_key()


def _mixture_record(d: Distribution) -> bool:
    """Whether d's record is a mixture's, or an upper truncation of one."""
    if isinstance(d, UpperTruncated):
        d = d.base
    return isinstance(d, Mixture)


def expected_min(dist_a: Distribution, dist_b: Distribution) -> float:
    """E[min(X, Y)] via min + max = X + Y."""
    return dist_a.mean() + dist_b.mean() - expected_max(dist_a, dist_b)


def _expected_max(x: Distribution, y: Distribution) -> float:
    ax = x.atoms()
    if ax is not None:
        return _expected_max_over_atoms(ax, y)
    ay = y.atoms()
    if ay is not None:
        return _expected_max_over_atoms(ay, x)
    # a mixture of several families against another mixture is linear in its
    # components, so that each is integrated over on a ladder of its own
    for mix, other in ((x, y), (y, x)):
        if isinstance(mix, Mixture) and isinstance(other, Mixture) and _stack_of(mix) is None:
            return math.fsum(w * expected_max(d, other) for w, d in mix.components)
    if x.has_density and y.has_density:
        return _expected_max_densities(x, y)
    # a mixture with both atomic and continuous parts: condition on the component
    if isinstance(x, Mixture):
        return math.fsum(w * _expected_max(d, y) for w, d in x.components)
    if isinstance(y, Mixture):
        return math.fsum(w * _expected_max(x, d) for w, d in y.components)
    raise ValueError("expected_max cannot decompose these distributions")


def _uniform_rank(d: Distribution) -> tuple:
    """Lowest for a uniform (ordered by its interval), then a mixture of
    uniforms: the side the closed-form expected maximum integrates over."""
    if isinstance(d, Uniform):
        return (0, d.lo, d.hi)
    if isinstance(d, Mixture) and d._family() is Uniform:
        return (1,)
    return (2,)


def _closed_form_pair(a: Distribution, b: Distribution):
    """(the uniform side, the other) when ``expected_max`` of a and b takes
    the closed form, the side ``_uniform_rank`` ranks lower integrating;
    else None."""
    if not (a._closed_form_max and b._closed_form_max):
        return None
    rank_a, rank_b = _uniform_rank(a), _uniform_rank(b)
    if rank_b < rank_a:
        a, b, rank_a, rank_b = b, a, rank_b, rank_a
    if rank_a[0] == 0 or rank_a < rank_b:
        return a, b
    return None


def _expected_max_uniform(u: Uniform, other: Distribution) -> float:
    return _uniform_closed_form(
        other.mean(),
        u.lo,
        u.hi,
        u._width,
        other.cdf,
        other._partial_expectation,
        other._second_partial_moment,
    )


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
    functions of the points."""
    family = type(d) if isinstance(d, Distribution) else d.family
    return [functools.partial(getattr(family, f"_{name}_block"), p=d) for name in kernels]


def _uniform_maxima(orders: list[Uniform], demand: Distribution) -> list[float]:
    """``_expected_max_uniform`` of closed-form uniforms against a demand of
    a parametric family or a stacked mixture of one, over arrays: a uniform
    demand integrates instead of the order where its (lo, hi) sorts first
    (``_uniform_rank``), while a uniform order ranks below any mixture."""
    stack = _stack_of_members(orders)
    mixture = _stack_of(demand)
    if mixture is not None:
        return _uniform_maxima_over(stack, demand.mean(), mixture)
    lo, hi = stack.lo, stack.hi
    kernels = _blocks(demand, "cdf", "m1", "m2")
    values = _uniform_closed_form(demand.mean(), lo, hi, stack._width, *kernels)
    if type(demand) is Uniform:
        swap = (demand.lo < lo) | ((demand.lo == lo) & (demand.hi < hi))
        if swap.any():
            kernels = _blocks(stack, "cdf", "m1", "m2")
            swapped = _uniform_closed_form(
                stack.means(), demand.lo, demand.hi, demand._width, *kernels
            )
            values = np.where(swap, swapped, values)
    return values.tolist()


def _uniform_maxima_over(orders: _Stack, mean: float, mixture: _Stack) -> list[float]:
    """``_uniform_maxima`` against a stacked mixture of the given mean. Each
    kernel takes a column of the orders' lo or hi against the components and
    sums each row by ``combine``, the products and their rounding being
    those of the mixture's kernels at one point; the orders go in chunks of
    at most ``_SAMPLE_BLOCK`` products a block."""

    def summed(kernel):
        return lambda x: mixture.combine(kernel(x[:, np.newaxis]))

    kernels = [summed(kernel) for kernel in _blocks(mixture, "cdf", "m1", "m2")]
    rows = max(1, _SAMPLE_BLOCK // mixture.size)
    values = []
    for start in range(0, orders.size, rows):
        part = slice(start, start + rows)
        chunk = _uniform_closed_form(
            mean, orders.lo[part], orders.hi[part], orders._width[part], *kernels
        )
        values.extend(chunk.tolist())
    return values


def _expected_max_at(t: float, y: Distribution) -> float:
    """E[max(t, Y)] = t F_Y(t) + int_t^inf s f_Y(s) ds, for a point t."""
    return t * y.cdf(t) + y.upper_partial_expectation(t)


def _expected_max_over_atoms(atoms, other: Distribution) -> float:
    values, weights = atoms
    return math.fsum(w * _expected_max_at(v, other) for v, w in zip(values, weights))


def _parametric_pair(a: Distribution, b: Distribution) -> bool:
    """Whether both sides are members of parametric families, the pairs whose
    expected maximum takes the halves (``_half_max``, ``_density_maxima``)."""
    return type(a) in _STACKS and type(b) in _STACKS


def _expected_max_densities(x: Distribution, y: Distribution) -> float:
    cut = max(x.upper_cut(), y.upper_cut())
    if _parametric_pair(x, y):
        _check_resolved(x, y)
        pts = set(x.breakpoints()) | set(y.breakpoints())
        return _half_max(x, y, cut, pts) + _half_max(y, x, cut, pts)
    if _integration_rank(y) < _integration_rank(x):
        x, y = y, x
    _check_resolved(x)
    return _expected_max_over(x, y, cut)


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


def _expected_max_over(x: Distribution, y: Distribution, cut: float) -> float:
    """E[max(X, Y)] = E_X[h_Y(X)] with h_Y(t) = E[max(t, Y)]: one quadrature
    of h_Y f_X over X's support below the cut, plus X's tail moment beyond
    the cut, where h_Y(t) is t within TAIL_PROB.

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
    lo, top = x.support()
    hi = min(top, cut)
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


def _half_range(x: Distribution, y: Distribution, cut: float) -> tuple[float, float]:
    """Where ``_half_max`` integrates: both supports, below the cut."""
    return max(x.support()[0], y.support()[0]), min(x.support()[1], cut)


def _half_max(x: Distribution, y: Distribution, cut: float, pts) -> float:
    # int t f_x(t) F_y(t) dt; beyond the cut F_y is within TAIL_PROB of 1, so
    # the remainder is the exact tail moment of x
    lo, hi = _half_range(x, y, cut)
    pdf, cdf = x.pdf, y.cdf
    value = integrate(lambda t: t * pdf(t) * cdf(t), lo, hi, pts)
    return value + x.upper_partial_expectation(max(hi, lo))


def _density_maxima(orders: list[Distribution], demand: Distribution) -> list[float]:
    """``_expected_max_densities`` of each order of a parametric family
    against a parametric demand, bit for bit, with every half's quadrature
    in one ``integrate_many``, listed in the order ``expected_max`` takes
    them, so that a failure raises the error ``expected_max`` would raise
    first. The orders' kernels over a block come from one stack per family
    and tail form, gathered per row."""
    for k, g in enumerate(orders):
        try:
            _check_resolved(*((demand, g) if _sorts_before(demand, g) else (g, demand)))
        except NumericalIntegrityError:
            # the candidates before it come first, and may fail first
            if k:
                _density_maxima(orders[:k], demand)
            raise
    groups: dict[tuple, list[int]] = {}
    for k, g in enumerate(orders):
        groups.setdefault((type(g), getattr(g, "_upper_tail", None)), []).append(k)
    stacks, member = [], [None] * len(orders)
    for members in groups.values():
        for row, k in enumerate(members):
            member[k] = (len(stacks), row)
        stacks.append(_stack_of_members([orders[k] for k in members]))

    spans, tails, owners = [], [], []
    for k, g in enumerate(orders):
        cut = max(g.upper_cut(), demand.upper_cut())
        pts = set(g.breakpoints()) | set(demand.breakpoints())
        order_first = not _sorts_before(demand, g)
        for order_x in (order_first, not order_first):
            x, y = (g, demand) if order_x else (demand, g)
            lo, hi = _half_range(x, y, cut)
            spans.append((lo, hi, pts))
            tails.append(x.upper_partial_expectation(max(hi, lo)))
            owners.append((*member[k], order_x))
    span_stack, span_row, span_side = (np.array(column) for column in zip(*owners))
    demand_pdf, demand_cdf = _blocks(demand, "pdf", "cdf")

    def integrand(owner, t):
        # t f_x(t) F_y(t), one group of rows at a time: a stack, and whether
        # the order is x
        out = np.empty(t.shape)
        stack_of, side_of = span_stack[owner], span_side[owner]
        for i, stack in enumerate(stacks):
            for side in (True, False):
                rows = np.flatnonzero((stack_of == i) & (side_of == side))
                if rows.size:
                    block = t[rows]
                    pdf, cdf = _blocks(_Gathered(stack, span_row[owner[rows], None]), "pdf", "cdf")
                    if side:
                        out[rows] = block * pdf(block) * demand_cdf(block)
                    else:
                        out[rows] = block * demand_pdf(block) * cdf(block)
        return out

    halves = [value + tail for value, tail in zip(integrate_many(integrand, spans), tails)]
    return [first + second for first, second in zip(halves[::2], halves[1::2])]


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
    """The stack of a single-family mixture, else None."""
    return d._stacked() if isinstance(d, Mixture) else None


def _member_params(family: type, dists) -> dict[str, np.ndarray]:
    """The parameter arrays of members of a parametric family, keyed as in
    its record, as its stack takes them."""
    records = [d.to_dict() for d in dists]
    return {name: np.array([r[name] for r in records]) for name in _STACKS[family].params}


def _stack_of_members(dists) -> _Stack:
    """Members of one parametric family, with one tail form for truncated
    normals, as an equal-weight stack."""
    family = type(dists[0])
    return _STACKS[family](_member_params(family, dists), np.full(len(dists), 1.0 / len(dists)))


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
