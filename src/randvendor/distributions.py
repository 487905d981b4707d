"""Univariate distribution kernels on the non-negative half-line.

Each family defines the CDF ``F`` and the partial moments
``M1(q) = int_0^q t f(t) dt`` and ``M2(q) = int_0^q t^2 f(t) dt`` in closed
form. ``Distribution`` derives the rest once, by parts: the integrated CDF
``q F - M1``, its first-moment weighting ``int_0^q t F = (q^2 F - M2) / 2``
and the upper partial expectation ``mean - M1``. The expected maximum of
a uniform and any other distribution follows from the other side's F, M1
and M2 in closed form, and is linear over a mixture of uniforms. Adaptive
quadrature is used only for ``survival_integral`` and
``weighted_survival_integral`` (independent forms the newsvendor profit and
variance are cross-checked against) and for the expected maximum of the
remaining pairs that both have a density, including those with a uniform too
narrow for the closed form or a truncated normal, whose partial moments lose
relative precision below its bulk.

A mixture whose components share one parametric family is evaluated and
sampled as one stacked family (``_Stack``), one array call per kernel and
per Monte-Carlo batch, with the same results bit for bit as the sum over its
components; a mixture of different families, or of truncated normals with
means on both sides of zero, keeps that sum.

Instances are immutable after construction and safe to share across
threads. Sampling derives a counter-based generator from an explicit seed
and never touches global state.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from ._quad import TAIL_PROB, integrate

_ROOT_2PI = math.sqrt(2.0 * math.pi)
_LOG_ROOT_2PI = 0.5 * math.log(2.0 * math.pi)
# A uniform narrower than this share of its upper end is left out of the
# closed-form expected maximum, whose H(b) - H(a) cancels like eps * b / (b - a)
_MIN_UNIFORM_WIDTH = 1e-3


def _norm_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / _ROOT_2PI


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

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Map uniform(0,1) draws to draws from this distribution."""
        raise NotImplementedError

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
        if weighted:
            return integrate(lambda t: t * (1.0 - self.cdf(t)), 0.0, q, self.breakpoints())
        return integrate(lambda t: 1.0 - self.cdf(t), 0.0, q, self.breakpoints())

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
        arguments by it."""
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

    def from_uniform(self, u):
        return self._inverse_cdf(np.array(u, dtype=float), self)[()]

    @staticmethod
    def _inverse_cdf(v, p):
        """Overwrite the uniform draws ``v`` with draws of the family whose
        parameters ``p`` holds, as floats or as arrays aligned with ``v``; an
        instance and a stacked mixture (``_Gathered``) share this formula.
        ``from_uniform`` passes a copy and turns a 0-d result into a scalar."""
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

    def from_uniform(self, u):
        return self._inverse_cdf(np.array(u, dtype=float), self)[()]

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
        return _norm_pdf(z) / (x * self.log_sd)

    def mean(self):
        return math.exp(self.log_mean + 0.5 * self.log_sd**2)

    def _quantile(self, u):
        return math.exp(self.log_mean + self.log_sd * float(ndtri(u)))

    def from_uniform(self, u):
        return self._inverse_cdf(np.array(u, dtype=float), self)[()]

    @staticmethod
    def _inverse_cdf(v, p):
        ndtri(v, out=v)
        v *= p.log_sd
        v += p.log_mean
        return np.exp(v, out=v)

    def _partial_expectation(self, q):
        if q <= 0.0:
            return 0.0
        z = (math.log(q) - self.log_mean - self.log_sd**2) / self.log_sd
        return self.mean() * float(ndtr(z))

    def _second_partial_moment(self, q):
        if q <= 0.0:
            return 0.0
        z = (math.log(q) - self.log_mean - 2.0 * self.log_sd**2) / self.log_sd
        return math.exp(2.0 * (self.log_mean + self.log_sd**2)) * float(ndtr(z))

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
        return _norm_pdf(z) / (self.norm_sd * self._z)

    def mean(self):
        return _truncnorm_mean(self.norm_mean, self.norm_sd)

    def _quantile(self, u):
        # _inverse_cdf for one draw, without the cost of numpy on a scalar
        if self._upper_tail:
            return self.norm_mean - self.norm_sd * float(ndtri((1.0 - u) * self._z))
        return self.norm_mean + self.norm_sd * float(ndtri(self._f0 + u * self._z))

    def from_uniform(self, u):
        return self._inverse_cdf(np.array(u, dtype=float), self)[()]

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
        return (m * mass + s * (_norm_pdf(self._alpha) - _norm_pdf(beta))) / self._z

    def _second_partial_moment(self, q):
        if q <= 0.0:
            return 0.0
        m, s = self.norm_mean, self.norm_sd
        beta = (q - m) / s
        mass = self._mass(beta)
        tails = m * _norm_pdf(self._alpha) - (m + q) * _norm_pdf(beta)
        return ((m * m + s * s) * mass + s * tails) / self._z

    def to_dict(self):
        return {"family": "truncated_normal", "mean": self.norm_mean, "sd": self.norm_sd}


def _truncnorm_mean(location: float, sd: float) -> float:
    """Mean of Normal(location, sd) conditioned on [0, inf)."""
    z = location / sd
    # inverse Mills ratio in log space; stable for any z
    return location + sd * math.exp(-0.5 * z * z - _LOG_ROOT_2PI - float(log_ndtr(z)))


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

    def from_uniform(self, u):
        idx = np.ceil(np.asarray(u, dtype=float) * self._n - 1e-9).astype(int) - 1
        return self.values[np.clip(idx, 0, self._n - 1)]

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
        self.components = tuple(comps)
        self._closed_form_max = all(d._closed_form_max for _, d in comps)
        # built on first use, so that constructing a compound stays cheap
        self._mean = None
        self._has_density = None
        self._support = None
        self._breakpoints = None
        self._atoms = None
        self._stack = None
        self._strata = None

    @property
    def has_density(self):
        if self._has_density is None:
            self._has_density = all(d.has_density for _, d in self.components)
        return self._has_density

    def support(self):
        if self._support is None:
            lo = min(d.support()[0] for _, d in self.components)
            hi = max(d.support()[1] for _, d in self.components)
            self._support = (lo, hi)
        return self._support

    def _stacked(self):
        """The components as one ``_Stack`` when they share a parametric
        family, else None."""
        if self._stack is None:
            dists = [d for _, d in self.components]
            family = type(dists[0])
            stack = _STACKS.get(family)
            shared = stack is not None and all(type(d) is family for d in dists)
            if shared and stack.accepts(dists):
                self._stack = stack(dists, self._sampling_tables()[0])
            else:
                self._stack = False
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
            self._mean = math.fsum(w * d.mean() for w, d in self.components)
        return self._mean

    def _quantile(self, u):
        stack = self._stacked()
        if stack is not None:
            lo, hi = stack.quantile_range(u)
        else:
            lo = min(d._quantile(u) for _, d in self.components)
            hi = max(d._quantile(u) for _, d in self.components)
        if hi <= lo:
            return lo
        # generalized inverse by bisection; handles flat segments and jumps
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) >= u:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-15 * max(1.0, abs(hi)):
                break
        return hi

    def from_uniform(self, u):
        # stratified composition: the uniform draw picks the component and the
        # position within it, so the map stays deterministic and vectorized
        u = np.asarray(u, dtype=float)
        weights, edges, _, _ = self._sampling_tables()
        idx = self._component_index(u)
        v = np.asarray(u - edges[idx])
        v /= weights[idx]
        np.clip(v, 0.0, np.nextafter(1.0, 0.0), out=v)
        stack = self._stacked()
        if stack is not None:
            return stack.family._inverse_cdf(v, _Gathered(stack, idx))
        out = np.empty_like(u)
        for j, (_, d) in enumerate(self.components):
            mask = idx == j
            if mask.any():
                out[mask] = d.from_uniform(v[mask])
        return out

    def _sampling_tables(self):
        """(weights, edges, upper edges, guide table) of the composition.

        ``edges`` are the cumulative weights from 0 to 1 and component i owns
        [edges[i], edges[i + 1]). The guide table has a power-of-two size g,
        so that c = floor(u g) and c / g are exact, and holds the component
        that owns c / g; every u in cell c belongs to that one or a later one.
        """
        if self._strata is None:
            weights = np.array([w for w, _ in self.components])
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
        # a component is not atomic
        if self._atoms is None:
            parts = [d.atoms() for _, d in self.components]
            self._atoms = False
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
        # per component on purpose: an independent check of the stacked M1, M2
        return math.fsum(w * d._survival_integral(q, weighted) for w, d in self.components)

    def to_dict(self):
        return {
            "family": "mixture",
            "components": [{"weight": w, "dist": d.to_dict()} for w, d in self.components],
        }


# -- stacked single-family mixtures --------------------------------------------


class _Stack:
    """A mixture of one parametric family as arrays over its components.

    Parameter arrays carry the family's own attribute names, so the family's
    ``_inverse_cdf`` samples from them through ``_Gathered``. The kernels take
    a scalar argument and return one value per component (or 0.0 where all
    vanish), computed by the same IEEE operations and functions as the scalar
    kernels, so that every weighted sum equals the per-component one bit for
    bit.
    """

    family: type
    fields: tuple[str, ...]

    def __init__(self, dists, weights: np.ndarray):
        self.weights = weights
        for name in self.fields:
            setattr(self, name, np.array([getattr(d, name) for d in dists]))
        self._derive(dists)

    @staticmethod
    def accepts(dists) -> bool:
        """Whether these components of the family can share one stack."""
        return True

    def _derive(self, dists) -> None:
        """Per-component constants, computed by the scalar expressions."""

    def combine(self, values) -> float:
        """sum_i w_i values_i, accurately rounded, as the per-component sum:
        the products are the same IEEE operations."""
        return math.fsum((self.weights * values).tolist())

    def quantile_range(self, u: float) -> tuple[float, float]:
        """Smallest and largest component quantile at u, bit for bit. The
        sampling formula matches the scalar quantile of the uniform and the
        truncated normal; families whose quantile calls ``math`` override."""
        q = self.family._inverse_cdf(np.full(self.weights.size, float(u)), self)
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


def _math_map(fn, x: np.ndarray) -> np.ndarray:
    # element-wise through math: numpy's vectorized exp and expm1 round some
    # inputs differently, and M1, M2 can magnify that by cancellation
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _norm_pdf_array(z: np.ndarray) -> np.ndarray:
    return _math_map(math.exp, -0.5 * z * z) / _ROOT_2PI


class _UniformStack(_Stack):
    family = Uniform
    fields = ("lo", "hi", "_width")

    def cdf(self, x):
        return np.clip((x - self.lo) / self._width, 0.0, 1.0)

    def pdf(self, x):
        return np.where((self.lo <= x) & (x <= self.hi), 1.0 / self._width, 0.0)

    def _partial_expectation(self, q):
        top = np.minimum(q, self.hi)
        return np.where(q <= self.lo, 0.0, (top * top - self.lo * self.lo) / (2.0 * self._width))

    def _second_partial_moment(self, q):
        top, lo = np.minimum(q, self.hi), self.lo
        moment = (top - lo) * (top * top + top * lo + lo * lo) / (3.0 * self._width)
        return np.where(q <= lo, 0.0, moment)


class _ExponentialStack(_Stack):
    family = Exponential
    fields = ("rate",)

    def cdf(self, x):
        return -_math_map(math.expm1, -self.rate * x) if x > 0.0 else 0.0

    def pdf(self, x):
        return self.rate * _math_map(math.exp, -self.rate * x) if x >= 0.0 else 0.0

    def _partial_expectation(self, q):
        lam = self.rate
        closed = -_math_map(math.expm1, -lam * q) / lam - q * _math_map(math.exp, -lam * q)
        return self._series(q, closed, _EXP_M1_SERIES, q)

    def _second_partial_moment(self, q):
        decay = _math_map(math.exp, -self.rate * q)
        closed = 2.0 * self._partial_expectation(q) / self.rate - q * q * decay
        return self._series(q, closed, _EXP_M2_SERIES, q * q)

    def _series(self, q, closed, coeffs, scale):
        """The scalar kernels' small-x series where rate * q is below
        ``_EXP_SERIES_MAX``, else ``closed``."""
        x = self.rate * q
        small = x < _EXP_SERIES_MAX
        if not small.any():
            return closed
        x = np.where(small, x, 0.0)
        series = scale * x * _math_map(math.exp, -x) * _horner(coeffs, x)
        return np.where(small, series, closed)

    def quantile_range(self, u):
        # log1p of the one argument through math, as in the scalar quantile
        q = -math.log1p(-u) / self.rate
        return float(q.min()), float(q.max())


class _LogNormalStack(_Stack):
    family = LogNormal
    fields = ("log_mean", "log_sd")

    def _derive(self, dists):
        self.log_var = np.array([d.log_sd**2 for d in dists])
        self.mean = np.array([d.mean() for d in dists])
        self.m2_scale = np.array([math.exp(2.0 * (d.log_mean + d.log_sd**2)) for d in dists])

    def cdf(self, x):
        if x <= 0.0:
            return 0.0
        return ndtr((math.log(x) - self.log_mean) / self.log_sd)

    def pdf(self, x):
        if x <= 0.0:
            return 0.0
        z = (math.log(x) - self.log_mean) / self.log_sd
        return _norm_pdf_array(z) / (x * self.log_sd)

    def _partial_expectation(self, q):
        if q <= 0.0:
            return 0.0
        return self.mean * ndtr((math.log(q) - self.log_mean - self.log_var) / self.log_sd)

    def _second_partial_moment(self, q):
        if q <= 0.0:
            return 0.0
        z = (math.log(q) - self.log_mean - 2.0 * self.log_var) / self.log_sd
        return self.m2_scale * ndtr(z)

    def quantile_range(self, u):
        # exp is monotone, so the extremes are taken before it, by math.exp
        # as in the scalar quantile
        x = self.log_mean + self.log_sd * float(ndtri(u))
        return math.exp(x.min()), math.exp(x.max())


class _TruncatedNormalStack(_Stack):
    family = TruncatedNormal
    fields = ("norm_mean", "norm_sd", "_f0", "_z")

    @staticmethod
    def accepts(dists):
        # one tail form for all: compound means are never negative, so a
        # mixture of both signs is only ever written by hand
        return len({d._upper_tail for d in dists}) == 1

    def _derive(self, dists):
        self._upper_tail = dists[0]._upper_tail
        self._pdf_alpha = np.array([_norm_pdf(d._alpha) for d in dists])

    def _mass(self, beta):
        if self._upper_tail:
            return self._z - ndtr(-beta)
        return ndtr(beta) - self._f0

    def cdf(self, x):
        if x <= 0.0:
            return 0.0
        mass = self._mass((x - self.norm_mean) / self.norm_sd)
        return np.clip(mass / self._z, 0.0, 1.0)

    def pdf(self, x):
        if x < 0.0:
            return 0.0
        z = (x - self.norm_mean) / self.norm_sd
        return _norm_pdf_array(z) / (self.norm_sd * self._z)

    def _partial_expectation(self, q):
        if q <= 0.0:
            return 0.0
        m, s = self.norm_mean, self.norm_sd
        beta = (q - m) / s
        mass = self._mass(beta)
        return (m * mass + s * (self._pdf_alpha - _norm_pdf_array(beta))) / self._z

    def _second_partial_moment(self, q):
        if q <= 0.0:
            return 0.0
        m, s = self.norm_mean, self.norm_sd
        beta = (q - m) / s
        mass = self._mass(beta)
        tails = m * self._pdf_alpha - (m + q) * _norm_pdf_array(beta)
        return ((m * m + s * s) * mass + s * tails) / self._z


_STACKS = {
    stack.family: stack
    for stack in (_UniformStack, _ExponentialStack, _LogNormalStack, _TruncatedNormalStack)
}


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

    def from_uniform(self, u):
        return np.minimum(self.base.from_uniform(np.asarray(u, float) * self._z), self.upper)

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
    Otherwise it goes through exact atom conditioning, or through the
    decomposition ``int x g(x) F(x) dx + int y f(y) G(y) dy`` when both
    sides have a density. Arguments are put in a canonical order first so
    the result is bit-identical under swaps.
    """
    if dist_a._closed_form_max and dist_b._closed_form_max:
        rank_a, rank_b = _uniform_rank(dist_a), _uniform_rank(dist_b)
        if rank_b < rank_a:
            dist_a, dist_b, rank_a, rank_b = dist_b, dist_a, rank_b, rank_a
        if rank_a[0] == 0:
            return _expected_max_uniform(dist_a, dist_b)
        if rank_a < rank_b:
            # a mixture of uniforms against anything but another one
            return math.fsum(w * _expected_max_uniform(u, dist_b) for w, u in dist_a.components)
    if dist_b._order_key() < dist_a._order_key():
        dist_a, dist_b = dist_b, dist_a
    return _expected_max(dist_a, dist_b)


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
    if isinstance(d, Mixture) and all(isinstance(c, Uniform) for _, c in d.components):
        return (1,)
    return (2,)


def _expected_max_uniform(u: Uniform, other: Distribution) -> float:
    # E[max(Q, D)] = E[D] + E[(Q - D)+], and for Q ~ U(a, b) the second term
    # is the mean of int_0^x F over [a, b]: (H(b) - H(a)) / (b - a) with
    # H(x) = E[((x - D)+)^2] / 2 = (x^2 F - 2 x M1 + M2) / 2
    def h(x):
        return 0.5 * (
            x * x * other.cdf(x)
            - 2.0 * x * other._partial_expectation(x)
            + other._second_partial_moment(x)
        )

    return other.mean() + (h(u.hi) - h(u.lo)) / u._width


def _expected_max_over_atoms(atoms, other: Distribution) -> float:
    values, weights = atoms
    return math.fsum(
        w * (v * other.cdf(v) + other.upper_partial_expectation(v))
        for v, w in zip(values, weights)
    )


def _expected_max_densities(x: Distribution, y: Distribution) -> float:
    cut = max(x.upper_cut(), y.upper_cut())
    pts = set(x.breakpoints()) | set(y.breakpoints())
    return _half_max(x, y, cut, pts) + _half_max(y, x, cut, pts)


def _half_max(x: Distribution, y: Distribution, cut: float, pts) -> float:
    # int t f_x(t) F_y(t) dt; beyond the cut F_y is within TAIL_PROB of 1, so
    # the remainder is the exact tail moment of x
    lo = max(x.support()[0], y.support()[0])
    hi = min(x.support()[1], cut)
    value = 0.0
    if hi > lo:
        value = integrate(lambda t: t * x.pdf(t) * y.cdf(t), lo, hi, pts)
    return value + x.upper_partial_expectation(max(hi, lo))


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


def _generator(*entropy: int) -> np.random.Generator:
    """Counter-based generator keyed on the entropy tuple; replayable anywhere."""
    key = tuple(int(e) % _SEED_MOD for e in entropy)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=key)))
