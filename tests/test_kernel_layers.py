"""The two kernel layers: each family's array kernels (``_cdf_block``,
``_pdf_block``, ``_m1_block``, ``_m2_block``) against its scalar kernels,
element by element and bit for bit, and a stack's kernels, which are the
array kernels over the stack's parameter arrays; a stack's per-row reads
(quantiles, tail moments) against each member's; and the correctly rounded
sum that weighs a stack's kernels (``_exact_sum``) against ``math.fsum``."""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randvendor import Exponential, LogNormal, Mixture, TruncatedNormal, Uniform
from randvendor._quad import TAIL_PROB
from randvendor.distributions import (
    _SPLIT_MIN_TERMS,
    _candidates,
    _exact_sum,
    _member,
    _per_row,
    _Rows,
    _stack_of,
    _truncnorm_mean,
)

SCALAR = {
    "cdf": "cdf",
    "pdf": "pdf",
    "m1": "_partial_expectation",
    "m2": "_second_partial_moment",
}


def _bits(values):
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel()]


def _points(d, kinks):
    """0.0, -0.0, a negative value, the kinks, the bulk and both tails."""
    tails = [d.quantile(u) for u in (1e-12, 1e-3, 0.25, 0.5, 0.75, 0.999, 1.0 - 1e-12)]
    points = [0.0, -0.0, -0.7, 1e-300, 1e-9, *tails, *kinks]
    points += [math.nextafter(k, -math.inf) for k in kinks if k > 0.0]
    points += [math.nextafter(k, math.inf) for k in kinks]
    return np.array(points)


CASES = {
    "uniform": (Uniform(0.5, 2.0), [0.5, 2.0]),
    "uniform_at_zero": (Uniform(0.0, 1.5), [0.0, 1.5]),
    # the M1 and M2 series hold below rate * q = 1
    "exponential": (Exponential(1.3), [1.0 / 1.3, 40.0]),
    "lognormal": (LogNormal(0.3, 0.8), [1e-200, 1e200]),
    "truncated_normal": (TruncatedNormal(1.0, 0.5), [1.0, 6.0]),
    # a negative mean takes the masses between upper tails
    "truncated_normal_upper_tail": (TruncatedNormal(-2.0, 0.7), [0.05, 4.0]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_block_kernels_equal_the_scalar_kernels(name):
    d, kinks = CASES[name]
    x = _points(d, kinks)
    for kernel in SCALAR:
        block = getattr(type(d), f"_{kernel}_block")(x, d)
        scalar = [getattr(d, SCALAR[kernel])(float(t)) for t in x]
        assert _bits(block) == _bits(scalar), kernel
        # a block of any shape, element by element
        square = getattr(type(d), f"_{kernel}_block")(np.stack([x, x[::-1]]), d)
        assert _bits(square[1]) == _bits(scalar[::-1]), kernel


def test_lognormal_density_at_a_subnormal_point():
    # x * log_sd underflows to 0: the density is 0 there, at a point and over
    # a block, also on numpy's transcendentals, as a quadrature takes it
    d = LogNormal(0.0, 0.5)
    assert d.pdf(5e-324) == 0.0
    for fast in (False, True):
        assert float(LogNormal._pdf_block(np.array([5e-324]), d, fast)[0]) == 0.0


def _stack_cases():
    members = {
        "uniform": [Uniform(lo, hi) for lo in (0.0, 0.3, 0.9) for hi in (1.0, 1.7, 4.0)],
        "exponential": [Exponential(r) for r in (0.05, 0.8, 1.3, 7.0, 300.0)],
        # pow(s, 2.0) and s * s round differently for each of these log_sd
        "lognormal": [
            LogNormal(m, s)
            for m in (-1.0, 0.05, 0.7)
            for s in (0.48875193710378545, 0.915992850094671, 1.3569337988554333)
        ],
        "truncated_normal": [TruncatedNormal(m, s) for m in (0.2, 1.0, 3.0) for s in (0.3, 1.4)],
        "truncated_normal_upper_tail": [
            TruncatedNormal(m, s) for m in (-3.0, -1.5, -0.2) for s in (0.5, 1.4)
        ],
    }
    return {name: Mixture([(1.0 / len(ds), d) for d in ds]) for name, ds in members.items()}


STACKS = _stack_cases()
STACK_POINTS = [0.0, -0.0, -0.5, 1e-9, 0.01, 0.3, 0.7, 1.0, 1.7, 2.5, 6.0, 40.0]


@pytest.mark.parametrize("name", sorted(STACKS))
def test_stack_at_a_point_equals_the_block_over_its_arrays(name):
    mix = STACKS[name]
    stack, dists = _stack_of(mix), [d for _, d in mix.components]
    assert stack is not None
    family = stack.family
    rows = _Rows(stack, operator.itemgetter(np.arange(stack.size)[:, None]))
    grid = np.broadcast_to(np.array(STACK_POINTS), (stack.size, len(STACK_POINTS)))
    methods = {"cdf": stack.cdf, "pdf": stack.pdf}
    methods.update(m1=stack._partial_expectation, m2=stack._second_partial_moment)
    for kernel, method in methods.items():
        block = getattr(family, f"_{kernel}_block")
        # every point of every component, as one gathered block
        gathered = block(grid, rows)
        for j, x in enumerate(STACK_POINTS):
            at_point = np.broadcast_to(method(x), stack.size)
            over_arrays = block(np.full(stack.size, x), stack)
            scalar = [getattr(d, SCALAR[kernel])(x) for d in dists]
            assert _bits(at_point) == _bits(over_arrays) == _bits(scalar), (kernel, x)
            assert _bits(gathered[:, j]) == _bits(scalar), (kernel, x)


def _large_stacks():
    rng = np.random.default_rng(2024)
    n = 1_000
    sds = rng.uniform(0.05, 3.0, n)
    grids = {
        "exponential": (Exponential, {"rate": rng.uniform(0.01, 50.0, n)}),
        "truncated_normal": (TruncatedNormal, {"mean": rng.uniform(0.0, 5.0, n), "sd": sds}),
        "truncated_normal_upper_tail": (
            TruncatedNormal,
            {"mean": rng.uniform(-4.0, -0.01, n), "sd": rng.uniform(0.5, 3.0, n)},
        ),
    }
    return {name: Mixture._of_grid(family, params) for name, (family, params) in grids.items()}


LARGE_STACKS = _large_stacks()
SIGNED_POINTS = [
    *(-math.inf, -3.0, -0.5, -1e-300, -0.0),
    *(0.0, 1e-300, 1e-9, 0.3, 1.0, 2.5, 7.0, 40.0, math.inf),
]


@pytest.mark.parametrize("name", sorted(LARGE_STACKS))
def test_a_column_of_points_against_a_large_stack(name):
    # the guards are taken at the points, on both sides of 0
    mix = LARGE_STACKS[name]
    stack, dists = _stack_of(mix), [d for _, d in mix.components]
    assert stack is not None and stack.size == 1_000
    column = np.array(SIGNED_POINTS)[:, None]
    for kernel in ("cdf", "pdf"):
        block = getattr(stack, kernel)(column)
        fast = getattr(stack, kernel)(column, fast=True)
        assert block.shape == fast.shape == (column.size, stack.size)
        for j, x in enumerate(SIGNED_POINTS):
            scalar = [getattr(d, kernel)(x) for d in dists]
            assert _bits(block[j]) == _bits(scalar), (kernel, x)
            # numpy's transcendentals, at the points one at a time
            assert _bits(fast[j]) == _bits(getattr(stack, kernel)(x, fast=True)), (kernel, x)
            if not x >= 0.0:
                assert _bits(fast[j]) == _bits(np.zeros(stack.size)), (kernel, x)


@pytest.mark.parametrize("name", sorted(STACKS))
def test_instance_and_stack_share_their_constants(name):
    mix = STACKS[name]
    stack, dists = _stack_of(mix), [d for _, d in mix.components]
    for field in stack.fields:
        assert _bits(getattr(stack, field)) == _bits([getattr(d, field) for d in dists]), field
    assert _bits(stack.means()) == _bits([d.mean() for d in dists])


def _row_grids():
    rng = np.random.default_rng(31)
    n = 500
    lo = rng.uniform(0.0, 5.0, n)
    # rows of either tail form, interleaved
    means = np.concatenate([rng.uniform(0.0, 5.0, n // 2), rng.uniform(-4.0, -0.01, n // 2)])
    sds = np.concatenate([rng.uniform(0.05, 3.0, n // 2), rng.uniform(0.5, 3.0, n // 2)])
    order = rng.permutation(n)
    return {
        # point-width rows beside wide ones
        "uniform": (Uniform, {"lo": lo, "hi": lo + 10.0 ** rng.uniform(-9.0, 1.0, n)}),
        "exponential": (Exponential, {"rate": 10.0 ** rng.uniform(-2.0, 2.0, n)}),
        "lognormal": (
            LogNormal,
            {"log_mean": rng.uniform(-3.0, 3.0, n), "log_sd": np.geomspace(1e-3, 3.0, n)},
        ),
        "truncated_normal": (TruncatedNormal, {"mean": means[order], "sd": sds[order]}),
    }


ROW_GRIDS = _row_grids()


@pytest.mark.parametrize("name", sorted(ROW_GRIDS))
def test_block_reads_of_rows_equal_each_member(name):
    # the quantiles and tail moments a lockstep batch reads over its rows,
    # against each member's scalar read, bit for bit
    family, params = ROW_GRIDS[name]
    stacks = _candidates(family, params)
    assert len(stacks) == (2 if family is TruncatedNormal else 1)
    members = [_member(family, params, k) for k in range(params[next(iter(params))].size)]
    for u in (0.25, 0.5, 0.75, 1.0 - TAIL_PROB):
        block = _per_row(stacks, lambda stack, u=u: stack.quantiles(u))
        assert _bits(block) == _bits([g._quantile(u) for g in members]), u
        for stack in stacks:
            ends = stack.quantiles(u)
            assert _bits(stack.quantile_range(u)) == _bits([ends.min(), ends.max()]), u
    cuts = np.array([g.upper_cut() for g in members])
    tails = _per_row(stacks, lambda stack: stack.upper_partial_expectations(cuts[stack.index]))
    assert _bits(tails) == _bits([g.upper_partial_expectation(q) for g, q in zip(members, cuts)])


def test_truncated_normal_mean_over_arrays_equals_each_float():
    locations = np.array([-40.0, -7.5, -1.0, -0.0, 0.0, 1e-9, 0.3, 5.0, 1e6])
    sds = np.array([1.0, 2.0, 0.3, 1.0, 1e-3, 1.0, 7.0, 0.5, 1.0])
    expected = [_truncnorm_mean(float(m), float(s)) for m, s in zip(locations, sds)]
    assert all(type(v) is float for v in expected)
    assert _bits(_truncnorm_mean(locations, sds)) == _bits(expected)


@pytest.mark.parametrize("name", sorted(STACKS))
def test_fast_kernels_stay_within_a_few_ulps(name):
    # fast=True, used only inside quadrature integrands, takes numpy's
    # transcendentals over arrays instead of math's element by element, in
    # F, f and M1
    stack = _stack_of(STACKS[name])
    for x in STACK_POINTS:
        for kernel in (stack.cdf, stack.pdf):
            exact = np.broadcast_to(kernel(x), stack.size)
            fast = np.broadcast_to(kernel(x, fast=True), stack.size)
            ulps = np.spacing(np.maximum(np.abs(exact), np.abs(fast)))
            assert np.all(np.abs(fast - exact) <= 4 * ulps), (kernel.__name__, x)
        # M1 cancels below a truncated normal's bulk, where a last bit of its
        # density becomes many of M1's; the expected maximum adds M1 to the
        # component's mean, on whose scale it is judged
        exact = np.broadcast_to(stack._partial_expectation(x), stack.size)
        fast = np.broadcast_to(stack.family._m1_block(x, stack, True), stack.size)
        ulps = np.spacing(np.maximum(np.abs(exact), stack.means()))
        assert np.all(np.abs(fast - exact) <= 4 * ulps), ("m1", x)


# -- the correctly rounded sum ------------------------------------------------------


def _outcome(total):
    """The bits of a sum, or the kind of error it raised."""
    try:
        return float(total()).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


def _row_outcomes(block):
    """``_exact_sum`` of a 2-D block against fsum of each row: the same bits
    per row, or the error of the first row whose fsum raises."""
    expected = [_outcome(lambda row=row: math.fsum(row.tolist())) for row in block]
    errors = [e for e in expected if e.endswith("Error")]
    try:
        got = [float(v).hex() for v in _exact_sum(block)]
    except (OverflowError, ValueError) as exc:
        got = [type(exc).__name__]
    return got, errors[:1] or expected


def _assert_exact(terms):
    p = np.asarray(terms, dtype=float)
    assert _outcome(lambda: _exact_sum(p)) == _outcome(lambda: math.fsum(p.tolist()))
    got, expected = _row_outcomes(p[np.newaxis])
    assert got == expected


@st.composite
def _terms(draw):
    """n terms from 1 to 20,000: a seeded bulk of mixed signs over a range of
    magnitudes, with zeros, -0.0, subnormals and values Hypothesis picks."""
    n = draw(st.integers(1, 20_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.integers(-320, 300))
    high = draw(st.integers(low, 300))
    signs = draw(st.sampled_from(["positive", "mixed", "cancelling"]))
    terms = rng.uniform(1.0, 2.0, n) * 10.0 ** rng.uniform(low, high, n)
    if signs != "positive":
        terms *= rng.choice([-1.0, 1.0], n)
    if signs == "cancelling":
        terms[n // 2 :][: n // 2] = -terms[: n // 2]
    picked = draw(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
                st.floats(allow_nan=False, allow_infinity=False, width=64),
            ),
            max_size=8,
        )
    )
    at = rng.integers(0, n, len(picked))
    terms[at] = picked
    return terms


@settings(derandomize=True, max_examples=200, deadline=None)
@given(terms=_terms(), rows=st.integers(1, 5))
def test_exact_sum_is_fsum(terms, rows):
    assert _outcome(lambda: _exact_sum(terms)) == _outcome(lambda: math.fsum(terms.tolist()))
    rows = min(rows, terms.size)
    got, expected = _row_outcomes(terms[: terms.size // rows * rows].reshape(rows, -1))
    assert got == expected


# each row padded past _SPLIT_MIN_TERMS with zeros, so that one row takes the
# split too, not fsum at once
_PAD = [0.0] * _SPLIT_MIN_TERMS


@pytest.mark.parametrize(
    "terms",
    [
        # half-ulp ties, which round to even, and just past them
        [1.0, 2**-53],
        [1.0, 2**-53, 2**-106],
        [1.0, -(2**-54)],
        [1.0, -(2**-54), -(2**-110)],
        [1.0 + 2**-52, 2**-53],
        [2.0**-1000, 2.0**-1053],
        [1.0, *[2**-62] * 512],
        [1.0, *[2**-62] * 512, 2**-200],
        # sums of zero, whose sign fsum decides
        [0.0, -0.0],
        [-0.0, -0.0],
        [1.0, -1.0],
        [1e300, 1.0, -1e300],
        # subnormal sums
        [5e-324, 5e-324, -1e-323 / 4],
        [2.2250738585072014e-308, -5e-324],
        # overflow, and terms that are not finite
        [1e308, 1e308],
        [1e308, 1e308, -1e308],
        [1.7e308, -1.7e308, 1.0],
        [math.inf, 1.0],
        [math.inf, -math.inf],
        [math.nan, 1.0],
        [-math.inf, math.nan],
    ],
)
def test_exact_sum_takes_fsum_where_it_cannot_certify(terms):
    _assert_exact(terms)
    _assert_exact(terms + _PAD)
    _assert_exact(_PAD + terms[::-1])


def test_exact_sum_keeps_each_row_apart():
    # a tie, an overflow-free cancellation and a plain row side by side
    block = np.array([[1.0, 2**-53, 0.0], [1e300, 1.0, -1e300], [0.1, 0.2, 0.3]])
    assert [v.hex() for v in _exact_sum(block)] == [
        math.fsum(row).hex() for row in block.tolist()
    ]
    with pytest.raises(OverflowError):
        _exact_sum(np.array([[0.1, 0.2], [1e308, 1e308]]))
