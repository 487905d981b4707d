"""The two kernel layers: each family's array kernels (``_cdf_block``,
``_pdf_block``, ``_m1_block``, ``_m2_block``) against its scalar kernels,
element by element and bit for bit, and a stack's kernels, which are the
array kernels over the stack's parameter arrays."""

import math

import numpy as np
import pytest

from randvendor import Exponential, LogNormal, Mixture, TruncatedNormal, Uniform
from randvendor.distributions import _Gathered, _truncnorm_mean

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
    stack, dists = mix._stacked(), [d for _, d in mix.components]
    assert stack is not None
    family = stack.family
    rows = _Gathered(stack, np.arange(stack.size)[:, None])
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


@pytest.mark.parametrize("name", sorted(STACKS))
def test_instance_and_stack_share_their_constants(name):
    mix = STACKS[name]
    stack, dists = mix._stacked(), [d for _, d in mix.components]
    for field in stack.fields:
        assert _bits(getattr(stack, field)) == _bits([getattr(d, field) for d in dists]), field
    assert _bits(stack.means()) == _bits([d.mean() for d in dists])


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
    stack = STACKS[name]._stacked()
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
