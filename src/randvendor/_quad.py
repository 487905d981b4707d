"""Adaptive Gauss-Kronrod quadrature shared by the distribution kernels.

``integrate`` is QUADPACK's ``dqagse``, or ``dqagpe`` when it is given
interior points (Piessens et al., 1983): the 21-point Gauss-Kronrod rule
``dqk21`` on every panel, its error formula, and bisection of the panel with
the largest error estimate first until the estimates sum to no more than
the tolerance. The epsilon-algorithm extrapolation of those routines is left
out; it speeds up integrands with end-point singularities, and the kernels
integrate none. The adaptive loop (``_dqagse``) is a generator that asks
for panels and receives their rule results: ``integrate`` drives one with
the scalar rule, and ``integrate_many`` drives many quadratures in lockstep,
each round evaluating every panel they ask for as one (panels, 21) block
and summing each row in the scalar rule's order (``_gk21_rows``), or, for a
round of a few panels, by the scalar rule on each row, so that each keeps
its own path and value bit for bit. The two survival integrals of a
mixture's stack at q, plain and weighted by t, are one ``integrate_many``
of two spans over the weighted sum across its components, each round
evaluating each distinct node against the components once and each span
keeping its own path; or two quadratures per component where
``scalar_pays`` says so. The expected maximum against a mixture is one
scalar quadrature, over the other side.
"""

import bisect
import itertools
import math
import sys

import numpy as np

from .errors import NumericalIntegrityError

_EPSABS = 1e-12
_EPSREL = 1e-10
_LIMIT = 300
_MAX_POINTS = 40

# the rule's error estimate may not exceed this, relative to max(1, |value|)
_MAX_ERROR = 1e-8

# Infinite supports are cut at quantile(1 - TAIL_PROB); callers add an exact
# tail term where one is available.
TAIL_PROB = 1e-10

# dqk21's abscissae in (0, 1], outermost first: the odd ones (in QUADPACK's
# 1-based count) are Kronrod's, the even ones those of the 10-point Gauss
# rule; the centre is the 21st node
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
# Kronrod weights of those abscissae, then of the centre
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
# Gauss weights of the even abscissae
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
# below this integral of |f| the rounding floor of dqk21's error is not applied
_TINY_RESABS = _UFLOW / (50.0 * _EPMACH)


def _gk21(f, a, b):
    """QUADPACK's dqk21 over [a, b]: the Kronrod value, its error estimate,
    the integral of |f| and that of |f - mean|. The 21 nodes and every sum
    are unrolled, in dqk21's order, so a panel costs little beyond its 21
    calls of ``f``."""
    x1, x2, x3, x4, x5, x6, x7, x8, x9, x10 = _XGK
    k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11 = _WGK
    g1, g2, g3, g4, g5 = _WG
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    # the Gauss nodes first, then Kronrod's, as dqk21 calls them
    d = hlgth * x2
    l2, r2 = f(centr - d), f(centr + d)
    d = hlgth * x4
    l4, r4 = f(centr - d), f(centr + d)
    d = hlgth * x6
    l6, r6 = f(centr - d), f(centr + d)
    d = hlgth * x8
    l8, r8 = f(centr - d), f(centr + d)
    d = hlgth * x10
    l10, r10 = f(centr - d), f(centr + d)
    d = hlgth * x1
    l1, r1 = f(centr - d), f(centr + d)
    d = hlgth * x3
    l3, r3 = f(centr - d), f(centr + d)
    d = hlgth * x5
    l5, r5 = f(centr - d), f(centr + d)
    d = hlgth * x7
    l7, r7 = f(centr - d), f(centr + d)
    d = hlgth * x9
    l9, r9 = f(centr - d), f(centr + d)
    s1, s2, s3, s4, s5 = l1 + r1, l2 + r2, l3 + r3, l4 + r4, l5 + r5
    s6, s7, s8, s9, s10 = l6 + r6, l7 + r7, l8 + r8, l9 + r9, l10 + r10
    resg = g1 * s2 + g2 * s4 + g3 * s6 + g4 * s8 + g5 * s10
    resk = (
        k11 * fc + k2 * s2 + k4 * s4 + k6 * s6 + k8 * s8 + k10 * s10
        + k1 * s1 + k3 * s3 + k5 * s5 + k7 * s7 + k9 * s9
    )
    # with no negative value, |f|'s sum is f's, term for term (a chain of
    # comparisons costs less than min() of the 21)
    if (
        fc >= 0.0 and l1 >= 0.0 and r1 >= 0.0 and l2 >= 0.0 and r2 >= 0.0 and l3 >= 0.0
        and r3 >= 0.0 and l4 >= 0.0 and r4 >= 0.0 and l5 >= 0.0 and r5 >= 0.0 and l6 >= 0.0
        and r6 >= 0.0 and l7 >= 0.0 and r7 >= 0.0 and l8 >= 0.0 and r8 >= 0.0 and l9 >= 0.0
        and r9 >= 0.0 and l10 >= 0.0 and r10 >= 0.0
    ):
        resabs = resk
    else:
        resabs = (
            abs(k11 * fc)
            + k2 * (abs(l2) + abs(r2)) + k4 * (abs(l4) + abs(r4)) + k6 * (abs(l6) + abs(r6))
            + k8 * (abs(l8) + abs(r8)) + k10 * (abs(l10) + abs(r10))
            + k1 * (abs(l1) + abs(r1)) + k3 * (abs(l3) + abs(r3)) + k5 * (abs(l5) + abs(r5))
            + k7 * (abs(l7) + abs(r7)) + k9 * (abs(l9) + abs(r9))
        )
    h = resk * 0.5
    resasc = (
        k11 * abs(fc - h)
        + k1 * (abs(l1 - h) + abs(r1 - h)) + k2 * (abs(l2 - h) + abs(r2 - h))
        + k3 * (abs(l3 - h) + abs(r3 - h)) + k4 * (abs(l4 - h) + abs(r4 - h))
        + k5 * (abs(l5 - h) + abs(r5 - h)) + k6 * (abs(l6 - h) + abs(r6 - h))
        + k7 * (abs(l7 - h) + abs(r7 - h)) + k8 * (abs(l8 - h) + abs(r8 - h))
        + k9 * (abs(l9 - h) + abs(r9 - h)) + k10 * (abs(l10 - h) + abs(r10 - h))
    )
    dhlgth = abs(hlgth)
    resabs *= dhlgth
    resasc *= dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # resasc * min(1, ratio ** 1.5), with a comparison for min()
        ratio = 200.0 * abserr / resasc
        abserr = resasc if ratio >= 1.0 else resasc * ratio**1.5
    if resabs > _TINY_RESABS:
        # max(50 eps resabs, abserr), likewise
        floor = _EPMACH * 50.0 * resabs
        if abserr < floor:
            abserr = floor
    return resk * hlgth, abserr, resabs, resasc


def _dqagse(lo: float, hi: float, points, limit: int):
    """``dqagse`` over [lo, hi] when ``points`` is empty, else ``dqagpe``
    over the panels between the sorted interior ``points``, both without
    extrapolation, as a generator that never sees the integrand: it yields
    the list of panels (a, b) it needs next, receives their ``dqk21``
    results (value, error estimate, integral of |f|, of |f - mean|) in that
    order, and returns (value, error estimate) after at most ``limit``
    panels, which must exceed the number of points. ``_adaptive`` drives one
    with ``_gk21``; ``integrate_many`` drives many in lockstep."""
    alist = [lo, *points]
    blist = [*points, hi]
    rlist, elist = [], []
    if not points:
        # dqagse accepts its first panel only if the error estimate is not
        # dqk21's cap, |f - mean|: a rule whose 21 nodes all miss a narrow
        # peak sees a nearly flat integrand and a small, wrong, estimate
        ((result, abserr, resabs, resasc),) = yield [(lo, hi)]
        rlist.append(result)
        elist.append(abserr)
        errbnd = max(_EPSABS, _EPSREL * abs(result))
        if abserr <= 100.0 * _EPMACH * resabs and abserr > errbnd:
            return result, abserr
        if (abserr <= errbnd and abserr != resasc) or abserr == 0.0:
            return result, abserr
        errsum = abserr
    else:
        # dqagpe: a panel whose estimate is dqk21's cap carries the whole
        # estimate, so that it is bisected first
        result = abserr = resabs = 0.0
        capped = []
        for area, error, defabs, resasc in (yield list(zip(alist, blist))):
            abserr += error
            result += area
            resabs += defabs
            rlist.append(area)
            elist.append(error)
            capped.append(error == resasc and error != 0.0)
        errsum = 0.0
        for i, cap in enumerate(capped):
            if cap:
                elist[i] = abserr
            errsum += elist[i]
        errbnd = max(_EPSABS, _EPSREL * abs(result))
        if abserr <= 100.0 * _EPMACH * resabs and abserr > errbnd:
            return result, abserr
        if abserr <= errbnd:
            return result, abserr

    # the panels in descending order of error estimate, as dqpsrt keeps them:
    # a new estimate goes before any equal one
    order = sorted(range(len(elist)), key=elist.__getitem__, reverse=True)
    keys = [-elist[i] for i in order]
    area = result
    iroff1 = iroff3 = 0
    for last in range(len(rlist) + 1, limit + 1):
        maxerr = order.pop(0)
        del keys[0]
        errmax = elist[maxerr]
        a1, b2 = alist[maxerr], blist[maxerr]
        b1 = a2 = 0.5 * (a1 + b2)
        (area1, error1, _, resasc1), (area2, error2, _, resasc2) = yield [(a1, b1), (a2, b2)]
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if resasc1 != error1 and resasc2 != error2:
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        errbnd = max(_EPSABS, _EPSREL * abs(area))
        if error2 > error1:
            alist[maxerr] = a2
            alist.append(a1)
            blist.append(b1)
            rlist[maxerr] = area2
            rlist.append(area1)
            elist[maxerr] = error2
            elist.append(error1)
        else:
            blist[maxerr] = b1
            alist.append(a2)
            blist.append(b2)
            rlist[maxerr] = area1
            rlist.append(area2)
            elist[maxerr] = error1
            elist.append(error2)
        if errsum <= errbnd:
            break
        # roundoff, the subinterval limit, or a panel too narrow to bisect
        if (
            iroff1 >= 10
            or iroff3 >= 20
            or last == limit
            or max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW)
        ):
            break
        at = bisect.bisect_left(keys, -elist[maxerr])
        order.insert(at, maxerr)
        keys.insert(at, -elist[maxerr])
        at = bisect.bisect_left(keys, -elist[-1], at + 1)
        order.insert(at, len(elist) - 1)
        keys.insert(at, -elist[-1])
    result = 0.0
    for part in rlist:
        result += part
    return result, errsum


def _adaptive(fn, lo: float, hi: float, points, limit: int):
    """``_dqagse`` with ``_gk21`` on ``fn``: (value, error estimate)."""
    steps = _dqagse(lo, hi, points, limit)
    panels = next(steps)
    try:
        while True:
            panels = steps.send([_gk21(fn, a, b) for a, b in panels])
    except StopIteration as done:
        return done.value


def _split_points(lo, hi, points, every_point: bool):
    """The sorted interior points ``integrate`` splits at, and its panel limit."""
    pts = sorted({float(p) for p in points if lo < p < hi})
    limit = _LIMIT
    if every_point:
        limit += len(pts)
    elif len(pts) > _MAX_POINTS:
        step = len(pts) / _MAX_POINTS
        pts = [pts[int(i * step)] for i in range(_MAX_POINTS)]
    return pts, limit


def _checked(value: float, err: float, lo, hi) -> float:
    if not err <= _MAX_ERROR * max(1.0, abs(value)):
        raise NumericalIntegrityError(
            f"quadrature over [{lo!r}, {hi!r}] has error estimate {err:.3g} on value {value!r}"
        )
    return value


def integrate(fn, lo: float, hi: float, points=(), every_point: bool = False) -> float:
    """Integrate ``fn`` over [lo, hi], splitting panels at interior points.

    More than ``_MAX_POINTS`` points are thinned to that many, unless
    ``every_point``: then the rule splits at each of them and may subdivide
    ``_LIMIT`` times beyond them. Raises NumericalIntegrityError when the
    rule's own error estimate is too large to trust the value.
    """
    if hi <= lo:
        return 0.0
    pts, limit = _split_points(lo, hi, points, every_point)
    value, err = _adaptive(fn, float(lo), float(hi), pts, limit)
    return _checked(value, err, lo, hi)


# the abscissae of dqk21 as a row, outermost first: a panel's nodes are its
# centre minus and plus each, then the centre (``_panel_nodes``)
_XGK_ROW = np.array(_XGK)
# the terms of dqk21's sums in the order _gk21 adds them, after the centre's:
# abscissa k (1-based, as in _gk21) is row k - 1 of the pair sums l_k + r_k;
# with their weights, the centre's first
_GAUSS_ROWS = [1, 3, 5, 7, 9]
_GAUSS_WEIGHTS = np.array(_WG)[:, None]
_KRONROD_ROWS = [1, 3, 5, 7, 9, 0, 2, 4, 6, 8]
_KRONROD_WEIGHTS = np.array([_WGK[10], *(_WGK[k] for k in _KRONROD_ROWS)])[:, None]
_SPREAD_WEIGHTS = np.array([_WGK[10], *_WGK[:10]])[:, None]


def _panel_nodes(a: np.ndarray, b: np.ndarray):
    """The 21 nodes of each panel [a, b] as a (panels, 21) block, by the same
    operations as ``_gk21``: columns 0-9 the centre minus hlgth times each
    abscissa, 10-19 plus it, 20 the centre; and each panel's half-length."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    d = hlgth[:, None] * _XGK_ROW
    c = centr[:, None]
    return np.concatenate((c - d, c + d, c), axis=1), hlgth


def _in_order(weights: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """sum_i weights[i] * terms[i], added left to right as _gk21 adds:
    ``accumulate``, unlike ``sum``, adds each term to the running total."""
    return np.add.accumulate(weights * terms, axis=0)[-1]


def _gk21_rows(values: np.ndarray, hlgth: np.ndarray):
    """``_gk21`` of every panel of a block at once, bit for bit: ``values``
    are the integrand at ``_panel_nodes``, one row per panel, and every sum
    takes its terms in _gk21's order. Returns its four results as arrays."""
    cols = values.T
    left, right, fc = cols[:10], cols[10:20], cols[20]
    sums = left + right
    resg = _in_order(_GAUSS_WEIGHTS, sums[_GAUSS_ROWS])
    resk = _in_order(_KRONROD_WEIGHTS, np.vstack((fc, sums[_KRONROD_ROWS])))
    # _gk21 takes the Kronrod value for the integral of |f| when no value is
    # negative; the two differ at most in the sign of a zero
    magnitudes = np.vstack((np.abs(fc), (np.abs(left) + np.abs(right))[_KRONROD_ROWS]))
    resabs = np.where((values >= 0.0).all(axis=1), resk, _in_order(_KRONROD_WEIGHTS, magnitudes))
    h = resk * 0.5
    spreads = np.abs(cols - h)
    resasc = _in_order(_SPREAD_WEIGHTS, np.vstack((spreads[20], spreads[:10] + spreads[10:20])))
    dhlgth = np.abs(hlgth)
    resabs *= dhlgth
    resasc *= dhlgth
    abserr = np.abs((resk - resg) * hlgth)
    scaled = (resasc != 0.0) & (abserr != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = 200.0 * abserr / resasc
    capped = scaled & (ratio >= 1.0)
    scaled &= ~capped
    abserr = np.where(capped, resasc, abserr)
    # ratio ** 1.5 by C's pow, as Python's ** takes it
    rows = np.flatnonzero(scaled)
    powers = map(math.pow, ratio[rows].tolist(), itertools.repeat(1.5))
    abserr[rows] = resasc[rows] * np.fromiter(powers, float, rows.size)
    floor = _EPMACH * 50.0 * resabs
    abserr = np.where((resabs > _TINY_RESABS) & (abserr < floor), floor, abserr)
    return resk * hlgth, abserr, resabs, resasc


# a round of fewer panels takes the scalar rule panel by panel: the block
# rule's fixed cost of numpy calls (about 75 us on a 2-core VM) exceeds the
# scalar rule's Python arithmetic (about 8 us a panel) below this
_ROW_RULE_PANELS = 8


def integrate_many(fn, spans, every_point: bool = False) -> list[float]:
    """``integrate(f_i, lo_i, hi_i, points_i, every_point)`` for every span
    (lo_i, hi_i, points_i) at once, bit for bit.

    Each span keeps its own ``_dqagse`` path; they advance in lockstep, and
    each round evaluates every panel they ask for as one block:
    ``fn(owner, t)`` gets a (panels, 21) block ``t`` of nodes with the span
    index of each row in ``owner``, and returns the integrands' values there.
    Raises the NumericalIntegrityError of the first span that ``integrate``
    would refuse.
    """
    values = [0.0] * len(spans)
    pending = []
    for i, (lo, hi, points) in enumerate(spans):
        if hi > lo:
            pts, limit = _split_points(lo, hi, points, every_point)
            steps = _dqagse(float(lo), float(hi), pts, limit)
            pending.append((i, steps, next(steps)))
    done = {}
    while pending:
        owner = np.array([i for i, _, panels in pending for _ in panels])
        edges = np.array([edge for _, _, panels in pending for edge in panels])
        t, hlgth = _panel_nodes(edges[:, 0], edges[:, 1])
        at = fn(owner, t)
        if len(edges) < _ROW_RULE_PANELS:
            # the scalar rule on each panel, reading its nodes' values
            rows = zip(t.tolist(), at.tolist(), edges.tolist())
            rules = iter([_gk21(dict(zip(x, v)).__getitem__, a, b) for x, v, (a, b) in rows])
        else:
            rules = zip(*(part.tolist() for part in _gk21_rows(at, hlgth)))
        running = []
        for i, steps, panels in pending:
            try:
                running.append((i, steps, steps.send(list(itertools.islice(rules, len(panels))))))
            except StopIteration as stop:
                done[i] = stop.value
        pending = running
    for i in sorted(done):
        lo, hi, _ = spans[i]
        values[i] = _checked(*done[i], lo, hi)
    return values


# ``scalar_pays`` weighs the one pass that gives a stack's two survival
# integrals at q (``Mixture._survival_integral``) against two quadratures of
# each component, in units of one component's share of one panel of the
# pass: 0.14-0.17 us on two-bound uniform stacks of 256 and 1,024
# components (2-core VM). One component's two quadratures took 33-38 us,
# about _PANEL_BUDGET units, and the pass about 0.15 ms more than its panels,
# _PASS_COST units. So the pass pays below about 220 panels, whatever the
# size, as measured: it was faster up to 205 panels and slower from 409 on
# both sizes, and a stack of fewer than 5 components never pays.
_PANEL_BUDGET = 220
_PASS_COST = 1_000


def scalar_pays(size: int, lo: float, hi: float, points) -> bool:
    """Whether one pass over [lo, hi] of a mixture's stack's survival
    function, the weighted sum over its ``size`` components, split at
    ``points``, for both survival integrals, beats two quadratures of each
    component, each split at its own kinks: whether the pass's fixed cost and
    its panels, each ``size`` units, come to less than ``_PANEL_BUDGET``
    units a component."""
    panels = 1 + sum(1 for p in points if lo < p < hi)
    return _PASS_COST + panels * size < _PANEL_BUDGET * size
