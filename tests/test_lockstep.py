"""Search evaluates its candidates as one batch: the row-wise Gauss-Kronrod
rule, the lockstep quadrature (``integrate_many``), the expected maxima of
many orders against one demand, and the candidates built at once, each
against the scalar path it stands in for, bit for bit."""

import itertools
import math

import numpy as np
import pytest
from helpers import order_maxima

from randvendor import (
    Empirical,
    Exponential,
    LogNormal,
    MarketParams,
    Mixture,
    NumericalIntegrityError,
    ParameterUncertainty,
    SearchConfig,
    TruncatedNormal,
    Uniform,
    UpperTruncated,
    build_scenario,
    compound_of,
    distributions,
    expected_max,
    search_policy,
)
from randvendor import _quad, policy
from randvendor.distributions import (
    _EVALUATORS,
    _SAMPLE_BLOCK,
    _candidates,
    _density_maxima,
    _member,
    _member_params,
    _order_maxima,
    _route,
    _stack_of,
    _uniform_maxima,
)
from randvendor.policy import (
    _candidate_columns,
    build_order_dist,
)


def _bits(values):
    return [float(v).hex() for v in values]


# -- the rule over a block of panels -----------------------------------------------


def _block(kind, rng, n):
    """Integrand values of n panels: random of every sign and scale, with
    zero rows and constant rows (``mixed``), made non-negative
    (``non-negative``), or holding 0.0 and -0.0, without negative values or
    beside negative rows (``zeros``, ``zeros and negatives``)."""
    scale = rng.choice([1e-300, 1e-5, 1.0, 1e10], size=(n, 1))
    values = rng.normal(size=(n, 21)) * scale
    if kind == "mixed":
        values[::5] = np.abs(values[::5])  # no negative value: the shortcut for |f|
        values[::7, ::3] = 0.0
        values[3] = 0.0
        values[4] = -0.0
        values[6] = 2.5  # a constant: no error at all
        return values
    if kind != "zeros and negatives":
        values = np.abs(values)
    if kind.startswith("zeros"):
        values[::3] = 0.0
        values[1::3, ::2] = -0.0
        values[2::6] = -0.0
    return values


@pytest.mark.parametrize("kind", ["mixed", "non-negative", "zeros", "zeros and negatives"])
def test_rows_match_gk21(kind):
    # the block rule takes the Kronrod sum for |f|'s where the whole block
    # has no negative value, else row by row: each kind pins one side
    rng = np.random.default_rng(12)
    n = 300
    a = rng.uniform(-5.0, 5.0, n)
    b = a + rng.uniform(1e-6, 10.0, n)
    nodes, hlgth = _quad._panel_nodes(a, b)
    values = _block(kind, rng, n)
    assert (values < 0.0).any() == (kind in ("mixed", "zeros and negatives"))
    assert (values.min() >= 0.0) == (kind in ("non-negative", "zeros"))
    if kind.startswith("zeros"):
        assert (np.signbit(values) & (values == 0.0)).any() and (values == 0.0).all(axis=1).any()
    rows = _quad._gk21_rows(values, hlgth)
    capped = 0
    for i in range(n):
        at = dict(zip(nodes[i].tolist(), values[i].tolist()))
        assert len(at) == 21
        ref = _quad._gk21(at.__getitem__, float(a[i]), float(b[i]))
        assert _bits(ref) == _bits(part[i] for part in rows)
        capped += ref[1] == ref[3] != 0.0
    # random values oscillate: most panels' estimates hit dqk21's cap, but
    # not those of the zero rows
    live = np.count_nonzero(values.any(axis=1)) if kind.startswith("zeros") else n
    assert capped > live // 2


def _table(fns):
    """A block integrand that evaluates the scalar ``fns[owner]`` per node."""

    def fn(owner, t):
        return np.array([[fns[o](x) for x in row] for o, row in zip(owner.tolist(), t.tolist())])

    return fn


SPANS = [
    (lambda t: t * math.exp(-t), 0.0, 30.0, ()),
    (lambda t: math.exp(-0.5 * ((t - 3.0) / 0.01) ** 2), 0.0, 10.0, (3.0,)),
    (lambda t: abs(math.sin(5.0 * t)), 0.0, 4.0, (1.0, 2.0, 2.5)),
    (lambda t: 1.0, 2.0, 2.0, ()),
    (lambda t: t - 1.0, 0.0, 2.0, ()),
    (lambda t: math.log1p(t), 0.5, 100.0, tuple(np.linspace(0.0, 101.0, 60).tolist())),
]


def test_integrate_many_matches_integrate():
    fns = [f for f, *_ in SPANS]
    spans = [span for _, *span in SPANS]
    expected = [_quad.integrate(f, lo, hi, pts) for f, lo, hi, pts in SPANS]
    assert _bits(_quad.integrate_many(_table(fns), spans)) == _bits(expected)
    # alone, a span's rounds have fewer panels than the block rule takes
    for fn, span, value in zip(fns, spans, expected):
        assert _bits(_quad.integrate_many(_table([fn]), [span])) == _bits([value])


def _refuse_only_the_worst(monkeypatch, ratios):
    """Set the tolerance between the largest error ratio and the next."""
    worst = max(range(len(ratios)), key=ratios.__getitem__)
    runner_up = sorted(ratios)[-2]
    assert 0 < worst and runner_up < ratios[worst]
    monkeypatch.setattr(_quad, "_MAX_ERROR", 0.5 * (runner_up + ratios[worst]))


def _recorded_ratios(monkeypatch, run):
    """Each quadrature's error / max(1, |value|), in the order ``run``
    checks them."""
    ratios = []
    checked = _quad._checked

    def record(value, err, lo, hi):
        ratios.append(err / max(1.0, abs(value)))
        return checked(value, err, lo, hi)

    monkeypatch.setattr(_quad, "_checked", record)
    run()
    monkeypatch.setattr(_quad, "_checked", checked)
    return ratios


def test_integrate_many_raises_as_the_first_refused_span(monkeypatch):
    def scalar():
        for f, lo, hi, pts in SPANS:
            _quad.integrate(f, lo, hi, pts)

    _refuse_only_the_worst(monkeypatch, _recorded_ratios(monkeypatch, scalar))
    with pytest.raises(NumericalIntegrityError) as expected:
        scalar()
    with pytest.raises(NumericalIntegrityError) as batched:
        _quad.integrate_many(_table([f for f, *_ in SPANS]), [span for _, *span in SPANS])
    assert str(batched.value) == str(expected.value)


# -- expected maxima of many orders against one demand ----------------------------


def _orders():
    """Lognormal, truncated normal with each tail form, wide uniform and point
    orders, several of each, so that every kind fills a lockstep batch."""
    out = []
    for i in range(6):
        out.append(LogNormal(0.4 + 0.3 * i, 0.1 + 0.15 * i))
        out.append(TruncatedNormal(1.0 + 2.0 * i, 0.4 + 0.5 * i))  # lower tail
        out.append(TruncatedNormal(-0.5 - i, 1.0 + 0.8 * i))  # upper tail
        out.append(Uniform(0.5 * i, 2.0 + 3.0 * i))
        q = 0.7 + 1.9 * i
        out.append(Uniform(q - 0.5e-9, q + 0.5e-9))
    return out


PARAMETRIC = [Exponential(0.25), LogNormal(1.2, 0.6), TruncatedNormal(4.0, 2.5), Uniform(1.0, 9.0)]
# against an upper truncation, a mixture of two families and a sample, the
# closed-form uniforms read the demand's scalar kernels element by element,
# and every other order takes expected_max alone
DEMANDS = PARAMETRIC + [
    UpperTruncated(LogNormal(1.0, 0.8), 7.5),
    Mixture([(0.5, Uniform(1.0, 4.0)), (0.5, Exponential(0.5))]),
    Empirical([0.5, 1.5, 2.5, 7.0]),
]


@pytest.mark.parametrize("demand", DEMANDS, ids=repr)
def test_order_maxima_match_expected_max(demand):
    orders = _orders()
    assert [o._upper_tail for o in orders if isinstance(o, TruncatedNormal)].count(True) == 6
    expected = [expected_max(g, demand) for g in orders]
    assert _bits(order_maxima(orders, demand)) == _bits(expected)


@pytest.mark.parametrize("demand", PARAMETRIC, ids=repr)
def test_every_density_pair_through_the_lockstep_quadrature(demand):
    # each kind of order alone in a batch, against the halves of the pair as
    # given, past the closed forms, which expected_max takes for the wide
    # uniforms only against a truncated normal
    for kind in range(5):
        orders = _orders()[kind::5]
        routes = [_route(g, demand, ordered=True) for g in orders]
        assert {tag for tag, _ in routes} == {"halves"}
        expected = [_EVALUATORS[tag](*operands) for tag, operands in routes]
        family = type(orders[0])
        values = _density_maxima(family, _member_params(family, orders), demand)
        assert _bits(values) == _bits(expected)


@pytest.mark.parametrize(
    "demand", [Exponential(0.25), LogNormal(1.2, 0.6), Uniform(1.0, 9.0)], ids=repr
)
def test_uniform_closed_form_over_arrays(demand):
    # a uniform demand integrates instead of the order where its (lo, hi)
    # sorts first: every order below, at and above it
    edges = [0.0, 0.5, 1.0, 3.0, 9.0, 12.0]
    orders = [Uniform(lo, hi) for lo, hi in itertools.combinations(edges, 2)]
    assert all(g._closed_form_max for g in orders)
    expected = [expected_max(g, demand) for g in orders]
    (stack,) = _candidates(Uniform, _member_params(Uniform, orders))
    assert _bits(_uniform_maxima(stack, demand)) == _bits(expected)


def _stacked_demands():
    uncertain = [
        ParameterUncertainty("log_mean", TruncatedNormal(0.05, 0.1)),
        ParameterUncertainty("log_sd", Uniform(0.4, 0.7)),
    ]
    return {
        "uniform": Mixture([(0.25, Uniform(lo, 2.0 + 2.0 * lo)) for lo in (0.0, 0.5, 1.0, 3.0)]),
        "exponential": Mixture([(0.2, Exponential(r)) for r in (0.1, 0.3, 0.8, 2.0, 5.0)]),
        "lognormal": compound_of(LogNormal(0.0, 0.5), uncertain, nodes=16),
        # 3 candidates a chunk, the last one partial
        "lognormal_10k": compound_of(LogNormal(0.0, 0.5), uncertain, nodes=100),
        # a component too narrow for the closed form
        "uniform_narrow": Mixture([(0.5, Uniform(0.5, 3.0)), (0.5, Uniform(2.0, 2.0 + 1e-9))]),
    }


STACKED_DEMANDS = _stacked_demands()


@pytest.mark.parametrize("name", sorted(STACKED_DEMANDS))
def test_uniform_orders_against_a_stack_in_one_pass(monkeypatch, name):
    demand = STACKED_DEMANDS[name]
    assert _stack_of(demand) is not None
    edges = [0.0, 0.4, 1.0, 2.5, 6.0]
    orders = [Uniform(lo, hi) for lo, hi in itertools.combinations(edges, 2)]
    if name == "lognormal_10k":
        orders = orders[:7]
    else:
        # a point order and a lognormal take expected_max on their own
        orders += [Uniform(1.5, 1.5 + 1e-9), LogNormal(0.2, 0.5)]
    expected = [expected_max(g, demand) for g in orders]
    taken_alone, blocks = [], []

    def alone(g, d, _original=expected_max):
        assert _route(g, d)[0] != "uniform", "a batched order"
        taken_alone.append(g)
        return _original(g, d)

    def recorded(products, _original=distributions._exact_sum):
        blocks.append(np.shape(products))
        return _original(products)

    monkeypatch.setattr(distributions, "expected_max", alone)
    monkeypatch.setattr(distributions, "_exact_sum", recorded)
    assert _bits(order_maxima(orders, demand)) == _bits(expected)
    if name == "uniform_narrow":
        assert not _stack_of(demand)._closed_form_max
        assert taken_alone == orders
        return
    assert taken_alone == orders[10:]
    assert max(math.prod(shape) for shape in blocks) <= _SAMPLE_BLOCK
    if name == "lognormal_10k":
        # the chunks of 3, 3 and 1 rows, six kernels each
        rows = [shape[0] for shape in blocks]
        assert rows == [3] * 6 + [3] * 6 + [1] * 6


@pytest.mark.parametrize("family", [Exponential, LogNormal], ids=lambda f: f.__name__)
def test_closed_form_orders_against_a_uniform_demand_in_one_pass(monkeypatch, family):
    # the uniform demand is the uniform side of every row: one array pass
    # over the orders' F, M1 and M2, and no row takes expected_max
    demand = Uniform(1.0, 9.0)
    if family is LogNormal:
        orders = [LogNormal(0.2 + 0.3 * i, 0.05 + 0.2 * i) for i in range(8)]
    else:
        orders = [Exponential(0.05 + 0.4 * i) for i in range(8)]
    assert all(_route(g, demand) == ("uniform", (demand, g)) for g in orders)
    expected = [expected_max(g, demand) for g in orders]

    def alone(g, d):
        raise AssertionError("a row alone")

    monkeypatch.setattr(distributions, "expected_max", alone)
    params = _member_params(family, orders)
    assert _bits(_order_maxima(family, params, demand)) == _bits(expected)
    # a pinned lognormal search against a uniform compound, as the benchmark's
    triple = build_scenario(Uniform(0.0, 1.0), true_demand=Uniform(0.0, 1.2))
    cfg = SearchConfig(method="grid", budget=25, seed=0, constrain_mean_to_qhat=True)
    result = search_policy(MARKET, triple, "lognormal", {"log_sd": (0.05, 1.0)}, cfg)
    monkeypatch.setattr(distributions, "expected_max", expected_max)
    unspied = search_policy(MARKET, triple, "lognormal", {"log_sd": (0.05, 1.0)}, cfg)
    assert result.search_trace == unspied.search_trace


def test_a_candidate_alone_and_in_a_batch_of_25():
    demand = LogNormal(1.5, 0.4)
    sds = np.linspace(0.05, 1.0, 25).tolist()
    batch = [LogNormal(math.log(4.0) - 0.5 * s * s, s) for s in sds]
    params = _member_params(LogNormal, batch)
    together = _density_maxima(LogNormal, params, demand)
    for i in (0, 11, 24):
        row = {name: column[i : i + 1] for name, column in params.items()}
        alone = _density_maxima(LogNormal, row, demand)
        assert _bits(alone) == _bits([together[i]]) == _bits([expected_max(batch[i], demand)])


def test_rows_whose_second_moment_overflows_take_the_halves():
    # exp(2 (log_mean + log_sd^2)) overflows for both, but the halves read no
    # M2: the batch's rows, as the members, take it only on first use
    demand = Exponential(0.3)
    orders = [LogNormal(300.0, 8.0), LogNormal(300.0, 7.5)]
    for g in orders:
        with pytest.raises(OverflowError):
            g.m2_scale
    expected = [expected_max(g, demand) for g in orders]
    assert _bits(order_maxima(orders, demand)) == _bits(expected)


def _refuse_the_halves_of(monkeypatch, orders, demand, k):
    """Refuse both halves of candidate k, which share its cut, and no other."""
    cuts = [max(g.upper_cut(), demand.upper_cut()) for g in orders]
    refused = cuts[k]
    assert cuts.count(refused) == 1
    checked = _quad._checked

    def refuse(value, err, lo, hi):
        return checked(value, math.inf if hi == refused else err, lo, hi)

    monkeypatch.setattr(_quad, "_checked", refuse)


def _loop(orders, demand):
    for g in orders:
        expected_max(g, demand)


def test_a_failing_batch_raises_as_the_loop(monkeypatch):
    # the demand's record sorts first, so expected_max takes its half first
    demand = Exponential(2.0)
    orders = [LogNormal(0.5 + 0.2 * i, 0.2 + 0.1 * i) for i in range(8)]
    assert all(distributions._sorts_before(demand, g) for g in orders)
    _refuse_the_halves_of(monkeypatch, orders, demand, 3)
    with pytest.raises(NumericalIntegrityError) as expected:
        _loop(orders, demand)
    with pytest.raises(NumericalIntegrityError) as batched:
        _density_maxima(LogNormal, _member_params(LogNormal, orders), demand)
    assert str(batched.value) == str(expected.value)


@pytest.mark.parametrize("refused", [None, 2])
def test_an_unresolved_order_in_a_batch_raises_as_the_loop(monkeypatch, refused):
    # the quartiles of TruncatedNormal(4, 1e-17) round to 4.0: the batch
    # raises that order's error, unless a candidate before it fails first
    demand = Exponential(2.0)
    orders = [LogNormal(0.5 + 0.2 * i, 0.2 + 0.1 * i) for i in range(6)]
    orders.insert(4, TruncatedNormal(4.0, 1e-17))
    if refused is not None:
        _refuse_the_halves_of(monkeypatch, orders, demand, refused)
    with pytest.raises(NumericalIntegrityError) as expected:
        _loop(orders, demand)
    with pytest.raises(NumericalIntegrityError) as batched:
        order_maxima(orders, demand)
    assert str(batched.value) == str(expected.value)
    assert ("narrower than the floats" in str(expected.value)) == (refused is None)


def test_an_unresolved_pair_names_the_side_that_sorts_first():
    # both sides' quartiles round to one float: the lognormal's record sorts
    # first, so the batch names it whether it is the order or the demand
    lognormal, truncated = LogNormal(1.0, 1e-17), TruncatedNormal(4.0, 1e-17)
    for order, demand in ((lognormal, truncated), (truncated, lognormal)):
        with pytest.raises(NumericalIntegrityError) as alone:
            expected_max(order, demand)
        with pytest.raises(NumericalIntegrityError) as batched:
            order_maxima([order], demand)
        assert str(batched.value) == str(alone.value)
        assert str(alone.value).startswith("LogNormal(log_mean=1.0, log_sd=1e-17) is narrower")


_PARAMETRIC_TYPES = (Uniform, Exponential, LogNormal, TruncatedNormal)


def test_halves_serve_only_pairs_of_parametric_families(monkeypatch):
    # the halves, for one pair or a batch, see no other pair; every other
    # pair with densities is one quadrature over one side
    mixture = Mixture([(0.5, LogNormal(0.0, 0.5)), (0.5, LogNormal(0.5, 0.4))])
    others = [
        UpperTruncated(LogNormal(1.0, 0.8), 7.5),
        UpperTruncated(TruncatedNormal(4.0, 2.5), 6.0),
        UpperTruncated(mixture, 6.0),
        mixture,
    ]
    seen = {"_density_maxima": [], "_expected_max_over": []}

    def recorder(calls, original):
        def recorded(*args):
            calls.append(args)
            return original(*args)

        return recorded

    # the halves of a pair and of a batch; the quadrature over one side as
    # the route table evaluates it
    halves = recorder(seen["_density_maxima"], distributions._density_maxima)
    monkeypatch.setattr(distributions, "_density_maxima", halves)
    monkeypatch.setitem(distributions._ORDER_BATCHES, "halves", halves)
    over = recorder(seen["_expected_max_over"], distributions._EVALUATORS["over"])
    monkeypatch.setitem(distributions._EVALUATORS, "over", over)
    orders = _orders()
    for demand in PARAMETRIC + others:
        order_maxima(orders, demand)
        _loop(orders, demand)
        for g in orders:
            expected_max(demand, g)
    for demand in others:
        expected_max(demand, demand)
    assert all(seen.values())
    # expected_max of one pair takes the halves as a batch of one row
    sizes = [next(iter(params.values())).size for _, params, _ in seen["_density_maxima"]]
    assert 1 in sizes and max(sizes) > 1
    for family, _, demand in seen["_density_maxima"]:
        assert family in _PARAMETRIC_TYPES
        assert isinstance(demand, _PARAMETRIC_TYPES)
    for x, y in seen["_expected_max_over"]:
        assert not (isinstance(x, _PARAMETRIC_TYPES) and isinstance(y, _PARAMETRIC_TYPES))


# members of every parametric family whose pairs take the halves: uniforms too
# narrow for the closed form, and truncated normals of both tail forms
HALVES_MEMBERS = {
    Uniform: [Uniform(2.0, 2.001), Uniform(0.5, 0.5004)],
    Exponential: [Exponential(0.25), Exponential(1.7)],
    LogNormal: [LogNormal(1.2, 0.6), LogNormal(-0.3, 0.05)],
    TruncatedNormal: [TruncatedNormal(4.0, 2.5), TruncatedNormal(-1.0, 2.0)],
}


@pytest.mark.parametrize("demand_family", _PARAMETRIC_TYPES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("order_family", _PARAMETRIC_TYPES, ids=lambda f: f.__name__)
def test_no_math_map_inside_the_halves(monkeypatch, order_family, demand_family):
    # the halves integrate on numpy's transcendentals: no element-wise math
    # map runs inside their integrate_many, for one pair or a candidate list
    demand, orders = HALVES_MEMBERS[demand_family][0], HALVES_MEMBERS[order_family]
    spans_seen, inside, maps = [], [False], []

    def halves(fn, spans, *args, _original=distributions.integrate_many):
        spans_seen.append(len(spans))
        inside[0] = True
        try:
            return _original(fn, spans, *args)
        finally:
            inside[0] = False

    def math_map(fn, x, _original=distributions._math_map):
        if inside[0]:
            maps.append(fn)
        return _original(fn, x)

    monkeypatch.setattr(distributions, "integrate_many", halves)
    monkeypatch.setattr(distributions, "_math_map", math_map)
    alone = expected_max(orders[0], demand)
    together = order_maxima(orders, demand)
    assert spans_seen == [2, 2 * len(orders)]
    assert maps == []
    assert _bits(together[:1]) == _bits([alone])


# -- the route table ----------------------------------------------------------------

_CONDITIONED = Mixture([(0.5, Empirical([1.0, 2.0])), (0.5, TruncatedNormal(2.0, 1.0))])
# one pair per tag of _route, the first side being the one a search would
# order where either side is a member of a parametric family
ROUTE_PAIRS = {
    "uniform": (Uniform(0.5, 2.5), LogNormal(0.2, 0.5)),
    "uniform_mixture": (
        LogNormal(0.2, 0.5),
        Mixture([(0.5, Uniform(0.0, 2.0)), (0.5, Uniform(1.0, 4.0))]),
    ),
    "atoms": (LogNormal(0.2, 0.5), Empirical([0.5, 1.5, 2.5])),
    "mixtures": (
        Mixture([(0.5, LogNormal(0.0, 0.5)), (0.5, LogNormal(0.5, 0.4))]),
        Mixture([(0.5, Uniform(1.0, 4.0)), (0.5, Exponential(0.5))]),
    ),
    "halves": (TruncatedNormal(4.0, 2.5), LogNormal(1.2, 0.6)),
    "over": (TruncatedNormal(3.0, 0.5), UpperTruncated(LogNormal(1.0, 0.8), 7.5)),
    "components": (LogNormal(0.5, 0.4), _CONDITIONED),
    "split": (LogNormal(0.5, 0.4), UpperTruncated(_CONDITIONED, 3.0)),
}

_MORE_MEMBERS = {
    Uniform: [Uniform(0.0, 3.0), Uniform(0.5, 0.5004)],
    Exponential: [Exponential(0.3), Exponential(2.0)],
    LogNormal: [LogNormal(1.0, 0.3), LogNormal(-0.5, 1.0)],
    TruncatedNormal: [TruncatedNormal(1.0, 0.7), TruncatedNormal(-1.0, 2.0)],
}


@pytest.mark.parametrize("tag", sorted(ROUTE_PAIRS))
def test_each_route_of_the_table(tag):
    a, b = ROUTE_PAIRS[tag]
    assert _route(a, b)[0] == _route(b, a)[0] == tag
    value = expected_max(a, b)
    assert _bits([expected_max(b, a)]) == _bits([value])
    assert value >= max(a.mean(), b.mean())
    # a parametric order's row beside two more of its family, a narrow
    # uniform among them, as a search's candidates
    for order, demand in ((a, b), (b, a)):
        if type(order) in _MORE_MEMBERS:
            family = type(order)
            rows = [order, *_MORE_MEMBERS[family]]
            values = _order_maxima(family, _member_params(family, rows), demand)
            assert _bits(values) == _bits([expected_max(g, demand) for g in rows])


def test_every_route_is_reached():
    # a tag no pair reaches is a dead row of the table
    assert {_route(a, b)[0] for a, b in ROUTE_PAIRS.values()} == set(_EVALUATORS)


def test_components_take_the_closed_forms_that_expected_max_takes(monkeypatch):
    # a wide uniform component of a conditioned mixture against a lognormal
    # takes its closed form, not the halves of the pair in its place
    mixture = Mixture(
        [(0.3, Empirical([1.0, 2.0])), (0.4, Uniform(0.5, 3.0)), (0.3, TruncatedNormal(2.0, 1.0))]
    )
    y = LogNormal(0.5, 0.4)
    assert _route(mixture, y)[0] == _route(y, mixture)[0] == "components"
    expected = [expected_max(d, y) for _, d in mixture.components]
    assert [_route(d, y)[0] for _, d in mixture.components] == ["atoms", "uniform", "halves"]
    assert expected[1].hex() == "0x1.17258efd59901p+1"
    total = expected_max(mixture, y)
    assert _bits([expected_max(y, mixture)]) == _bits([total])
    terms = []

    def recorded(evaluate):
        def term(*operands):
            terms.append(evaluate(*operands))
            return terms[-1]

        return term

    for tag, evaluate in list(_EVALUATORS.items()):
        if tag != "components":
            monkeypatch.setitem(_EVALUATORS, tag, recorded(evaluate))
    assert _bits([expected_max(mixture, y)]) == _bits([total])
    assert _bits(terms) == _bits(expected)


# -- which searches take the batch --------------------------------------------------

MARKET = MarketParams(p=3.0, w=1.2)


def test_pinned_lognormal_search_makes_no_scalar_quadrature(monkeypatch):
    triple = build_scenario(LogNormal(0.0, 0.5), true_demand=LogNormal(0.1, 0.6))
    cfg = SearchConfig(method="grid", budget=25, seed=0, constrain_mean_to_qhat=True)
    expected = search_policy(MARKET, triple, "lognormal", {"log_sd": (0.05, 1.0)}, cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("scalar quadrature")

    monkeypatch.setattr(distributions, "integrate", refuse)
    result = search_policy(MARKET, triple, "lognormal", {"log_sd": (0.05, 1.0)}, cfg)
    assert result.search_trace == expected.search_trace


def test_search_against_a_stacked_compound_stays_per_candidate(monkeypatch):
    uncertainties = [ParameterUncertainty("log_sd", Uniform(0.4, 0.6))]
    triple = build_scenario(LogNormal(0.0, 0.5), uncertainties, nodes=3)
    assert _stack_of(triple.compound_demand) is not None

    def refuse(*args, **kwargs):
        raise AssertionError("lockstep quadrature")

    monkeypatch.setattr(distributions, "integrate_many", refuse)
    cfg = SearchConfig(method="grid", budget=8, seed=0, constrain_mean_to_qhat=True)
    result = search_policy(MARKET, triple, "lognormal", {"log_sd": (0.05, 1.0)}, cfg)
    assert len(result.search_trace) == 8


def _scalar_order(family, values, naive_q, constrained):
    """A candidate by the scalar definition of its family, one float at a
    time; raises ValueError where the candidate is refused."""
    families = {"uniform": Uniform, "lognormal": LogNormal, "truncated_normal": TruncatedNormal}
    if not constrained and family in families:
        return families[family](*values)
    if constrained and naive_q <= 0.0 and family != "uniform":
        raise ValueError("no mean to pin")
    if family == "point":
        q = naive_q if constrained else values[0]
        lo = max(0.0, q - 0.5 * policy._POINT_WIDTH)
        return Uniform(lo, lo + policy._POINT_WIDTH)
    (scale,) = values
    if scale <= 0.0:
        raise ValueError("a scale must be > 0")
    if family == "uniform":
        return Uniform(naive_q - 0.5 * scale, naive_q + 0.5 * scale)
    if family == "lognormal":
        # the location solved exactly from exp(mu + sd^2/2) = naive_q
        return LogNormal(math.log(naive_q) - 0.5 * scale**2, scale)
    return TruncatedNormal(policy._solve_truncnorm_location(naive_q, scale), scale)


def _one_by_one(family, points, naive_q, constrained):
    out = []
    for point in points:
        try:
            out.append(_scalar_order(family, point, naive_q, constrained))
        except ValueError:
            out.append(None)
    return out


@pytest.mark.parametrize(
    "family, constrained, points",
    [
        ("uniform", False, [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (-0.5, 1.0), (0.25, 0.75)]),
        ("lognormal", False, [(0.0, 0.5), (-3.0, 0.0), (1.0, -0.2), (2.0, 1e-9)]),
        ("truncated_normal", False, [(1.0, 0.5), (-40.0, 1.0), (0.0, 0.0), (-3.0, 2.0)]),
        ("truncated_normal", True, [(0.5,), (0.0,), (-1.0,), (1e-12,), (40.0,), (1e300,)]),
        ("lognormal", True, [(0.05,), (0.0,), (1.0,)]),
        ("point", False, [(0.0,), (0.3,), (1e-12,)]),
    ],
)
def test_candidates_are_built_as_one_by_one(family, constrained, points):
    # every candidate's parameter columns as the scalar definition makes
    # it, and invalid where it refuses; build_order_dist takes one row
    rows = np.array(points, dtype=float).reshape(len(points), -1)
    cls, params, valid = _candidate_columns(family, rows, 0.8, constrained)
    expected = _one_by_one(family, points, 0.8, constrained)
    assert valid.tolist() == [g is not None for g in expected]
    assert any(g is None for g in expected) or family == "point"
    for k, (point, e) in enumerate(zip(points, expected)):
        if e is None:
            with pytest.raises(ValueError):
                build_order_dist(family, point, 0.8, constrained)
            continue
        for g in (_member(cls, params, k), build_order_dist(family, point, 0.8, constrained)):
            assert type(g) is type(e) and repr(g.to_dict()) == repr(e.to_dict())
