"""A search keeps its candidates as columns from the parameter grid to the
trace CSV: the CSV bytes against a per-entry formatter, the objects a large
grid search creates, and the compound reads of its right-hand side."""

from pathlib import Path

import pytest

from randvendor import (
    Empirical,
    LogNormal,
    MarketParams,
    Mixture,
    ParameterUncertainty,
    RhsMode,
    ScenarioTriple,
    SearchConfig,
    Stochastic,
    Uniform,
    baseline_profit,
    build_order_dist,
    build_scenario,
    distributions,
    load_scenario,
    naive_order_quantity,
    policy,
    search_policy,
)
from randvendor.cli import _write_trace
from randvendor.distributions import _expected_max_at
from randvendor.policy import order_family_param_names

ROOT = Path(__file__).resolve().parents[1]

MP = MarketParams(p=2.0, w=1.0)
TRIPLE_MISMATCH = ScenarioTriple(
    true_demand=Uniform(0.0, 1.2),
    estimated_demand=Uniform(0.0, 1.0),
    compound_demand=Uniform(0.0, 1.2),
)
TRIPLE_LOGNORMAL = ScenarioTriple(
    true_demand=LogNormal(0.2, 0.6),
    estimated_demand=LogNormal(0.0, 0.5),
    compound_demand=LogNormal(0.2, 0.6),
)


def _reference_csv(result) -> str:
    """The trace CSV one entry at a time: ``repr(float(x))`` per field, and
    an empty field for a parameter the family does not have."""

    def fmt(x):
        return repr(float(x))

    lines = ["candidate_id,param_1,param_2,expected_profit,margin,feasible"]
    for e in result.search_trace:
        p1 = fmt(e.params[0]) if len(e.params) > 0 else ""
        p2 = fmt(e.params[1]) if len(e.params) > 1 else ""
        feasible = "true" if e.feasible else "false"
        lines.append(
            f"{e.candidate_id},{p1},{p2},{fmt(e.expected_profit)},{fmt(e.margin)},{feasible}"
        )
    return "\n".join(lines) + "\n"


SEARCHES = {
    # the lo axis is seven 0.0 and one -0.0, and hi = 0.0 is invalid
    "grid_with_invalid_rows": (
        TRIPLE_MISMATCH,
        "uniform",
        {"lo": (-0.0, -0.0), "hi": (0.0, 1.2)},
        SearchConfig(method="grid", budget=64, seed=0),
    ),
    "random": (
        TRIPLE_MISMATCH,
        "uniform",
        {"lo": (0.0, 1.2), "hi": (0.0, 1.2)},
        SearchConfig(method="random", budget=50, seed=3),
    ),
    "pinned_uniform": (
        TRIPLE_MISMATCH,
        "uniform",
        {"width": (0.01, 1.5)},
        SearchConfig(method="grid", budget=20, seed=0, constrain_mean_to_qhat=True),
    ),
    "pinned_lognormal": (
        TRIPLE_LOGNORMAL,
        "lognormal",
        {"log_sd": (-0.2, 1.0)},
        SearchConfig(method="grid", budget=13, seed=0, constrain_mean_to_qhat=True),
    ),
    "pinned_truncated_normal": (
        TRIPLE_LOGNORMAL,
        "truncated_normal",
        {"sd": (-0.1, 1.5)},
        SearchConfig(method="grid", budget=12, seed=0, constrain_mean_to_qhat=True),
    ),
    "pinned_point": (
        TRIPLE_LOGNORMAL,
        "point",
        {},
        SearchConfig(method="grid", budget=3, seed=0, constrain_mean_to_qhat=True),
    ),
    "free_point": (
        TRIPLE_LOGNORMAL,
        "point",
        {"q": (0.0, 2.0)},
        SearchConfig(method="grid", budget=9, seed=0),
    ),
}


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_trace_csv_matches_a_per_entry_formatter(name, tmp_path):
    triple, family, bounds, cfg = SEARCHES[name]
    result = search_policy(MP, triple, family, bounds, cfg)
    path = tmp_path / "trace.csv"
    _write_trace(str(path), result)
    text = path.read_bytes().decode()
    assert text == _reference_csv(result)
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert len(rows) == cfg.budget
    # every search but the points has invalid candidates
    invalid = [row for row in rows if row[3:] == ["nan", "nan", "false"]]
    assert bool(invalid) == (not name.endswith("point"))
    if name == "grid_with_invalid_rows":
        assert {row[1] for row in rows} == {"0.0", "-0.0"}
        assert {row[1] for row in rows if row[3] != "nan"} == {"0.0", "-0.0"}


def _counted(monkeypatch, cls, counts):
    init = cls.__init__

    def counting(self, *args, **kwargs):
        counts[cls.__name__] = counts.get(cls.__name__, 0) + 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)


@pytest.mark.parametrize("name", ["baseline", "measurement_error"])
def test_a_grid_search_creates_no_object_per_candidate(monkeypatch, tmp_path, name):
    # each shipped search scans 2,500 uniforms: Uniforms are made for the
    # demand triple and the winner only, and trace entries only when read
    scenario = load_scenario(str(ROOT / "scenarios" / f"{name}.json"))
    counts = {}
    for cls in (Uniform, policy.TraceEntry):
        _counted(monkeypatch, cls, counts)
    triple = scenario.triple()
    made_by_triple = counts.get("Uniform", 0)
    spec = scenario.order_family
    result = search_policy(scenario.market, triple, spec.family, spec.bounds, scenario.search)
    _write_trace(str(tmp_path / "trace.csv"), result)
    assert result.evaluations == 2500
    assert made_by_triple <= 3
    won = isinstance(result.best_policy, Stochastic)
    assert won == (name == "measurement_error")
    assert counts.get("Uniform", 0) == made_by_triple + won
    assert "TraceEntry" not in counts
    assert len(result.search_trace) == 2500
    assert counts["TraceEntry"] == 2500


def _stacked_triple():
    uncertain = [ParameterUncertainty("log_sd", Uniform(0.4, 0.7))]
    return build_scenario(LogNormal(0.0, 0.5), uncertain, nodes=8)


@pytest.mark.parametrize("mode", list(RhsMode), ids=str)
def test_a_pinned_search_reads_the_compound_once_at_the_naive_order(monkeypatch, mode):
    triple = _stacked_triple()
    compound = triple.compound_demand
    assert isinstance(compound, Mixture) and compound._stacked() is not None
    naive_q = naive_order_quantity(MP, triple.estimated_demand)
    base = baseline_profit(MP, triple, mode)
    rhs = _expected_max_at(naive_q, compound)
    reads = []
    for name in ("cdf", "_partial_expectation"):

        def recorded(self, x, _name=name, _original=getattr(Mixture, name)):
            reads.append((_name, x))
            return _original(self, x)

        monkeypatch.setattr(Mixture, name, recorded)
    cfg = SearchConfig(method="grid", budget=8, seed=0, constrain_mean_to_qhat=True)
    result = search_policy(MP, triple, "uniform", {"width": (0.1, 1.0)}, cfg, mode)
    assert sorted(reads) == [("_partial_expectation", naive_q), ("cdf", naive_q)]
    assert result.baseline_profit.hex() == base.hex()
    # the margins are rhs - E[max(Q, D)], which the batch takes bit for bit
    for entry, g in zip(result.search_trace, _pinned_uniforms(naive_q, result)):
        assert entry.margin == rhs - distributions.expected_max(g, compound)


def _pinned_uniforms(naive_q, result):
    widths = [e.params[0] for e in result.search_trace]
    return [Uniform(naive_q - 0.5 * w, naive_q + 0.5 * w) for w in widths]


def test_a_mean_off_target_raises_after_the_candidates_before_it(monkeypatch):
    # checked one at a time, candidates 0-2 take their expected maxima first
    order_means, order_maxima = policy._order_means, policy._order_maxima
    sizes = []

    def shifted(cls, params):
        means = order_means(cls, params)
        means[3] += 1e-3
        return means

    def recorded(cls, params, demand):
        sizes.append(params["lo"].size)
        return order_maxima(cls, params, demand)

    monkeypatch.setattr(policy, "_order_means", shifted)
    monkeypatch.setattr(policy, "_order_maxima", recorded)
    cfg = SearchConfig(method="grid", budget=6, seed=0, constrain_mean_to_qhat=True)
    with pytest.raises(ValueError) as refused:
        search_policy(MP, TRIPLE_MISMATCH, "uniform", {"width": (0.1, 0.6)}, cfg)
    assert str(refused.value) == (
        "moment-constrained check requires E[Q] = 0.5 (the naive order), got E[Q] = 0.501"
    )
    assert sizes == [3]


@pytest.mark.parametrize("family", ["lognormal", "truncated_normal", "point"])
def test_only_a_uniform_mean_is_pinned_to_a_zero_naive_order(family):
    triple = ScenarioTriple(
        true_demand=Uniform(0.0, 1.2),
        estimated_demand=Empirical([0.0, 0.0, 0.0, 1.0]),
        compound_demand=Uniform(0.0, 1.2),
    )
    assert naive_order_quantity(MP, triple.estimated_demand) == 0.0
    bounds = {} if family == "point" else {order_family_param_names(family, True)[0]: (0.1, 1.0)}
    cfg = SearchConfig(method="grid", budget=3, seed=0, constrain_mean_to_qhat=True)
    result = search_policy(MP, triple, family, bounds, cfg)
    assert all(e.expected_profit != e.expected_profit for e in result.search_trace)
    for entry in result.search_trace:
        with pytest.raises(ValueError, match="cannot pin"):
            build_order_dist(family, entry.params, 0.0, True)
