"""Per-layer numbers for one workload: traced spans and timed direct calls.

Spans are recorded from the benchmark's side, around calls into each
module's public functions; the program is not edited. ``cdf`` and ``pdf``
are never wrapped, because quadrature calls them thousands of times per
integral and the wrapper would swamp what it measures. ``from_uniform`` is
overridden per family, so it is wrapped on each family class.

A layer's self time is its spans' time minus the time of their child spans.
Command time that no span covers (argument parsing, printing, report
writing) is reported as ``cli.uncovered_s``, and traced minus untraced time
of the same commands as ``trace.overhead_s``.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from worker import CliRunner

KERNELS = (
    "expected_max",
    "quantile",
    "partial_expectation",
    "upper_partial_expectation",
    "integrated_cdf",
    "weighted_integrated_cdf",
    "survival_integral",
    "from_uniform",
)
# kernels timed per family by direct calls; from_uniform is timed as
# simulate.draws_per_s.<family>
CUTOFF_KERNELS = KERNELS[2:7]
FAMILIES = ("uniform", "exponential", "lognormal", "truncated_normal", "empirical", "compound")
ORDER_FAMILIES = ("uniform", "lognormal", "truncated_normal", "point")
LAYERS = ("scenario", "compound", "newsvendor", "policy", "simulate")

# public functions per module; methods are added in Tracer.install
FUNCTIONS = {
    "scenario": ("load_scenario", "parse_scenario", "normalized_dict"),
    "compound": ("compound_of", "build_scenario"),
    "distributions": ("expected_max", "expected_min"),
    "newsvendor": (
        "expected_profit",
        "profit_variance",
        "optimal_quantity",
        "optimal_profit",
        "optimal_profit_variance",
    ),
    "policy": (
        "naive_order_quantity",
        "expected_profit_stochastic",
        "baseline_profit",
        "check_feasibility",
        "check_mean_constrained_feasibility",
        "search_policy",
        "build_order_dist",
    ),
    "simulate": (
        "simulate_values",
        "simulate_profit",
        "simulate_profit_squared_deviation",
        "simulate_expected_max",
    ),
}


def metric_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = ["scenario.load_s", "compound.build_s", "compound.components"]
    for k in KERNELS:
        names += [f"distributions.{k}.calls", f"distributions.{k}.self_s"]
    names += [f"distributions.{k}.{f}.us" for k in ("quantile",) + CUTOFF_KERNELS for f in FAMILIES]
    names += [f"distributions.expected_max.{o}-{f}.us" for o in ORDER_FAMILIES for f in FAMILIES]
    names += [
        "policy.candidates",
        "policy.valid_ratio",
        "policy.feasible_ratio",
        "policy.candidates_per_s",
        "policy.self_s",
        "newsvendor.calls",
        "newsvendor.self_s",
        "scenario.self_s",
        "compound.self_s",
        "simulate.self_s",
        "simulate.philox_draws_per_s",
    ]
    names += [f"simulate.draws_per_s.{f}" for f in FAMILIES]
    names += ["distributions.expected_max.search_share", "distributions.from_uniform.validate_share"]
    names += ["cli.uncovered_s", "trace.overhead_s"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith(".us"):
        return "us"
    if "_per_s" in name:
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


class Tracer:
    """Wraps public entry points and keeps one span per call in memory."""

    def __init__(self, request_id):
        # span: [layer, name, start, end, parent index, request id]; one
        # request is one CLI command on one scenario
        self.spans: list[list] = []
        self._request_id = request_id
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, request_id = self.spans, self._stack, self._request_id

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, name, time.perf_counter(), 0.0, stack[-1] if stack else -1, request_id()])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = time.perf_counter()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, program) -> None:
        import randvendor.cli
        from randvendor import distributions, scenario

        modules = [getattr(program, m) for m in FUNCTIONS] + [randvendor.cli]
        for layer, names in FUNCTIONS.items():
            home = getattr(program, layer)
            for name in names:
                original = getattr(home, name)
                wrapped = self._wrap(layer, name, original)
                # modules hold their own references from ``from x import y``
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapped)
        base = distributions.Distribution
        for name in KERNELS[1:7]:
            self._patch(base, name, self._wrap("distributions", name, base.__dict__[name]))
        for cls in _subclasses(base):
            if "from_uniform" in cls.__dict__:
                self._patch(cls, "from_uniform", self._wrap("distributions", "from_uniform", cls.__dict__["from_uniform"]))
        triple = scenario.Scenario.__dict__["triple"]
        self._patch(scenario.Scenario, "triple", self._wrap("scenario", "triple", triple))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def outermost_s(self, name: str) -> dict[int, float]:
        """Per request, the time inside ``name`` spans not nested in another."""
        spans = self.spans
        out: dict[int, float] = defaultdict(float)
        for layer, span_name, start, end, parent, request in spans:
            if span_name != name:
                continue
            while parent >= 0 and spans[parent][1] != name:
                parent = spans[parent][4]
            if parent < 0:
                out[request] += end - start
        return out

    def summarize(self) -> dict:
        """Calls, inclusive time and self time per (layer, name)."""
        child = [0.0] * len(self.spans)
        for layer, name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        top = 0.0
        for i, (layer, name, start, end, parent, _) in enumerate(self.spans):
            for key in (layer, f"{layer}.{name}"):
                entry = stats[key]
                entry["calls"] += 1
                entry["total_s"] += end - start
                entry["self_s"] += end - start - child[i]
            if parent < 0:
                top += end - start
        return {"by_name": dict(stats), "top_level_s": top}


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + _subclasses(sub)
    return out


def per_layer(runner: CliRunner, tiny: bool) -> dict[str, float]:
    """Untraced round, traced round, then direct timings; all per-layer metrics."""
    import randvendor

    untraced = _round_seconds(runner, runner.run_round())
    tracer = Tracer(lambda: len(runner.calls))
    tracer.install(randvendor)
    try:
        label = runner.run_round()
    finally:
        tracer.uninstall()
    traced = _round_seconds(runner, label)
    summary = tracer.summarize()
    stats = summary["by_name"]

    def get(key, field):
        return stats.get(key, {}).get(field, 0.0)

    instances = _instances(runner)
    m: dict[str, float] = {}
    m.update(_setup_layer(runner))
    for k in KERNELS:
        m[f"distributions.{k}.calls"] = get(f"distributions.{k}", "calls")
        m[f"distributions.{k}.self_s"] = get(f"distributions.{k}", "self_s")
    m.update(_kernel_costs(instances, tiny))
    traces = [runner.output(c, "csv") for c in runner.calls if c["pass"] == f"{label}/search-0"]
    candidates, valid, feasible = _search_counts([t for t in traces if t])
    search_s = get("policy.search_policy", "total_s")
    m["policy.candidates"] = candidates
    m["policy.valid_ratio"] = valid / candidates if candidates else 0.0
    m["policy.feasible_ratio"] = feasible / candidates if candidates else 0.0
    m["policy.candidates_per_s"] = candidates / search_s if search_s > 0 else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = get(layer, "self_s")
    m["newsvendor.calls"] = get("newsvendor", "calls")
    m.update(_draw_rates(instances, tiny))
    m["distributions.expected_max.search_share"] = _share(runner, tracer, label, "expected_max", "search")
    m["distributions.from_uniform.validate_share"] = _share(runner, tracer, label, "from_uniform", "validate")
    m["cli.uncovered_s"] = traced - summary["top_level_s"]
    m["trace.overhead_s"] = traced - untraced
    missing = set(metric_names()) - set(m)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: float(m[name]) for name in metric_names()}


def _setup_layer(runner: CliRunner) -> dict[str, float]:
    from randvendor.scenario import load_scenario

    paths = [runner.scenario_path(n) for n in runner.names]
    load_s, build_s = [], []
    components = 0
    for _ in range(5):
        start = time.perf_counter()
        loaded = [load_scenario(str(p)) for p in paths]
        mid = time.perf_counter()
        triples = [s.triple() for s in loaded]
        load_s.append(mid - start)
        build_s.append(time.perf_counter() - mid)
        components = sum(_components(t.compound_demand) for t in triples)
    return {
        "scenario.load_s": statistics.median(load_s),
        "compound.build_s": statistics.median(build_s),
        "compound.components": components,
    }


def _instances(runner: CliRunner) -> dict:
    """One demand of each family, plus the workload's own largest compound."""
    from randvendor.distributions import (
        Empirical,
        Exponential,
        LogNormal,
        TruncatedNormal,
        Uniform,
    )
    from randvendor.scenario import load_scenario

    demands = [load_scenario(str(runner.scenario_path(n))).triple().compound_demand for n in runner.names]
    return {
        "uniform": Uniform(5.0, 45.0),
        "exponential": Exponential(0.05),
        "lognormal": LogNormal(2.5, 0.5),
        "truncated_normal": TruncatedNormal(25.0, 10.0),
        "empirical": Empirical(LogNormal(2.5, 0.5).sample(1000, seed=1)),
        "compound": max(demands, key=_components),
    }


def _components(demand) -> int:
    from randvendor.distributions import Mixture

    return len(demand.components) if isinstance(demand, Mixture) else 1


def _per_call_us(fn, budget_s: float) -> float:
    """Mean cost of one call; a call slower than the budget is timed once."""
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    if first >= budget_s:
        return first * 1e6
    calls = 0
    start = time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= budget_s:
            return elapsed / calls * 1e6


def _kernel_costs(instances: dict, tiny: bool) -> dict[str, float]:
    from randvendor.distributions import expected_max
    from randvendor.policy import build_order_dist

    budget = 0.002 if tiny else 0.02
    out = {}
    for family, dist in instances.items():
        q = dist.mean()
        out[f"distributions.quantile.{family}.us"] = _per_call_us(lambda: dist.quantile(0.6), budget)
        for k in CUTOFF_KERNELS:
            method = getattr(dist, k)
            out[f"distributions.{k}.{family}.us"] = _per_call_us(lambda: method(q), budget)
        orders = {
            "uniform": build_order_dist("uniform", (0.6 * q,), q, True),
            "lognormal": build_order_dist("lognormal", (0.3,), q, True),
            "truncated_normal": build_order_dist("truncated_normal", (0.3 * q,), q, True),
            "point": build_order_dist("point", (), q, True),
        }
        for name, order in orders.items():
            out[f"distributions.expected_max.{name}-{family}.us"] = _per_call_us(
                lambda: expected_max(order, dist), budget
            )
    return out


def _draw_rates(instances: dict, tiny: bool) -> dict[str, float]:
    """Monte-Carlo draws per second through ``simulate``, and the Philox floor."""
    from randvendor.newsvendor import MarketParams
    from randvendor.policy import Deterministic
    from randvendor.simulate import SimConfig, simulate_profit, simulate_values

    target_s = 0.02 if tiny else 0.25
    market = MarketParams(p=2.0, w=1.0)

    def rate(run) -> float:
        n = 1 << 14
        while True:
            start = time.perf_counter()
            run(SimConfig(n_draws=n, seed=1))
            elapsed = time.perf_counter() - start
            if elapsed >= target_s or n >= 1 << 22:
                return n / elapsed
            n = min(1 << 22, max(2 * n, int(n * 1.2 * target_s / max(elapsed, 1e-9))))

    out = {"simulate.philox_draws_per_s": rate(lambda cfg: simulate_values(lambda u: u[:, 0], 1, cfg))}
    for family, dist in instances.items():
        policy = Deterministic(dist.mean())
        out[f"simulate.draws_per_s.{family}"] = rate(
            lambda cfg: simulate_profit(market, dist, policy, cfg)
        )
    return out


def _share(runner: CliRunner, tracer: Tracer, label: str, kernel: str, cmd: str) -> float:
    """Share of the traced round's ``cmd`` time spent inside ``kernel``."""
    inside = tracer.outermost_s(kernel)
    requests = [i for i, c in enumerate(runner.calls) if c["pass"] == f"{label}/{cmd}-0"]
    total = sum(runner.calls[i]["seconds"] for i in requests)
    return sum(inside.get(i, 0.0) for i in requests) / total if total > 0 else 0.0


def _round_seconds(runner: CliRunner, label: str) -> float:
    return sum(c["seconds"] for c in runner.calls if c["pass"].startswith(label + "/"))


def _search_counts(traces: list[str]) -> tuple[int, int, int]:
    """Candidates, valid candidates and feasible candidates in the search traces."""
    candidates = valid = feasible = 0
    for text in traces:
        for line in text.splitlines()[1:]:
            fields = line.split(",")
            candidates += 1
            valid += fields[3] != "nan"
            feasible += fields[5] == "true"
    return candidates, valid, feasible
