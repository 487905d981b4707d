import json
from pathlib import Path

import pytest

from helpers import perfbench_module
from randvendor import RhsMode, ScenarioError, load_scenario, normalized_dict, parse_scenario
from randvendor.cli import main


def write_scenario(tmp_path, record, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


def base_record(**overrides):
    record = {
        "market": {"p": 2.0, "w": 1.0},
        "estimated_demand": {"family": "uniform", "lo": 0.0, "hi": 1.0},
        "sim": {"n_draws": 100_000, "seed": 5},
    }
    record.update(overrides)
    return record


def mismatch_record(budget=400, **overrides):
    record = base_record(
        parameter_uncertainties=[
            {"param": "hi", "dist": {"family": "empirical", "values": [1.2]}}
        ],
        order_family={"family": "uniform", "bounds": {"lo": [0.0, 1.2], "hi": [0.0, 1.2]}},
        search={"method": "grid", "budget": budget, "seed": 7},
    )
    record.update(overrides)
    return record


class TestScenarioParsing:
    def test_defaults(self):
        scenario = parse_scenario(base_record())
        assert scenario.compound_nodes == 64
        assert scenario.rhs_mode is RhsMode.EXPECTED_PROFIT
        assert scenario.true_demand is None
        assert scenario.sim.n_draws == 100_000
        assert scenario.sim.batch_size == 262_144
        record = base_record()
        del record["sim"]
        assert normalized_dict(parse_scenario(record))["sim"] == {
            "n_draws": 1_000_000,
            "seed": 0,
            "batch_size": 262_144,
            "antithetic": False,
        }

    def test_normalized_round_trip_is_a_fixpoint(self):
        scenario = parse_scenario(mismatch_record())
        normal = normalized_dict(scenario)
        assert normal["market"] == {"p": 2.0, "w": 1.0}
        assert normalized_dict(parse_scenario(normal)) == normal

    @pytest.mark.parametrize(
        "mutate,path",
        [
            (lambda r: r["market"].update(w=3.0), "market.w"),
            (lambda r: r["market"].update(s=0.5), "market.s"),
            (lambda r: r["market"].update(c=0.4), "market.c"),
            (lambda r: r["market"].update(price=2.0), "market.price"),
            (lambda r: r["market"].pop("p"), "market.p"),
            (lambda r: r.pop("estimated_demand"), "estimated_demand"),
            (lambda r: r.update(estimated_demand={"family": "uniform", "lo": 2, "hi": 1}), "estimated_demand"),
            (lambda r: r.update(compound_nodes=0), "compound_nodes"),
            (lambda r: r.update(rhs_mode="other"), "rhs_mode"),
            (lambda r: r.update(typo_field=1), "typo_field"),
            (lambda r: r["sim"].update(n_draws="many"), "sim.n_draws"),
            (
                lambda r: r.update(parameter_uncertainties=[{"param": 3, "dist": {}}]),
                "parameter_uncertainties[0].param",
            ),
        ],
    )
    def test_schema_errors_name_the_field(self, mutate, path):
        record = base_record()
        mutate(record)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(record)
        assert path in str(err.value)

    def test_search_requires_budget(self):
        record = mismatch_record()
        del record["search"]["budget"]
        with pytest.raises(ScenarioError, match="search.budget"):
            parse_scenario(record)

    def test_search_requires_order_family(self):
        record = mismatch_record()
        del record["order_family"]
        with pytest.raises(ScenarioError, match="order_family"):
            parse_scenario(record)

    def test_bounds_must_match_family_parameters(self):
        record = mismatch_record()
        record["order_family"]["bounds"] = {"width": [0.0, 1.0]}
        with pytest.raises(ScenarioError, match="order_family.bounds"):
            parse_scenario(record)

    def test_empirical_csv_resolved_relative_to_file(self, tmp_path):
        (tmp_path / "demand.csv").write_text("value\n0.5\n1.5\n")
        record = base_record(estimated_demand={"family": "empirical", "csv": "demand.csv"})
        scenario = load_scenario(write_scenario(tmp_path, record))
        assert list(scenario.estimated_demand.values) == [0.5, 1.5]

    def test_invalid_json_is_a_schema_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError):
            load_scenario(str(path))


class TestSolveCommand:
    def test_prints_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["solve", write_scenario(tmp_path, base_record()), "--json", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "naive order quantity" in printed and "0.5" in printed
        assert "[true] = estimated" in printed
        report = json.loads(out.read_text())
        assert report["naive_order"] == pytest.approx(0.5)
        assert report["baseline_profit"]["exact"] == pytest.approx(0.25)
        assert report["demand"]["estimated"]["optimal_profit"] == pytest.approx(0.25)
        assert report["demand"]["true"] == {"same_as_estimated": True}

    def test_explicit_true_demand_block(self, tmp_path):
        record = base_record(true_demand={"family": "uniform", "lo": 0.0, "hi": 2.0})
        out = tmp_path / "report.json"
        assert main(["solve", write_scenario(tmp_path, record), "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["demand"]["true"]["same_as_estimated"] is False
        assert report["demand"]["true"]["optimal_quantity"] == pytest.approx(1.0)

    def test_missing_file_exit_code(self, capsys):
        assert main(["solve", "/nonexistent/scenario.json"]) == 2

    def test_schema_violation_exit_code(self, tmp_path, capsys):
        record = base_record()
        record["market"]["w"] = 5.0
        code = main(["solve", write_scenario(tmp_path, record)])
        assert code == 3
        assert "market.w" in capsys.readouterr().err

    def test_duplicate_uncertain_parameter_exit_code(self, tmp_path, capsys):
        hi = {"param": "hi", "dist": {"family": "uniform", "lo": 0.9, "hi": 1.1}}
        record = base_record(parameter_uncertainties=[hi, hi])
        assert main(["solve", write_scenario(tmp_path, record)]) == 3
        assert "duplicate uncertain parameter" in capsys.readouterr().err

    def test_dump_normalized_round_trip(self, tmp_path):
        dump = tmp_path / "normalized.json"
        path = write_scenario(tmp_path, mismatch_record())
        assert main(["solve", path, "--dump-normalized", str(dump)]) == 0
        reparsed = parse_scenario(json.loads(dump.read_text()))
        assert normalized_dict(reparsed) == json.loads(dump.read_text())

    def test_dump_with_removed_market_fields_is_refused(self, tmp_path, capsys):
        # the normalized form that older versions wrote, with zero s, r and c
        record = mismatch_record()
        record["market"] = {"c": 0.0, "p": 2.0, "r": 0.0, "s": 0.0, "w": 1.0}
        record.update(compound_nodes=64, rhs_mode="exact")
        assert main(["solve", write_scenario(tmp_path, record)]) == 3
        err = capsys.readouterr().err
        assert all(f"market.{key}" in err for key in ("s", "r", "c"))

    def test_truncated_estimate_without_uncertainty(self, tmp_path):
        estimated = {"family": "lognormal", "log_mean": 0.0, "log_sd": 0.5, "upper": 3.0}
        record = base_record(estimated_demand=estimated)
        assert main(["solve", write_scenario(tmp_path, record)]) == 0

    def test_dump_compound_writes_the_mixture(self, tmp_path):
        record = base_record(
            parameter_uncertainties=[
                {"param": "hi", "dist": {"family": "uniform", "lo": 0.8, "hi": 1.2}}
            ],
            compound_nodes=2,
        )
        dump = tmp_path / "compound.json"
        assert main(["solve", write_scenario(tmp_path, record), "--dump-compound", str(dump)]) == 0
        mixture = json.loads(dump.read_text())
        assert mixture["family"] == "mixture"
        assert [c["dist"]["hi"] for c in mixture["components"]] == [0.9, 1.1]

    def test_numerical_integrity_exit_code(self, tmp_path, monkeypatch):
        from randvendor import NumericalIntegrityError
        from randvendor import cli as cli_module

        def explode(*args, **kwargs):
            raise NumericalIntegrityError("forms disagree")

        monkeypatch.setattr(cli_module.newsvendor, "optimal_profit", explode)
        assert main(["solve", write_scenario(tmp_path, base_record())]) == 4

    @pytest.mark.parametrize(
        "overrides",
        [
            # the lognormal's quantile overflows
            {"estimated_demand": {"family": "lognormal", "log_mean": 800.0, "log_sd": 1.0}},
            # so do the derived constants of the compound's far components
            {
                "estimated_demand": {"family": "lognormal", "log_mean": 1.0, "log_sd": 1.0},
                "parameter_uncertainties": [
                    {"param": "log_mean", "dist": {"family": "uniform", "lo": 1.0, "hi": 1500.0}}
                ],
            },
        ],
        ids=["lognormal", "compound"],
    )
    def test_overflow_exit_code(self, tmp_path, capsys, overrides):
        assert main(["solve", write_scenario(tmp_path, base_record(**overrides))]) == 4
        assert "overflow" in capsys.readouterr().err


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "scenario.json", "--rhs-mode", "theorem"],
            ["validate", "scenario.json", "--rhs-mode", "exact"],
            ["validate", "scenario.json", "--inject-bias", "0.1"],
        ],
    )
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_rhs_mode_is_a_search_flag_only(self, capsys):
        for command, listed in (("solve", False), ("search", True), ("validate", False)):
            with pytest.raises(SystemExit):
                main([command, "-h"])
            assert ("--rhs-mode" in capsys.readouterr().out) is listed


class TestSearchCommand:
    def test_mismatch_scenario_improves(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        trace = tmp_path / "trace.csv"
        path = write_scenario(tmp_path, mismatch_record(budget=400))
        code = main(["search", path, "--json", str(out), "--trace", str(trace)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["improvement"] > 0.0
        assert report["best_policy"]["kind"] == "stochastic"
        lines = trace.read_text().splitlines()
        assert lines[0] == "candidate_id,param_1,param_2,expected_profit,margin,feasible"
        assert len(lines) == 401

    def test_random_search_prints_its_winner_as_plain_floats(self, tmp_path, capsys):
        # as a grid search prints it: the shortest repr of each float, not a
        # numpy scalar's repr
        record = mismatch_record(search={"method": "random", "budget": 50, "seed": 7})
        out = tmp_path / "report.json"
        assert main(["search", write_scenario(tmp_path, record), "--json", str(out)]) == 0
        params = json.loads(out.read_text())["best_policy"]["params"]
        pairs = ", ".join(f"{name}={params[name]!r}" for name in ("lo", "hi"))
        printed = capsys.readouterr().out
        assert f"best policy: uniform({pairs})\n" in printed
        assert "np." not in printed

    def test_no_error_scenario_retains_deterministic_optimum(self, tmp_path, capsys):
        record = base_record(
            order_family={"family": "uniform", "bounds": {"lo": [0.0, 1.0], "hi": [0.0, 1.0]}},
            search={"method": "grid", "budget": 100, "seed": 1},
        )
        code = main(["search", write_scenario(tmp_path, record)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "deterministic optimum retained" in printed

    def test_a_point_order_winner_is_not_the_deterministic_optimum(self, tmp_path, capsys):
        # the one feasible point order wins with an improvement of about
        # -5e-12: the best policy is that order, not the naive one retained
        record = perfbench_module("workloads").pool()["p-lognormal-point-2"]
        code = main(["search", write_scenario(tmp_path, record)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "best policy: point(q=" in printed
        assert "deterministic optimum retained" not in printed

    def test_truncated_normal_order_against_compound_uniform(self, tmp_path):
        # 4,096 uniform components with 128 kinks; quadrature of this pair
        # used to be refused (exit 4)
        record = base_record(
            market={"p": 3.0, "w": 1.2},
            estimated_demand={"family": "uniform", "lo": 0.5, "hi": 2.0},
            parameter_uncertainties=[
                {"param": "lo", "dist": {"family": "uniform", "lo": 0.2, "hi": 0.8}},
                {"param": "hi", "dist": {"family": "uniform", "lo": 1.5, "hi": 2.5}},
            ],
            compound_nodes=64,
            order_family={"family": "truncated_normal", "bounds": {"sd": [0.05, 0.5]}},
            search={"method": "grid", "budget": 3, "seed": 11, "constrain_mean_to_qhat": True},
        )
        out = tmp_path / "report.json"
        assert main(["search", write_scenario(tmp_path, record), "--json", str(out)]) == 0
        assert json.loads(out.read_text())["evaluations"] == 3

    def test_truncated_normal_orders_far_wider_than_the_mean_are_skipped(self, tmp_path):
        # pinning the mean of such an order overflows; each is an invalid
        # candidate with a nan row, not a crash
        record = base_record(
            estimated_demand={"family": "exponential", "rate": 1e9},
            order_family={"family": "truncated_normal", "bounds": {"sd": [1e-3, 1e150]}},
            search={"method": "grid", "budget": 5, "seed": 1, "constrain_mean_to_qhat": True},
        )
        trace = tmp_path / "trace.csv"
        assert main(["search", write_scenario(tmp_path, record), "--trace", str(trace)]) == 0
        rows = [line.split(",") for line in trace.read_text().splitlines()[1:]]
        assert len(rows) == 5
        wide = [row for row in rows if float(row[1]) > 1e149]
        assert len(wide) == 4
        assert all(row[3:] == ["nan", "nan", "false"] for row in wide)

    def test_missing_search_config(self, tmp_path):
        assert main(["search", write_scenario(tmp_path, base_record())]) == 3

    def test_zero_budget_is_schema_error(self, tmp_path):
        assert main(["search", write_scenario(tmp_path, mismatch_record(budget=0))]) == 3

    def test_rhs_mode_flag_changes_the_baseline(self, tmp_path):
        path = write_scenario(tmp_path, mismatch_record(budget=100))
        exact_out = tmp_path / "exact.json"
        theorem_out = tmp_path / "theorem.json"
        assert main(["search", path, "--json", str(exact_out)]) == 0
        assert main(["search", path, "--json", str(theorem_out), "--rhs-mode", "theorem"]) == 0
        exact = json.loads(exact_out.read_text())
        theorem = json.loads(theorem_out.read_text())
        assert exact["baseline_profit"] == pytest.approx(0.2916667, abs=1e-6)
        assert theorem["baseline_profit"] == pytest.approx(0.2083333, abs=1e-6)


class TestNarrowOrdersAgainstACompound:
    """The shipped 256-component compound with lognormal orders of log_sd in
    [0.004, 0.02]: their expected maxima came out 30 % low, so search
    reported a stochastic policy with improvement 1.77 and validate failed
    with z = -1067."""

    def scenario(self, tmp_path):
        shipped = Path(__file__).resolve().parents[1] / "scenarios" / "uncertain_parameters.json"
        record = json.loads(shipped.read_text())
        record["order_family"] = {"family": "lognormal", "bounds": {"log_sd": [0.004, 0.02]}}
        record["search"] = {"method": "grid", "budget": 8, "seed": 11, "constrain_mean_to_qhat": True}
        record["sim"] = {"n_draws": 200_000, "seed": 42}
        return write_scenario(tmp_path, record)

    def test_validate_passes(self, tmp_path):
        assert main(["validate", self.scenario(tmp_path)]) == 0

    def test_search_finds_no_feasible_candidate(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["search", self.scenario(tmp_path), "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["feasible_count"] == 0
        assert report["best_policy"]["kind"] == "deterministic"


class TestNarrowOrdersAgainstATruncation:
    """A truncated lognormal demand with pinned truncated-normal orders of sd
    in [0.004, 0.006]: their expected maxima came out 0.80 low, so search
    reported improvement 6.408 with 3 of 5 candidates feasible, and validate
    failed with z = 1061."""

    def scenario(self, tmp_path):
        record = base_record(
            market={"p": 3.0, "w": 1.0},
            estimated_demand={"family": "lognormal", "log_mean": 1.0, "log_sd": 0.5, "upper": 6.0},
            order_family={"family": "truncated_normal", "bounds": {"sd": [0.004, 0.006]}},
            search={"method": "grid", "budget": 5, "seed": 0, "constrain_mean_to_qhat": True},
        )
        return write_scenario(tmp_path, record)

    def test_validate_passes(self, tmp_path):
        assert main(["validate", self.scenario(tmp_path)]) == 0

    def test_search_finds_no_feasible_candidate(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["search", self.scenario(tmp_path), "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert (report["feasible_count"], report["evaluations"]) == (0, 5)
        assert report["best_policy"]["kind"] == "deterministic"


class TestValidateCommand:
    def test_passes_on_clean_scenario(self, tmp_path, capsys):
        out = tmp_path / "validation.json"
        path = write_scenario(tmp_path, mismatch_record())
        assert main(["validate", path, "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert len(report["rows"]) == 5
        assert all(abs(row["z"]) <= 4 for row in report["rows"])
        assert "PASS" in capsys.readouterr().out

    def test_injected_bias_is_caught(self, tmp_path, capsys, monkeypatch):
        from randvendor import cli as cli_module

        exact = cli_module.expected_max
        monkeypatch.setattr(cli_module, "expected_max", lambda a, b: exact(a, b) + 0.1)
        path = write_scenario(tmp_path, mismatch_record())
        assert main(["validate", path]) == 5
        assert "FAIL" in capsys.readouterr().out

    def test_small_sample_still_passes(self, tmp_path):
        record = mismatch_record()
        record["sim"] = {"n_draws": 1000, "seed": 3}
        assert main(["validate", write_scenario(tmp_path, record)]) == 0

    def test_requires_order_family(self, tmp_path):
        assert main(["validate", write_scenario(tmp_path, base_record())]) == 3

    def test_truncated_mixture_of_atoms_and_a_density_is_searched_and_validated(
        self, tmp_path, capsys
    ):
        # an upper truncation of a mixture with both atoms and a density: its
        # expected maximum conditions on the truncated components
        demand = {
            "family": "mixture",
            "components": [
                {"weight": 0.5, "dist": {"family": "empirical", "values": [1.0, 2.0]}},
                {"weight": 0.5, "dist": {"family": "lognormal", "log_mean": 0.0, "log_sd": 1.0}},
            ],
            "upper": 3.0,
        }
        record = base_record(
            estimated_demand=demand,
            order_family={"family": "lognormal", "bounds": {"log_sd": [0.1, 0.2]}},
            search={"method": "grid", "budget": 4, "seed": 0, "constrain_mean_to_qhat": True},
        )
        path = write_scenario(tmp_path, record)
        for command in ("search", "validate"):
            assert main([command, path]) == 0, command
            assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "order_family,path",
        [
            ({"family": "uniform", "bounds": {}}, "order_family.bounds"),
            ({"family": "gamma", "bounds": {"shape": [1.0, 2.0]}}, "order_family.family"),
        ],
    )
    def test_order_family_checked_without_search(self, tmp_path, capsys, order_family, path):
        record = base_record(order_family=order_family)
        assert main(["validate", write_scenario(tmp_path, record)]) == 3
        assert path in capsys.readouterr().err


class TestReproducibility:
    def test_search_and_validate_are_byte_identical(self, tmp_path):
        path = write_scenario(tmp_path, mismatch_record(budget=100))
        outputs = {}
        for run in ("a", "b"):
            report = tmp_path / f"search-{run}.json"
            trace = tmp_path / f"trace-{run}.csv"
            val = tmp_path / f"val-{run}.json"
            assert main(["search", path, "--json", str(report), "--trace", str(trace)]) == 0
            assert main(["validate", path, "--json", str(val)]) == 0
            outputs[run] = (report.read_bytes(), trace.read_bytes(), val.read_bytes())
        assert outputs["a"] == outputs["b"]
