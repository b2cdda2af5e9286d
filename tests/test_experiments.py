import ast
import dataclasses
import hashlib
import inspect
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import bundle_auction_lab
from bundle_auction_lab import cli
from bundle_auction_lab.cli import main
from bundle_auction_lab.experiments import (
    COMMANDS,
    ConfigError,
    csv_text,
    emit_csv,
    parse_config,
    render_footer,
    run,
    serialize_config,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
UNIFORM_DESC = {"type": "uniform", "M": 1.0}
RAMP_DESC = {"type": "piecewise_linear", "knots": [0.0, 1.0],
             "densities": [0.5, 1.5]}


def config_text(**kwargs) -> str:
    return json.dumps(kwargs)


ROUND_TRIP_CASES = [
    dict(command="single-opt", distributions=[UNIFORM_DESC], seed=42,
         n_samples=1000),
    dict(command="pair-opt", distributions=[UNIFORM_DESC, RAMP_DESC],
         seed=7, budget=3),
    dict(command="verify-thm1", distributions=[UNIFORM_DESC, UNIFORM_DESC],
         seed=1, eps_grid=[0.05, 0.1]),
    dict(command="verify-thm2", distributions=[UNIFORM_DESC], seed=9,
         n_list=[100, 1000], n_samples=2000),
    dict(command="partition", distributions=[UNIFORM_DESC], seed=3, N=6,
         n_samples=2000, budget=2, mode="pure_bundle"),
    dict(command="sweep", seed=0, n_min=2, n_max=1000),
]

# serialize_config's JSON for each shipped config and each round-trip case,
# as the footer's "# config:" line shows it.
SERIALIZED_CONFIGS = {
    "bernstein_sweep": (
        '{"command": "sweep", "distributions": [], "n_max": 1000000, "n_min":'
        ' 2}'),
    "pair_opt_uniform": (
        '{"budget": 15, "command": "pair-opt", "distributions": [{"M": 1.0,'
        ' "type": "uniform"}, {"M": 1.0, "type": "uniform"}]}'),
    "partition_n36": (
        '{"N": 36, "budget": 2, "command": "partition", "distributions":'
        ' [{"M": 1.0, "type": "uniform"}], "mode": "full"}'),
    "single_opt_uniform": (
        '{"command": "single-opt", "distributions": [{"M": 1.0, "type":'
        ' "uniform"}, {"densities": [0.5, 1.5], "knots": [0.0, 1.0], "type":'
        ' "piecewise_linear"}]}'),
    "verify_thm1_skewed_pair": (
        '{"command": "verify-thm1", "distributions": [{"densities": [1.5,'
        ' 1.2], "knots": [0.0, 0.75], "type": "piecewise_linear"},'
        ' {"densities": [0.3, 0.7, 0.7], "knots": [0.0, 1.9, 2.0], "type":'
        ' "piecewise_linear"}]}'),
    "verify_thm1_uniform_pair": (
        '{"command": "verify-thm1", "distributions": [{"M": 1.0, "type":'
        ' "uniform"}, {"M": 1.0, "type": "uniform"}], "eps_grid": [0.05, 0.1,'
        ' 0.2]}'),
    "verify_thm2_uniform": (
        '{"command": "verify-thm2", "distributions": [{"M": 1.0, "type":'
        ' "uniform"}], "n_list": [100, 1000, 10000]}'),
}
SERIALIZED_ROUND_TRIP_CASES = [
    '{"command": "single-opt", "distributions": [{"M": 1.0, "type":'
    ' "uniform"}]}',
    '{"budget": 3, "command": "pair-opt", "distributions": [{"M": 1.0, "type":'
    ' "uniform"}, {"densities": [0.5, 1.5], "knots": [0.0, 1.0], "type":'
    ' "piecewise_linear"}]}',
    '{"command": "verify-thm1", "distributions": [{"M": 1.0, "type":'
    ' "uniform"}, {"M": 1.0, "type": "uniform"}], "eps_grid": [0.05, 0.1]}',
    '{"command": "verify-thm2", "distributions": [{"M": 1.0, "type":'
    ' "uniform"}], "n_list": [100, 1000]}',
    '{"N": 6, "budget": 2, "command": "partition", "distributions": [{"M":'
    ' 1.0, "type": "uniform"}], "mode": "pure_bundle"}',
    '{"command": "sweep", "distributions": [], "n_max": 1000, "n_min": 2}',
]


# A valid value for every one of each command's own keys.
EVERY_KEY = {
    "single-opt": dict(distributions=[UNIFORM_DESC]),
    "pair-opt": dict(distributions=[UNIFORM_DESC] * 2, budget=2),
    "verify-thm1": dict(distributions=[UNIFORM_DESC] * 2, eps_grid=[0.1]),
    "verify-thm2": dict(distributions=[UNIFORM_DESC], n_list=[100]),
    "partition": dict(distributions=[UNIFORM_DESC], N=6, budget=1,
                      mode="pure_bundle"),
    "sweep": dict(n_min=3, n_max=100),
}


class TestCommandKeys:
    """A command's keys are named in its `COMMANDS` entry, checked in its
    branch of `parse_config` and defaulted in its runner's signature.  A
    key that one of them misses would be rejected, or silently dropped."""

    @staticmethod
    def runner_calls(monkeypatch, name) -> list:
        calls = []
        command = COMMANDS[name]

        def spy(built, **params):
            calls.append(params)
            return command.run(built, **params)

        monkeypatch.setitem(COMMANDS, name,
                            dataclasses.replace(command, run=spy))
        return calls

    @staticmethod
    def keywords(name) -> dict:
        """The runner's parameters after the distributions, by name."""
        built, *rest = inspect.signature(COMMANDS[name].run).parameters.values()
        assert built.name == "built"
        return {p.name: p for p in rest}

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_every_given_key_reaches_the_runner(self, name, monkeypatch):
        given = {k: v for k, v in EVERY_KEY[name].items()
                 if k != "distributions"}
        assert set(given) == COMMANDS[name].keys
        cfg = parse_config(config_text(command=name, **EVERY_KEY[name]))
        assert json.loads(json.dumps(cfg.params)) == given
        calls = self.runner_calls(monkeypatch, name)
        assert run(cfg).rows
        assert calls == [cfg.params]

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_a_key_left_out_takes_the_runners_default(self, name):
        keywords = self.keywords(name)
        assert set(keywords) == COMMANDS[name].keys
        defaults = {k: p.default for k, p in keywords.items()
                    if p.default is not p.empty}
        required = {k: v for k, v in EVERY_KEY[name].items()
                    if k not in defaults}
        cfg = parse_config(config_text(command=name, **required))
        assert set(cfg.params) == set(keywords) - set(defaults)
        assert set(json.loads(serialize_config(cfg))) == {
            "command", "distributions", *cfg.params}
        # The defaults are valid config values, and giving them changes no
        # row.
        explicit = parse_config(config_text(command=name, **required,
                                            **defaults))
        assert run(cfg).rows == run(explicit).rows


class TestParseConfig:
    def test_valid_single_opt(self):
        cfg = parse_config(config_text(
            command="single-opt", distributions=[UNIFORM_DESC],
            seed=42, n_samples=100000,
        ))
        assert cfg.command == "single-opt"
        assert cfg.built[0].upper_bound == 1.0
        # No command samples: seed and n_samples are optional and ignored.
        assert cfg == parse_config(config_text(command="single-opt",
                                               distributions=[UNIFORM_DESC]))

    @pytest.mark.parametrize("seed, message", [
        (-1, r"\$\.seed: must be >= 0$"),
        (1.5, r"\$\.seed: expected an integer$"),
        (True, r"\$\.seed: expected an integer$"),
        (1 << 64, r"\$\.seed: must fit in 64 bits$"),
    ], ids=["negative", "float", "bool", "above-64-bits"])
    def test_a_given_seed_is_still_checked(self, seed, message):
        # The benchmark's configs send a seed, so it stays a checked key.
        with pytest.raises(ConfigError, match=message):
            parse_config(config_text(command="single-opt", seed=seed,
                                     distributions=[UNIFORM_DESC]))
        assert parse_config(config_text(command="single-opt",
                                        seed=(1 << 64) - 1,
                                        distributions=[UNIFORM_DESC]))

    def test_unknown_key_reports_path(self):
        with pytest.raises(ConfigError, match=r"\$\.bogus"):
            parse_config(config_text(command="single-opt", seed=1, bogus=2))

    def test_unknown_distribution_key_reports_path(self):
        with pytest.raises(ConfigError, match=r"\$\.distributions\[0\]\.mean"):
            parse_config(config_text(
                command="single-opt", seed=1,
                distributions=[{"type": "uniform", "M": 1.0, "mean": 0.5}],
            ))

    def test_zero_density_propagates(self):
        with pytest.raises(ConfigError, match="strictly positive"):
            parse_config(config_text(
                command="single-opt", seed=1,
                distributions=[{"type": "piecewise_linear",
                                "knots": [0.0, 1.0], "densities": [0.0, 2.0]}],
            ))

    @pytest.mark.parametrize("knots, densities, message", [
        ([], [], "need at least two knots"),
        ([0.0], [1.0], "need at least two knots"),
        ([0.0, 1.0], [1.0], "equal length"),
        ([0.0, 1.0, 0.5], [1.0, 1.0, 1.0], "strictly ascending"),
        ([0.1, 1.0], [1.0, 1.0], "first knot must be 0"),
        ([0.0, 1.0], [1.0, -1.0], "strictly positive"),
        ([0.0, 1e309], [1.0, 1.0], "finite"),
    ])
    def test_bad_knots_report_the_distribution_path(self, knots, densities,
                                                     message):
        with pytest.raises(ConfigError,
                           match=r"^\$\.distributions\[1\]: .*" + message):
            parse_config(config_text(
                command="single-opt", seed=1,
                distributions=[UNIFORM_DESC, {"type": "piecewise_linear",
                                              "knots": knots,
                                              "densities": densities}],
            ))

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{not json")

    def test_command_specific_key_rejected_elsewhere(self):
        with pytest.raises(ConfigError, match=r"\$\.n_list"):
            parse_config(config_text(command="single-opt", seed=1,
                                     distributions=[UNIFORM_DESC],
                                     n_list=[100]))

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match=r"\$\.command"):
            parse_config(config_text(command="optimize-all", seed=1))

    @pytest.mark.parametrize("n_max, extra", [(10**8 + 1, {}),
                                              (10**12, {"n_min": 2}),
                                              (10**400, {})])
    def test_sweep_n_max_is_capped(self, n_max, extra):
        # 10**12 would sweep for hours; 10**400 is beyond float range.
        with pytest.raises(ConfigError, match=r"\$\.n_max: must be <= 10+$"):
            parse_config(config_text(command="sweep", seed=0, n_max=n_max,
                                     **extra))
        assert parse_config(config_text(
            command="sweep", seed=0, n_max=10**8)).params == {"n_max": 10**8}

    @pytest.mark.parametrize("bounds", [{"n_min": 10, "n_max": 5},
                                        {"n_min": 10**6 + 1}])
    def test_sweep_n_min_above_n_max_is_a_config_error(self, bounds):
        # The second case is above the default n_max of 10**6.
        with pytest.raises(ConfigError, match=r"^\$\.n_max: must be >= "):
            parse_config(config_text(command="sweep", seed=0, **bounds))

    def test_partition_accepts_and_ignores_any_positive_n_samples(self):
        # partition is exact, so n_samples and the seed are checked as for
        # every other command and move no row.
        def rows(**kwargs):
            cfg = parse_config(config_text(
                command="partition", N=6, budget=1,
                distributions=[UNIFORM_DESC], **kwargs))
            return cfg, run(cfg).rows

        cfg, base = rows()
        assert rows(seed=1, n_samples=1) == (cfg, base)
        assert rows(seed=8, n_samples=10**5) == (cfg, base)
        with pytest.raises(ConfigError,
                           match=r"\$\.n_samples: must be >= 1$"):
            rows(seed=1, n_samples=0)

    def test_verify_thm2_accepts_and_ignores_any_positive_n_samples(self):
        # verify-thm2 draws nothing, so its n_samples is checked as for the
        # other commands that do not sample, and neither it nor the seed
        # moves the rows.
        def rows(**kwargs):
            cfg = parse_config(config_text(
                command="verify-thm2", distributions=[UNIFORM_DESC],
                n_list=[100], **kwargs))
            return cfg, run(cfg).rows

        cfg, base = rows()
        assert rows(seed=1, n_samples=1) == (cfg, base)
        assert rows(seed=8, n_samples=10**5) == (cfg, base)
        with pytest.raises(ConfigError,
                           match=r"\$\.n_samples: must be >= 1$"):
            rows(seed=1, n_samples=0)

    @pytest.mark.parametrize("n_list, i, n", [([50], 0, 50),
                                              ([100, 1000, 30], 2, 30)])
    def test_verify_thm2_vacuous_n_is_a_config_error(self, n_list, i, n):
        # Uniform [0, 1] prices the full-surplus bundle at or below 0 up to
        # n = 67; the run-time error had no config path.
        with pytest.raises(ConfigError, match=(
                rf"^\$\.n_list\[{i}\]: bundle price .* is nonpositive: the "
                rf"construction is vacuous at n={n} ")):
            parse_config(config_text(command="verify-thm2", seed=1,
                                     n_list=n_list,
                                     distributions=[UNIFORM_DESC]))

    def test_verify_thm2_vacuity_follows_the_distribution(self):
        # At n = 100, 2 M sqrt(n ln n) is 42.9: above mu = 35 for this ramp
        # (mean 0.35), below mu = 50 for uniform [0, 1].
        low = {"type": "piecewise_linear", "knots": [0.0, 1.0],
               "densities": [1.9, 0.1]}
        with pytest.raises(ConfigError, match=r"^\$\.n_list\[0\]: "):
            parse_config(config_text(command="verify-thm2", seed=1,
                                     n_list=[100], distributions=[low]))
        assert parse_config(config_text(
            command="verify-thm2", seed=1, n_list=[100],
            distributions=[UNIFORM_DESC])).params == {"n_list": (100,)}

    def test_verify_thm2_n_above_2_53_is_a_config_error(self):
        with pytest.raises(ConfigError,
                           match=r"^\$\.n_list\[1\]: must be <= 2\*\*53"):
            parse_config(config_text(command="verify-thm2", seed=1,
                                     n_list=[100, 2**53 + 1],
                                     distributions=[UNIFORM_DESC]))
        cfg = parse_config(config_text(command="verify-thm2", seed=1,
                                       n_list=[100, 2**53],
                                       distributions=[UNIFORM_DESC]))
        assert run(cfg).passed

    @pytest.mark.parametrize("grid, i", [([-0.1], 0), ([0.1, 0.0], 1),
                                         ([0.6, -0.1], 1)])
    def test_verify_thm1_nonpositive_eps_is_a_config_error(self, grid, i):
        # Every value is checked for > 0 before any is checked against p2*.
        with pytest.raises(ConfigError,
                           match=rf"^\$\.eps_grid\[{i}\]: must be > 0$"):
            parse_config(config_text(command="verify-thm1", seed=1,
                                     eps_grid=grid,
                                     distributions=[UNIFORM_DESC] * 2))

    @pytest.mark.parametrize("command, count, wanted", [
        ("verify-thm1", 3, "exactly 2"),
        ("verify-thm2", 2, "exactly 1"),
        ("partition", 0, "exactly 1"),
        ("sweep", 1, "exactly 0"),
        ("single-opt", 0, "at least 1"),
    ])
    def test_distribution_count_checked_at_parse(self, command, count,
                                                 wanted):
        extra = {"N": 6} if command == "partition" else {}
        with pytest.raises(ConfigError, match=(
                rf"^\$\.distributions: command '{command}' needs {wanted}, "
                rf"got {count}$")):
            parse_config(config_text(command=command, seed=1,
                                     distributions=[UNIFORM_DESC] * count,
                                     **extra))

    def test_partition_requires_n(self):
        with pytest.raises(ConfigError, match=r"\$\.N"):
            parse_config(config_text(command="partition", seed=1,
                                     distributions=[UNIFORM_DESC]))

    @pytest.mark.parametrize("text, message", [
        ("[1]", "$: config must be a JSON object"),
        ("{}", "missing required field $.command"),
        (config_text(command="single-opt", distributions={}),
         "$.distributions: expected a list"),
        (config_text(command="single-opt", distributions=[5]),
         "$.distributions[0]: distribution descriptor must be an object"),
        (config_text(command="single-opt",
                     distributions=[{"type": "uniform", "M": -1.0}]),
         "$.distributions[0]: upper bound must be positive and finite"),
        (config_text(command="single-opt", distributions=[{"type": "beta"}]),
         "$.distributions[0].type: expected 'uniform' or "
         "'piecewise_linear', got 'beta'"),
        (config_text(command="single-opt",
                     distributions=[{"type": "uniform"}]),
         "missing required field $.distributions[0].M"),
        (config_text(command="single-opt",
                     distributions=[{"type": "uniform", "M": "1"}]),
         "$.distributions[0].M: expected a number"),
        (config_text(command="single-opt", distributions=[
            {"type": "piecewise_linear", "densities": [1.0, 1.0]}]),
         "missing required field $.distributions[0].knots"),
        (config_text(command="single-opt", distributions=[
            {"type": "piecewise_linear", "knots": 1.0,
             "densities": [1.0, 1.0]}]),
         "$.distributions[0].knots: expected a list of numbers"),
        (config_text(command="single-opt", distributions=[
            {"type": "piecewise_linear", "knots": [0.0, 1.0],
             "densities": [1.0, None]}]),
         "$.distributions[0].densities[1]: expected a number"),
        (config_text(command="verify-thm1", eps_grid=[],
                     distributions=[UNIFORM_DESC] * 2),
         "$.eps_grid: must be nonempty"),
        (config_text(command="verify-thm2", n_list=100,
                     distributions=[UNIFORM_DESC]),
         "$.n_list: expected a nonempty list of integers"),
        (config_text(command="partition", N=6, mode="mixed",
                     distributions=[UNIFORM_DESC]),
         "$.mode: expected 'pure_bundle' or 'full'"),
        # The CSV's path is named by the caller (run's out_path, the CLI's
        # --out), never by the config.
        (config_text(command="sweep", out=1), "unknown key $.out"),
        # The sweep is in units of M: its rows, pass flag and worst n are
        # the same for every bound M, so it takes no M and no law.
        (config_text(command="sweep", n_max=100, M=1.0), "unknown key $.M"),
        (config_text(command="sweep", distributions=[UNIFORM_DESC]),
         "$.distributions: command 'sweep' needs exactly 0, got 1"),
    ], ids=["not-an-object", "no-command", "distributions-not-a-list",
            "descriptor-not-an-object", "uniform-error", "unknown-type",
            "number-missing", "number-not-a-number", "list-missing",
            "list-not-a-list", "list-item-not-a-number", "empty-eps-grid",
            "n-list-not-a-list", "bad-mode", "out-not-a-string", "sweep-M",
            "sweep-distribution"])
    def test_config_error_messages_are_pinned(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message

    BIG = 10**400  # a JSON integer past the largest float

    @pytest.mark.parametrize("kwargs, message", [
        (dict(command="single-opt",
              distributions=[{"type": "uniform", "M": BIG}]),
         "$.distributions[0].M: beyond float range"),
        (dict(command="single-opt", distributions=[
            {"type": "piecewise_linear", "knots": [0, BIG],
             "densities": [1, 1]}]),
         "$.distributions[0].knots[1]: beyond float range"),
        (dict(command="single-opt", distributions=[
            {"type": "piecewise_linear", "knots": [0, 1],
             "densities": [BIG, 1]}]),
         "$.distributions[0].densities[0]: beyond float range"),
        (dict(command="verify-thm1", eps_grid=[0.1, BIG],
              distributions=[UNIFORM_DESC] * 2),
         "$.eps_grid[1]: beyond float range"),
        (dict(command="partition", N=6 * BIG, distributions=[UNIFORM_DESC]),
         "$.N: beyond float range"),
    ], ids=["uniform-M", "knot", "density", "eps", "partition-N"])
    def test_numbers_out_of_range_name_their_path(self, kwargs, message):
        # Each of these used to end in a traceback (OverflowError) or an
        # error without a path.
        with pytest.raises(ConfigError) as info:
            parse_config(config_text(**kwargs))
        assert str(info.value) == message

    @pytest.mark.parametrize("kwargs", [
        dict(command="pair-opt", distributions=[UNIFORM_DESC] * 2),
        dict(command="partition", N=6, distributions=[UNIFORM_DESC]),
    ], ids=["pair-opt", "partition"])
    def test_a_budget_beyond_every_machine_integer_runs(self, kwargs):
        # The search stops once its zoom step can no longer move a price,
        # so a budget of 10**400 rounds gives the rows of 10**6.
        rows = [run(parse_config(config_text(budget=budget, **kwargs))).rows
                for budget in (10**400, 10**6)]
        assert rows[0] == rows[1]

    def test_an_integer_too_long_to_parse_is_invalid_json(self):
        with pytest.raises(ConfigError, match=r"^invalid JSON: Exceeds"):
            parse_config('{"command": "sweep", "n_max": 1' + "0" * 5000
                         + "}")

    @pytest.mark.parametrize("grid, i, eps", [([0.1, 0.5], 1, 0.5),
                                              ([0.6], 0, 0.6)])
    def test_verify_thm1_eps_at_or_above_p2_star_is_a_config_error(
            self, grid, i, eps):
        # p2* is 0.5 for uniform [0, 1]; this failed at run time, without a
        # path.
        with pytest.raises(ConfigError) as info:
            parse_config(config_text(command="verify-thm1", eps_grid=grid,
                                     distributions=[UNIFORM_DESC] * 2))
        assert str(info.value) == f"$.eps_grid[{i}]: must be < p2*=0.5; got {eps}"

    def test_verify_thm1_default_grid_is_checked_against_p2_star(self):
        # The default grid tops out at 0.2; a uniform [0, 0.01] second
        # customer has p2* = 0.005.
        small = {"type": "uniform", "M": 0.01}
        with pytest.raises(ConfigError) as info:
            parse_config(config_text(command="verify-thm1",
                                     distributions=[UNIFORM_DESC, small]))
        assert str(info.value) == ("$.eps_grid: the default grid reaches "
                                   "0.2, not below p2*=0.005")
        # The first customer's law does not matter, and a grid below p2*
        # runs.
        cfg = parse_config(config_text(command="verify-thm1",
                                       eps_grid=[0.001, 0.004],
                                       distributions=[UNIFORM_DESC, small]))
        assert run(cfg).passed
        assert parse_config(config_text(command="verify-thm1",
                                        distributions=[small, UNIFORM_DESC]))

    @pytest.mark.parametrize("kwargs", ROUND_TRIP_CASES)
    def test_round_trip(self, kwargs):
        cfg = parse_config(config_text(**kwargs))
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("kwargs, expected", zip(
        ROUND_TRIP_CASES, SERIALIZED_ROUND_TRIP_CASES))
    def test_round_trip_case_serialization_is_pinned(self, kwargs, expected):
        cfg = parse_config(config_text(**kwargs))
        assert serialize_config(cfg) == expected

    @pytest.mark.parametrize("name",
                             sorted(p.stem for p in CONFIGS.glob("*.json")))
    def test_config_serialization_is_pinned(self, name):
        path = CONFIGS / f"{name}.json"
        cfg = parse_config(path.read_text(encoding="utf-8"))
        assert serialize_config(cfg) == SERIALIZED_CONFIGS[name]


class TestRunCommands:
    def test_single_opt_row(self):
        cfg = parse_config(config_text(
            command="single-opt", distributions=[UNIFORM_DESC], seed=42,
        ))
        report = run(cfg)
        assert report.columns == ("p_star", "u_star")
        assert len(report.rows) == 1
        p, u = report.rows[0]
        assert p == pytest.approx(0.5, abs=1e-8)
        assert u == pytest.approx(0.25, abs=1e-8)
        lines = csv_text(report).splitlines()
        assert lines[0] == "p_star,u_star"
        assert lines[1] == "0.5,0.25"

    def test_verify_pair_rows_and_status(self):
        cfg = parse_config(config_text(
            command="verify-thm1", seed=1, eps_grid=[0.05, 0.1, 0.2],
            distributions=[UNIFORM_DESC, UNIFORM_DESC],
        ))
        report = run(cfg)
        assert report.passed is True
        sources = [row[1] for row in report.rows]
        assert sources == ["grid", "grid", "grid", "refined"]
        eps_col = [row[0] for row in report.rows[:3]]
        assert eps_col == sorted(eps_col)
        by_eps = {round(row[0], 3): row for row in report.rows[:3]}
        total_idx = report.columns.index("total")
        assert by_eps[0.1][total_idx] == pytest.approx(0.516, abs=1e-6)

    def test_verify_group_rows_ascend(self):
        cfg = parse_config(config_text(
            command="verify-thm2", seed=5, n_list=[1000, 100, 500],
            n_samples=2000, distributions=[UNIFORM_DESC],
        ))
        report = run(cfg)
        assert report.passed is True
        assert [row[0] for row in report.rows] == [100, 500, 1000]

    def test_bernstein_column_does_not_depend_on_the_unit(self):
        # Bernstein's bound at Theorem 2's price is a function of n alone,
        # so every M gives the same floats, not just the powers of two.
        n_list = [100, 1000, 10**4, 10**9]

        def column(m):
            report = run(parse_config(config_text(
                command="verify-thm2", n_list=n_list,
                distributions=[{"type": "uniform", "M": m}])))
            i = report.columns.index("bernstein_bound")
            return [row[i] for row in report.rows]

        expected = column(1.0)
        for m in (3.0, 0.7, 1e300, 1e-300):
            assert column(m) == expected

    def test_sweep(self):
        cfg = parse_config(config_text(command="sweep", seed=0, n_min=2,
                                       n_max=10000))
        report = run(cfg)
        assert report.passed is True
        assert report.rows[0][0] == 2
        assert report.rows[-1][0] == 10000
        holds_idx = report.columns.index("holds")
        assert all(row[holds_idx] for row in report.rows)

    @pytest.mark.parametrize("n", [9170, 19143, 136837])
    def test_sweep_t_is_the_bounds_deviation(self, n):
        # math.log and np.log differ by an ulp at these n; the column reads
        # the x of bernstein_upper_bound, which takes np.log.
        report = run(parse_config(config_text(command="sweep", n_min=n,
                                              n_max=n)))
        t_idx = report.columns.index("t")
        assert [row[t_idx] for row in report.rows] == [
            2.0 * np.sqrt(n * np.log(n))]

    def test_pair_opt_modes(self):
        cfg = parse_config(config_text(
            command="pair-opt", seed=1, budget=2,
            distributions=[UNIFORM_DESC, UNIFORM_DESC],
        ))
        report = run(cfg)
        modes = [row[0] for row in report.rows]
        assert modes == ["full", "pure_bundle"]
        value_idx = report.columns.index("expected_revenue")
        assert report.rows[0][value_idx] >= 0.5 - 1e-6
        a1_idx = report.columns.index("a_1")
        assert report.rows[1][a1_idx] is None

    def test_distribution_count_enforced(self):
        with pytest.raises(ConfigError, match=(
                r"^\$\.distributions: command 'pair-opt' needs exactly 2, "
                r"got 1$")):
            parse_config(config_text(
                command="pair-opt", seed=1, distributions=[UNIFORM_DESC],
            ))


class TestPartition:
    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError,
                           match=r"^\$\.N: must be divisible by 6$"):
            parse_config(config_text(
                command="partition", seed=1, N=8,
                distributions=[UNIFORM_DESC],
            ))

    def test_six_customers(self):
        cfg = parse_config(config_text(
            command="partition", seed=20260810, N=6, n_samples=50000,
            budget=2, distributions=[UNIFORM_DESC],
        ))
        report = run(cfg)
        rows = {row[0]: row for row in report.rows}
        assert set(rows) == {1, 2, 3, 6}
        cols = report.columns
        # all-singles baseline: 6 * 0.25
        assert rows[1][cols.index("class_revenue")] == pytest.approx(1.5, abs=1e-6)
        # the paired class holds N/2 customers; counts may be fractional
        assert rows[2][cols.index("customers")] == 3
        assert rows[2][cols.index("group_count")] == pytest.approx(1.5)
        per_customer = cols.index("per_customer_revenue")
        assert rows[2][per_customer] >= 0.2721
        assert rows[2][per_customer] > 0.25
        # every value is exact, and per-customer revenue rises with group size
        se = cols.index("per_group_std_error")
        assert all(row[se] == 0.0 for row in rows.values())
        for small, big in ((2, 3), (3, 6)):
            assert rows[big][per_customer] > rows[small][per_customer]
        assert any("baseline" in note for note in report.notes)


class TestCsv:
    def test_empty_rows_gives_header_only(self, tmp_path):
        cfg = parse_config(config_text(
            command="single-opt", seed=1, distributions=[UNIFORM_DESC],
        ))
        report = run(cfg)
        empty = report.__class__(
            command=report.command, columns=report.columns, rows=(),
            config_json=report.config_json, version=report.version,
            wall_time_s=0.0,
        )
        path = tmp_path / "empty.csv"
        emit_csv(empty, str(path))
        assert path.read_text(encoding="utf-8") == "p_star,u_star\n"

    def test_byte_reproducible_across_runs(self):
        text = config_text(
            command="verify-thm2", seed=11, n_list=[100], n_samples=2000,
            distributions=[RAMP_DESC],
        )
        first = csv_text(run(parse_config(text)))
        second = csv_text(run(parse_config(text)))
        assert first.encode() == second.encode()

    # (bytes, sha256[:16]) of each shipped config's CSV; a config without a
    # pin fails.  Every output of the exact pair and group engines, the
    # large-bundle check and the single-price solver shows up here.
    PINNED_CONFIGS = {
        "bernstein_sweep": (1447, "10dee7a41bf06624"),
        "pair_opt_uniform": (165, "4340e6909f566bc2"),
        "partition_n36": (336, "4e9d9dfd9340f0ce"),
        "single_opt_uniform": (52, "06da4ab806740c8d"),
        "verify_thm1_skewed_pair": (978, "4194718f805f4087"),
        "verify_thm1_uniform_pair": (394, "b0c08fbeda4139a1"),
        "verify_thm2_uniform": (396, "9901ae6765cf53d9"),
    }

    @pytest.mark.parametrize("name",
                             sorted(p.stem for p in CONFIGS.glob("*.json")))
    def test_config_bytes_are_pinned(self, name):
        path = CONFIGS / f"{name}.json"
        data = csv_text(run(parse_config(path.read_text(encoding="utf-8")))).encode()
        assert (len(data), hashlib.sha256(data).hexdigest()[:16]) == \
            self.PINNED_CONFIGS[name]

    # partition with full offers for a 3-knot template at two seeds: the
    # benchmark's partition-mix run, whose time is the exact group
    # searches'.  Nothing samples, so both seeds give the same bytes.
    # (bytes, sha256[:16]) as for the shipped configs.
    PINNED_PARTITION_MIX = {
        1: (381, "7a942c10a71e9c11"),
        101: (381, "7a942c10a71e9c11"),
    }

    @pytest.mark.parametrize("seed", sorted(PINNED_PARTITION_MIX))
    def test_partition_mix_bytes_are_pinned(self, seed):
        text = config_text(
            command="partition", seed=seed, n_samples=20_000, N=36, budget=2,
            mode="full",
            distributions=[{"type": "piecewise_linear",
                            "knots": [0.0, 0.4, 1.0],
                            "densities": [0.6, 1.6, 0.8]}],
        )
        data = csv_text(run(parse_config(text))).encode()
        assert (len(data), hashlib.sha256(data).hexdigest()[:16]) == \
            self.PINNED_PARTITION_MIX[seed]

    @pytest.mark.parametrize("name",
                             sorted(p.stem for p in CONFIGS.glob("*.json")))
    def test_config_runs_on_the_calling_thread(self, name, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"{name} started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        path = CONFIGS / f"{name}.json"
        assert run(parse_config(path.read_text(encoding="utf-8"))).rows

    def test_verify_thm2_footer_states_each_rows_tail_bound(self):
        # The tail bound of each row goes to the footer; the CSV keeps its
        # pinned bytes.
        path = CONFIGS / "verify_thm2_uniform.json"
        report = run(parse_config(path.read_text(encoding="utf-8")))
        data = csv_text(report).encode()
        assert hashlib.sha256(data).hexdigest()[:16] == "9901ae6765cf53d9"
        assert [n.split(":")[0] for n in report.notes] == [
            "n=100", "n=1000", "n=10000"]
        footer = render_footer(report)
        assert "# note: n=10000: tail bound P[V < b] <= 3.73e-97" in footer
        assert "tail bound" not in csv_text(report)

    def test_three_rows_ascending(self):
        cfg = parse_config(config_text(
            command="verify-thm2", seed=2, n_list=[200, 100, 400],
            n_samples=2000, distributions=[UNIFORM_DESC],
        ))
        lines = csv_text(run(cfg)).splitlines()
        assert len(lines) == 4
        assert [int(line.split(",")[0]) for line in lines[1:]] == [100, 200, 400]

    def test_footer_carries_metadata_not_csv(self):
        cfg = parse_config(config_text(
            command="single-opt", seed=1, distributions=[UNIFORM_DESC],
        ))
        report = run(cfg)
        assert "wall_time_s" not in csv_text(report)
        footer = render_footer(report)
        assert "wall_time_s" in footer
        assert "config" in footer


def invoke(capsys, args):
    """``(exit status, stdout, stderr)`` of the CLI on ``args``."""
    with pytest.raises(SystemExit) as exited:
        main(args)
    out, err = capsys.readouterr()
    return exited.value.code, out, err


class TestCli:
    def test_single_opt_end_to_end(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(
            command="single-opt", seed=42, distributions=[UNIFORM_DESC],
        ))
        out_path = tmp_path / "out.csv"
        code, out, err = invoke(capsys, [
            "single-opt", "--config", str(cfg_path), "--out", str(out_path)
        ])
        assert code == 0
        assert out == ""
        assert out_path.read_text().splitlines()[0] == "p_star,u_star"

    @pytest.mark.parametrize("flag", ["--seed", "--samples"])
    def test_sampling_flags_are_gone(self, tmp_path, capsys, flag):
        # No command samples, so there is no seed or sample count to set.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(
            command="partition", seed=1, N=6, n_samples=5000,
            distributions=[UNIFORM_DESC],
        ))
        code, out, err = invoke(capsys, ["partition", "--config",
                                         str(cfg_path), flag, "9"])
        assert code == 2
        assert "unrecognized arguments" in err and flag in err

    def test_command_mismatch_is_an_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(
            command="single-opt", seed=1, distributions=[UNIFORM_DESC],
        ))
        code, out, err = invoke(capsys, ["pair-opt", "--config",
                                         str(cfg_path)])
        assert code == 1
        assert (out, err) == ("", "Error: config is for command "
                                  "'single-opt', invoked as 'pair-opt'\n")

    def test_config_error_is_one_error_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(command="sweep", bogus=1))
        code, out, err = invoke(capsys, ["sweep", "--config", str(cfg_path)])
        assert code == 1
        assert (out, err) == ("", "Error: unknown key $.bogus\n")

    def test_run_time_value_error_is_one_error_line(self, tmp_path, capsys,
                                                    monkeypatch):
        def fail(config, **kwargs):
            raise ValueError("no such offer")

        monkeypatch.setattr(cli, "run", fail)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(command="sweep", n_max=100))
        code, out, err = invoke(capsys, ["sweep", "--config", str(cfg_path)])
        assert code == 1
        assert (out, err) == ("", "Error: no such offer\n")

    def test_a_failed_check_exits_1_and_still_writes_the_csv(
            self, tmp_path, capsys, monkeypatch):
        def failing_run(config, **kwargs):
            report = run(config, **kwargs)
            assert report.passed
            return dataclasses.replace(report, passed=False)

        monkeypatch.setattr(cli, "run", failing_run)
        out_path = tmp_path / "out.csv"
        config = CONFIGS / "verify_thm1_uniform_pair.json"
        code, out, err = invoke(capsys, ["verify-thm1", "--config",
                                         str(config), "--out", str(out_path)])
        assert code == 1
        assert out == ""
        assert "# status: FAIL\n" in err
        assert out_path.read_text(encoding="utf-8") == csv_text(
            run(parse_config(config.read_text(encoding="utf-8"))))

    @pytest.mark.parametrize("content, out, message", [
        (b'{"command": "sweep", "n_max": 100, "note": "\xe9"}', None,
         "Error: config is not UTF-8: 'utf-8' codec can't decode byte 0xe9 "
         "in position 44: invalid continuation byte"),
        (b"[" * 200_000 + b"]" * 200_000, None,
         "Error: invalid JSON: maximum recursion depth exceeded while "
         "decoding a JSON array from a unicode string"),
        (b'{"command": "sweep", "n_max": 100, "out": "x.csv"}', None,
         "Error: unknown key $.out"),
        (b'{"command": "sweep", "n_max": 100}', "missing/out.csv",
         "Error: cannot write the CSV to {tmp}/missing/out.csv: "
         "No such file or directory"),
    ], ids=["not-utf-8", "nested-too-deep", "out-key", "out-dir-missing"])
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                         content, out, message):
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(content)
        args = ["sweep", "--config", str(cfg_path)]
        if out is not None:
            args += ["--out", str(tmp_path / out)]
        code, stdout, stderr = invoke(capsys, args)
        assert code == 1
        assert (stdout, stderr) == ("", message.format(tmp=tmp_path) + "\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("out, reason", [
        ("missing/out.csv", "No such file or directory"),
        ("cfg.json/out.csv", "Not a directory"),
    ], ids=["missing-directory", "file-as-directory"])
    def test_unwritable_out_fails_before_the_run(self, tmp_path, capsys,
                                                 monkeypatch, out, reason):
        calls = []
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: calls.append(
            args))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(command="sweep", n_max=100))
        out_path = tmp_path / out
        code, stdout, stderr = invoke(capsys, ["sweep", "--config",
                                               str(cfg_path), "--out",
                                               str(out_path)])
        assert code == 1
        assert (stdout, stderr) == (
            "", f"Error: cannot write the CSV to {out_path}: {reason}\n")
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("args, needle", [
        (["sweep", "--config", "{tmp}/missing.json"], "--config"),
        (["sweep", "--config", "{tmp}"], "--config"),
        (["sweep", "--config", "{cfg}", "--out", "{tmp}"], "--out"),
        (["sweep"], "--config"),
        (["bogus", "--config", "{cfg}"], "bogus"),
        ([], "COMMAND"),
    ], ids=["config-missing", "config-is-a-directory", "out-is-a-directory",
            "no-config-option", "unknown-command", "no-command"])
    def test_usage_errors_exit_2(self, tmp_path, capsys, args, needle):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(command="sweep", n_max=100))
        code, out, err = invoke(capsys, [
            arg.format(tmp=tmp_path, cfg=cfg_path) for arg in args])
        assert code == 2
        assert out == ""
        assert err.startswith("usage: ") and needle in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_version(self, capsys):
        assert invoke(capsys, ["--version"]) == (
            0, f"bundle-auction-lab, version {bundle_auction_lab.__version__}\n",
            "")

    def test_stdout_when_no_out_flag(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(
            command="sweep", seed=0, n_min=2, n_max=100,
        ))
        code, out, err = invoke(capsys, ["sweep", "--config", str(cfg_path)])
        assert code == 0
        assert out.splitlines()[0] == "n,t,bernstein_bound,one_over_n,holds"
        assert err.startswith("# bundle-auction-lab ")

    def test_subcommands_are_the_command_table(self, capsys):
        helps = {name: command.help for name, command in COMMANDS.items()}
        subcommands = next(action for action in cli._parser()._actions
                           if action.dest == "command")
        assert {name: parser.description
                for name, parser in subcommands.choices.items()} == helps
        width = max(map(len, COMMANDS))
        code, out, err = invoke(capsys, ["--help"])
        assert code == 0
        listing = out.split("Commands:\n")[1]
        assert sorted(listing.splitlines()) == sorted(
            f"  {name:<{width}}  {text}" for name, text in helps.items())


class TestExports:
    # Names the package has exported all along; it must keep each of them.
    EARLIER_EXPORTS = (
        "BundleOffer", "EpsilonEvaluation", "NO_SALE", "Outcome",
        "PairImprovementReport", "PairRevenueBreakdown", "RegionLabel",
        "SinglePriceSolution", "SmoothnessReport", "SurplusExtractionReport",
        "ValuationDistribution", "ValuationProfile", "__version__",
        "bernstein_sweep", "bernstein_upper_bound", "capped_value",
        "chernoff_tail_bound", "classify_region", "epsilon_offer",
        "expected_revenue", "full_surplus_offer",
        "group_expected_revenue_exact", "group_rational_accepts",
        "make_piecewise_linear", "make_uniform", "optimal_single_price",
        "optimize_group_offer", "optimize_pair_offer", "pair_bundle_accepts",
        "pair_expected_revenue_exact", "region_expected_revenue",
        "region_probability", "resolve_outcome", "revenue_derivative",
        "surplus_lower_bound", "validate_smoothness",
        "verify_pair_improvement", "verify_surplus_extraction",
        "witness_split",
    )

    def test_all_is_unique_and_resolves(self):
        names = bundle_auction_lab.__all__
        assert len(set(names)) == len(names)
        for name in names:
            getattr(bundle_auction_lab, name)

    def test_no_earlier_export_is_dropped(self):
        assert len(self.EARLIER_EXPORTS) == 39
        assert set(self.EARLIER_EXPORTS) <= set(bundle_auction_lab.__all__)
        for name in ("DEFAULT_EPS_GRID", "pair_expected_revenues_exact",
                     "region_box", "NORMALIZATION_TOL"):
            assert name in bundle_auction_lab.__all__

    def test_import_loads_no_thread_pool(self):
        # Nothing in the lab runs threads, and concurrent.futures (with the
        # logging it imports) cost each cold start about 10 ms.
        src = Path(bundle_auction_lab.__file__).resolve().parent.parent
        code = ("import sys, bundle_auction_lab, bundle_auction_lab.experiments; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'concurrent'))")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.stdout.strip() == "[]"

    def test_cli_imports_only_the_standard_library_and_numpy(self):
        src = Path(bundle_auction_lab.__file__).resolve().parent.parent
        code = ("import sys; before = set(sys.modules); "
                "import bundle_auction_lab.cli; "
                "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
                " - set(sys.stdlib_module_names)))")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.stdout.strip() == "['bundle_auction_lab', 'numpy']"


def test_the_lab_draws_no_random_number():
    # Every command's revenue is exact; the Monte Carlo estimate that
    # checks it is tests/oracles.py's.  The scan flags an import of
    # random, of numpy.random or of a name from either, and any name or
    # attribute called random, default_rng or SeedSequence.
    banned = {"random", "default_rng", "SeedSequence"}
    package = Path(bundle_auction_lab.__file__).resolve().parent
    uses = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            uses += [f"{path.name}:{node.lineno}: {name}" for name in names
                     if banned & set(name.split("."))]
    assert uses == []
