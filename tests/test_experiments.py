import hashlib
import json
import math
import threading
from pathlib import Path

import pytest
from click.testing import CliRunner

from bundle_auction_lab.cli import main
from bundle_auction_lab.experiments import (
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


class TestParseConfig:
    def test_valid_single_opt(self):
        cfg = parse_config(config_text(
            command="single-opt", distributions=[UNIFORM_DESC],
            seed=42, n_samples=100000,
        ))
        assert cfg.command == "single-opt"
        assert cfg.seed == 42
        assert cfg.built[0].upper_bound == 1.0

    def test_missing_seed_names_field(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(config_text(command="single-opt",
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

    @pytest.mark.parametrize("m", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_sweep_m_must_be_finite_and_positive(self, m):
        with pytest.raises(ConfigError, match=r"\$\.M: must be finite"):
            parse_config(config_text(command="sweep", seed=0, n_min=2,
                                     n_max=100, M=m))

    @pytest.mark.parametrize("m, n_max", [(1e308, {"n_max": 100}),
                                          (1e305, {}),
                                          (2.0, {"n_max": 10**400})])
    def test_sweep_m_whose_deviation_overflows_is_rejected(self, m, n_max):
        # At M = 1e308 the sweep used to print t = inf and NaN bounds.  An
        # n_max of 10**400 is over the n_max cap, which is checked first.
        fault = (r"\$\.n_max: must be" if n_max.get("n_max", 0) > 10**8
                 else r"\$\.M: .* overflows")
        with pytest.raises(ConfigError, match=fault):
            parse_config(config_text(command="sweep", seed=0, n_min=2, M=m,
                                     **n_max))

    @pytest.mark.parametrize("n_max, extra", [(10**8 + 1, {}),
                                              (10**12, {"M": 1.0}),
                                              (10**400, {})])
    def test_sweep_n_max_is_capped(self, n_max, extra):
        # 10**12 would sweep for hours; 10**400 is beyond float range.
        with pytest.raises(ConfigError, match=r"\$\.n_max: must be <= 10+$"):
            parse_config(config_text(command="sweep", seed=0, n_max=n_max,
                                     **extra))
        assert parse_config(config_text(command="sweep", seed=0,
                                        n_max=10**8)).n_max == 10**8

    @pytest.mark.parametrize("bounds", [{"n_min": 10, "n_max": 5},
                                        {"n_min": 10**6 + 1}])
    def test_sweep_n_min_above_n_max_is_a_config_error(self, bounds):
        # The second case is above the default n_max of 10**6.
        with pytest.raises(ConfigError, match=r"^\$\.n_max: must be >= "):
            parse_config(config_text(command="sweep", seed=0, **bounds))

    @pytest.mark.parametrize("command, extra", [
        ("verify-thm2", {}),
        ("partition", {"N": 6}),
    ])
    def test_sampling_commands_need_1000_samples(self, command, extra):
        with pytest.raises(ConfigError,
                           match=r"\$\.n_samples: must be >= 1000"):
            parse_config(config_text(command=command, seed=1, n_samples=999,
                                     distributions=[UNIFORM_DESC], **extra))
        assert parse_config(config_text(
            command=command, seed=1, n_samples=1000,
            distributions=[UNIFORM_DESC], **extra,
        )).n_samples == 1000

    def test_partition_requires_n(self):
        with pytest.raises(ConfigError, match=r"\$\.N"):
            parse_config(config_text(command="partition", seed=1,
                                     distributions=[UNIFORM_DESC]))

    @pytest.mark.parametrize("kwargs", [
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
        dict(command="sweep", seed=0, n_min=2, n_max=1000, M=1.0),
    ])
    def test_round_trip(self, kwargs):
        cfg = parse_config(config_text(**kwargs))
        assert parse_config(serialize_config(cfg)) == cfg


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

    def test_sweep(self):
        cfg = parse_config(config_text(command="sweep", seed=0, n_min=2,
                                       n_max=10000))
        report = run(cfg)
        assert report.passed is True
        assert report.rows[0][0] == 2
        assert report.rows[-1][0] == 10000
        holds_idx = report.columns.index("holds")
        assert all(row[holds_idx] for row in report.rows)

    def test_sweep_at_huge_m_has_finite_bounds(self):
        cfg = parse_config(config_text(command="sweep", seed=0, n_min=2,
                                       n_max=100, M=1e300))
        report = run(cfg)
        assert report.passed is True
        bound_idx = report.columns.index("bernstein_bound")
        holds_idx = report.columns.index("holds")
        assert all(math.isfinite(row[bound_idx]) and row[holds_idx]
                   for row in report.rows)

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
        cfg = parse_config(config_text(
            command="pair-opt", seed=1, distributions=[UNIFORM_DESC],
        ))
        with pytest.raises(ConfigError, match="exactly 2"):
            run(cfg)


class TestPartition:
    def test_divisibility_enforced(self):
        cfg = parse_config(config_text(
            command="partition", seed=1, N=8, distributions=[UNIFORM_DESC],
        ))
        with pytest.raises(ConfigError, match="divisible by 6"):
            run(cfg)

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
        # per-customer revenue weakly increases with group size (4 SE slack)
        se = cols.index("per_group_std_error")
        for small, big in ((2, 3), (3, 6)):
            slack = 4.0 * (rows[small][se] / small + rows[big][se] / big)
            assert rows[big][per_customer] >= rows[small][per_customer] - slack
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
    # pin fails.  Every output of the exact pair engine, the MC group search,
    # the large-bundle check and the single-price solver shows up here.
    PINNED_CONFIGS = {
        "bernstein_sweep": (1447, "10dee7a41bf06624"),
        "pair_opt_uniform": (166, "6b2b241966262e57"),
        "partition_n36": (368, "471531cc58188025"),
        "single_opt_uniform": (52, "06da4ab806740c8d"),
        "verify_thm1_uniform_pair": (394, "2cf7a18ed1f7f4a4"),
        "verify_thm2_uniform": (396, "9901ae6765cf53d9"),
    }

    @pytest.mark.parametrize("name",
                             sorted(p.stem for p in CONFIGS.glob("*.json")))
    def test_config_bytes_are_pinned(self, name):
        path = CONFIGS / f"{name}.json"
        data = csv_text(run(parse_config(path.read_text(encoding="utf-8")))).encode()
        assert (len(data), hashlib.sha256(data).hexdigest()[:16]) == \
            self.PINNED_CONFIGS[name]

    @pytest.mark.parametrize("name",
                             sorted(p.stem for p in CONFIGS.glob("*.json")))
    def test_config_runs_on_the_calling_thread(self, name, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"{name} started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        path = CONFIGS / f"{name}.json"
        assert run(parse_config(path.read_text(encoding="utf-8"))).rows

    def test_verify_thm2_footer_names_each_rows_method(self):
        # The method and the tail bound of each row go to the footer; the
        # CSV keeps its pinned bytes.
        path = CONFIGS / "verify_thm2_uniform.json"
        report = run(parse_config(path.read_text(encoding="utf-8")))
        data = csv_text(report).encode()
        assert hashlib.sha256(data).hexdigest()[:16] == "9901ae6765cf53d9"
        assert [n.split(",")[0] for n in report.notes] == [
            "n=100: certified", "n=1000: certified", "n=10000: certified"]
        footer = render_footer(report)
        assert "# note: n=10000: certified, tail bound P[V < b] <= 3.73e-97" in footer
        assert "certified" not in csv_text(report)

    def test_verify_thm2_footer_names_a_sampled_row(self):
        fallback = {"type": "piecewise_linear",
                    "knots": [0, 0.1, 0.45, 0.96, 1],
                    "densities": [6.1, 0.053, 0.023, 0.355, 59.4]}
        report = run(parse_config(config_text(
            command="verify-thm2", seed=3, n_list=[23, 200], n_samples=2000,
            distributions=[fallback],
        )))
        assert report.notes[0].startswith("n=23: mc, tail bound P[V < b] <= 5.")
        assert report.notes[1].startswith("n=200: certified,")
        assert "mc" not in csv_text(report)

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


class TestCli:
    def run_cli(self, args):
        return CliRunner().invoke(main, args, catch_exceptions=False)

    def test_single_opt_end_to_end(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(
            command="single-opt", seed=42, distributions=[UNIFORM_DESC],
        ))
        out_path = tmp_path / "out.csv"
        result = self.run_cli([
            "single-opt", "--config", str(cfg_path), "--out", str(out_path)
        ])
        assert result.exit_code == 0
        assert out_path.read_text().splitlines()[0] == "p_star,u_star"

    def test_flags_override_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(
            command="verify-thm2", seed=1, n_list=[100], n_samples=5000,
            distributions=[UNIFORM_DESC],
        ))
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        base = ["verify-thm2", "--config", str(cfg_path), "--samples", "2000"]
        r1 = self.run_cli(base + ["--out", str(out_a), "--seed", "9"])
        r2 = self.run_cli(base + ["--out", str(out_b), "--seed", "9"])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("flag, value, message", [
        ("--samples", "500", r"$.n_samples: must be >= 1000"),
        ("--seed", "-1", r"$.seed: must be >= 0"),
    ])
    def test_flags_pass_the_config_checks(self, tmp_path, flag, value,
                                          message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(
            command="verify-thm2", seed=1, n_list=[100], n_samples=5000,
            distributions=[UNIFORM_DESC],
        ))
        result = self.run_cli(["verify-thm2", "--config", str(cfg_path),
                               flag, value])
        assert result.exit_code == 1
        assert message in result.output

    def test_command_mismatch_is_an_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(
            command="single-opt", seed=1, distributions=[UNIFORM_DESC],
        ))
        result = CliRunner().invoke(main, ["pair-opt", "--config", str(cfg_path)])
        assert result.exit_code != 0

    def test_stdout_when_no_out_flag(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(
            command="sweep", seed=0, n_min=2, n_max=100,
        ))
        result = self.run_cli(["sweep", "--config", str(cfg_path)])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "n,t,bernstein_bound,one_over_n,holds"
