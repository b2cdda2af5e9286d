"""Config-driven experiment runner with deterministic CSV reports.

Configs are strict JSON: unknown keys are rejected with their path, and
distributions are validated at parse time.  Reports serialize to CSV with a
fixed header, floats at 12 significant digits and a deterministic row
order, so rerunning a config reproduces the output byte for byte; wall time
and other run metadata live in the report footer, never in the CSV.

Each command is one entry of :data:`COMMANDS`, which config parsing,
:func:`run` and the CLI all read.  A parsed config carries the command's
own keys that it gives as ``params``, and :func:`run` passes them to the
command's runner as keyword arguments, so a key the config leaves out
takes the default in the runner's signature.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import __version__
from .group_revenue import (
    _deviation,
    _full_surplus_price,
    bernstein_sweep,
    bernstein_upper_bound,
    optimize_group_offer,
    verify_surplus_extraction,
)
from .pair_revenue import (
    DEFAULT_EPS_GRID,
    optimize_pair_offer,
    verify_pair_improvement,
)
from .single_pricing import optimal_single_price
from .valuations import ValuationDistribution, make_piecewise_linear, make_uniform

__all__ = [
    "COMMANDS",
    "Command",
    "ConfigError",
    "ExperimentConfig",
    "RunReport",
    "build_distribution",
    "parse_config",
    "serialize_config",
    "run",
    "emit_csv",
    "render_footer",
]

#: ``sweep``'s group sizes when the config gives no ``n_min`` or ``n_max``.
SWEEP_N_MIN = 2
SWEEP_N_MAX = 10**6
#: The largest ``n_max`` a ``sweep`` config may ask for: the sweep checks
#: every n up to it, and 10**8 of them take about 1 s.
SWEEP_N_LIMIT = 10**8

_COMMON_KEYS = frozenset({"command", "seed", "n_samples", "distributions"})


@dataclass(frozen=True)
class Command:
    """A command's runner (the built distributions and the command's own
    keys to ``(columns, rows, passed, notes)``), those keys, its least and
    most distributions, and its CLI help."""

    run: Callable
    keys: frozenset
    distributions: tuple
    help: str


class ConfigError(ValueError):
    """Malformed or schema-violating experiment config."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked config: ``params`` holds the command's own keys that the
    config gives, and ``built`` its distributions."""

    command: str
    distributions: tuple = ()
    params: dict = field(default_factory=dict)
    built: tuple[ValuationDistribution, ...] = field(
        default=(), compare=False, repr=False
    )


@dataclass(frozen=True)
class RunReport:
    """Results plus run metadata; only columns/rows reach the CSV."""

    command: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    config_json: str
    version: str
    wall_time_s: float
    passed: Optional[bool] = None
    notes: tuple[str, ...] = ()


def build_distribution(desc: dict, path: str = "$") -> ValuationDistribution:
    """Build a distribution from its config descriptor."""
    if not isinstance(desc, dict):
        raise ConfigError(f"{path}: distribution descriptor must be an object")
    kind = desc.get("type")
    if kind == "uniform":
        _reject_unknown(desc, {"type", "M"}, path)
        m = _number(desc, "M", path)
        try:
            return make_uniform(m)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if kind == "piecewise_linear":
        _reject_unknown(desc, {"type", "knots", "densities"}, path)
        knots = _number_list(desc, "knots", path)
        densities = _number_list(desc, "densities", path)
        try:
            return make_piecewise_linear(knots, densities)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(
        f"{path}.type: expected 'uniform' or 'piecewise_linear', got {kind!r}"
    )


def _reject_unknown(obj: dict, allowed, path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}")


def _float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    try:
        return float(value)
    except OverflowError:  # a JSON integer past the largest float
        raise ConfigError(f"{path}: beyond float range") from None


def _number(obj: dict, key: str, path: str) -> float:
    if key not in obj:
        raise ConfigError(f"missing required field {path}.{key}")
    return _float(obj[key], f"{path}.{key}")


def _number_list(obj: dict, key: str, path: str) -> list[float]:
    if key not in obj:
        raise ConfigError(f"missing required field {path}.{key}")
    v = obj[key]
    if not isinstance(v, list):
        raise ConfigError(f"{path}.{key}: expected a list of numbers")
    return [_float(x, f"{path}.{key}[{i}]") for i, x in enumerate(v)]


def _integer(value, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    return value


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config."""
    try:
        raw = json.loads(text)
    # JSONDecodeError, an integer too long, or nesting past the recursion
    # limit.
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("$: config must be a JSON object")

    command = raw.get("command")
    if command is None:
        raise ConfigError("missing required field $.command")
    if command not in COMMANDS:
        raise ConfigError(
            f"$.command: expected one of {', '.join(COMMANDS)}; got {command!r}"
        )
    _reject_unknown(raw, _COMMON_KEYS | COMMANDS[command].keys, "$")

    # No command samples: seed and n_samples are optional, checked and
    # ignored.
    if _integer(raw.get("seed", 0), "$.seed", minimum=0) >= 1 << 64:
        raise ConfigError("$.seed: must fit in 64 bits")
    _integer(raw.get("n_samples", 1), "$.n_samples", minimum=1)

    descs = raw.get("distributions", [])
    if not isinstance(descs, list):
        raise ConfigError("$.distributions: expected a list")
    built = tuple(
        build_distribution(d, f"$.distributions[{i}]")
        for i, d in enumerate(descs)
    )
    least, most = COMMANDS[command].distributions
    if not least <= len(built) <= most:
        wanted = f"exactly {least}" if least == most else f"at least {least}"
        raise ConfigError(f"$.distributions: command {command!r} needs "
                          f"{wanted}, got {len(built)}")

    params: dict = {}
    if command == "verify-thm1":
        # Each eps lies strictly between 0 and p2*, the second customer's
        # optimal price.
        p2 = optimal_single_price(built[1]).price
        grid = raw.get("eps_grid")
        if grid is None:
            if max(DEFAULT_EPS_GRID) >= p2:
                raise ConfigError(
                    f"$.eps_grid: the default grid reaches "
                    f"{max(DEFAULT_EPS_GRID)!r}, not below p2*={p2:.6g}")
        else:
            vals = _number_list({"eps_grid": grid}, "eps_grid", "$")
            if not vals:
                raise ConfigError("$.eps_grid: must be nonempty")
            for i, v in enumerate(vals):
                if not v > 0.0:
                    raise ConfigError(f"$.eps_grid[{i}]: must be > 0")
            for i, v in enumerate(vals):
                if not v < p2:
                    raise ConfigError(
                        f"$.eps_grid[{i}]: must be < p2*={p2:.6g}; got {v!r}")
            params["eps_grid"] = tuple(vals)
    if command == "verify-thm2":
        ns = raw.get("n_list")
        if ns is not None:
            if not isinstance(ns, list) or not ns:
                raise ConfigError("$.n_list: expected a nonempty list of integers")
            dist = built[0]
            for i, x in enumerate(ns):
                n = _integer(x, f"$.n_list[{i}]", minimum=2)
                # Each row computes n * mean and sqrt(n ln n) in floats.
                if n > 2**53:
                    raise ConfigError(f"$.n_list[{i}]: must be <= 2**53, "
                                      f"where float(n) is exact")
                try:
                    _full_surplus_price(n, n * dist.mean, dist.upper_bound)
                except ValueError as exc:
                    raise ConfigError(f"$.n_list[{i}]: {exc}") from exc
            params["n_list"] = tuple(ns)
    if command == "partition":
        if "N" not in raw:
            raise ConfigError("missing required field $.N")
        params["N"] = _integer(raw["N"], "$.N", minimum=1)
        if params["N"] % 6:
            raise ConfigError("$.N: must be divisible by 6")
        _float(params["N"], "$.N")  # the rows scale by float(N)
        if "mode" in raw:
            if raw["mode"] not in ("pure_bundle", "full"):
                raise ConfigError("$.mode: expected 'pure_bundle' or 'full'")
            params["mode"] = raw["mode"]
    if command in ("pair-opt", "partition") and "budget" in raw:
        params["budget"] = _integer(raw["budget"], "$.budget", minimum=1)
    if command == "sweep":
        if "n_min" in raw:
            params["n_min"] = _integer(raw["n_min"], "$.n_min", minimum=2)
        if "n_max" in raw:
            params["n_max"] = _integer(raw["n_max"], "$.n_max", minimum=2)
        n_min = params.get("n_min", SWEEP_N_MIN)
        n_max = params.get("n_max", SWEEP_N_MAX)
        if n_max > SWEEP_N_LIMIT:
            raise ConfigError(f"$.n_max: must be <= {SWEEP_N_LIMIT}")
        if n_max < n_min:
            raise ConfigError(f"$.n_max: must be >= $.n_min ({n_min})")
    return ExperimentConfig(
        command=command,
        distributions=tuple(descs),
        params=params,
        built=built,
    )


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical JSON of a config's command, distributions and given keys,
    tuples as lists; `parse_config` round-trips it."""
    return json.dumps({"command": config.command,
                       "distributions": config.distributions,
                       **config.params}, sort_keys=True)


def _fmt(value) -> str:
    if value is None:
        return "NO_SALE"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def emit_csv(report: RunReport, destination) -> None:
    """Write the report table as UTF-8 CSV (header first, '\\n' endings)."""
    if hasattr(destination, "write"):
        _write_csv(report, destination)
        return
    with open(destination, "w", encoding="utf-8", newline="") as fh:
        _write_csv(report, fh)


def _write_csv(report: RunReport, fh) -> None:
    fh.write(",".join(report.columns) + "\n")
    for row in report.rows:
        fh.write(",".join(_fmt(v) for v in row) + "\n")


def csv_text(report: RunReport) -> str:
    buf = io.StringIO()
    _write_csv(report, buf)
    return buf.getvalue()


def render_footer(report: RunReport) -> str:
    """Run metadata block (kept out of the CSV for byte-reproducibility)."""
    lines = [
        f"# bundle-auction-lab {report.version}",
        f"# command: {report.command}",
        f"# config: {report.config_json}",
    ]
    for note in report.notes:
        lines.append(f"# note: {note}")
    if report.passed is not None:
        lines.append(f"# status: {'pass' if report.passed else 'FAIL'}")
    lines.append(f"# wall_time_s: {report.wall_time_s:.3f}")
    return "\n".join(lines) + "\n"


def run(config: ExperimentConfig, *, out_path=None) -> RunReport:
    """Execute a config and return (and optionally write) its report.

    Verification failures are recorded in ``passed`` -- they are data, not
    exceptions.  When ``out_path`` is given, a path or an open text stream,
    the CSV is written there (:func:`emit_csv`).  Every command runs on the
    calling thread.
    """
    t0 = time.perf_counter()
    columns, rows, passed, notes = COMMANDS[config.command].run(
        config.built, **config.params)
    report = RunReport(
        command=config.command,
        columns=tuple(columns),
        rows=tuple(tuple(r) for r in rows),
        config_json=serialize_config(config),
        version=__version__,
        wall_time_s=time.perf_counter() - t0,
        passed=passed,
        notes=tuple(notes),
    )
    if out_path is not None:
        emit_csv(report, out_path)
    return report


def _run_single_opt(built):
    rows = []
    for dist in built:
        sol = optimal_single_price(dist)
        rows.append((sol.price, sol.utility))
    return ("p_star", "u_star"), rows, None, ()


def _run_pair_opt(built, budget=15):
    d1, d2 = built
    columns = ("mode", "a_1", "a_2", "bundle_price", "expected_revenue")
    rows = [(mode, *offer.individual_prices, offer.bundle_price, value)
            for mode, (offer, value) in zip(("full", "pure_bundle"),
                                            optimize_pair_offer(d1, d2, budget))]
    return columns, rows, None, ()


def _run_verify_pair(built, eps_grid=DEFAULT_EPS_GRID):
    d1, d2 = built
    report = verify_pair_improvement(d1, d2, eps_grid)
    columns = ("eps", "source", "accept_prob", "bundle_part", "solo_1",
               "solo_2", "total", "improvement", "p1_star", "p2_star",
               "u_singles")
    rows = []
    entries = [(ev, "grid") for ev in report.evaluations]
    entries.append((report.refined, "refined"))
    for ev, source in entries:
        bd = ev.breakdown
        rows.append((ev.eps, source, bd.accept_probability, bd.bundle_part,
                     bd.solo_part_1, bd.solo_part_2, bd.total, ev.improvement,
                     report.p1_star, report.p2_star, report.singles_value))
    return columns, rows, report.improved, ()


def _run_verify_group(built, n_list=(100, 1000)):
    reports = verify_surplus_extraction(built[0], n_list)
    columns = ("n", "mu", "bundle_price", "accept_prob", "revenue_estimate",
               "revenue_std_error", "lower_bound", "upper_bound",
               "bernstein_bound", "lower_bound_ok", "upper_bound_ok")
    rows = [
        (r.n, r.mu, r.bundle_price, r.accept_prob_estimate, r.revenue_estimate,
         r.revenue_std_error, r.lower_bound, r.upper_bound, r.bernstein_bound,
         r.lower_bound_ok, r.upper_bound_ok)
        for r in reports
    ]
    # Each row's tail bound goes to the footer only, so the CSV keeps its
    # columns.
    notes = tuple(f"n={r.n}: tail bound P[V < b] <= {r.tail_bound:.3g}"
                  for r in reports)
    return columns, rows, all(r.passes for r in reports), notes


def _run_sweep(built, n_min=SWEEP_N_MIN, n_max=SWEEP_N_MAX):
    ok, worst_n, worst_ratio = bernstein_sweep(n_min, n_max)
    # Log-spaced checkpoint rows; the pass flag covers the full range.
    count = 25
    ratio = (n_max / n_min) ** (1.0 / (count - 1)) if n_max > n_min else 1.0
    ns = sorted({
        min(n_max, max(n_min, round(n_min * ratio**i))) for i in range(count)
    })
    rows = []
    for n in ns:
        bound = bernstein_upper_bound(n)
        rows.append((n, float(_deviation(n)[1]), bound, 1.0 / n,
                     bound <= 1.0 / n))
    columns = ("n", "t", "bernstein_bound", "one_over_n", "holds")
    notes = (f"worst n={worst_n} with bound*n={worst_ratio:.6g} over "
             f"[{n_min}, {n_max}]",)
    return columns, rows, ok, notes


def partition_result(built, N, budget=10, mode="full"):
    """Mixed-partition population: half in pairs, a third in triples, a
    sixth in six-groups, all valuations i.i.d. from one template.

    Every group of a given size faces the same optimization problem, so each
    size is optimized once and scaled by its group count (``N`` divisible by
    6 keeps the per-size headcounts integral; group counts may be
    fractional).  Every size runs the one exact group search
    (:func:`~bundle_auction_lab.group_revenue.optimize_group_offer`) in
    ``mode``, with ``budget`` zoom rounds, and every value is exact, so the
    standard-error column is 0.  Rows report per-group and
    per-customer revenue next to the all-singles baseline.  No optimality
    claim is made: the best per-group bundle offers need not form the best
    mechanism for the population.
    """
    dist = built[0]
    sol = optimal_single_price(dist)

    columns = ("group_size", "customers", "group_count", "price",
               "per_group_revenue", "per_group_std_error",
               "per_customer_revenue", "class_revenue")
    rows = [(1, N, float(N), sol.price, sol.utility, 0.0,
             sol.utility, N * sol.utility)]

    class_sizes = {2: N // 2, 3: N // 3, 6: N // 6}
    total_mixed = 0.0
    for size, customers in class_sizes.items():
        group_count = customers / size
        offer, value = optimize_group_offer([dist] * size, mode=mode,
                                            budget=budget)
        total_mixed += group_count * value
        rows.append((size, customers, group_count, offer.bundle_price,
                     value, 0.0, value / size, group_count * value))

    notes = (
        "per-group optima only; the best bundle offers per group need not be "
        "the optimal mechanism for the mixed population",
        f"mixed-partition revenue {total_mixed:.6g} vs all-singles baseline "
        f"{N * sol.utility:.6g}",
    )
    return columns, rows, None, notes


#: Every command by name.  Parsing, :func:`run` and the CLI read only this,
#: so a new command is an entry, its runner (whose signature holds the
#: defaults of its keys) and its checks in `parse_config`.
COMMANDS = {
    "single-opt": Command(
        _run_single_opt, frozenset(), (1, math.inf),
        "Optimal single price per distribution."),
    "pair-opt": Command(
        _run_pair_opt, frozenset({"budget"}), (2, 2),
        "Optimize a two-customer bundle offer."),
    "verify-thm1": Command(
        _run_verify_pair, frozenset({"eps_grid"}), (2, 2),
        "Check that an epsilon bundle offer beats optimal single prices."),
    "verify-thm2": Command(
        _run_verify_group, frozenset({"n_list"}), (1, 1),
        "Check the large-bundle near-full-surplus revenue guarantee."),
    "partition": Command(
        partition_result, frozenset({"N", "budget", "mode"}), (1, 1),
        "Mixed pairs/triples/six-groups population study."),
    "sweep": Command(
        _run_sweep, frozenset({"n_min", "n_max"}), (0, 0),
        "Bernstein tail-bound sweep over group sizes."),
}
