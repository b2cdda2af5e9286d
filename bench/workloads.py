"""The benchmark's workloads: a config built from the workload seed, and the
checks its outputs must pass.

Each workload is one experiment config; the lab receives only that config.
The checks use oracles written here, independently of the lab's code:
closed forms for the uniform pair and for the large-bundle price, and a
direct evaluation of the piecewise-linear template's CDF and mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Seeds reach the config modulo this, so any integer seed is a valid one.
SEED_MODULUS = 1 << 63

#: Monte Carlo samples per estimate in the two MC workloads.  MC cost is
#: linear in it and the mix of layers does not depend on it, so it is the
#: one size dial; the shipped configs use 100,000.
MC_SAMPLES = 20_000

#: Revenue of the best pure-bundle offer for two uniform [0, 1] customers:
#: max_b b * P[V1 + V2 >= b] is attained at b = sqrt(2/3).
PAIR_BUNDLE_REVENUE = (2.0 / 3.0) * math.sqrt(2.0 / 3.0)
#: Two customers at the optimal single price 1/2, each buying with prob 1/2.
PAIR_SINGLES_REVENUE = 0.5
PAIR_BUNDLE_TOL = 1e-9

TEMPLATE_KNOTS = (0.0, 0.4, 1.0)
TEMPLATE_DENSITIES = (0.6, 1.6, 0.8)

UNIFORM = {"type": "uniform", "M": 1.0}


def _rows(report) -> list[dict]:
    return [dict(zip(report.columns, row)) for row in report.rows]


def _pair_exact_config(seed: int) -> dict:
    # configs/pair_opt_uniform.json with the workload seed; the exact engine
    # does not sample, so the seed changes no output.
    return {
        "command": "pair-opt",
        "seed": seed % SEED_MODULUS,
        "n_samples": 100_000,
        "budget": 15,
        "distributions": [UNIFORM, UNIFORM],
    }


def _pair_exact_check(report) -> list[str]:
    rows = {row["mode"]: row for row in _rows(report)}
    problems = []
    pure = rows.get("pure_bundle")
    full = rows.get("full")
    if pure is None or full is None:
        return [f"pair-opt rows are {sorted(rows)}, want full and pure_bundle"]
    if pure["a_1"] is not None or pure["a_2"] is not None:
        problems.append("pure_bundle row sells solo items")
    gap = abs(pure["expected_revenue"] - PAIR_BUNDLE_REVENUE)
    if not gap <= PAIR_BUNDLE_TOL:
        problems.append(
            f"pure_bundle revenue {pure['expected_revenue']!r} is {gap:.3g} "
            f"from the closed form {PAIR_BUNDLE_REVENUE!r}"
        )
    if not full["expected_revenue"] >= PAIR_SINGLES_REVENUE:
        problems.append(
            f"full revenue {full['expected_revenue']!r} is below the optimal "
            f"singles value {PAIR_SINGLES_REVENUE}"
        )
    return problems


def _pair_exact_revenue(report) -> float:
    rows = _rows(report)
    return sum(r["expected_revenue"] for r in rows) / (2 * len(rows))


def _bundle_mc_config(seed: int) -> dict:
    # configs/verify_thm2_uniform.json at MC_SAMPLES samples.
    return {
        "command": "verify-thm2",
        "seed": seed % SEED_MODULUS,
        "n_samples": MC_SAMPLES,
        "n_list": [100, 1000, 10000],
        "distributions": [UNIFORM],
    }


def _bundle_mc_check(report) -> list[str]:
    problems = []
    if report.passed is not True:
        problems.append(f"verify-thm2 passed={report.passed!r}")
    rows = _rows(report)
    if [r["n"] for r in rows] != [100, 1000, 10000]:
        problems.append(f"verify-thm2 rows for n={[r['n'] for r in rows]}")
    for r in rows:
        n = r["n"]
        price = n / 2.0 - 2.0 * math.sqrt(n * math.log(n))
        if not math.isclose(r["mu"], n / 2.0, rel_tol=1e-12):
            problems.append(f"n={n}: mu {r['mu']!r}, want {n / 2.0}")
        if not math.isclose(r["bundle_price"], price, rel_tol=1e-12):
            problems.append(f"n={n}: bundle price {r['bundle_price']!r}, "
                            f"want {price!r}")
    return problems


def _bundle_mc_revenue(report) -> float:
    rows = _rows(report)
    return sum(r["revenue_estimate"] for r in rows) / sum(r["n"] for r in rows)


def _partition_mix_config(seed: int) -> dict:
    return {
        "command": "partition",
        "seed": seed % SEED_MODULUS,
        "n_samples": MC_SAMPLES,
        "N": 36,
        "budget": 2,
        "mode": "full",
        "distributions": [{
            "type": "piecewise_linear",
            "knots": list(TEMPLATE_KNOTS),
            "densities": list(TEMPLATE_DENSITIES),
        }],
    }


def _template():
    """The CDF and the mean of the template, after normalizing its density."""
    ks = np.array(TEMPLATE_KNOTS)
    ds = np.array(TEMPLATE_DENSITIES)
    ds = ds / float(np.sum(0.5 * (ds[:-1] + ds[1:]) * np.diff(ks)))

    def cdf(x):
        x = np.clip(np.asarray(x, dtype=float), ks[0], ks[-1])
        total = np.zeros_like(x)
        for k0, k1, d0, d1 in zip(ks[:-1], ks[1:], ds[:-1], ds[1:]):
            t = np.clip(x - k0, 0.0, k1 - k0)
            total += d0 * t + 0.5 * (d1 - d0) / (k1 - k0) * t * t
        return total

    mean = 0.0
    for k0, k1, d0, d1 in zip(ks[:-1], ks[1:], ds[:-1], ds[1:]):
        s = (d1 - d0) / (k1 - k0)
        # integral of v * (d0 + s (v - k0)) dv over [k0, k1]
        mean += ((d0 - s * k0) * (k1**2 - k0**2) / 2.0
                 + s * (k1**3 - k0**3) / 3.0)
    return cdf, mean


def _partition_mix_check(report) -> list[str]:
    cdf, mean = _template()
    rows = {r["group_size"]: r for r in _rows(report)}
    if sorted(rows) != [1, 2, 3, 6]:
        return [f"partition rows for group sizes {sorted(rows)}"]
    problems = []
    single = rows[1]
    price, utility = single["price"], single["per_group_revenue"]
    if not math.isclose(utility, price * (1.0 - float(cdf(price))),
                        rel_tol=0.0, abs_tol=1e-9):
        problems.append(f"singles utility {utility!r} is not p(1 - F(p)) "
                        f"at p={price!r}")
    grid = np.linspace(0.0, 1.0, 100_001)
    best_on_grid = float(np.max(grid * (1.0 - cdf(grid))))
    if not utility >= best_on_grid - 1e-9:
        problems.append(f"singles utility {utility!r} is below the grid "
                        f"optimum {best_on_grid!r}")
    pair = rows[2]
    if not pair["per_group_revenue"] >= 2.0 * utility:
        problems.append(f"pair revenue {pair['per_group_revenue']!r} is below "
                        f"the singles value {2.0 * utility!r}")
    for size in (3, 6):
        r = rows[size]
        value, err = r["per_group_revenue"], r["per_group_std_error"]
        if not value >= size * utility - 4.0 * err:
            problems.append(f"size {size}: revenue {value!r} is more than 4 SE "
                            f"below the singles value {size * utility!r}")
        if not value <= size * mean:
            problems.append(f"size {size}: revenue {value!r} exceeds the full "
                            f"surplus {size * mean!r}")
    return problems


def _partition_mix_revenue(report) -> float:
    rows = _rows(report)
    customers = sum(r["customers"] for r in rows if r["group_size"] == 1)
    return sum(r["class_revenue"] for r in rows if r["group_size"] > 1) / customers


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], dict]
    #: Problems with a report's outputs; empty when they are correct.
    check: Callable[[object], list]
    #: Expected revenue of the reported offers per customer they serve.
    revenue_per_customer: Callable[[object], float]


WORKLOADS = {w.name: w for w in (
    Workload(
        "pair-exact",
        _pair_exact_config, _pair_exact_check, _pair_exact_revenue,
    ),
    Workload(
        "bundle-mc",
        _bundle_mc_config, _bundle_mc_check, _bundle_mc_revenue,
    ),
    Workload(
        "partition-mix",
        _partition_mix_config, _partition_mix_check, _partition_mix_revenue,
    ),
)}
