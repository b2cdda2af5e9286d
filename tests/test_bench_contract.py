"""The lab keeps what the benchmark in ``bench/`` relies on.

``bench/tracer.py`` replaces module attributes of the lab by name, and the
benchmark runs the lab through ``experiments.run``.  Renaming or removing
one of those attributes breaks every traced benchmark run before it starts.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import bundle_auction_lab as lab
import bundle_auction_lab.experiments  # noqa: F401  (not imported by the package)

ROOT = Path(__file__).resolve().parent.parent


def _tracer_module():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    patches = _tracer_module().Tracer()._patches(lab)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in patches if attr not in owner.__dict__]
    assert missing == []
    names = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in patches}
    for attr in ("ThreadPoolExecutor", "integrate_with_breakpoints",
                 "pair_expected_revenue_exact", "revenue_stats",
                 "golden_section_max", "optimal_single_price"):
        assert ("bundle_auction_lab.pair_revenue", attr) in names
    assert ("bundle_auction_lab.experiments", "optimize_pair_offer") in names
    for owner, attr in (("bundle_auction_lab._mc", "_draw"),
                        ("bundle_auction_lab._mc", "_batch_rng"),
                        ("bundle_auction_lab._mc", "_row_revenues"),
                        ("bundle_auction_lab.group_revenue", "revenue_stats"),
                        ("bundle_auction_lab.group_revenue", "valuation_sums"),
                        ("bundle_auction_lab.group_revenue",
                         "golden_section_max"),
                        ("bundle_auction_lab.experiments",
                         "optimize_group_offer")):
        assert (owner, attr) in names
    assert lab._mc.BATCH_ELEMENTS > 0


def _traced_smoke(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert result["correct"] is True
    return result["metrics"]


def test_traced_pair_benchmark_smoke():
    _traced_smoke("pair-exact")


def test_traced_partition_benchmark_smoke():
    # Every group of the partition is priced exactly: nothing is drawn.
    metrics = _traced_smoke("partition-mix")
    assert metrics["mc.batches"]["value"] == 0
    assert metrics["mc.elements"]["value"] == 0
    assert metrics["mc.repeat_draw_share"]["value"] == 0


def test_traced_bundle_benchmark_smoke():
    # Every row of the large-bundle check is certified by its closed-form
    # tail bound, so the traced run still passes and draws nothing.
    metrics = _traced_smoke("bundle-mc")
    assert metrics["mc.batches"]["value"] == 0
    assert metrics["mc.elements"]["value"] == 0
    assert metrics["mc.repeat_draw_share"]["value"] == 0
