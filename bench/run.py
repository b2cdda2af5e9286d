"""Benchmark of the bundle-auction lab.

Usage::

    python3 bench/run.py --workload {pair-exact,bundle-mc,partition-mix} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload's experiment config is built
from ``--seed`` (see ``bench/workloads.py``) and run through
``experiments.run`` in this process, one run at a time (a closed loop with
one client), until ``--seconds`` have passed and at least twice.  Every run's
outputs are checked, and every run must give the same CSV bytes.

``--trace 0`` reports the end-to-end metrics: the median run time, the
median cold-start time of fresh interpreters, peak RSS, and revenue per
customer.  ``--trace 1`` runs once untraced, then traced (``bench/tracer.py``)
at least twice, and reports per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment and each metric by name with its unit.  Exit status is 0 when
that line is printed and 2 when the lab cannot be found under ``src/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy

from tracer import EXACT_COUNTS, LAYER_METRICS, Tracer, median_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"
MIN_RUNS = 2
#: Least number of cold starts per result.
SETUP_REPEATS = 5
PARSE_REPEATS = 5

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "revenue_per_customer": "rev/customer",
}
PER_LAYER = {
    **LAYER_METRICS,
    "experiments.parse_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Outcome:
    """One run of the workload config."""

    seconds: float
    problems: list = field(default_factory=list)
    csv: str | None = None
    revenue: float | None = None


def run_once(experiments, config, workload) -> Outcome:
    out = io.StringIO()
    start = time.perf_counter()
    try:
        report = experiments.run(config, out_path=out)
    except Exception as exc:  # a run that raises is a failed run
        traceback.print_exc()
        return Outcome(time.perf_counter() - start, [f"raised {exc!r}"])
    seconds = time.perf_counter() - start
    problems = workload.check(report)
    return Outcome(seconds, problems, out.getvalue(),
                   workload.revenue_per_customer(report))


def flag_csv_mismatches(outcomes: list) -> None:
    """Every run of one config and seed must write the same CSV bytes."""
    written = [o for o in outcomes if o.csv is not None]
    for outcome in written[1:]:
        if outcome.csv != written[0].csv:
            outcome.problems.append("CSV bytes differ from the first run")


def cold_start_seconds(config_text: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(SETUP_PROBE), str(SRC)],
        input=config_text, capture_output=True, text=True, cwd=ROOT,
        timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _git_sha() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref)
    if sha is None:
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha


def environment(seed: int, mc) -> dict:
    cpu_model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level and kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches_per_core": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "workload_seed": seed,
        "mc_batch_array_bytes": mc.BATCH_ELEMENTS * 8,
        "bundle_lab_threads": os.environ.get("BUNDLE_LAB_THREADS"),
    }


def untraced(experiments, config_text, workload, seconds):
    config = experiments.parse_config(config_text)
    cold_start_seconds(config_text)  # compiles the bytecode; not counted
    # Cold starts alternate with runs, so both sample the same stretch of
    # time on a machine whose speed drifts.
    setups, outcomes = [], []
    start = time.perf_counter()
    while len(outcomes) < MIN_RUNS or time.perf_counter() - start < seconds:
        setups.append(cold_start_seconds(config_text))
        outcomes.append(run_once(experiments, config, workload))
    while len(setups) < SETUP_REPEATS:
        setups.append(cold_start_seconds(config_text))
    flag_csv_mismatches(outcomes)
    revenues = [o.revenue for o in outcomes if o.revenue is not None]
    metrics = {
        "run_s": statistics.median(o.seconds for o in outcomes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "revenue_per_customer": statistics.median(revenues) if revenues else 0.0,
    }
    return outcomes, metrics, END_TO_END


def traced(lab, config_text, workload, seconds):
    experiments = lab.experiments
    parse_times = []
    for _ in range(PARSE_REPEATS):
        start = time.perf_counter()
        config = experiments.parse_config(config_text)
        parse_times.append(time.perf_counter() - start)
    start = time.perf_counter()
    reference = run_once(experiments, config, workload)
    tracer = Tracer()
    runs = []
    while len(runs) < MIN_RUNS or time.perf_counter() - start < seconds:
        tracer.reset()
        with tracer.installed(lab):
            outcome = run_once(experiments, config, workload)
        runs.append((outcome, tracer.metrics(len((outcome.csv or "").encode()))))
    tracer.reset()
    outcomes = [reference] + [o for o, _ in runs]
    flag_csv_mismatches(outcomes)
    first = runs[0][1]
    for outcome, layer in runs[1:]:
        moved = [k for k in EXACT_COUNTS if layer[k] != first[k]]
        if moved:
            outcome.problems.append(f"exact counts changed: {moved}")
    traced_s = statistics.median(o.seconds for o, _ in runs)
    metrics = {
        **median_metrics([layer for _, layer in runs]),
        "experiments.parse_s": statistics.median(parse_times),
        "trace.run_s": traced_s,
        "trace.overhead_s": traced_s - reference.seconds,
    }
    return outcomes, metrics, PER_LAYER


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "bundle_auction_lab" / "__init__.py").is_file():
        print(f"error: no bundle_auction_lab package under {SRC}; run the "
              "benchmark from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bundle_auction_lab as lab
    import bundle_auction_lab.experiments  # noqa: F401  (not imported by the package)

    if SRC not in Path(lab.__file__).resolve().parents:
        print(f"error: imported {lab.__file__}, not the lab under {SRC}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    config_text = json.dumps(workload.config(args.seed), sort_keys=True)
    print(json.dumps({"environment": environment(args.seed, lab._mc)}))
    print(json.dumps({"config": json.loads(config_text)}))
    if args.trace:
        outcomes, metrics, units = traced(lab, config_text, workload, args.seconds)
    else:
        outcomes, metrics, units = untraced(lab.experiments, config_text,
                                            workload, args.seconds)

    failed = sum(1 for o in outcomes if o.problems)
    for i, o in enumerate(outcomes):
        status = "ok" if not o.problems else "FAILED: " + "; ".join(o.problems)
        print(f"run {i}: {o.seconds:.3f} s {status}")
    print(f"error_rate {failed / len(outcomes):.6g} ratio "
          f"({failed} of {len(outcomes)} runs failed)")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
