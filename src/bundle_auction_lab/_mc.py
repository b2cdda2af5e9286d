"""Placeholders for the benchmark in ``bench/``; the lab draws no random
number, and the seeded Monte Carlo estimate that checks the exact engine is
``tests/oracles.py``'s.

``bench/run.py`` reads ``BATCH_ELEMENTS`` into its environment record,
``bench/tracer.py`` swaps the other names in and out, and
``tests/test_bench_contract.py`` pins that they exist.
"""

BATCH_ELEMENTS = 1 << 21

revenue_stats = _batch_rng = _draw = _row_revenues = None
