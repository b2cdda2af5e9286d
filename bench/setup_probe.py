"""Time one cold start of the lab in a fresh interpreter.

Usage: ``python3 bench/setup_probe.py <src-dir> < config.json``.  Imports
``bundle_auction_lab`` from ``<src-dir>``, parses the config from stdin (which
builds its distributions) and prints the seconds that took.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import bundle_auction_lab  # noqa: E402
from bundle_auction_lab.experiments import parse_config  # noqa: E402

parse_config(sys.stdin.read())
elapsed = time.perf_counter() - start

if src not in Path(bundle_auction_lab.__file__).resolve().parents:
    sys.exit(f"imported {bundle_auction_lab.__file__}, not the lab under {src}")
print(repr(elapsed))
