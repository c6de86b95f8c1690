#!/usr/bin/env python3
"""Regenerate (or ``--check``) the pinned digests in ``digests.json``.

    PYTHONHASHSEED=0 PYTHONPATH=src python3 simbench/regen.py [--check]

The digests pin what does not depend on ``--seed``: each network's state
right after convergence (``scale_state_digest``) and each chaos cell's
trace digest, all at the fixed network seed. Rewrite them only when a
change is meant to alter simulated behaviour (the same policy as the
golden corpus in ``tests/golden/``). About a minute of CPU.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.runner import execute_spec

import bench
import checks


def compute() -> dict:
    """Every pinned digest, recomputed through the benchmark's own build,
    converge and digest steps."""
    testbed = {
        f"ch{channel}": bench.converge_and_digest(bench.testbed_network(channel), "testbed-lpl")[1]
        for channel in bench.TESTBED_CHANNELS
    }
    city = {
        f"forest-{bench.CITY_SIZE}": bench.converge_and_digest(bench.city_network(), "city-forest")[1]
    }
    chaos = {spec.label: execute_spec(spec)["trace_digest"] for spec in bench.chaos_specs()}
    return {"testbed-lpl": testbed, "city-forest": city, "chaos-grid": chaos}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare instead of writing")
    args = parser.parse_args()
    digests = compute()
    if args.check:
        pinned = checks.load_digests()
        same = pinned == digests
        print("digests match" if same else f"digests differ:\n{json.dumps(digests, indent=2)}")
        return 0 if same else 1
    with open(checks.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {checks.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
