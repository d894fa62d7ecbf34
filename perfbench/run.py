"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload challenge-official --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with spans around the program's public entry points and prints
the per-layer metrics instead.  Run it from the root of a checkout: the
program is imported from ``src/`` there.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout as it was

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def workloads() -> dict:
    import wl_challenge
    import wl_train

    return {
        wl_challenge.OFFICIAL.name: (wl_challenge.run, wl_challenge.OFFICIAL),
        wl_train.TRAIN.name: (wl_train.run, wl_train.TRAIN),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    table = workloads()
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return 2
    from common import environment, log

    run, config = table[args.workload]
    print("perfbench env " + json.dumps(environment(args.seed, args.workload)), flush=True)
    outcome = run(config, args.seed, args.seconds, bool(args.trace))
    for problem in outcome.problems:
        log(f"check failed: {problem}")
    print(outcome.result_line(bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
