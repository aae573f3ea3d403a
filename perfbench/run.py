"""Run one tagtrack benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload search_lavapilot --seed 1 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer split. The
program runs from `src/` of the checkout this file sits in; without it the run
exits with code 2 and prints no result. Exit code 1 means an output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("search_lavapilot", "search_renyi", "batch_comparative")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "tagtrack" / "__init__.py").is_file():
        print(f"tagtrack sources not found under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread per process, set before numpy loads; the 2 pool workers
    # inherit it, so workers x BLAS threads stays within a 2-core box.
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[key] = "1"
    sys.path.insert(0, str(SRC))
    import core  # noqa: E402  (needs the path and BLAS settings above)

    if Path(core.tagtrack.__file__).resolve().parent != SRC / "tagtrack":
        print(f"imported tagtrack from {core.tagtrack.__file__}, not {SRC}", file=sys.stderr)
        return 2
    line, correct = core.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
