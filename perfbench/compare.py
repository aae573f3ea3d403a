"""Compare the non-timing output digests of two benchmark result files.

    python3 perfbench/compare.py A.json B.json

The result files are the `perfbench/out/<workload>-seed<n>-trace<t>.json` that
run.py writes. Units (missions or batches) run by both are compared by seed;
exit code 1 means at least one digest differs.
"""

import json
import sys


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.load(open(path, encoding="utf-8"))["digests"] for path in argv)
    common = sorted(set(a) & set(b), key=int)
    differ = [seed for seed in common if a[seed] != b[seed]]
    print(f"{len(common)} common units, {len(differ)} differ" + (f": seeds {differ}" if differ else ""))
    return 1 if differ or not common else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
