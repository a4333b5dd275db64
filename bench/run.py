"""Benchmark of multirdd: cold CLI, a 200k-row file and the acceptance Monte Carlo.

Run from the root of a checkout:

    python3 bench/run.py --workload cli-sample --seed 1 --seconds 32 --trace 0

Workloads are ``cli-sample``, ``bigfile-200k`` and ``mc-acceptance``
(bench/README.md says what each runs and why).  With ``--trace 0`` the
run measures the end-to-end metrics with nothing installed in the
package.  With ``--trace 1`` it wraps the layer modules' functions,
runs the per-layer probes and reports the per-layer metrics instead.
Every operation's output is checked against pinned results.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit and give the environment.  The exit
code is 1 when a check fails, and 2 when the checkout lacks the package
or its sample data.  The BLAS thread variables are left as the caller
set them.  Working files go to ``.bench_work/`` in the checkout.
"""

import time

RUN_START = time.perf_counter()

import argparse  # noqa: E402 - setup_s counts from before the imports
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/multirdd/__init__.py", "sample_data/insurance_style.csv")
WORKLOADS = ("cli-sample", "bigfile-200k", "mc-acceptance")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a multirdd checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import multirdd.cli  # noqa: F401 - the package import is part of set-up

    import_s = time.perf_counter() - RUN_START
    import runner

    return runner.run(args, ROOT, RUN_START, import_s)


if __name__ == "__main__":
    sys.exit(main())
