"""Child process: Monte Carlo batches in a fresh interpreter.

Usage: python3 bench/mc_child.py SEED SECONDS SLOTS

SLOTS lists the slots to run, for example ``12`` or ``1`` (see
``workloads.MC_SLOTS``).  The child runs one discarded operation of each,
then the slots in turn for SECONDS, and prints one JSON line: the
tally of ``workloads.run_slots`` plus the SHA-256 of each layout's
SimResult JSON.  Any BLAS thread setting comes from the environment the
parent gives it.
"""

import hashlib
import json
import sys

from workloads import MonteCarloWorkload, Tally, run_slots


def main() -> None:
    seed, seconds, slots = int(sys.argv[1]), float(sys.argv[2]), tuple(int(c) for c in sys.argv[3])
    workload = MonteCarloWorkload("mc-acceptance", None, None, seed)
    tally = Tally()
    for slot in slots:
        tally.problems += workload.op(slot)[3]
    run_slots(workload.op, seconds, tally, slots)
    digests = {label: hashlib.sha256(text.encode()).hexdigest() for label, text in workload.reference.items()}
    print(json.dumps({**tally.to_dict(), "digests": digests}))


if __name__ == "__main__":
    main()
