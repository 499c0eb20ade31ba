"""Set-up time of one workload, measured in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED STARTED CHUNKS``

``STARTED`` is the parent's ``time.monotonic()`` taken just before it
spawned this process (the monotonic clock is shared by all processes of
the host).  The probe imports the library, builds the workload's system,
pool, action definitions and exception graphs, starts the driver and
stops at the first arrival.  It prints ``{"setup_s": ..., "chunk_s": ...}``:
the seconds from ``STARTED`` to that arrival, and the mean seconds of
``CHUNKS`` reference chunks (``reference.py``) timed right after it.
"""

import json
import os
import sys
import time


class _FirstArrival(Exception):
    """Raised from the driver's first submission to end the probe."""


def main(argv) -> int:
    workload, seed, started = argv[0], int(argv[1]), float(argv[2])
    samples = int(argv[3])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    from perfbench import workloads
    from perfbench.reference import chunks

    run = workloads.build(workload, seed)

    def first_arrival(*_args, **_kwargs):
        raise _FirstArrival(time.monotonic())

    run.driver.submit = first_arrival
    try:
        run.driver.run(run.arrivals)
    except _FirstArrival as arrival:
        setup_s = arrival.args[0] - started
        print(json.dumps({"setup_s": setup_s, "chunk_s": chunks(samples)}))
        return 0
    print("probe: the workload finished without an arrival",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
