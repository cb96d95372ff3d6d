"""One set-up sample in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports pairid.cli, then runs the workload's set-up (suite build and
validation, keygen, records round trip of each key) and prints one JSON line
with the part times.  run.py starts this several times and times each from
process start to that line.
"""

import json
import sys
import time

from checkout import use_checkout_sources

if __name__ == "__main__":
    root = use_checkout_sources()
    t0 = time.perf_counter()
    import pairid.cli  # noqa: F401  (the import is what is timed)

    import_ms = (time.perf_counter() - t0) * 1e3
    from workloads import setup_workload

    _, parts = setup_workload(sys.argv[1], sys.argv[2], root)
    parts["import_ms"] = import_ms
    print(json.dumps(parts), flush=True)
