"""One cold set-up of a benchmark workload, timed by its parent.

Usage: ``python3 perfbench/setup_child.py <workload> [--smoke]`` with
``PYTHONPATH`` at the repository's ``src`` and ``REPRO_TABLE_CACHE`` at
an empty directory.  Imports the library, builds the workload, compiles
what it needs, then prints one JSON line (its spans and table size) and
exits; the parent's clock stops when that line arrives.
"""

import json
import sys

from spans import Tracer
from workloads import make_workload


def main(argv) -> int:
    workload = make_workload(argv[0], smoke="--smoke" in argv[1:])
    tracer = Tracer()
    report = workload.child_setup(tracer)
    report["spans"] = tracer.export()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
