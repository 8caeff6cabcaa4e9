"""Warm worker: runs workload operations in-process.

Started by ``run.py`` as ``python perfbench/worker.py`` with the checkout's
``src`` on ``PYTHONPATH``.  The time from its launch until it writes
``ready`` is the benchmark's set-up time, so before that line it imports
``orbitdesign`` and nothing else: numpy only if ``orbitdesign`` itself does,
and neither ``orbitdesign.cli`` nor the benchmark's modules.  It then loads
``jobs`` and serves jobs from standard input until it closes.

``python perfbench/worker.py --modules`` writes, after ``ready``, the sorted
names of the modules loaded at that moment as one JSON line and exits.
"""

import sys

import orbitdesign  # noqa: F401 - the set-up being measured

if __name__ == "__main__":
    loaded = sorted(sys.modules)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if sys.argv[1:] == ["--modules"]:
        import json

        print(json.dumps(loaded))
    else:
        import jobs

        jobs.serve(sys.stdin, sys.stdout)
