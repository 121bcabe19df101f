"""Set-up probe: import switchmc, build one workload's instances, print "ready".

    python3 perfbench/setup_probe.py WORKLOAD SEED SIZE

``run.py`` starts this in a fresh interpreter several times and times
each start up to the "ready" line; the median is ``setup_s``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print("ready", flush=True)
