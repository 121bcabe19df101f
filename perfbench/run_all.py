"""Run every workload of BENCHMARK.json in turn, each in a fresh interpreter.

    python3 perfbench/run_all.py --seed 0 --seconds 30 --trace 0

The arguments are passed on to ``run.py``.  Each workload's output is
printed under a ``== workload NAME`` header.  The exit code is 1 if any
run failed or reported ``"correct": false``.
"""

import contextlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    ok = True
    for name in names:
        print(f"== workload {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, *argv],
            stdout=subprocess.PIPE, text=True,
        )
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        result = None
        if proc.returncode == 0 and lines:
            with contextlib.suppress(json.JSONDecodeError):
                result = json.loads(lines[-1])
        ok &= bool(result and result["correct"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
