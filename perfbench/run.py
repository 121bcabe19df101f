"""switchmc benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload hydro_demo --seed 0 --seconds 30 --trace 0

Run from the repository root (the package is imported from ``src/``).
The run repeats the workload for about ``--seconds`` seconds and reports
medians over the repetitions.  It prints the environment, one line per
metric with its unit, one line per failed check, and as its last line
a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (and, on
the lines above the JSON, ``certify_s``, ``oracle_s`` and
``fail_rate``).  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones, plus
``trace_overhead``, the traced wall time over the untraced one, minus
one.  Every repetition's outputs must equal the first one's, so the
traced run also checks that the wrappers change no result.  At seed 0
the outputs are also compared with ``reference.json``, recorded on the
unoptimised solver.

The BLAS thread count is pinned to 1 before numpy is loaded, in this
process and in the set-up probes it starts.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12

# Printed with the end-to-end metrics but not in BENCHMARK.json, which
# needs metrics that are never zero: these are zero on workloads that do
# not certify or call the oracle, and on a correct run.
REPORTED_UNITS = {"certify_s": "s", "oracle_s": "s", "fail_rate": "ratio"}


def metric_units(section: str) -> dict:
    """Metric name to unit for one section of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure_setup(workload: str, seed: int, size: str) -> list:
    """Start-to-ready times of fresh interpreters that import and build."""
    times = []
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), size]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(ready)
    return times


def close(a, b) -> bool:
    """Outputs equal up to round-off (exact for ints, bools and strings)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= REFERENCE_ATOL + REFERENCE_RTOL * abs(b)
    return type(a) is type(b) and a == b


class Run:
    def __init__(self, args):
        import tracing
        import workloads

        self.args = args
        self.tracing = tracing
        self.scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=_scratch_root()))
        self.workload = workloads.Workload(args.workload, args.seed, args.size, str(self.scratch))
        self.checks = []
        self.reps = {False: [], True: []}
        self.layer_units = metric_units("per_layer")

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks.append((label, bool(ok), detail))

    def repetition(self, traced: bool) -> dict:
        probe = self.tracing.Probe(layers=traced).install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                unit = self.workload.run_unit(probe)
        finally:
            probe.remove()
        runtime_warnings = sum(issubclass(w.category, RuntimeWarning) for w in caught)
        outputs = {
            "calls": probe.outputs + unit.outputs,
            "runtime_warnings": runtime_warnings,
        }
        for label, ok, detail in unit.checks:
            self.check(label, ok, detail)
        rep = {"wall_s": unit.wall_s, "outputs": outputs, **probe.end_to_end()}
        if traced:
            rep["layers"] = probe.layer_metrics(unit.artifact_bytes)
            if self.reps[True]:
                counts = [k for k, u in self.layer_units.items() if u != "s" and k in rep["layers"]]
                previous = self.reps[True][0]["layers"]
                self.check("layer counts repeat exactly",
                           all(rep["layers"][k] == previous[k] for k in counts))
        first = (self.reps[False] + self.reps[True] or [None])[0]
        if first is not None:
            label = "traced outputs equal untraced" if traced else "outputs repeat exactly"
            self.check(label, outputs == first["outputs"])
        self.reps[traced].append(rep)
        return rep

    def run(self) -> None:
        """Repeat until the next repetition would overrun ``--seconds``."""
        seconds = self.args.seconds
        plan = [False, True] if self.args.trace else [False]
        start = time.perf_counter()
        step = 0
        while True:
            traced = plan[step % len(plan)]
            rep_start = time.perf_counter()
            self.repetition(traced)
            last = time.perf_counter() - rep_start
            step += 1
            if step < len(plan):
                continue
            if time.perf_counter() - start + last > seconds:
                break

    def compare_reference(self) -> None:
        if self.args.seed != 0 or self.args.size != "full":
            return
        with open(HERE / "reference.json", encoding="utf-8") as fh:
            reference = json.load(fh)[self.args.workload]
        got = self.reps[False][0]["outputs"]
        self.check("outputs equal reference.json at seed 0", close(got, reference),
                   json.dumps(got))


def _scratch_root() -> Path:
    path = ROOT / ".perfbench_tmp"
    path.mkdir(exist_ok=True)
    return path


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "switchmc" / "__init__.py").is_file():
        print(f"perfbench: no switchmc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    run = Run(args)
    setup_times = []
    try:
        try:
            if not args.trace:
                setup_times = measure_setup(args.workload, args.seed, args.size)
            run.run()
        except Exception as exc:  # a failed workload is reported, not hidden
            run.check("workload raised no exception", False, f"{type(exc).__name__}: {exc}")
        if run.reps[False]:
            run.compare_reference()
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.scratch.parent.rmdir()

    attempted = len(run.checks)
    failed = sum(1 for _, ok, _ in run.checks if not ok)
    untraced = run.reps[False]
    traced = run.reps[True]
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced repetitions")
    if untraced:
        print("outputs " + json.dumps(untraced[0]["outputs"]))
    for label, ok, detail in run.checks:
        if not ok:
            print(f"FAILED check: {label} ({detail})")

    metrics = {}
    if args.trace == 0 and untraced and setup_times:
        values = {
            "wall_s": median_of(untraced, "wall_s"),
            "solve_s": median_of(untraced, "solve_s"),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = metric_units("end_to_end")
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
        reported = {
            "certify_s": median_of(untraced, "certify_s"),
            "oracle_s": median_of(untraced, "oracle_s"),
            "fail_rate": failed / attempted,
        }
        for name, value in list(values.items()) + list(reported.items()):
            print(f"{name:<16} {value!r} {units.get(name) or REPORTED_UNITS[name]}")
    elif args.trace == 1 and untraced and traced:
        units = run.layer_units
        overhead = median_of(traced, "wall_s") / median_of(untraced, "wall_s") - 1.0
        # Times are medians over the traced repetitions; counts repeat
        # exactly (checked above), so they come from the first one.
        layer_values = {
            name: overhead if name == "trace_overhead"
            else statistics.median(r["layers"][name] for r in traced) if unit == "s"
            else traced[0]["layers"][name]
            for name, unit in units.items()
        }
        for name, value in layer_values.items():
            print(f"{name:<30} {value!r} {units[name]}")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer_values.items()}
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
