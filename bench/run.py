"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S [--trace 0|1]

Run from the root of a hydrospline checkout; the package is imported from
``src``.  ``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer metrics from spans.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload in its
own process and prints all their metric lines.
"""

import argparse
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

from measure import (COUNT_METRICS, RATE_METRICS, TIME_METRICS, LoopResult, layer_metrics,
                     median, op_trees, percentile, run_loop)
from tracer import Tracer
from workloads import OUT_DIR, WORKLOADS, child_env, prepare, spawn

SETUP_PROBES = 7
FLOOR_REPS = 5
PROBE_TIMEOUT_S = 60.0

# the end-to-end metrics of BENCHMARK.json
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# printed, not gated: on a shared host that alternates between two speeds
# about 1.5x apart, the median and the mean follow the share of time spent
# slow and spread by up to 30% between runs; fail_ratio is 0 when all is well
PRINTED_UNITS = {"latency_p50_ms": "ms", "work_per_s": "1/s", "fail_ratio": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {"startup.python_ms": "ms", "startup.numpy_ms": "ms",
             "startup.hydrospline_ms": "ms", "startup.share": "ratio"}
    units.update({name: "ms" for name in TIME_METRICS})
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({name: "ns" for name in RATE_METRICS})
    units["linalg.failures"] = "count"
    units["trace.overhead_pct"] = "%"
    return units


def setup_probe(args, root: Path) -> float:
    """Wall time from spawning a fresh workload process until it is ready
    for its first timed operation (imports, inputs, goldens, warm-up)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter_ns()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=root, text=True)
    timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter_ns()
        proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return (ready - start) / 1e9


def startup_floors(root: Path) -> dict[str, float]:
    """Fresh-process wall time of the interpreter, numpy and hydrospline imports."""
    commands = {
        "startup.python_ms": [sys.executable, "-c", "pass"],
        "startup.numpy_ms": [sys.executable, "-c", "import numpy"],
        "startup.hydrospline_ms": [sys.executable, "-c", "import hydrospline.cli"],
    }
    env = child_env(root)
    samples = {name: [] for name in commands}
    for _ in range(FLOOR_REPS):
        for name, argv in commands.items():
            start = time.perf_counter_ns()
            code, output, _ = spawn(argv, env, root)
            if code != 0:
                raise RuntimeError(f"{' '.join(argv[1:])} failed: {output.decode()[-200:]}")
            samples[name].append((time.perf_counter_ns() - start) / 1e6)
    return {name: median(values) for name, values in samples.items()}


def measure_end_to_end(args, root: Path):
    workload = prepare(args.workload, args.seed, root)
    # set-up probes alternate with slices of the timed loop, so that both
    # sample the same stretch of a shared host's changing speed
    loop = LoopResult()
    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(setup_probe(args, root))
        run_loop(workload, args.seconds / SETUP_PROBES, result=loop)
    latencies_ms = [ns / 1e6 for ns in loop.latencies_ns]
    values = {
        "setup_s": median(setups),
        "latency_p50_ms": median(latencies_ms),
        "latency_p90_ms": percentile(latencies_ms, 90.0),
        "work_per_s": loop.work / (sum(loop.latencies_ns) / 1e9),
        "fail_ratio": loop.failed / loop.attempted,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    print(f"{args.workload}: {loop.attempted} operations, {loop.failed} failed, "
          f"setup_s over {SETUP_PROBES} fresh processes")
    return loop, values, END_TO_END_UNITS, []


def measure_layers(args, root: Path):
    workload = prepare(args.workload, args.seed, root)
    floors = startup_floors(root)
    tracer = Tracer()
    loop = run_loop(workload, args.seconds, tracer)
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps(tracer.dump()))
    trees = op_trees(tracer.spans)
    problems = [f"op {t.spans[t.root].op}: span self times sum to {t.self_sum_ns()} ns, "
                f"operation took {t.duration_ns} ns" for t in trees
                if t.self_sum_ns() != t.duration_ns]
    untraced_p50 = median(loop.latencies_ns)
    values = dict(floors)
    # only a fresh-process workload pays the import on every operation
    values["startup.share"] = (
        0.0 if workload.in_process else floors["startup.hydrospline_ms"] * 1e6 / untraced_p50)
    values.update(layer_metrics(trees))
    values["trace.overhead_pct"] = (median(loop.traced_ns) / untraced_p50 - 1.0) * 100.0
    print(f"{args.workload}: {len(trees)} traced and {len(loop.latencies_ns)} untraced "
          f"operations; spans written to {trace_path}")
    return loop, values, per_layer_units(), problems


def run_all(args, root: Path) -> int:
    """Every workload in its own process; their metric lines, then one JSON line."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hydrospline" / "__init__.py").is_file():
        print("error: run from the root of a hydrospline checkout; src/hydrospline is missing",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)
    sys.path.insert(0, str(root / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        prepare(args.workload, args.seed, root)
        print("ready", flush=True)
        return 0

    measure = measure_layers if args.trace else measure_end_to_end
    loop, values, units, problems = measure(args, root)
    problems = loop.problems + problems
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {(units | PRINTED_UNITS)[name]}")
    print(json.dumps({
        "correct": loop.failed == 0 and not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
