"""bracelab benchmark: one run of one workload.

    python3 perfbench/run.py --workload census-24|analyze-24|equivalence-5 \
        --seed N --seconds S --trace 0|1

Run from the repository root. Every pass runs in a fresh single-threaded
interpreter (worker.py) with PYTHONHASHSEED=0, because the library's group
and automorphism caches are per process and every command-line user pays to
fill them. A run first starts SETUP_SAMPLES interpreters that only import
the library and check the inputs, then runs whole passes until S seconds
have gone by and the workload's min_passes are done (two for
equivalence-5, one otherwise). With --trace 1 it adds one traced pass.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics, the end-to-end metrics with --trace 0 and the per-layer metrics
with --trace 1. The lines before it print every metric with its unit and
the machine it ran on; the same record goes to .bench_build/perfbench/.

End-to-end metrics, measured with tracing off (medians over passes):
  wall_s       first library call to last result, without set-up
  items_per_s  items per wall second: classes (census-24), braces analysed
               (analyze-24), solutions checked (equivalence-5)
  item_p50_ms, item_p98_ms
               per-item time: per brace on analyze-24 (855 samples a pass,
               p98 is the highest percentile with at least ten samples
               beyond it); census-24 and equivalence-5 return one result
               per call, so there the item is the whole call (one sample a
               pass)
  setup_s      interpreter start, imports and input checks (median of the
               set-up-only interpreters and the passes)
  peak_rss_mb  peak resident memory of a pass
Failed items over attempted items is the result's failed / attempted.
CPU seconds and the tracing overhead are per-layer diagnostics, so running
the search in parallel is not counted against a change.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p98_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_SAMPLES = 9
RUN_LIMIT_S = 175  # the whole run, every interpreter it starts included


class WorkerFailed(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} pass exceeded the run's time limit") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} pass exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [spawn(workload, seed, "setup", deadline) for _ in range(SETUP_SAMPLES)]
    passes: list[dict] = []
    started = time.monotonic()
    while len(passes) < WORKLOADS[workload].min_passes or time.monotonic() - started < seconds:
        passes.append(spawn(workload, seed, "pass", deadline))
    traced = spawn(workload, seed, "trace", deadline) if trace else None
    done = passes + ([traced] if traced else [])

    walls = [p["wall_s"] for p in passes]
    item_ms = [ms for p in passes for ms in p["item_ms"]] or [w * 1e3 for w in walls]
    end_to_end = {
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(p["items"] / p["wall_s"] for p in passes),
        "item_p50_ms": statistics.median(item_ms),
        "item_p98_ms": nearest_rank(item_ms, 0.98),
        "setup_s": statistics.median(s["setup_s"] for s in setups + done),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    record = {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "item_samples": len(item_ms),
        "setup_samples": len(setups) + len(done),
        "environment": environment(),
        "attempted": sum(p["attempted"] for p in done),
        "failed": sum(p["failed"] for p in done),
        "notes": [n for p in done for n in p["notes"]],
        "end_to_end": end_to_end,
    }
    if traced:
        layers = dict(traced["layers"])
        layers["process.cpu_s"] = statistics.median(p["cpu_s"] for p in passes)
        layers["trace.wall_s"] = traced["wall_s"]
        layers["trace.overhead_s"] = traced["wall_s"] - end_to_end["wall_s"]
        record["per_layer"] = layers
        record["spans"] = traced["spans"]
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "bracelab" / "__init__.py").is_file():
        print(f"error: no bracelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        units = [(name, unit) for name, unit, _ in per_layer_metrics()]
        values = record["per_layer"]
    else:
        units, values = list(END_TO_END), record["end_to_end"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}

    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=1) + "\n"
    )
    print(f"workload {args.workload} seed {args.seed}: {record['passes']} pass(es), "
          f"{record['item_samples']} item samples, {record['setup_samples']} set-up samples")
    print("environment " + json.dumps(record["environment"]))
    for note in record["notes"]:
        print("failure: " + note.strip().replace("\n", " | "))
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    print(f"  failed / attempted: {record['failed']} / {record['attempted']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
