"""One benchmark pass in a fresh interpreter; run by run.py, not by hand.

    python3 perfbench/worker.py WORKLOAD SEED MODE SPAWNED_AT

MODE is ``setup`` (imports and input checks only), ``pass`` (also the
timed workload) or ``trace`` (the timed workload with layer tracing).
SPAWNED_AT is the parent's time.monotonic() just before it started this
process, so set-up time includes interpreter start. The last line of
stdout is one JSON object with the pass's numbers.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench_build" / "perfbench"


def import_library():
    """The bracelab package under this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import bracelab
    import bracelab.serialize  # noqa: F401 - analyze-24 reaches it as bracelab.serialize

    if not Path(bracelab.__file__).resolve().is_relative_to(src):
        raise ImportError(f"bracelab imported from {bracelab.__file__}, not {src}")
    return bracelab


def main(workload_name: str, seed: int, mode: str, spawned_at: float) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS

    lib = import_library()
    workload = WORKLOADS[workload_name]
    inputs = workload.prepare(seed, WORK_DIR)
    result = {"setup_s": time.monotonic() - spawned_at}
    if mode == "setup":
        return result

    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
        tracer.recording = True
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        out = workload.run(lib, inputs)
    except Exception:  # noqa: BLE001 - a failed pass is reported, not fatal
        out = None
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.recording = False

    if out is None:
        attempted, failed, notes = workload.expected_items, workload.expected_items, [error]
        items, item_ms = 0, []
    else:
        attempted, failed, notes = workload.check(lib, out, inputs)
        items, item_ms = out.items, out.item_ms
    result.update(
        wall_s=wall, cpu_s=cpu, peak_rss_mb=peak_rss_mb, items=items, item_ms=item_ms,
        attempted=attempted, failed=failed, notes=notes,
    )
    if tracer is not None:
        result["layers"] = tracer.metrics()
        spans = WORK_DIR / f"spans-{workload_name}-seed{seed}.jsonl"
        tracer.write_spans(spans)
        result["spans"] = {"path": str(spans.relative_to(ROOT)), "count": len(tracer.spans)}
    return result


if __name__ == "__main__":
    name, seed_arg, mode_arg, spawned = sys.argv[1:5]
    print(json.dumps(main(name, int(seed_arg), mode_arg, float(spawned))))
