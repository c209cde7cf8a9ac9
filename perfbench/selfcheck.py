"""Shows that the benchmark's correctness gates fire and that its output
names every metric with its unit. Takes about two minutes.

    python3 perfbench/selfcheck.py

Checks, each printed as ok or FAIL (exit status 1 on any FAIL):
- analyze-24 on the catalog with one brace removed reports failures;
- analyze-24's check reports a failure for one wrong reference tally, and
  none for the right ones;
- census-24's check reports failures for a census missing one class;
- equivalence-5's check reports failures for a report short of one sample;
- BENCHMARK.json names the workloads and metrics that run.py reports;
- run.py prints every end-to-end metric (--trace 0) and every per-layer
  metric (--trace 1) by name with its unit, as text and in the JSON line.
"""

from __future__ import annotations

import json
import subprocess
import sys
from types import SimpleNamespace

import run
import workloads as wl
from tracing import per_layer_metrics
from worker import WORK_DIR, import_library

RESULTS: list[bool] = []


def report(ok: bool, what: str) -> None:
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)


def check_short_catalog(lib) -> None:
    full = wl.catalog_path(WORK_DIR)
    lines = full.read_text().splitlines()
    header = json.loads(lines[0])
    header["meta"]["count"] = wl.CLASSES - 1
    short = WORK_DIR / "braces-24-short.jsonl"
    short.write_text("\n".join([json.dumps(header)] + lines[1:-1]) + "\n")
    inputs = {"catalog": short, "order": list(range(wl.CLASSES))}
    reference = json.loads(wl.ANALYZE_REFERENCE.read_text())["rows"]
    out = wl.WORKLOADS["analyze-24"].run(lib, inputs)
    attempted, failed, notes = wl.check_analyze(out.output, reference, wl.ANALYZE_TALLIES)
    report(failed > 0, f"analyze-24 on a catalog missing one brace: {failed}/{attempted} failed"
           f" ({notes[0] if notes else 'no notes'})")


def check_wrong_tally() -> None:
    reference = json.loads(wl.ANALYZE_REFERENCE.read_text())["rows"]
    rows = dict(enumerate(reference))
    _, failed, _ = wl.check_analyze(rows, reference, wl.ANALYZE_TALLIES)
    report(failed == 0, f"analyze-24 reference rows against the reference tallies: {failed} failed")
    wrong = dict(wl.ANALYZE_TALLIES, annihilator=wl.ANALYZE_TALLIES["annihilator"] + 1)
    attempted, failed, notes = wl.check_analyze(rows, reference, wrong)
    report(failed > 0, f"analyze-24 with a wrong annihilator tally: {failed}/{attempted} failed"
           f" ({notes[0] if notes else 'no notes'})")


def check_short_census() -> None:
    path = wl.catalog_path(WORK_DIR)
    braces = [
        SimpleNamespace(add=SimpleNamespace(table=a), mul=SimpleNamespace(table=m))
        for a, m in wl.catalog_tables(path)
    ]
    inputs = {"catalog": path}
    for label, items, want_failed in (("the reference census", braces, False),
                                      ("a census missing one class", braces[1:], True)):
        out = wl.PassOutput(len(items), [], SimpleNamespace(items=items))
        attempted, failed, _ = wl.WORKLOADS["census-24"].check(None, out, inputs)
        report((failed > 0) == want_failed, f"census-24 check on {label}: {failed}/{attempted} failed")


def check_short_samples() -> None:
    from bracelab.campaigns import CampaignReport, CheckResult

    checked = sum(wl.SOLUTION_CENSUS.values()) + wl.EQUIVALENCE_SAMPLES - 1
    rep = CampaignReport(
        "equivalence",
        {"max_size": 4, "samples_size_5": wl.EQUIVALENCE_SAMPLES - 1},
        [CheckResult(wl.EQUIVALENCE_CLAIM, "", checked, 0, [])],
        0.0,
    )
    attempted, failed, notes = wl.check_equivalence(rep, dict(wl.SOLUTION_CENSUS))
    report(failed > 0, f"equivalence-5 with one sample missing: {failed}/{attempted} failed"
           f" ({notes[0] if notes else 'no notes'})")


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    report(sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS),
           "BENCHMARK.json workloads match workloads.WORKLOADS")
    report([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    report([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_metrics(),
           "BENCHMARK.json per_layer matches tracing.per_layer_metrics()")


def check_printed_metrics(workload: str) -> None:
    for trace, expected in ((0, list(run.END_TO_END)),
                            (1, [(n, u) for n, u, _ in per_layer_metrics()])):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            report(False, f"run.py --trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads(lines[-1])
        text = {tuple(ln.split()[::2]) for ln in lines[:-1] if len(ln.split()) == 3}
        missing = [n for n, u in expected
                   if result["metrics"].get(n, {}).get("unit") != u or (n, u) not in text]
        report(not missing and len(result["metrics"]) == len(expected) and result["correct"],
               f"{workload} --trace {trace}: {len(expected)} metrics printed with units, "
               f"correct={result['correct']}, missing {missing}")


def main() -> int:
    lib = import_library()
    check_benchmark_json()
    check_wrong_tally()
    check_short_census()
    check_short_samples()
    check_short_catalog(lib)
    check_printed_metrics("equivalence-5")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
