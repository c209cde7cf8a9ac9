"""The three benchmark workloads: their inputs, the library calls they time,
and the checks that their outputs are right.

Each workload has a ``prepare`` step (input checks, part of set-up), a
``run`` step (the timed region, from the first library call to the last
result) and a ``check`` step (after timing) that counts failed items.

Why these workloads:

- census-24: ``enumerate_skew_braces(24)``, which is what
  ``bracelab enumerate --kind braces --order 24`` does. Almost all of its
  time is in ``enumeration`` and ``groups`` (about 85% in
  ``regular_subgroups``, about 10% in ``reduce_by_aut_conjugation``), on the
  same code path as the larger stretch orders. Its inputs are fixed, so the
  seed is unused.
- analyze-24: ``read_catalog`` on the fixed 855-brace order-24 catalog, then
  ``classify_flags``, ``nilpotency_report``, ``subbrace_lattice`` and
  ``radical`` per brace, in an order shuffled by the seed. This is
  ``bracelab classify`` plus the radical suite's lattice step. Its time is in
  ``serialize``, ``brace``, ``series`` and ``substructures`` and none in
  enumeration. The shuffle keeps an optimisation that leans on catalog order
  (braces grouped by additive group) honest.
- equivalence-5: ``run_suite("equivalence", max_size=4, samples=200,
  seed=987653, jobs=1)``, the README's ``bracelab verify --suite
  equivalence`` example at 200 samples. About 90% of its time is in
  ``sample_involutive_solutions``; it runs ``series`` and ``brace`` on 231
  tiny permutation braces instead of 855 braces of order 24, so added
  per-call cost shows here. The library seed is fixed: the sampler's cost
  depends on it (11 to 25 s over library seeds 1 to 8), which would bury any
  regression bound, so the benchmark seed is unused here too.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import random
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DATA_DIR = Path(__file__).resolve().parent / "data"
CATALOG_GZ = DATA_DIR / "braces-24.jsonl.gz"
ANALYZE_REFERENCE = DATA_DIR / "analyze-24-reference.json"

ORDER = 24
CLASSES = 855
# sha256 of the uncompressed catalog file, as written by write_catalog.
CATALOG_SHA256 = "06e205b32ce7f8c21cf8ffa4547e19bee706f7425ea1984528b261dba7b9bab8"

# analyze-24 tallies over the catalog, from the library at the commit that
# produced the catalog; "lattice" is the total number of sub skew braces.
ANALYZE_TALLIES = {
    "trivial": 15,
    "two_sided": 378,
    "abelian_type": 96,
    "nilpotent_type": 161,
    "left": 229,
    "right": 482,
    "strong": 135,
    "annihilator": 45,
    "lattice": 14520,
}
# One row per catalog brace: these fields, then the radical's size.
ROW_FIELDS = tuple(ANALYZE_TALLIES) + ("radical",)

EQUIVALENCE_SEED = 987653
EQUIVALENCE_SAMPLES = 200
EQUIVALENCE_CLAIM = "multipermutation_iff_right_nilpotent_of_nilpotent_type"
# Involutive solutions of sizes 1..4 up to relabeling.
SOLUTION_CENSUS = {1: 1, 2: 2, 3: 5, 4: 23}


class InputError(Exception):
    """A benchmark input is missing or differs from the recorded one."""


@dataclass
class PassOutput:
    items: int  # classes found, braces analysed or solutions checked
    item_ms: list[float]  # per-item times, where the workload has them
    output: object  # what the check step inspects


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    expected_items: int
    min_passes: int  # passes a run makes however short --seconds is
    prepare: Callable[[int, Path], dict]
    run: Callable[[object, dict], PassOutput]
    check: Callable[[object, PassOutput, dict], tuple[int, int, list[str]]]


# ---------------------------------------------------------------------------
# Fixed order-24 catalog


def catalog_path(work_dir: Path) -> Path:
    """The uncompressed catalog in the work directory, written on first use
    and checked against the recorded digest and class count every time."""
    path = work_dir / "braces-24.jsonl"
    if not path.exists() or _sha256(path) != CATALOG_SHA256:
        if not CATALOG_GZ.exists():
            raise InputError(f"missing {CATALOG_GZ}")
        work_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(gzip.decompress(CATALOG_GZ.read_bytes()))
        tmp.replace(path)
    digest = _sha256(path)
    if digest != CATALOG_SHA256:
        raise InputError(f"{path}: sha256 {digest} != recorded {CATALOG_SHA256}")
    with path.open() as fh:
        header = json.loads(fh.readline())
        lines = sum(1 for _ in fh)
    count = header["meta"]["count"]
    if count != CLASSES or lines != CLASSES:
        raise InputError(f"{path}: {count} classes in header, {lines} lines, expected {CLASSES}")
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def catalog_tables(path: Path) -> list[tuple[list, list]]:
    """(add, mul) tables of every catalog brace, parsed without the library."""
    with path.open() as fh:
        fh.readline()
        return [(d["add"], d["mul"]) for d in map(json.loads, fh)]


def brace_signature(add, mul) -> tuple:
    """Isomorphism invariant of a brace from its tables: both groups'
    commutativity and the sorted (additive order, multiplicative order) pairs."""
    n = len(add)

    def order(t, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = t[x][a]
            k += 1
        return k

    def abelian(t) -> bool:
        return all(t[a][b] == t[b][a] for a in range(n) for b in range(a))

    pairs = sorted((order(add, a), order(mul, a)) for a in range(n))
    return (n, abelian(add), abelian(mul), tuple(pairs))


# ---------------------------------------------------------------------------
# census-24


def _census_prepare(seed: int, work_dir: Path) -> dict:
    return {"catalog": catalog_path(work_dir)}


def _census_run(lib, inputs: dict) -> PassOutput:
    cat = lib.enumerate_skew_braces(ORDER)
    return PassOutput(len(cat.items), [], cat)


def _census_check(lib, out: PassOutput, inputs: dict) -> tuple[int, int, list[str]]:
    """Every reference class must be matched by one class of the census, by
    signature; unmatched and extra classes are failures."""
    want = Counter(brace_signature(add, mul) for add, mul in catalog_tables(inputs["catalog"]))
    got = Counter(brace_signature(b.add.table, b.mul.table) for b in out.output.items)
    failed = sum(((want - got) + (got - want)).values())
    notes = [] if not failed else [f"{len(out.output.items)} classes, {failed} signature mismatches"]
    return CLASSES, min(failed, CLASSES), notes


# ---------------------------------------------------------------------------
# analyze-24


def _analyze_prepare(seed: int, work_dir: Path) -> dict:
    order = list(range(CLASSES))
    random.Random(seed).shuffle(order)
    reference = json.loads(ANALYZE_REFERENCE.read_text())
    if len(reference["rows"]) != CLASSES or reference["catalog_sha256"] != CATALOG_SHA256:
        raise InputError(f"{ANALYZE_REFERENCE} does not describe the recorded catalog")
    return {"catalog": catalog_path(work_dir), "order": order, "reference": reference["rows"]}


def analyze_brace(lib, b) -> list[int]:
    """One catalog brace through classify, nilpotency and the lattice step;
    the row holds the values in ROW_FIELDS."""
    flags = lib.classify_flags(b)
    rep = lib.nilpotency_report(b)
    lattice = lib.subbrace_lattice(b)
    rad = lib.radical(b, lattice)
    return [
        flags.trivial, flags.two_sided, flags.abelian_type, flags.nilpotent_type,
        rep.left.holds, rep.right.holds, rep.strong.holds, rep.annihilator.holds,
        len(lattice), len(rad.indices()),
    ]


def _analyze_run(lib, inputs: dict) -> PassOutput:
    cat = lib.serialize.read_catalog(inputs["catalog"])
    rows: dict[int, object] = {}
    item_ms = []
    for i in inputs["order"]:
        if i >= len(cat.items):
            continue  # a short catalog: the check counts the missing rows
        start = time.perf_counter()
        try:
            rows[i] = analyze_brace(lib, cat.items[i])
        except Exception as exc:  # noqa: BLE001 - any error fails this brace
            rows[i] = f"{type(exc).__name__}: {exc}"
        item_ms.append((time.perf_counter() - start) * 1e3)
    return PassOutput(len(rows), item_ms, rows)


def _analyze_check(lib, out: PassOutput, inputs: dict) -> tuple[int, int, list[str]]:
    return check_analyze(out.output, inputs["reference"], ANALYZE_TALLIES)


def check_analyze(
    rows: dict[int, object], reference: list[list[int]], tallies: dict[str, int]
) -> tuple[int, int, list[str]]:
    """Failures: braces whose row is missing, raised, or differs from the
    reference row, plus one per tally that differs from the reference tally."""
    notes: list[str] = []
    failed = 0
    for i, want in enumerate(reference):
        got = rows.get(i)
        if got is None or isinstance(got, str) or [int(v) for v in got] != want:
            failed += 1
            if len(notes) < 3:
                notes.append(f"brace {i}: got {got}, want {want}")
    totals = {f: 0 for f in tallies}
    for got in rows.values():
        if not isinstance(got, str):
            for f, v in zip(ROW_FIELDS, got):
                if f in totals:
                    totals[f] += int(v)
    for f, want in tallies.items():
        if totals[f] != want:
            failed += 1
            notes.append(f"tally {f}: got {totals[f]}, want {want}")
    return len(reference), min(failed, len(reference)), notes


# ---------------------------------------------------------------------------
# equivalence-5


def _equivalence_prepare(seed: int, work_dir: Path) -> dict:
    return {}


def _equivalence_run(lib, inputs: dict) -> PassOutput:
    report = lib.run_suite(
        "equivalence", max_size=4, samples=EQUIVALENCE_SAMPLES, seed=EQUIVALENCE_SEED, jobs=1
    )
    return PassOutput(_solutions_checked(report), [], report)


def _solutions_checked(report) -> int:
    """The equivalence claim records one instance per solution checked."""
    return next((c.instances for c in report.checks if c.claim_id == EQUIVALENCE_CLAIM), 0)


def _equivalence_check(lib, out: PassOutput, inputs: dict) -> tuple[int, int, list[str]]:
    sizes = {n: len(lib.enumerate_involutive_solutions(n)) for n in SOLUTION_CENSUS}
    return check_equivalence(out.output, sizes)


def check_equivalence(report, sizes: dict[int, int]) -> tuple[int, int, list[str]]:
    """Failures: every failed claim instance, every solution missing from the
    size 1..4 census or from the 200 samples."""
    attempted = sum(SOLUTION_CENSUS.values()) + EQUIVALENCE_SAMPLES
    notes = [f"{c.claim_id}: {c.failures} failures" for c in report.checks if c.failures]
    failed = sum(c.failures for c in report.checks)
    for n, want in SOLUTION_CENSUS.items():
        if sizes.get(n) != want:
            failed += abs(want - sizes.get(n, 0))
            notes.append(f"size {n}: {sizes.get(n)} solutions, want {want}")
    returned = report.scope.get("samples_size_5", 0)
    if returned != EQUIVALENCE_SAMPLES:
        failed += abs(EQUIVALENCE_SAMPLES - returned)
        notes.append(f"{returned} samples returned, want {EQUIVALENCE_SAMPLES}")
    checked = _solutions_checked(report)
    if checked != attempted:
        failed += 1
        notes.append(f"{checked} solutions checked, want {attempted}")
    return attempted, min(failed, attempted), notes


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census-24",
            "all 855 skew braces of order 24 via Hol(A); time in enumeration and groups",
            CLASSES, 1, _census_prepare, _census_run, _census_check,
        ),
        Workload(
            "analyze-24",
            "classify, nilpotency, lattice and radical of the fixed order-24 catalog in seeded order; "
            "time in serialize, brace, series and substructures",
            CLASSES, 1, _analyze_prepare, _analyze_run, _analyze_check,
        ),
        Workload(
            "equivalence-5",
            "equivalence suite with 200 sampled size-5 solutions; time in the sampler and in "
            "per-call cost on 231 tiny permutation braces",
            # Two passes: it is the shortest workload and a single pass
            # spread most from run to run (interquartile range 22% of the
            # median over ten runs on a shared 2-vCPU machine).
            sum(SOLUTION_CENSUS.values()) + EQUIVALENCE_SAMPLES, 2,
            _equivalence_prepare, _equivalence_run, _equivalence_check,
        ),
    )
}
