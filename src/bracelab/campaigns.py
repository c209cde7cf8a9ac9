"""Verification campaigns: each suite ties a family of structural claims to a
runnable check over enumerated catalogs and reports per-claim failure counts.

Every suite is one entry of the claim table _CLAIMS and one check, which
takes a (witness, item) pair and yields (claim_id, ok, witness, count) for
each instance it checks. One driver, _run_checks, maps the check over the
suite's batches of items, through worker processes under --jobs, and records
each instance in its claim. Reports are deterministic given the catalogs:
items are processed in catalog order and sampling is seeded, so a rerun
reproduces the same report, whatever the number of jobs.
"""

from __future__ import annotations

import csv
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import product as iproduct
from math import prod
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

from .brace import SkewBrace, classify_flags, lambda_orbits, star_identity_violations
from .enumeration import (
    DIRECT_SEARCH_MAX_ORDER,
    Catalog,
    EXPECTED_GROUP_COUNTS,
    SAMPLED_SOLUTION_SIZE,
    _enumerate_braces_direct,
    enumerate_involutive_solutions,
    enumerate_skew_braces,
    groups_of_order,
    sample_involutive_solutions,
)
from .errors import BraceLabError, SuiteUnknown
from .series import VERDICTS, gamma_distributivity_check, nilpotency_report, series
from .subsets import Subset
from .substructures import (
    is_ideal,
    maximal_ideals,
    maximal_subbraces,
    radical,
    star_sets,
    subbrace_lattice,
    subideal_chain,
    generates,
)
from .ybe import Solution, equivalence_check, retract

SUITES = ("axioms", "identities", "series", "hirsch", "radical", "equivalence", "census")

DEFAULT_SEED = 987653

# Brace counts confirmed by the paired holomorph/direct enumerations (orders
# up to 6) and, at order 8, against the published census figure.
EXPECTED_BRACE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 4, 5: 1, 6: 6, 7: 1, 8: 47}

TRANSVERSAL_BUDGET = 4096


@dataclass
class CheckResult:
    """One claim's tally; a suite records each instance as it checks it."""

    claim_id: str
    statement: str
    instances: int = 0
    failures: int = 0
    witnesses: list = field(default_factory=list)

    def record(self, ok: bool, witness=None, count: int = 1) -> None:
        self.instances += count
        if not ok:
            self.failures += 1
            if witness is not None and len(self.witnesses) < 20:
                self.witnesses.append(witness)

    def note_witness(self, witness) -> None:
        self.witnesses.append(witness)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class CampaignReport:
    suite: str
    scope: dict
    checks: list[CheckResult]
    wall_time_s: float = 0.0
    seed: Optional[int] = None
    tables: list[dict] = field(default_factory=list)

    def passed(self) -> bool:
        return all(c.failures == 0 for c in self.checks)

    def to_json(self) -> dict:
        out = {
            "suite": self.suite,
            "scope": self.scope,
            "checks": [c.to_json() for c in self.checks],
            "wall_time_s": self.wall_time_s,
            "passed": self.passed(),
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.tables:
            out["tables"] = self.tables
        return out


# ---------------------------------------------------------------------------
# Catalog access with optional JSONL caching


def _catalog(kind: str, n: int, catalog_dir: Optional[Path]) -> Catalog:
    """The order-n catalog of kind, read from catalog_dir when cached there.
    A cached file is trusted by its header, not its name: a kind or order
    other than the one asked for is refused. The enumerator is looked up at
    call time, so a rebound module name (a tracer's wrapper, say) is the one
    called."""
    enumerate_catalog = {
        "braces": enumerate_skew_braces,
        "solutions": enumerate_involutive_solutions,
    }[kind]
    if catalog_dir is None:
        return enumerate_catalog(n)
    from .serialize import read_catalog, write_catalog

    path = Path(catalog_dir) / f"{kind}-{n}.jsonl"
    if path.exists():
        try:
            cat = read_catalog(path)
        except (BraceLabError, OSError, ValueError) as exc:
            raise BraceLabError(f"cached catalog {path}: {exc}") from None
        held = (cat.meta["kind"], cat.meta.get("order"))
        if held != (kind, n):
            raise BraceLabError(
                f"cached catalog {path}: header has kind {held[0]!r} and order "
                f"{held[1]!r}, expected kind {kind!r} and order {n}"
            )
        return cat
    cat = enumerate_catalog(n)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_catalog(cat, path)
    return cat


def _catalog_braces(
    max_order: int, catalog_dir: Optional[Path]
) -> Iterator[list[tuple[dict, SkewBrace]]]:
    """The braces of each order 1..max_order catalog in turn, in catalog
    order, each with its witness {"order": n, "index": i}."""
    for n in range(1, max_order + 1):
        cat = _catalog("braces", n, catalog_dir)
        yield [({"order": n, "index": i}, b) for i, b in enumerate(cat.items)]


def _pmap(fn: Callable, items: list, jobs: int) -> list:
    """Order-preserving map, optionally over a process pool."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * jobs))))


# ---------------------------------------------------------------------------
# Suites


def run_suite(
    name: str,
    max_order: int = 8,
    max_size: int = 4,
    samples: int = 1000,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    catalog_dir: Optional[str | Path] = None,
) -> CampaignReport:
    if name not in SUITES:
        raise SuiteUnknown(f"unknown suite {name!r}; choose from {SUITES}")
    started = time.monotonic()
    catalog_dir = Path(catalog_dir) if catalog_dir else None
    report = CampaignReport(name, {"max_order": max_order}, [])
    if name == "equivalence":
        solutions = [
            ({"size": n, "index": i}, sol)
            for n in range(1, max_size + 1)
            for i, sol in enumerate(_catalog("solutions", n, catalog_dir).items)
        ]
        size = SAMPLED_SOLUTION_SIZE
        sampled = sample_involutive_solutions(size, samples, seed)
        drawn = [({"size": size, "sample": j}, sol) for j, sol in enumerate(sampled)]
        checks, found = _run_checks(name, (solutions, drawn), _check_solution, jobs)
        present = checks["non_multipermutation_witness_present"]
        non_mp = found.get("non_multipermutation", [])
        # the smallest solutions that fail to retract have four points
        if max_size >= 4:
            present.record(bool(non_mp), witness={"max_size": max_size})
        for wit in non_mp:
            present.note_witness(wit)
        report.scope = {
            "max_size": max_size,
            f"samples_size_{size}": len(sampled),
            "samples_requested": samples,
        }
        report.seed = seed
    elif name == "census":
        orders = [({"order": n}, n) for n in range(1, max_order + 1)]
        checks, found = _run_checks(name, (orders,), partial(_check_census, catalog_dir), jobs)
        if max_order < 8:
            del checks["order8_non_annihilator"]
        report.tables = found.get("row", [])
    else:
        braces = _catalog_braces(max_order, catalog_dir)
        checks, found = _run_checks(name, braces, _CHECKS[name], jobs)
        if name == "series":
            strict = checks["strict_implication_witnesses"]
            for case in _STRICT_CASES:
                strict.record(case in found, witness={"missing": case})
                if case in found:
                    strict.note_witness({case: found[case][0]})
    report.checks = list(checks.values())
    report.wall_time_s = round(time.monotonic() - started, 3)
    return report


# Each suite's claims, (claim_id, statement) in report order.
_CLAIMS = {
    "axioms": (
        ("brace_axioms_revalidate",
         "every catalog brace revalidates from its serialized form with "
         "identical tables"),
    ),
    "identities": (
        ("star_expansion_identities",
         "x*(y+z), (x+y)*z and (x o y)*z expand through star and lambda on "
         "all triples of every catalog brace"),
        ("bracket_chain_distributivity",
         "for annihilator nilpotent braces, star and additive commutators "
         "distribute over + and o on all admissible bracketed-chain triples"),
    ),
    "series": (
        ("annihilator_routes_agree",
         "the ascending annihilator series, the gamma series and the "
         "bracketed gamma series render the same annihilator-nilpotency "
         "verdict on every brace"),
        ("implication_diagram",
         "annihilator nilpotent implies strongly nilpotent; strongly "
         "nilpotent holds exactly when left and right nilpotent both hold"),
        ("nilpotent_type_three_way",
         "for braces of nilpotent type: annihilator nilpotent, left-and-right "
         "nilpotent, and strongly nilpotent are equivalent"),
        ("left_iff_multiplicative_nilpotent",
         "for finite braces of nilpotent type, left nilpotency holds exactly "
         "when the multiplicative group is nilpotent"),
        ("left_right_give_multiplicative_nilpotent",
         "a left and right nilpotent brace of nilpotent type has a nilpotent "
         "multiplicative group"),
        ("gamma_chain_nesting",
         "each gamma term lies in the bracketed gamma term of the same chain "
         "position, and consecutive bracketed terms nest as ideals"),
        ("right_series_within_socle_series",
         "when the socle series reaches the whole brace, the right series "
         "term of index i+1 lies in the socle term of complementary index"),
        ("strict_implication_witnesses",
         "within the census there are braces that are strongly nilpotent but "
         "not annihilator nilpotent, right but not strongly nilpotent, and "
         "left but not strongly nilpotent"),
    ),
    "hirsch": (
        ("right_nilpotent_generation",
         "in a right nilpotent brace, a sub-brace that spans B modulo B*B "
         "and absorbs star products from the right is the whole brace"),
        ("annihilator_nilpotent_generation",
         "in an annihilator nilpotent brace, a sub-brace that spans B modulo "
         "B*B is the whole brace; equivalently, surjectivity onto B/B*B "
         "lifts to surjectivity onto B"),
        ("lambda_orbit_transversal_generates",
         "in an annihilator nilpotent brace, any set containing one element "
         "from each lambda orbit generates the brace"),
    ),
    "radical": (
        ("maximal_subbraces_are_ideals",
         "in an annihilator nilpotent brace every maximal sub skew brace is "
         "an ideal"),
        ("radical_is_intersection_of_maximal_subbraces",
         "in an annihilator nilpotent brace the intersection of maximal "
         "ideals equals the intersection of maximal sub skew braces"),
        ("radical_within_every_maximal_ideal",
         "the radical lies in every maximal ideal"),
        ("subideal_chains_exist",
         "in an annihilator nilpotent brace every sub skew brace starts a "
         "chain of successive ideals reaching the whole brace, built by "
         "iterated idealizers"),
    ),
    "equivalence": (
        ("multipermutation_iff_right_nilpotent_of_nilpotent_type",
         "a solution is multipermutation exactly when its permutation brace "
         "is right nilpotent of nilpotent type"),
        ("involutive_brace_abelian_type",
         "the permutation brace of an involutive solution is of abelian type"),
        ("retraction_revalidates",
         "every retraction step of a catalog solution revalidates"),
        ("non_multipermutation_witness_present",
         "the exhaustive catalog contains at least one solution that is not "
         "multipermutation"),
    ),
    "census": (
        ("brace_counts",
         "the number of brace isomorphism classes at each order matches the "
         "expected census figures"),
        ("group_counts",
         "the number of group isomorphism classes at each order matches the "
         "classical figures"),
        ("order8_non_annihilator",
         "exactly two braces of order 8 are not annihilator nilpotent, and "
         "both are of abelian type"),
        ("double_method_agreement",
         "holomorph-based and direct-search enumeration agree on the brace "
         "count at every order where both run"),
    ),
}

# The three cases strict_implication_witnesses asks the census to witness.
_STRICT_CASES = ("strong_not_annihilator", "right_not_strong", "left_not_strong")


def _run_checks(
    name: str, batches: Iterable[list[tuple]], check: Callable, jobs: int
) -> tuple[dict[str, CheckResult], dict[str, list]]:
    """Map check over each batch of (witness, item) pairs and record each
    (claim_id, ok, witness, count) it yields in that claim's CheckResult.

    A yield whose id is not one of the suite's claims is not a tally: its
    witnesses are collected under that id, in item order, for the suite to
    read (the series check's _STRICT_CASES, say)."""
    checks = {claim_id: CheckResult(claim_id, statement) for claim_id, statement in _CLAIMS[name]}
    found: dict[str, list] = {}
    tally = partial(_tally, check)
    for batch in batches:
        for results in _pmap(tally, batch, jobs):
            for claim_id, ok, witness, count in results:
                if claim_id in checks:
                    checks[claim_id].record(ok, witness, count)
                else:
                    found.setdefault(claim_id, []).append(witness)
    return checks, found


def _tally(check: Callable, item: tuple[dict, object]) -> list[tuple]:
    """The instances check yields on one (witness, item) pair, as a list a
    --jobs worker can send back."""
    return list(check(*item))


def _check_axioms(witness: dict, b: SkewBrace) -> Iterator[tuple]:
    from .serialize import brace_from_json, brace_to_json

    try:
        again = brace_from_json(brace_to_json(b))
        ok = again.add.table == b.add.table and again.mul.table == b.mul.table
    except BraceLabError:
        ok = False
    yield "brace_axioms_revalidate", ok, witness, 1


def _check_identities(witness: dict, b: SkewBrace) -> Iterator[tuple]:
    violations = star_identity_violations(b)
    yield ("star_expansion_identities", not violations,
           {**witness, "violations": violations[:3]}, b.n**3)
    report = nilpotency_report(b)
    if report.annihilator.holds:
        rep = gamma_distributivity_check(b, report)
        yield ("bracket_chain_distributivity", not rep["counterexamples"],
               {**witness, "examples": rep["counterexamples"][:3]}, max(rep["checked"], 1))


def _check_series(witness: dict, b: SkewBrace) -> Iterator[tuple]:
    """A brace whose nilpotency_report raises is a routes failure and is
    skipped by every later claim.

    So implication_diagram, nilpotent_type_three_way and gamma_chain_nesting
    cannot fail: a brace that would refute one of them makes
    nilpotency_report raise CrossCheckFailed first, and it is counted under
    annihilator_routes_agree. The guards are, in nilpotency_report, "strong
    vs left-and-right disagree" and "annihilator nilpotent but not strongly
    nilpotent" (implication_diagram), "nilpotent type: annihilator vs strong
    disagree" with the first (nilpotent_type_three_way) and "gamma term
    escapes bracketed gamma term" (gamma_chain_nesting); and, in
    series(b, "gamma_bracket"), the member test that every term is an ideal
    and descending_chain's refusal of a term outside the one before (the
    rest of gamma_chain_nesting)."""
    try:
        rep = nilpotency_report(b)
    except BraceLabError as exc:
        yield "annihilator_routes_agree", False, {**witness, "error": str(exc)}, 1
        return
    yield "annihilator_routes_agree", True, witness, 1
    flags = classify_flags(b)
    left, right = rep.left.holds, rep.right.holds
    strong, ann = rep.strong.holds, rep.annihilator.holds
    yield ("implication_diagram", (not ann or strong) and strong == (left and right),
           witness, 1)
    if rep.nilpotent_type:
        yield "nilpotent_type_three_way", ann == strong == (left and right), witness, 1
        yield "left_iff_multiplicative_nilpotent", left == flags.mul_nilpotent, witness, 1
        if left and right:
            yield "left_right_give_multiplicative_nilpotent", flags.mul_nilpotent, witness, 1
    gam, gam_br = rep.gamma.chain, rep.gamma_bracket.chain
    for pos, term in enumerate(gam):
        if pos < len(gam_br):
            yield "gamma_chain_nesting", term <= gam_br[pos], witness, 1
    for pos in range(1, len(gam_br)):
        ok = gam_br[pos] <= gam_br[pos - 1] and is_ideal(b, gam_br[pos])
        yield "gamma_chain_nesting", ok, witness, 1
    soc = series(b, "socle")
    if soc.holds:
        right_chain = rep.right.chain
        m = len(soc.chain) - 1
        for idx in range(m + 1):
            term = right_chain[idx] if idx < len(right_chain) else right_chain[-1]
            yield "right_series_within_socle_series", term <= soc.chain[m - idx], witness, 1
    witnessed = (strong and not ann, right and not strong, left and not strong)
    for case, holds in zip(_STRICT_CASES, witnessed):
        if holds:
            yield case, True, witness, 0


def _check_hirsch(witness: dict, b: SkewBrace) -> Iterator[tuple]:
    """lambda_orbit_transversal_generates holds in every finite skew brace,
    annihilator nilpotent or not, so only a wrong generates can fail it: a
    proper sub-brace H cannot meet every lambda-orbit. If it did, B would be
    the union of the sets lambda_b(H). For h in H, lambda_h(H) = H, so
    lambda_b(H) depends only on the coset b o H, and there are at most
    |B|/|H| such sets. Each has |H| elements and holds 0, so together they
    hold at most |B| - |B|/|H| + 1 < |B| elements, a contradiction. The
    sub-brace a transversal generates meets every orbit, so it is B."""
    rep = nilpotency_report(b)
    b2 = star_sets(b)
    lattice = subbrace_lattice(b)
    add_t = b.add.table
    for s in lattice:
        spans = len({add_t[a][c] for a in s.indices() for c in b2.indices()}) == b.n
        wit = {**witness, "subbrace": s.indices()}
        if rep.right.holds and spans:
            star_into = all(
                b.star[a][x] in s for a in s.indices() for x in range(b.n)
            )
            if star_into:
                yield "right_nilpotent_generation", s.is_full(), wit, 1
        if rep.annihilator.holds and spans:
            yield "annihilator_nilpotent_generation", s.is_full(), wit, 1
    if rep.annihilator.holds:
        orbits = lambda_orbits(b)
        if prod(len(orbit) for orbit in orbits) <= TRANSVERSAL_BUDGET:
            transversals = iproduct(*orbits)
        else:
            transversals = ([orbit[0] for orbit in orbits],)
        for t in transversals:
            ok = generates(b, Subset.of(b.n, t))
            yield "lambda_orbit_transversal_generates", ok, {**witness, "transversal": list(t)}, 1


def _check_radical(witness: dict, b: SkewBrace) -> Iterator[tuple]:
    """radical_within_every_maximal_ideal holds by construction: the radical
    is the intersection of maximal_ideals(b, lattice), the very list it is
    checked against."""
    lattice = subbrace_lattice(b)
    rad = radical(b, lattice)
    for m in maximal_ideals(b, lattice):
        yield "radical_within_every_maximal_ideal", rad <= m, {**witness, "ideal": m.indices()}, 1
    if not nilpotency_report(b).annihilator.holds:
        return
    maxima = maximal_subbraces(lattice)
    for s in maxima:
        yield ("maximal_subbraces_are_ideals", is_ideal(b, s),
               {**witness, "subbrace": s.indices()}, 1)
    inter = Subset.full(b.n)
    for s in maxima:
        inter = inter & s
    yield "radical_is_intersection_of_maximal_subbraces", inter == rad, witness, 1
    for s in lattice:
        chain = subideal_chain(b, s, lattice)
        ok = chain is not None and all(
            is_ideal(b, chain[k], within=chain[k + 1])
            for k in range(len(chain) - 1)
        )
        yield "subideal_chains_exist", ok, {**witness, "subbrace": s.indices()}, 1


_CHECKS = {
    "axioms": _check_axioms,
    "identities": _check_identities,
    "series": _check_series,
    "hirsch": _check_hirsch,
    "radical": _check_radical,
}


def _check_solution(witness: dict, sol: Solution) -> Iterator[tuple]:
    """A catalog solution (its witness has an "index") also has its
    retraction steps checked, and names itself when it is not
    multipermutation."""
    try:
        rep = equivalence_check(sol)
    except BraceLabError as exc:
        yield ("multipermutation_iff_right_nilpotent_of_nilpotent_type", False,
               {**witness, "error": str(exc)}, 1)
        rep = None
    else:
        yield "multipermutation_iff_right_nilpotent_of_nilpotent_type", True, witness, 1
        if sol.involutive:
            yield "involutive_brace_abelian_type", rep["abelian_type"], witness, 1
    if "index" not in witness:
        return
    current, steps = sol, 0
    try:
        while current.n > 1:
            nxt, _ = retract(current)
            steps += 1
            if nxt.n == current.n:
                break
            current = nxt
    except BraceLabError as exc:
        yield "retraction_revalidates", False, {**witness, "error": str(exc)}, 1
    else:
        yield "retraction_revalidates", True, witness, max(steps, 1)
    if rep is not None and not rep["multipermutation"]:
        yield "non_multipermutation", True, witness, 0


# One row of `bracelab classify`: the catalog index, then classification_row.
CLASSIFY_COLUMNS = (
    "index", "n", "trivial", "two_sided", "abelian_type", "nilpotent_type",
    "add_class", "mul_nilpotent", "mul_class",
    "left", "left_class", "right", "right_class",
    "strong", "strong_class", "annihilator", "annihilator_class",
)


def classification_row(b: SkewBrace) -> dict:
    """The brace's classify_flags and its four nilpotency verdicts with their
    classes, keyed by every CLASSIFY_COLUMNS name but the index."""
    flags = classify_flags(b)
    rep = nilpotency_report(b)
    row = {
        "n": b.n,
        "trivial": flags.trivial,
        "two_sided": flags.two_sided,
        "abelian_type": flags.abelian_type,
        "nilpotent_type": flags.nilpotent_type,
        "add_class": flags.add_nilpotency_class,
        "mul_nilpotent": flags.mul_nilpotent,
        "mul_class": flags.mul_nilpotency_class,
    }
    for kind in VERDICTS:
        verdict = getattr(rep, kind)
        row[kind], row[f"{kind}_class"] = verdict.holds, verdict.cls
    return row


# Per order: the group and brace counts, then classification_row tallies.
CENSUS_CSV_COLUMNS = (
    "order",
    "groups",
    "braces",
    "trivial",
    "two_sided",
    "abelian_type",
    "nilpotent_type",
    "left",
    "right",
    "strong",
    "annihilator",
)


def _check_census(catalog_dir: Optional[Path], witness: dict, n: int) -> Iterator[tuple]:
    """Order n's brace and group counts, its two braces that are not
    annihilator nilpotent at order 8 and the direct search's count up to
    DIRECT_SEARCH_MAX_ORDER; then its CENSUS_CSV_COLUMNS row, as a "row"
    witness the suite collects."""
    cat = _catalog("braces", n, catalog_dir)
    groups = groups_of_order(n)
    if n in EXPECTED_GROUP_COUNTS:
        yield ("group_counts", len(groups) == EXPECTED_GROUP_COUNTS[n],
               {**witness, "got": len(groups)}, 1)
    if n in EXPECTED_BRACE_COUNTS:
        yield "brace_counts", len(cat) == EXPECTED_BRACE_COUNTS[n], {**witness, "got": len(cat)}, 1
    row = {c: 0 for c in CENSUS_CSV_COLUMNS}
    row.update(order=n, groups=len(groups), braces=len(cat))
    non_ann_abelian = []
    for b in cat.items:
        brace_row = classification_row(b)
        for c in CENSUS_CSV_COLUMNS[3:]:
            row[c] += brace_row[c]
        if not brace_row["annihilator"]:
            non_ann_abelian.append(brace_row["abelian_type"])
    if n == 8:
        yield ("order8_non_annihilator", len(non_ann_abelian) == 2 and all(non_ann_abelian),
               {"non_annihilator": len(non_ann_abelian)}, 1)
    if n <= DIRECT_SEARCH_MAX_ORDER:
        direct = _enumerate_braces_direct(n)
        yield ("double_method_agreement", len(direct) == len(cat),
               {**witness, "holomorph": len(cat), "direct": len(direct)}, 1)
    yield "row", True, row, 0


# ---------------------------------------------------------------------------
# CSV summaries


def write_report_csv(report: CampaignReport, path: str | Path) -> None:
    """Census reports get the per-order count table; other suites get one
    row per claim."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        if report.suite == "census":
            writer = csv.DictWriter(fh, fieldnames=CENSUS_CSV_COLUMNS)
            writer.writeheader()
            for row in report.tables:
                writer.writerow(row)
        else:
            writer = csv.writer(fh)
            writer.writerow(["suite", "claim_id", "instances", "failures"])
            for c in report.checks:
                writer.writerow([report.suite, c.claim_id, c.instances, c.failures])
