"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line. Run with `pytest tests/test_acceptance.py -v -s`.

All checks are exact set computations; there are no numeric tolerances.
The stretch census (orders 16 and 27) is opt-in via BRACELAB_STRETCH=1.
"""

import os
import time

import pytest

from bracelab.brace import classify_flags, from_zn_quadratic, star_identity_violations
from bracelab.campaigns import DEFAULT_SEED
from bracelab.enumeration import (
    _enumerate_braces_direct,
    enumerate_involutive_solutions,
    enumerate_skew_braces,
    sample_involutive_solutions,
)
from bracelab.groups import cyclic, isomorphic_groups
from bracelab.series import gamma_distributivity_check, nilpotency_report
from bracelab.subsets import Subset
from bracelab.substructures import (
    is_ideal,
    maximal_subbraces,
    radical,
    star_sets,
    subbrace_lattice,
)
from bracelab.ybe import equivalence_check, involutive_from_sigma, permutation_brace
from conftest import FIVE_POINT_SIGMA, series_digest
from oracles import direct_product, symmetric


@pytest.fixture(scope="module")
def census8():
    return {n: enumerate_skew_braces(n) for n in range(1, 9)}


@pytest.fixture(scope="module")
def reports8(census8):
    return {
        n: [nilpotency_report(b) for b in cat.items] for n, cat in census8.items()
    }


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, detail


def test_criterion_1_order8_census():
    started = time.monotonic()
    cat = enumerate_skew_braces(8)
    non_ann = [b for b in cat.items if not nilpotency_report(b).annihilator.holds]
    abelian = all(classify_flags(b).abelian_type for b in non_ann)
    elapsed = time.monotonic() - started
    ok = len(cat) == 47 and len(non_ann) == 2 and abelian and elapsed < 300
    verdict(
        1,
        ok,
        f"order-8 census: {len(cat)} classes, {len(non_ann)} not annihilator "
        f"nilpotent, abelian type {abelian}, {elapsed:.1f}s",
    )


def test_criterion_2_quadratic_brace():
    b = from_zn_quadratic(4, 2)
    rep = nilpotency_report(b)
    klein = direct_product(cyclic(2), cyclic(2))
    ok = (
        rep.annihilator.holds
        and isomorphic_groups(b.mul, klein) is not None
        and isomorphic_groups(b.add, cyclic(4)) is not None
    )
    verdict(
        2,
        ok,
        "x+y+2xy on Z/4: annihilator nilpotent with Klein multiplicative "
        "group and cyclic additive group",
    )


def test_criterion_3_five_point_solution():
    started = time.monotonic()
    sol = involutive_from_sigma(FIVE_POINT_SIGMA)
    from bracelab.ybe import multipermutation_level

    level = multipermutation_level(sol)
    brace, _ = permutation_brace(sol)
    rep = nilpotency_report(brace)
    ok = (
        level is not None
        and brace.n == 6
        and isomorphic_groups(brace.add, cyclic(6)) is not None
        and isomorphic_groups(brace.mul, symmetric(3)) is not None
        and rep.right.holds
        and not rep.left.holds
    )
    verdict(
        3,
        ok,
        f"five-point solution: level {level}, brace size {brace.n}, additive "
        f"Z/6 and multiplicative Sym(3), right but not left nilpotent "
        f"({time.monotonic() - started:.1f}s)",
    )


def test_criterion_4_equivalence_theorem():
    started = time.monotonic()
    failures = 0
    checked = 0
    for n in range(1, 5):
        for sol in enumerate_involutive_solutions(n).items:
            checked += 1
            equivalence_check(sol)  # raises CrossCheckFailed on failure
    sampled = sample_involutive_solutions(5, 1000, seed=DEFAULT_SEED)
    assert len(sampled) == 1000
    for sol in sampled:
        checked += 1
        equivalence_check(sol)
    elapsed = time.monotonic() - started
    ok = failures == 0 and elapsed < 600
    verdict(
        4,
        ok,
        f"equivalence theorem on {checked} solutions (census of sizes 1..4 "
        f"plus 1000 seeded size-5 samples), 0 violations, {elapsed:.1f}s",
    )


def test_criterion_5_nilpotency_consistency(census8, reports8):
    # nilpotency_report itself raises CrossCheckFailed if the three
    # annihilator routes ever disagree, so building reports8 is the check
    disagreements = 0
    for n, reps in reports8.items():
        for rep in reps:
            if rep.nilpotent_type:
                three = (
                    rep.annihilator.holds
                    == (rep.left.holds and rep.right.holds)
                    == rep.strong.holds
                )
                disagreements += 0 if three else 1
    total = sum(len(r) for r in reports8.values())
    ok = disagreements == 0
    verdict(
        5,
        ok,
        f"three annihilator routes agree on all {total} census braces; "
        f"nilpotent-type three-way equivalence has {disagreements} disagreements",
    )


def test_criterion_6_hirsch_analogues(census8, reports8):
    started = time.monotonic()
    counterexamples = 0
    pairs = 0
    for n, cat in census8.items():
        for b, rep in zip(cat.items, reports8[n]):
            b2 = star_sets(b)
            add_t = b.add.table
            for a in subbrace_lattice(b):
                span = {add_t[x][y] for x in a.indices() for y in b2.indices()}
                if len(span) != b.n:
                    continue
                if rep.right.holds:
                    absorbs = all(
                        b.star[x][y] in a for x in a.indices() for y in range(b.n)
                    )
                    if absorbs:
                        pairs += 1
                        counterexamples += 0 if a.is_full() else 1
                if rep.annihilator.holds:
                    pairs += 1
                    counterexamples += 0 if a.is_full() else 1
    elapsed = time.monotonic() - started
    ok = counterexamples == 0 and elapsed < 600
    verdict(
        6,
        ok,
        f"generation theorems on {pairs} qualifying (brace, sub-brace) pairs "
        f"over the order<=8 census: {counterexamples} counterexamples, "
        f"{elapsed:.1f}s",
    )


def test_criterion_7_radical_corollary(census8, reports8):
    counterexamples = 0
    braces_checked = 0
    for n, cat in census8.items():
        for b, rep in zip(cat.items, reports8[n]):
            if not rep.annihilator.holds:
                continue
            braces_checked += 1
            lattice = subbrace_lattice(b)
            maxima = maximal_subbraces(lattice)
            if not all(is_ideal(b, s) for s in maxima):
                counterexamples += 1
                continue
            inter = Subset.full(b.n)
            for s in maxima:
                inter = inter & s
            if inter != radical(b, lattice):
                counterexamples += 1
    ok = counterexamples == 0
    verdict(
        7,
        ok,
        f"radical corollary on {braces_checked} annihilator nilpotent census "
        f"braces: {counterexamples} counterexamples",
    )


def test_criterion_8_identity_suites(census8, reports8):
    star_failures = 0
    distrib_failures = 0
    triples = 0
    for n, cat in census8.items():
        for b, rep in zip(cat.items, reports8[n]):
            violations = star_identity_violations(b)
            star_failures += len(violations)
            triples += b.n**3
            if rep.annihilator.holds:
                out = gamma_distributivity_check(b, rep)
                distrib_failures += len(out["counterexamples"])
                triples += out["checked"]
    ok = star_failures == 0 and distrib_failures == 0
    verdict(
        8,
        ok,
        f"star expansion and distributivity identities over {triples} triples: "
        f"{star_failures + distrib_failures} counterexamples",
    )


def test_criterion_9_double_method_agreement():
    mismatches = []
    for n in range(1, 7):
        h = len(enumerate_skew_braces(n))
        d = len(_enumerate_braces_direct(n))
        if h != d:
            mismatches.append((n, h, d))
    ok = not mismatches
    verdict(
        9,
        ok,
        f"holomorph and direct enumeration agree at orders 1..6 "
        f"(mismatches: {mismatches})",
    )


# series_digest pinned at the commit before the socle and annihilator terms
# were pulled back without quotient braces; recomputed at 62da773 with the
# report's cross_checks field, since removed, left out of its JSON
STRETCH_SERIES_DIGESTS = {
    16: "6a47eaeab1416ce83f2f1ff5ae99fda9e61791bb781e4582196c21664a438a3d",
    27: "26304a1d2d37b1e63532f805d8e92ff3a760593a496504f1d73f4e31d66e4338",
}


@pytest.mark.skipif(
    not os.environ.get("BRACELAB_STRETCH"),
    reason="stretch census, about 25 s on a 2-vCPU machine; set BRACELAB_STRETCH=1 to run",
)
@pytest.mark.parametrize(
    "order,total,non_ann",
    [(16, 1605, 40), (27, 101, 4)],
)
def test_criterion_10_stretch_census(order, total, non_ann, tmp_path):
    cat = enumerate_skew_braces(order, checkpoint=str(tmp_path / f"braces{order}.ckpt"))
    got_non_ann = sum(
        1 for b in cat.items if not nilpotency_report(b).annihilator.holds
    )
    pinned = series_digest(cat.items) == STRETCH_SERIES_DIGESTS[order]
    ok = len(cat) == total and got_non_ann == non_ann and pinned
    verdict(
        10,
        ok,
        f"order-{order} census: {len(cat)} classes ({total} expected), "
        f"{got_non_ann} not annihilator nilpotent ({non_ann} expected), "
        f"series digest {'pinned' if pinned else 'changed'}",
    )
