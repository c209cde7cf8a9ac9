import gzip
import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from bracelab.brace import from_group_trivial, lambda_orbits, relabeled
from bracelab.enumeration import enumerate_skew_braces
from bracelab.errors import BraceLabError, BudgetExceeded, NotASubBrace
from bracelab.groups import closure_mask, cyclic, nilpotency_class, subgroup_lattice
from bracelab.serialize import read_catalog
from bracelab.subsets import Subset
from bracelab.substructures import (
    commutator,
    generates,
    ideal_generated,
    idealizer,
    invariant_substructures,
    is_ideal,
    is_left_ideal,
    is_subbrace,
    maximal_ideals,
    radical,
    star_sets,
    subbrace_closure,
    subbrace_lattice,
    subideal_chain,
)


def full(b):
    return Subset.full(b.n)


def _order_two_subbrace(b):
    """The sub-brace {0, a} with a of order two under both operations."""
    (a,) = [
        x for x in range(1, b.n)
        if b.add.order_of(x) == 2 and b.mul.order_of(x) == 2
    ]
    return Subset.of(b.n, [0, a])


def test_subbrace_closure_examples(z4_quadratic):
    b = z4_quadratic
    assert subbrace_closure(b, Subset.empty(4)).indices() == [0]
    assert subbrace_closure(b, Subset.of(4, [2])).indices() == [0, 2]
    assert subbrace_closure(b, Subset.of(4, [1])).indices() == [0, 1, 2, 3]


def test_is_ideal_examples(z4_quadratic, five_point_brace):
    b = z4_quadratic
    assert is_ideal(b, Subset.zero(4)).ok
    assert is_ideal(b, full(b)).ok
    assert is_ideal(b, Subset.of(4, [0, 2])).ok
    # the order-2 sub-brace of the five-point solution brace is a non-normal
    # multiplicative subgroup of Sym(3): conjugation escapes it
    fp = five_point_brace
    sub = _order_two_subbrace(fp)
    verdict = is_ideal(fp, sub)
    assert not verdict.ok
    assert verdict.condition in ("add_normal", "mul_normal", "lambda_invariant")
    assert verdict.witness is not None


def test_ideal_generated(z4_quadratic, five_point_brace):
    b = z4_quadratic
    assert ideal_generated(b, Subset.empty(4)).indices() == [0]
    assert ideal_generated(b, Subset.of(4, [2])).indices() == [0, 2]
    # an additive generator forces the whole brace
    fp = five_point_brace
    gen = next(a for a in range(6) if fp.add.order_of(a) == 6)
    assert ideal_generated(fp, Subset.of(6, [gen])).is_full()


def test_star_sets_examples(z4_quadratic, trivial_s3):
    b = z4_quadratic
    assert star_sets(b, Subset.zero(4), full(b)).indices() == [0]
    assert star_sets(b, full(b), Subset.zero(4)).indices() == [0]
    assert star_sets(b, full(b), full(b)).indices() == [0, 2]
    t = trivial_s3
    assert star_sets(t, full(t), full(t)).indices() == [0]


def test_commutator_examples(z4_quadratic, five_point_brace):
    b = z4_quadratic
    assert commutator(b, full(b), full(b), "+").indices() == [0]  # abelian
    assert commutator(b, Subset.zero(4), full(b), "o").indices() == [0]
    # derived subgroup of Sym(3) has order 3
    fp = five_point_brace
    derived = commutator(fp, full(fp), full(fp), "o")
    assert len(derived) == 3


def test_invariant_substructures_examples(z4_quadratic, five_point_brace):
    triv = from_group_trivial(cyclic(6))
    inv = invariant_substructures(triv)
    assert all(
        s.is_full() for s in (inv.z_add, inv.z_mul, inv.ker_lambda, inv.fix, inv.soc, inv.ann)
    )
    inv = invariant_substructures(z4_quadratic)
    assert inv.soc.indices() == [0, 2]
    assert inv.fix.indices() == [0, 2]
    assert inv.ann.indices() == [0, 2]
    inv = invariant_substructures(five_point_brace)
    assert inv.ann.indices() == [0]


def test_soc_ann_ker_are_ideals_fix_left_ideal(z4_quadratic, trivial_s3, five_point_brace):
    for b in (z4_quadratic, trivial_s3, five_point_brace):
        inv = invariant_substructures(b)
        assert is_ideal(b, inv.soc).ok
        assert is_ideal(b, inv.ann).ok
        assert is_ideal(b, inv.ker_lambda).ok
        assert is_left_ideal(b, inv.fix)


def test_lattice_examples(z4_quadratic):
    one = from_group_trivial(cyclic(1))
    assert [s.indices() for s in subbrace_lattice(one)] == [[0]]
    assert radical(one).is_full()

    b = z4_quadratic
    lattice = subbrace_lattice(b)
    assert [s.indices() for s in lattice] == [[0], [0, 2], [0, 1, 2, 3]]
    # oracle: check all 16 subsets directly
    brute = []
    for mask in range(1, 16):
        s = Subset(4, mask)
        if 0 in s and is_subbrace(b, s):
            brute.append(s.indices())
    assert sorted(brute) == sorted(s.indices() for s in lattice)
    assert [s.indices() for s in maximal_ideals(b)] == [[0, 2]]
    assert radical(b).indices() == [0, 2]


def test_lattice_budget_guard(monkeypatch):
    big = from_group_trivial(cyclic(49))
    with pytest.raises(BudgetExceeded):
        subbrace_lattice(big)
    monkeypatch.setenv("BRACELAB_BUDGET", "49")
    assert len(subbrace_lattice(big)) == 3  # {0}, the 7-element subgroup, B


def test_lattice_budget_guard_holds_for_a_cached_table(monkeypatch):
    big = from_group_trivial(cyclic(49))
    monkeypatch.setenv("BRACELAB_BUDGET", "49")
    subbrace_lattice(big)
    monkeypatch.delenv("BRACELAB_BUDGET")
    hits = subgroup_lattice.cache_info().hits
    with pytest.raises(BudgetExceeded):
        subbrace_lattice(big)
    assert subgroup_lattice.cache_info().hits == hits


def test_relabeled_brace_gets_the_relabeled_lattice(braces_up_to_8):
    rng = random.Random(20170612)
    for b in braces_up_to_8:
        relabel = tuple([0] + rng.sample(range(1, b.n), b.n - 1))
        moved = relabeled(b, relabel)
        subgroup_lattice.cache_clear()
        expected = sorted(
            (Subset.of(b.n, (relabel[x] for x in s.indices())) for s in subbrace_lattice(b)),
            key=lambda s: (len(s), s.mask),
        )
        assert subbrace_lattice(moved) == expected
        # a relabeling that moves the additive table misses the entry of b's
        assert subgroup_lattice.cache_info().misses == (1 if moved.add == b.add else 2)


@pytest.mark.parametrize("value", ["abc", "0", "-3", "4.5"])
def test_malformed_budget_is_rejected(monkeypatch, value):
    monkeypatch.setenv("BRACELAB_BUDGET", value)
    with pytest.raises(BraceLabError, match="BRACELAB_BUDGET"):
        subbrace_lattice(from_group_trivial(cyclic(2)))


def _fixpoint_closure(tables, mask):
    """Oracle: add every product of members until nothing changes."""
    mask |= 1
    while True:
        members = [i for i in range(len(tables[0])) if mask >> i & 1]
        grown = mask
        for t in tables:
            for a in members:
                for c in members:
                    grown |= 1 << t[a][c]
        if grown == mask:
            return mask
        mask = grown


@pytest.mark.parametrize("n", range(1, 7))
def test_closure_mask_matches_fixpoint_on_every_subset(n):
    for b in enumerate_skew_braces(n).items:
        for tables in ((b.add.table,), (b.mul.table,), (b.add.table, b.mul.table)):
            for mask in range(1 << n):
                assert closure_mask(tables, mask) == _fixpoint_closure(tables, mask)


@pytest.mark.parametrize("n", range(1, 7))
def test_seeded_closure_matches_fixpoint_from_every_lattice_member(n):
    for b in enumerate_skew_braces(n).items:
        for c in subbrace_lattice(b):
            free = [x for x in range(n) if x not in c]
            masks = [
                c.mask | sum(1 << x for i, x in enumerate(free) if k >> i & 1)
                for k in range(1 << len(free))
            ]
            for tables in ((b.add.table,), (b.mul.table,), (b.add.table, b.mul.table)):
                for mask in masks:
                    assert closure_mask(tables, mask, c.mask) == _fixpoint_closure(tables, mask)


def test_lattice_is_every_subbrace(braces_up_to_8):
    for b in braces_up_to_8:
        subsets = (Subset(b.n, m) for m in range(1, 1 << b.n, 2))
        brute = sorted((s for s in subsets if is_subbrace(b, s)), key=lambda s: (len(s), s.mask))
        assert subbrace_lattice(b) == brute


BENCH_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def test_lattice_and_radical_sizes_match_order_24_reference(tmp_path):
    catalog = tmp_path / "braces-24.jsonl"
    catalog.write_bytes(gzip.decompress((BENCH_DATA / "braces-24.jsonl.gz").read_bytes()))
    reference = json.loads((BENCH_DATA / "analyze-24-reference.json").read_text())
    lattice_col = reference["fields"].index("lattice")
    radical_col = reference["fields"].index("radical")
    braces = read_catalog(catalog).items
    assert len(braces) == len(reference["rows"]) == 855
    for b, row in zip(braces, reference["rows"]):
        lattice = subbrace_lattice(b)
        assert (len(lattice), len(radical(b, lattice))) == (row[lattice_col], row[radical_col])


# sha256 of each brace's lattice masks and (add, mul) nilpotency classes,
# pinned at the commit before the lattice became a filter of Sub(B,+)
LATTICES_UP_TO_12_DIGEST = "697b8036e051db008cee245e2e10d6a2c65ccf3d63b7fbfc1e5027816ea20ceb"
LATTICES_24_DIGEST = "919509728cdee898623a049f14c3a03da2ccc421303dc5ed07afcdce62da404a"


def _lattice_digest(braces):
    answers = [
        [[s.mask for s in subbrace_lattice(b)],
         [nilpotency_class(b.add), nilpotency_class(b.mul)]]
        for b in braces
    ]
    return hashlib.sha256(json.dumps(answers).encode()).hexdigest()


def test_lattices_and_classes_are_pinned(braces_up_to_12, tmp_path):
    assert _lattice_digest(braces_up_to_12) == LATTICES_UP_TO_12_DIGEST
    catalog = tmp_path / "braces-24.jsonl"
    catalog.write_bytes(gzip.decompress((BENCH_DATA / "braces-24.jsonl.gz").read_bytes()))
    assert _lattice_digest(read_catalog(catalog).items) == LATTICES_24_DIGEST


def test_radical_of_trivial_prime_brace():
    b = from_group_trivial(cyclic(5))
    assert radical(b).indices() == [0]
    assert radical(b) <= maximal_ideals(b)[0]


def test_idealizer(five_point_brace):
    fp = five_point_brace
    assert idealizer(fp, full(fp)).is_full()
    assert idealizer(fp, Subset.zero(6)).is_full()
    sub = _order_two_subbrace(fp)
    assert is_subbrace(fp, sub)
    assert idealizer(fp, sub) == sub
    not_closed = next(
        a for a in range(1, 6) if fp.add.order_of(a) == 6 and fp.mul.order_of(a) == 2
    )
    with pytest.raises(NotASubBrace):
        idealizer(fp, Subset.of(6, [0, not_closed]))


def test_subideal_chains(z4_quadratic, five_point_brace):
    chain = subideal_chain(z4_quadratic, Subset.zero(4))
    assert chain is not None and chain[-1].is_full()
    # the five-point brace is not annihilator nilpotent: a proper sub-brace
    # can coincide with its idealizer
    fp = five_point_brace
    assert subideal_chain(fp, _order_two_subbrace(fp)) is None


def test_lambda_orbits_and_generates(z4_quadratic, trivial_s3):
    t = trivial_s3
    assert lambda_orbits(t) == [[x] for x in range(6)]
    b = z4_quadratic
    assert lambda_orbits(b) == [[0], [1, 3], [2]]
    assert generates(b, Subset.of(4, [1]))
    assert not generates(b, Subset.of(4, [2]))


def test_ideal_generated_is_least(z4_quadratic, five_point_brace):
    # brute force: intersect all ideals containing the seed
    for b in (z4_quadratic, five_point_brace):
        all_ideals = [
            Subset(b.n, m) for m in range(1, 1 << b.n, 2) if is_ideal(b, Subset(b.n, m))
        ]
        for seed_size in (1, 2):
            for seed in combinations(range(1, b.n), seed_size):
                s = Subset.of(b.n, seed)
                least = ideal_generated(b, s)
                containing = [i for i in all_ideals if s <= i]
                expected = Subset.full(b.n)
                for i in containing:
                    expected = expected & i
                assert least == expected


def _is_ideal_of(b, h, s):
    """h is an ideal of the sub skew brace s, straight from the definition."""
    add, mul = b.add.table, b.mul.table
    neg, minv = b.add.inv, b.mul.inv
    return (
        h <= s
        and all(add[x][y] in h for x in h for y in h)
        and all(add[neg[a]][mul[a][x]] in h for a in s for x in h)
        and all(add[add[a][x]][neg[a]] in h for a in s for x in h)
        and all(mul[mul[a][x]][minv[a]] in h for a in s for x in h)
    )


def test_is_ideal_within_matches_definition_on_lattice_pairs(braces_up_to_8):
    for b in braces_up_to_8:
        lattice = subbrace_lattice(b)
        for h in lattice:
            members = set(h.indices())
            assert is_ideal(b, h).ok == _is_ideal_of(b, members, set(range(b.n)))
            for s in lattice:
                expected = _is_ideal_of(b, members, set(s.indices()))
                assert is_ideal(b, h, within=s).ok == expected


def test_maximal_ideals_match_definition(braces_up_to_12):
    for b in braces_up_to_12:
        lattice = subbrace_lattice(b)
        proper = [s for s in lattice if not s.is_full() and is_ideal(b, s)]
        expected = [s for s in proper if not any(s < t for t in proper)]
        assert maximal_ideals(b, lattice) == expected
        assert maximal_ideals(b) == expected
