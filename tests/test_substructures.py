import gzip
import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from bracelab import groups
from bracelab.brace import brace_from_tables, classify_flags, from_group_trivial, lambda_orbits
from bracelab.enumeration import enumerate_skew_braces
from bracelab.errors import BraceLabError, BudgetExceeded, NotASubBrace
from bracelab.groups import closure_mask, commutator_products, cyclic
from bracelab.serialize import read_catalog
from bracelab.subsets import Subset
from bracelab.substructures import (
    generates,
    idealizer,
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
from oracles import invariant_substructures, is_normal, relabeled


def full(b):
    return Subset.full(b.n)


def _order_two_subbrace(b):
    """The sub-brace {0, a} with a of order two under both operations."""
    (a,) = [
        x for x in range(1, b.n)
        if b.add.element_orders[x] == 2 and b.mul.element_orders[x] == 2
    ]
    return Subset.of(b.n, [0, a])


def test_subbrace_closure_examples(z4_quadratic):
    b = z4_quadratic
    assert subbrace_closure(b, Subset(4, 0)).indices() == [0]
    assert subbrace_closure(b, Subset.of(4, [2])).indices() == [0, 2]
    assert subbrace_closure(b, Subset.of(4, [1])).indices() == [0, 1, 2, 3]


def test_is_ideal_examples(z4_quadratic, five_point_brace):
    b = z4_quadratic
    assert is_ideal(b, Subset.zero(4))
    assert is_ideal(b, full(b))
    assert is_ideal(b, Subset.of(4, [0, 2]))
    # the order-2 sub-brace of the five-point solution brace is a non-normal
    # multiplicative subgroup of Sym(3): conjugation escapes it
    fp = five_point_brace
    sub = _order_two_subbrace(fp)
    assert not is_ideal(fp, sub)
    assert is_left_ideal(fp, sub) and not is_normal(fp.mul, sub)


def test_star_sets_examples(z4_quadratic, trivial_s3, braces_up_to_8, tmp_path):
    assert star_sets(z4_quadratic).indices() == [0, 2]
    assert star_sets(trivial_s3).indices() == [0]
    # B*B is the additive span of every star product; the products alone
    # are not closed under + on 22 braces of the order-24 catalog
    catalog = tmp_path / "braces-24.jsonl"
    catalog.write_bytes(gzip.decompress((BENCH_DATA / "braces-24.jsonl.gz").read_bytes()))
    for b in braces_up_to_8 + read_catalog(catalog).items:
        products = sum(1 << v for v in {v for row in b.star for v in row})
        assert star_sets(b).mask == _fixpoint_closure((b.add.table,), products)


def _commutator(g, xs, ys):
    """Subgroup of g generated by the commutators [x, y], x in xs, y in ys."""
    return Subset(g.n, closure_mask((g.table,), commutator_products(g, xs, ys)))


def test_commutator_examples(z4_quadratic, five_point_brace):
    b = z4_quadratic
    assert _commutator(b.add, full(b), full(b)).indices() == [0]  # abelian
    assert _commutator(b.mul, Subset.zero(4), full(b)).indices() == [0]
    # derived subgroup of Sym(3) has order 3
    fp = five_point_brace
    derived = _commutator(fp.mul, full(fp), full(fp))
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
        assert is_ideal(b, inv.soc)
        assert is_ideal(b, inv.ann)
        assert is_ideal(b, inv.ker_lambda)
        assert is_left_ideal(b, inv.fix)


def test_lattice_examples(z4_quadratic):
    one = from_group_trivial(cyclic(1))
    assert [s.indices() for s in subbrace_lattice(one)] == [[0]]
    assert radical(one, subbrace_lattice(one)).is_full()

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
    assert [s.indices() for s in maximal_ideals(b, lattice)] == [[0, 2]]
    assert radical(b, lattice).indices() == [0, 2]


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
    assert len(big.add.subgroups) == 3  # kept on the table from here on
    monkeypatch.delenv("BRACELAB_BUDGET")
    with pytest.raises(BudgetExceeded):
        subbrace_lattice(big)


def test_group_facts_are_computed_once_per_table(braces_up_to_12, monkeypatch):
    # an emptied memo makes verify_group build new tables with no fact computed
    groups._verified.cache_clear()
    braces = [brace_from_tables(b.add.table, b.mul.table) for b in braces_up_to_12]
    calls = {"subgroup_lattice": Counter(), "lower_central_series": Counter()}
    for name, counter in calls.items():
        def counted(g, kernel=getattr(groups, name), counter=counter):
            counter[id(g)] += 1
            return kernel(g)
        monkeypatch.setattr(groups, name, counted)

    def one_pass():
        for counter in calls.values():
            counter.clear()
        for b in braces:
            classify_flags(b)
            subbrace_lattice(b)
        return {name: dict(counter) for name, counter in calls.items()}

    adds = {id(b.add): 1 for b in braces}
    both = {**adds, **{id(b.mul): 1 for b in braces}}
    assert one_pass() == {"subgroup_lattice": adds, "lower_central_series": both}
    assert one_pass() == {"subgroup_lattice": {}, "lower_central_series": {}}


def test_relabeled_brace_gets_the_relabeled_lattice(braces_up_to_8):
    rng = random.Random(20170612)
    for b in braces_up_to_8:
        relabel = tuple([0] + rng.sample(range(1, b.n), b.n - 1))
        moved = relabeled(b, relabel)
        expected = sorted(
            (Subset.of(b.n, (relabel[x] for x in s.indices())) for s in subbrace_lattice(b)),
            key=lambda s: (len(s), s.mask),
        )
        assert subbrace_lattice(moved) == expected


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


def test_generates_matches_fixpoint_on_every_subset():
    # the hirsch suite's transversal claim holds for every finite skew brace
    # (see campaigns._check_hirsch), so its reports cannot tell generates
    # from a constant; this does, on every subset of the braces of order <= 6
    seen = set()
    for n in range(1, 7):
        for b in enumerate_skew_braces(n).items:
            for mask in range(1 << n):
                want = _fixpoint_closure((b.add.table, b.mul.table), mask) == (1 << n) - 1
                assert generates(b, Subset(n, mask)) == want
                seen.add(want)
    assert seen == {True, False}


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
         [b.add.nilpotency_class, b.mul.nilpotency_class]]
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
    lattice = subbrace_lattice(b)
    assert radical(b, lattice).indices() == [0]
    assert radical(b, lattice) <= maximal_ideals(b, lattice)[0]


def test_idealizer(five_point_brace):
    fp = five_point_brace
    lattice = subbrace_lattice(fp)
    assert idealizer(fp, full(fp), lattice).is_full()
    assert idealizer(fp, Subset.zero(6), lattice).is_full()
    sub = _order_two_subbrace(fp)
    assert is_subbrace(fp, sub)
    assert idealizer(fp, sub, lattice) == sub
    not_closed = next(
        a for a in range(1, 6) if fp.add.element_orders[a] == 6 and fp.mul.element_orders[a] == 2
    )
    with pytest.raises(NotASubBrace):
        idealizer(fp, Subset.of(6, [0, not_closed]), lattice)


def test_subideal_chains(z4_quadratic, five_point_brace):
    chain = subideal_chain(z4_quadratic, Subset.zero(4), subbrace_lattice(z4_quadratic))
    assert chain is not None and chain[-1].is_full()
    # the five-point brace is not annihilator nilpotent: a proper sub-brace
    # can coincide with its idealizer
    fp = five_point_brace
    assert subideal_chain(fp, _order_two_subbrace(fp), subbrace_lattice(fp)) is None


def test_lambda_orbits_and_generates(z4_quadratic, trivial_s3):
    t = trivial_s3
    assert lambda_orbits(t) == [[x] for x in range(6)]
    b = z4_quadratic
    assert lambda_orbits(b) == [[0], [1, 3], [2]]
    assert generates(b, Subset.of(4, [1]))
    assert not generates(b, Subset.of(4, [2]))


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
            assert is_ideal(b, h) == _is_ideal_of(b, members, set(range(b.n)))
            for s in lattice:
                expected = _is_ideal_of(b, members, set(s.indices()))
                assert is_ideal(b, h, within=s) == expected


def _is_left_ideal_of(b, h):
    """h is a left ideal of b, straight from the definition."""
    add, mul, neg = b.add.table, b.mul.table, b.add.inv
    return (
        0 in h
        and all(add[x][y] in h for x in h for y in h)
        and all(add[neg[a]][mul[a][x]] in h for a in range(b.n) for x in h)
    )


def test_ideal_tests_on_generators_match_definition(braces_up_to_8, braces_24):
    # without within, is_ideal and is_left_ideal test only generators; the
    # definition tests every a: every additive subgroup of the small braces,
    # every sub-brace of the order-24 catalog
    cases = [(b, Subset(b.n, m)) for b in braces_up_to_8 for m, _ in b.add.subgroups]
    cases += [(b, s) for b in braces_24 for s in subbrace_lattice(b)]
    seen = Counter()
    for b, s in cases:
        members = set(s.indices())
        ideal = _is_ideal_of(b, members, set(range(b.n)))
        left = _is_left_ideal_of(b, members)
        assert (is_ideal(b, s), is_left_ideal(b, s)) == (ideal, left)
        seen[ideal, left] += 1
    assert set(seen) == {(True, True), (False, True), (False, False)}


def test_maximal_ideals_match_definition(braces_up_to_12):
    for b in braces_up_to_12:
        lattice = subbrace_lattice(b)
        proper = [s for s in lattice if not s.is_full() and is_ideal(b, s)]
        expected = [s for s in proper if not any(s < t for t in proper)]
        assert maximal_ideals(b, lattice) == expected
