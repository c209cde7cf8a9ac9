import functools
import gzip
import hashlib
import json
import operator
import random
from itertools import permutations, product
from pathlib import Path

import pytest

from bracelab import enumeration
from bracelab.brace import isomorphic
from bracelab.enumeration import (
    DIRECT_SEARCH_MAX_ORDER,
    EXPECTED_GROUP_COUNTS,
    _checkpoint_header,
    _cyclic_extensions,
    _enumerate_braces_direct,
    _groups_of_order,
    _involutive_families,
    _isomorphism_classes,
    _primes_dividing,
    _search_tables,
    brace_from_lambda_map,
    dedup_braces,
    enumerate_involutive_solutions,
    enumerate_skew_braces,
    groups_of_order,
    reduce_by_aut_conjugation,
    regular_subgroups,
    sample_involutive_solutions,
)
from bracelab.errors import BraceLabError, BudgetExceeded, CrossCheckFailed
from bracelab.groups import (
    all_automorphisms,
    automorphism_group,
    cyclic,
    isomorphic_groups,
    verify_group,
)
from bracelab.perms import all_perms, compose, invert, perm_order
from bracelab.serialize import write_catalog
from bracelab.ybe import involutive_from_sigma, multipermutation_level, verify_solution
from oracles import dihedral, direct_product, quaternion8, unpruned_cyclic_extensions


def brute_force_group_tables(n):
    """All group tables with identity 0, by row backtracking (independent of
    the extension construction)."""
    rows = [list(range(n))]
    tables = []

    def fill(a):
        if a == n:
            try:
                tables.append(verify_group([list(r) for r in rows]))
            except BraceLabError:
                pass
            return
        cols = list(zip(*rows))
        for p in permutations(range(n)):
            if p[0] != a:
                continue
            if any(p[j] in cols[j] for j in range(n)):
                continue
            rows.append(list(p))
            fill(a + 1)
            rows.pop()

    fill(1)
    return tables


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_group_counts_against_brute_force(n):
    catalog = groups_of_order(n)
    brute = brute_force_group_tables(n)
    distinct = []
    for g in brute:
        if not any(isomorphic_groups(g, h) is not None for h in distinct):
            distinct.append(g)
    assert len(catalog) == len(distinct) == EXPECTED_GROUP_COUNTS[n]


def test_groups_of_order_eight_matches_explicit_list():
    cat = groups_of_order(8)
    explicit = [
        cyclic(8),
        direct_product(cyclic(4), cyclic(2)),
        direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2)),
        dihedral(4),
        quaternion8(),
    ]
    # pairwise non-isomorphic
    for i in range(5):
        for j in range(i + 1, 5):
            assert isomorphic_groups(explicit[i], explicit[j]) is None
    assert len(cat) == 5
    for g in cat.items:
        assert sum(1 for h in explicit if isomorphic_groups(g, h) is not None) == 1


# sha256 of [[g.table for g in _groups_of_order(n)] for n = 1..24], pinned
# before the group census went through the isomorphism-class kernel; the
# checkpoint headers hash these tables, so old checkpoints resume only while
# this holds
GROUP_CENSUS_UP_TO_24_DIGEST = "f1985a336defbef4ab3dcab00aa3736122baed703c8c5cc16aee8af7b0f77dcb"


def test_group_census_tables_are_pinned():
    tables = [[g.table for g in _groups_of_order(n)] for n in range(1, 25)]
    assert hashlib.sha256(json.dumps(tables).encode()).hexdigest() == GROUP_CENSUS_UP_TO_24_DIGEST


@pytest.mark.parametrize("n", range(2, 31))
def test_group_census_orbit_rule_loses_no_class(n):
    # the candidates of every (alpha, z), orbit rule or not, reduce to the
    # census's own groups in its own order, and each is one of them
    candidates = [
        verify_group(table)
        for p in _primes_dividing(n)
        for base in _groups_of_order(n // p)
        for table in unpruned_cyclic_extensions(base, p)
    ]
    census = _groups_of_order(n)
    classes = _isomorphism_classes(
        candidates, operator.attrgetter("element_orders"), isomorphic_groups
    )
    assert [g.table for g in classes] == [g.table for g in census]
    for g in candidates:
        assert any(isomorphic_groups(g, h) is not None for h in census)


# Candidates the group census builds at three orders, and the
# isomorphic_groups calls of _groups_of_order(24) from a cold cache, which
# rebuilds every order it recurses through. Without the orbit rule of
# _cyclic_extensions these were 184, 304 and 48 candidates and 323 calls.
GROUP_CENSUS_CANDIDATES = {16: 48, 24: 77, 27: 11}
COLD_GROUP_CENSUS_24_ISOMORPHISM_CALLS = 79


def test_group_census_work_counts(monkeypatch):
    built = {
        n: sum(
            1
            for p in _primes_dividing(n)
            for base in _groups_of_order(n // p)
            for _ in _cyclic_extensions(base, p)
        )
        for n in GROUP_CENSUS_CANDIDATES
    }
    assert built == GROUP_CENSUS_CANDIDATES
    calls = []

    def counted(g, h):
        calls.append((g, h))
        return isomorphic_groups(g, h)

    monkeypatch.setattr(enumeration, "isomorphic_groups", counted)
    # a fresh cache for the recursion, which looks the name up in the module
    monkeypatch.setattr(
        enumeration, "_groups_of_order", functools.cache(enumeration._groups_of_order.__wrapped__)
    )
    enumeration._groups_of_order(24)
    assert len(calls) == COLD_GROUP_CENSUS_24_ISOMORPHISM_CALLS


def test_group_order_budget():
    with pytest.raises(BudgetExceeded):
        groups_of_order(50)


def test_direct_search_budget():
    with pytest.raises(BudgetExceeded) as exc:
        _enumerate_braces_direct(DIRECT_SEARCH_MAX_ORDER + 1)
    assert str(exc.value) == "direct brace search order: size 7 exceeds budget 6"


def test_brace_counts_small():
    assert len(enumerate_skew_braces(1)) == 1
    assert len(enumerate_skew_braces(2)) == 1
    assert len(enumerate_skew_braces(4)) == 4
    assert len(enumerate_skew_braces(6)) == 6


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_double_method_agreement(n):
    holomorph = enumerate_skew_braces(n)
    direct = _enumerate_braces_direct(n)
    assert len(holomorph) == len(direct)
    # same classes, not just same counts
    for b in direct:
        assert sum(1 for h in holomorph.items if isomorphic(b, h) is not None) == 1


def searched_maps(g):
    """The maps the census reduces for the additive group g: those of every
    census unit, in unit order, or at order 1 the identity map, which the
    census takes without a search."""
    if g.n == 1:
        return [((0,),)]
    return [lam for unit in _search_tables(g).units for lam in regular_subgroups(g, unit)]


@pytest.mark.parametrize("n", [4, 6])
def test_reduction_order_independence(n):
    # deduplicating all regular subgroups directly must give the same count
    # as reducing by automorphism conjugation first
    total = []
    for a_group in _groups_of_order(n):
        for lam in searched_maps(a_group):
            total.append(brace_from_lambda_map(a_group, lam))
    assert len(dedup_braces(total)) == len(enumerate_skew_braces(n))


def test_census_refuses_a_class_kept_twice(monkeypatch):
    # The orbit reduction keeps one map per Aut(A)-orbit, so every brace it
    # keeps is a class of its own; passed through unreduced, the 105 maps
    # of order 8 fall into 47 classes, and the census must not drop the rest.
    passed = []

    def pass_through(lams, a_group):
        passed.extend(lams)
        return lams

    monkeypatch.setattr(enumeration, "reduce_by_aut_conjugation", pass_through)
    with pytest.raises(CrossCheckFailed):
        enumerate_skew_braces(8)
    assert len(passed) == 105


def test_catalog_items_pairwise_non_isomorphic():
    cat = enumerate_skew_braces(6)
    for i, b1 in enumerate(cat.items):
        for b2 in cat.items[i + 1 :]:
            assert isomorphic(b1, b2) is None


def test_merge_is_order_independent():
    candidates = []
    for a_group in _groups_of_order(6):
        for lam in searched_maps(a_group):
            candidates.append(brace_from_lambda_map(a_group, lam))
    baseline = len(dedup_braces(candidates))
    rng = random.Random(99)
    for _ in range(3):
        shuffled = candidates[:]
        rng.shuffle(shuffled)
        assert len(dedup_braces(shuffled)) == baseline


def test_checkpoint_resume(tmp_path):
    path = tmp_path / "braces4.ckpt"
    fresh = enumerate_skew_braces(4, checkpoint=str(path))
    assert path.exists()
    lines = path.read_text().splitlines()
    assert lines
    # drop half the units and resume
    path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    resumed = enumerate_skew_braces(4, checkpoint=str(path))
    assert len(resumed) == len(fresh)
    # complete checkpoint: pure replay
    replayed = enumerate_skew_braces(4, checkpoint=str(path))
    assert len(replayed) == len(fresh)


def test_solution_census_small_sizes():
    c1 = enumerate_involutive_solutions(1)
    assert len(c1) == 1 and c1.meta["levels"] == [0]
    c2 = enumerate_involutive_solutions(2)
    assert len(c2) == 2
    assert sorted(c2.meta["levels"]) == [1, 1]
    c3 = enumerate_involutive_solutions(3)
    assert len(c3) == 5


def test_size_two_census_by_hand():
    # oracle: all four sigma-families on two points
    valid = []
    perms2 = [(0, 1), (1, 0)]
    for s0 in perms2:
        for s1 in perms2:
            try:
                from bracelab.ybe import involutive_from_sigma

                valid.append(involutive_from_sigma([s0, s1]))
            except Exception:
                pass
    assert len(valid) == 2  # flip and the double transposition
    assert {v.sigma for v in valid} == {
        ((0, 1), (0, 1)),
        ((1, 0), (1, 0)),
    }


def test_sigma_space_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_involutive_solutions(5)


def test_sampler_is_seeded_and_valid():
    a = sample_involutive_solutions(4, 25, seed=7)
    b = sample_involutive_solutions(4, 25, seed=7)
    assert [s.sigma for s in a] == [s.sigma for s in b]
    c = sample_involutive_solutions(4, 25, seed=8)
    assert [s.sigma for s in c] != [s.sigma for s in a]
    assert len({s.sigma for s in a}) == 25
    for s in a:
        verify_solution(s.sigma, s.tau)  # revalidates
        assert s.involutive


def test_sampler_exhausts_tiny_space():
    # size 1 has a single solution; asking for more returns what exists
    found = sample_involutive_solutions(1, 5, seed=3)
    assert len(found) == 1
    assert found[0].sigma == (tuple(range(1)),)
    assert multipermutation_level(found[0]) == 0


def _prefix_passes(prefix, n):
    """The pruning rule from its definition. On sigma_0..sigma_{k-1}, the
    value r(x, y) = (u, sigma_u^{-1}(x)), u = sigma_x(y), is forced when
    x < k and u < k; no tau row may repeat a forced value, and a braid
    triple whose values are all forced must hold."""
    k = len(prefix)

    def r(x, y):
        if x >= k or prefix[x][y] >= k:
            return None
        u = prefix[x][y]
        return u, invert(prefix[u])[x]

    def r12(t):
        v = None if t is None else r(t[0], t[1])
        return None if v is None else (v[0], v[1], t[2])

    def r23(t):
        v = None if t is None else r(t[1], t[2])
        return None if v is None else (t[0], v[0], v[1])

    for y in range(n):
        row = [r(x, y)[1] for x in range(n) if r(x, y) is not None]
        if len(row) != len(set(row)):
            return False
    for t in product(range(n), repeat=3):
        lhs, rhs = r12(r23(r12(t))), r23(r12(r23(t)))
        if lhs is not None and rhs is not None and lhs != rhs:
            return False
    return True


def _valid_family(sigma):
    try:
        return involutive_from_sigma(sigma)
    except (BraceLabError, ValueError):
        return None


@functools.cache
def _definition_search(n):
    """(nodes, families): the number of prefixes shorter than n all of whose
    prefixes pass the rule, one order() call each, and the valid families
    all of whose prefixes pass it, in lexicographic order."""
    perms = all_perms(n)
    nodes, level = 0, [[]]
    for _ in range(n):
        nodes += len(level)
        level = [q + [p] for q in level for p in perms if _prefix_passes(q + [p], n)]
    return nodes, [tuple(q) for q in level if _valid_family(q) is not None]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_involutive_search_matches_definition(n):
    perms = all_perms(n)
    calls = 0

    def order():
        nonlocal calls
        calls += 1
        return range(len(perms))

    got = [sol.sigma for sol in _involutive_families(n, order)]
    nodes, families = _definition_search(n)
    assert calls == nodes
    assert got == families
    if n <= 3:
        # nothing valid is pruned: the same families, in the same order, as
        # validating every family
        assert got == [f for f in product(perms, repeat=n) if _valid_family(f) is not None]


def test_involutive_search_in_shuffled_order_matches_definition():
    # a pruning step that leans on trying candidates in index order would
    # change the nodes entered or the families found here
    n, rng = 4, random.Random(11)
    size = len(all_perms(n))
    calls = 0

    def order():
        nonlocal calls
        calls += 1
        idx = list(range(size))
        rng.shuffle(idx)
        return idx

    got = {sol.sigma for sol in _involutive_families(n, order)}
    nodes, families = _definition_search(n)
    assert calls == nodes
    assert got == set(families)


def test_involutive_search_refuses_an_invalid_complete_family(monkeypatch):
    # Pruning has checked every tau row and braid triple of a complete
    # family, so one that fails validation means the search is wrong: the
    # census must raise, not return a shorter catalog.
    rejected = next(_involutive_families(3, lambda: range(len(all_perms(3))))).sigma

    def reject_one(sigma):
        if tuple(sigma) == rejected:
            raise BraceLabError("rejected")
        return involutive_from_sigma(sigma)

    monkeypatch.setattr(enumeration, "involutive_from_sigma", reject_one)
    with pytest.raises(CrossCheckFailed) as exc:
        enumerate_involutive_solutions(3)
    assert str(list(rejected)) in str(exc.value)
    assert str(exc.value.__cause__) == "rejected"


def _families_digest(sols):
    return hashlib.sha256(json.dumps([[s.sigma, s.tau] for s in sols]).encode()).hexdigest()


# Pinned outputs of the solution layer: the seeded samples and the size
# 1..4 catalogs (first representative of each class, levels, brace sizes).
@pytest.mark.parametrize(
    "n,count,seed,digest",
    [
        (4, 25, 7, "cbe567478af0a4d63b73dd3bda86d1cfe40ec1f8bbcf2afa0a2d8fb079483811"),
        (5, 8, 987653, "5c5c004a08634815f18ca411cf53059734df1e7c2b197fe2067d4481aac49bce"),
        # the equivalence suite's sample, as the benchmark draws it
        (5, 200, 987653, "e25e0d5682a3d608e261f3b5d1b59b16cfbdff26b9c21586c4614066ec6120f6"),
    ],
)
def test_sampler_output_is_pinned(n, count, seed, digest):
    assert _families_digest(sample_involutive_solutions(n, count, seed)) == digest


@pytest.mark.parametrize(
    "n,digest,levels,brace_sizes",
    [
        (1, "3cabb44f21b758fcd608b0a3cc848e5de615457fc5e77d156b7273acfd8b29e0", [0], [1]),
        (2, "df631b47da6fd6bbb886d5f4ea3ecd03394e01176bb1cc19aa2f4bff1fd53ac8", [1, 1], [1, 2]),
        (
            3,
            "a85601e4bf59305cd1859016ac0ebeea2ed0ec17823798bc670e16fdcbf1da5c",
            [1, 2, 2, 1, 1],
            [1, 2, 2, 2, 3],
        ),
        (
            4,
            "a69695c2e5d8b92d082d60fd73a739a60cd62af2b414b6346c50d28eb9752d63",
            [1, 2, 2, 2, 3, 2, 2, 2, 2, 1, 2, 2, None, 1, 2, 2, 3, 2, None, 1, 2, 1, 2],
            [1, 2, 3, 2, 4, 2, 2, 2, 3, 2, 4, 4, 8, 3, 3, 4, 4, 4, 8, 2, 4, 4, 4],
        ),
    ],
)
def test_solution_catalog_is_pinned(n, digest, levels, brace_sizes):
    cat = enumerate_involutive_solutions(n)
    assert _families_digest(cat.items) == digest
    assert cat.meta["levels"] == levels
    assert cat.meta["brace_sizes"] == brace_sizes
    assert cat.meta["method"] == "exhaustive-sigma"


def reference_regular_subgroups(a_group, first_choice=None):
    """The search with the whole partial subgroup re-closed at every step,
    and no tables kept between calls (brute-force oracle for the search)."""
    n = a_group.n
    auts = all_automorphisms(a_group)
    aut_index = {p: i for i, p in enumerate(auts)}
    aut_order = [perm_order(p) for p in auts]
    usable = [i for i in range(len(auts)) if n % aut_order[i] == 0]
    add_t = a_group.table

    def comp(i, j):
        return aut_index[compose(auts[i], auts[j])]

    results = []

    def close(items):
        h = dict(items)
        frontier = list(h.items())
        while frontier:
            nxt = []
            for a, fi in frontier:
                fa = auts[fi]
                for b, gi in list(h.items()):
                    gb = auts[gi]
                    for c, ki in ((add_t[a][fa[b]], comp(fi, gi)), (add_t[b][gb[a]], comp(gi, fi))):
                        cur = h.get(c)
                        if cur is None:
                            if n % aut_order[ki] != 0:
                                return None
                            h[c] = ki
                            nxt.append((c, ki))
                        elif cur != ki:
                            return None
            frontier = nxt
        if n % len(h) != 0:
            return None
        return h

    def extend(h):
        if len(h) == n:
            results.append(tuple(auts[h[a]] for a in range(n)))
            return
        a0 = min(a for a in range(n) if a not in h)
        for fi in usable:
            h2 = dict(h)
            h2[a0] = fi
            closed = close(h2)
            if closed is not None:
                extend(closed)

    ident_idx = aut_index[tuple(range(n))]
    if n == 1:
        return [(tuple(range(n)),)]
    if first_choice is None:
        extend({0: ident_idx})
        return results
    if n % aut_order[first_choice] != 0:
        return results
    closed = close({0: ident_idx, 1: first_choice})
    if closed is not None:
        extend(closed)
    return results


GROUPS_UP_TO_12 = [g for n in range(1, 13) for g in groups_of_order(n).items]


def is_subsequence(part, whole):
    it = iter(whole)
    return all(x in it for x in part)


def aut_orbits(lams, aut_gens):
    """Every map reachable from lams by conjugation with aut_gens, by compose."""
    memo = {}  # (phi, f) -> phi f phi^-1
    reached, queue = set(lams), list(lams)
    while queue:
        cur = queue.pop()
        for phi in aut_gens:
            out = [()] * len(cur)
            for a, f in enumerate(cur):
                if (phi, f) not in memo:
                    memo[phi, f] = compose(phi, compose(f, invert(phi)))
                out[phi[a]] = memo[phi, f]
            nxt = tuple(out)
            if nxt not in reached:
                reached.add(nxt)
                queue.append(nxt)
    return reached


@pytest.mark.parametrize("gi", range(len(GROUPS_UP_TO_12)))
def test_regular_subgroups_match_full_reclosure(gi):
    g = GROUPS_UP_TO_12[gi]
    for unit in range(len(all_automorphisms(g))) if g.n > 1 else ():
        found = regular_subgroups(g, unit)
        assert is_subsequence(found, reference_regular_subgroups(g, unit))
    found, full = searched_maps(g), reference_regular_subgroups(g)
    gens = automorphism_group(g)
    assert aut_orbits(found, gens) == set(full)
    assert reduce_by_aut_conjugation(found, g) == naive_reduce_by_aut_conjugation(full, gens)


def test_regular_subgroups_keep_no_state_between_groups():
    # Same order and the same number of automorphisms, so tables left over
    # from the other group would index the wrong automorphisms.
    a, b = dihedral(4), direct_product(cyclic(4), cyclic(2))
    assert len(all_automorphisms(a)) == len(all_automorphisms(b))
    for g in (a, b, a):
        for unit in range(len(all_automorphisms(g))):
            assert regular_subgroups(g, unit) == reference_regular_subgroups(g, unit)


def naive_reduce_by_aut_conjugation(lams, aut_gens):
    """Orbit walk conjugating every map with compose, nothing memoised."""
    index = set(lams)
    seen, reps = set(), []
    for lam in sorted(index):
        if lam in seen:
            continue
        component, queue = {lam}, [lam]
        while queue:
            cur = queue.pop()
            for phi in aut_gens:
                phi_inv = invert(phi)
                out = [()] * len(cur)
                for a, f in enumerate(cur):
                    out[phi[a]] = compose(phi, compose(f, phi_inv))
                nxt = tuple(out)
                assert nxt in index
                if nxt not in component:
                    component.add(nxt)
                    queue.append(nxt)
        seen |= component
        reps.append(lam)
    return reps


@pytest.mark.parametrize("gi", range(len(GROUPS_UP_TO_12)))
def test_aut_reduction_matches_naive_orbit_walk(gi):
    g = GROUPS_UP_TO_12[gi]
    found, full = searched_maps(g), reference_regular_subgroups(g)
    gens = automorphism_group(g)
    expected = naive_reduce_by_aut_conjugation(full, gens)
    # The input order does not matter, nor whether the input is closed.
    for lams in (found, found[::-1], full):
        assert reduce_by_aut_conjugation(lams, g) == expected


# Regular subgroups of Hol(A) for each additive group A of the order, in
# _groups_of_order order: the full count the search found before it was
# pruned by Aut(A)-conjugation.
FULL_REGULAR_SUBGROUP_COUNTS = {
    8: [232, 28, 20, 6, 28],
    12: [12, 6, 28, 28, 42],
    24: [1856, 120, 80, 1568, 608, 368, 20, 128, 368, 96, 400, 400, 132, 100, 42],
}


@pytest.mark.parametrize("n", sorted(FULL_REGULAR_SUBGROUP_COUNTS))
def test_aut_orbits_of_the_representatives_cover_every_regular_subgroup(n):
    counts = []
    for g in groups_of_order(n).items:
        gens = automorphism_group(g)
        reps = reduce_by_aut_conjugation(searched_maps(g), g)
        orbits = [aut_orbits([lam], gens) for lam in reps]
        assert len(set().union(*orbits)) == sum(map(len, orbits))  # disjoint
        counts.append(sum(map(len, orbits)))
    assert counts == FULL_REGULAR_SUBGROUP_COUNTS[n]
    assert sum(counts) == {8: 314, 12: 116, 24: 6286}[n]


BENCH_CATALOG_24 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "braces-24.jsonl.gz"


def test_order_24_catalog_matches_the_benchmark_catalog(tmp_path):
    out = tmp_path / "braces-24.jsonl"
    catalog = enumerate_skew_braces(24)
    assert len(catalog) == 855  # Guarnieri and Vendramin, Math. Comp. 86, 2017
    write_catalog(catalog, out)
    with gzip.open(BENCH_CATALOG_24, "rt") as fh:
        expected = fh.read().splitlines()[1:]
    assert out.read_text().splitlines()[1:] == expected


def test_resume_from_full_unit_records(tmp_path):
    # Records written by a search that kept every member of a unit, and for
    # every unit, hold a superset of the pruned units: the census reads them
    # and searches nothing more.
    groups = groups_of_order(8).items
    path = tmp_path / "braces8.ckpt"
    lines = [json.dumps(_checkpoint_header(8, groups))]
    for gi, g in enumerate(groups):
        for unit in range(len(all_automorphisms(g))):
            maps = [[list(p) for p in lam] for lam in reference_regular_subgroups(g, unit)]
            lines.append(json.dumps({"group": gi, "unit": unit, "maps": maps}))
    path.write_text("\n".join(lines) + "\n")
    before = path.read_text()
    resumed = enumerate_skew_braces(8, checkpoint=str(path))
    assert path.read_text() == before
    fresh = enumerate_skew_braces(8)
    assert [(b.add.table, b.mul.table) for b in resumed.items] == [
        (b.add.table, b.mul.table) for b in fresh.items
    ]


# Skew brace counts published by Guarnieri and Vendramin (Math. Comp. 86,
# 2017) for the orders 9 to 30 but 16 and 27, which the opt-in stretch census
# covers, and 24, asserted on the census that the benchmark catalog test
# builds; EXPECTED_BRACE_COUNTS, which the census suite checks, stops at 8.
PUBLISHED_BRACE_COUNTS = {
    9: 4, 10: 6, 11: 1, 12: 38, 13: 1, 14: 6, 15: 1,
    17: 1, 18: 49, 19: 1, 20: 43, 21: 8, 22: 6, 23: 1,
    25: 4, 26: 6, 28: 29, 29: 1, 30: 36,
}


@pytest.mark.parametrize("n", sorted(PUBLISHED_BRACE_COUNTS))
def test_census_matches_the_published_counts(n):
    assert len(enumerate_skew_braces(n)) == PUBLISHED_BRACE_COUNTS[n]
