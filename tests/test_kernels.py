"""Brute-force oracles for the isomorphism search, the isomorphism-class
kernel, the permutation-group closure and the subgroup lattice."""

import random
from itertools import permutations
from operator import attrgetter

from bracelab.brace import _element_fingerprints, isomorphic
from bracelab.enumeration import (
    _groups_of_order,
    _isomorphism_classes,
    enumerate_involutive_solutions,
)
from bracelab.groups import (
    _generation_plan,
    _isomorphisms,
    all_automorphisms,
    automorphism_group,
    generated_group,
    isomorphic_groups,
    subgroup_lattice,
)
from bracelab.perms import compose, invert
from conftest import groups_up_to
from oracles import relabeled, relabeled_group


def _brace_tables(b):
    return (b.add.table, b.mul.table)


def _preserving_bijections(src, dst):
    """Every bijection fixing 0 that carries each table of src onto its
    partner in dst, by trying them all."""
    n = len(src[0])
    if len(dst[0]) != n:
        return set()
    out = set()
    for rest in permutations(range(1, n)):
        phi = (0,) + rest
        if all(
            phi[s[a][b]] == d[phi[a]][phi[b]]
            for s, d in zip(src, dst)
            for a in range(n)
            for b in range(n)
        ):
            out.add(phi)
    return out


def _check_isomorphisms(src, dst, src_marks, dst_marks):
    found = list(_isomorphisms(src, dst, src_marks, dst_marks))
    assert len(found) == len(set(found))
    assert set(found) == _preserving_bijections(src, dst)
    # marks prune the search but never the answer
    n = len(src[0])
    assert set(_isomorphisms(src, dst, [0] * n, [0] * len(dst[0]))) == set(found)


def test_isomorphisms_match_brute_force_on_groups():
    groups = groups_up_to(6)
    for g in groups:
        for h in groups:
            if g.n == h.n:
                _check_isomorphisms(
                    (g.table,), (h.table,), g.element_orders, h.element_orders
                )


def test_isomorphisms_match_brute_force_on_braces(braces_up_to_8):
    braces = [b for b in braces_up_to_8 if b.n <= 6]
    for b in braces:
        for c in braces:
            if b.n == c.n:
                _check_isomorphisms(
                    _brace_tables(b), _brace_tables(c),
                    _element_fingerprints(b), _element_fingerprints(c),
                )


def test_isomorphisms_need_equal_mark_multisets():
    g = _groups_of_order(4)[0]
    orders = list(g.element_orders)
    assert list(_isomorphisms((g.table,), (g.table,), orders, orders))
    assert not list(_isomorphisms((g.table,), (g.table,), orders, [0] + orders[1:] + [0]))
    assert not list(_isomorphisms((g.table,), (g.table,), orders, orders[:-1]))


def _relabeling(rng, n):
    return tuple([0] + rng.sample(range(1, n), n - 1))


def _with_relabelings(items, relabeled, seed):
    """Each item and two seeded relabelings of it, shuffled by the seed."""
    rng = random.Random(seed)
    out = []
    for x in items:
        out += [x] + [relabeled(x, _relabeling(rng, x.n)) for _ in range(2)]
    rng.shuffle(out)
    return out


def _first_of_each_class(items, tables):
    """The first item of each isomorphism class, in input order, by trying
    every bijection."""
    kept = []
    for x in items:
        if not any(_preserving_bijections(tables(x), tables(k)) for k in kept):
            kept.append(x)
    return kept


def _check_classes(items, tables, marks, iso):
    expected = [id(x) for x in _first_of_each_class(items, tables)]
    assert [id(x) for x in _isomorphism_classes(items, marks, iso)] == expected
    # marks only bucket; constant marks put everything in one bucket
    assert [id(x) for x in _isomorphism_classes(items, lambda x: [0] * x.n, iso)] == expected


def test_isomorphism_classes_match_brute_force_on_groups():
    items = _with_relabelings(groups_up_to(6), relabeled_group, 1501)
    _check_classes(items, lambda g: (g.table,), attrgetter("element_orders"), isomorphic_groups)


def test_isomorphism_classes_match_brute_force_on_braces(braces_up_to_8):
    items = _with_relabelings([b for b in braces_up_to_8 if b.n <= 6], relabeled, 1502)
    _check_classes(items, _brace_tables, _element_fingerprints, isomorphic)


def test_element_marks_follow_relabelings(braces_up_to_8):
    # bucketing by sorted marks is sound only if each mark moves with its
    # element under every isomorphism
    rng = random.Random(1503)
    for b in braces_up_to_8:
        marks = _element_fingerprints(b)
        for _ in range(2):
            p = _relabeling(rng, b.n)
            moved = _element_fingerprints(relabeled(b, p))
            assert all(moved[p[x]] == marks[x] for x in range(b.n))
    for g in groups_up_to(16):
        orders = g.element_orders
        for _ in range(2):
            p = _relabeling(rng, g.n)
            moved = relabeled_group(g, p).element_orders
            assert all(moved[p[x]] == orders[x] for x in range(g.n))


def test_all_automorphisms_match_brute_force():
    for g in groups_up_to(8):
        assert all_automorphisms(g) == sorted(_preserving_bijections((g.table,), (g.table,)))


def _naive_closure(tables, seed):
    """Least set holding 0 and seed and closed under every table, products of
    all pairs to a fixpoint."""
    members = {0} | set(seed)
    while True:
        grown = members | {t[a][b] for t in tables for a in members for b in members}
        if grown == members:
            return members
        members = grown


def _check_generation_plan(tables):
    n = len(tables[0])
    gens, plan = _generation_plan(tables)
    # the greedy rule: the least element outside the closure of those before
    expected, reached = [], _naive_closure(tables, ())
    while len(reached) < n:
        expected.append(min(set(range(n)) - reached))
        reached = _naive_closure(tables, expected)
    assert gens == expected
    # each other element is derived once, from operands already known
    known = {0} | set(gens)
    for target, op, x, y in plan:
        assert target not in known and x in known and y in known
        assert tables[op][x][y] == target
        known.add(target)
    assert known == set(range(n))
    assert len(plan) == n - 1 - len(gens)


def test_generation_plan_replays_on_groups():
    for g in groups_up_to(16):
        _check_generation_plan((g.table,))


def test_generation_plan_replays_on_braces(braces_up_to_8):
    for b in braces_up_to_8:
        _check_generation_plan(_brace_tables(b))


def _naive_group(gens, identity, product):
    """Products of members by generators to a fixpoint."""
    members = {identity}
    while True:
        grown = members | {product(p, q) for p in members for q in gens}
        if grown == members:
            return members
        members = grown


def _check_generated_group(gens, degree):
    found = list(generated_group(gens, degree))
    assert found[0] == tuple(range(degree))
    assert len(found) == len(set(found))
    assert set(found) == _naive_group(gens, tuple(range(degree)), compose)
    return found


def test_generated_group_matches_fixpoint_on_automorphisms():
    for g in groups_up_to(16):
        found = _check_generated_group(automorphism_group(g), g.n)
        assert len(found) == len(all_automorphisms(g))


def test_generated_group_matches_fixpoint_on_solutions():
    # the pairs (sigma_x, tau_x^-1), composed componentwise, against their
    # encoding as one permutation of 2n points
    for n in range(1, 5):
        for sol in enumerate_involutive_solutions(n).items:
            pairs = [(sol.sigma[x], invert(sol.tau[x])) for x in range(n)]
            joined = [a + tuple(n + i for i in b) for a, b in pairs]
            found = _check_generated_group(joined, 2 * n)
            naive = _naive_group(
                pairs,
                (tuple(range(n)),) * 2,
                lambda p, q: (compose(p[0], q[0]), compose(p[1], q[1])),
            )
            assert {(g[:n], tuple(i - n for i in g[n:])) for g in found} == naive


def test_generated_group_without_generators():
    assert list(generated_group([], 0)) == [()]
    assert list(generated_group([], 3)) == [(0, 1, 2)]


def _is_closed(t, mask):
    members = [x for x in range(len(t)) if mask >> x & 1]
    return all(mask >> t[a][c] & 1 for a in members for c in members)


def _fixpoint_closure(t, mask):
    """Add every product of members until nothing changes."""
    mask |= 1
    while True:
        members = [x for x in range(len(t)) if mask >> x & 1]
        grown = mask
        for a in members:
            for c in members:
                grown |= 1 << t[a][c]
        if grown == mask:
            return mask
        mask = grown


def _closures_of_small_subsets(t):
    """Closures of every subset of at most floor(log2 n) elements. Each
    element outside a subgroup at least doubles it, so every subgroup has a
    generating set that small. The closure of S + {x} is the closure of
    closure(S) + {x}, so each size extends the distinct closures of the size
    before by one element."""
    n = len(t)
    found = level = {1}
    for _ in range(n.bit_length() - 1):
        level = {_fixpoint_closure(t, h | 1 << x) for h in level for x in range(n)}
        found = found | level
    return found


def test_subgroup_lattice_matches_definition():
    # every subset holding 0 closed under the table up to order 12, the
    # closures of small subsets above; 74 groups of order <= 24
    groups = groups_up_to(24)
    assert len(groups) == 74
    for g in groups:
        if g.n <= 12:
            brute = {m for m in range(1, 1 << g.n, 2) if _is_closed(g.table, m)}
        else:
            brute = _closures_of_small_subsets(g.table)
        assert subgroup_lattice(g) == tuple(sorted(brute, key=lambda m: (m.bit_count(), m)))
