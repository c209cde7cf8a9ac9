import hashlib
import json
import pickle
import random
from itertools import permutations

import pytest

from bracelab import groups
from bracelab.enumeration import _groups_of_order
from bracelab.errors import BudgetExceeded, CrossCheckFailed, NoIdentity, NotAssociative, NotLatin
from bracelab.groups import (
    VERIFY_GROUP_CACHE,
    _verified,
    all_automorphisms,
    ascending_chain,
    automorphism_group,
    closure_mask,
    cyclic,
    isomorphic_groups,
    lower_central_series,
    opposite,
    verify_group,
)
from bracelab.perms import compose, invert
from bracelab.subsets import Subset
from conftest import groups_up_to
from oracles import (
    associativity_message,
    dihedral,
    direct_product,
    first_nonassociative,
    first_repeat,
    latin_message,
    quaternion8,
    relabeled_group,
    symmetric,
    upper_central_series,
)

# a Latin square with identity that is not a group (first bad triple (1,1,2))
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def test_z2_table_validates():
    g = verify_group([[0, 1], [1, 0]])
    assert g.n == 2
    assert g.inv == (0, 1)


def test_repeated_entry_is_not_latin():
    table = [[0, 1], [1, 1]]
    with pytest.raises(NotLatin) as exc:
        verify_group(table)
    assert first_repeat(table) == ("row", 1, (0, 1, 1))
    assert str(exc.value) == latin_message(first_repeat(table))


def _latin_witness(table):
    try:
        verify_group(table)
    except NotLatin as exc:
        return str(exc)
    except (NoIdentity, NotAssociative):
        pass
    return None


def _overwrite_in_row(rng, table):
    i, (j, k) = rng.randrange(len(table)), rng.sample(range(len(table)), 2)
    table[i][j] = table[i][k]


def _swap_in_row(rng, table):
    """Rows stay permutations; only columns can repeat."""
    i, (j, k) = rng.randrange(len(table)), rng.sample(range(len(table)), 2)
    table[i][j], table[i][k] = table[i][k], table[i][j]


@pytest.mark.parametrize(
    "defects, axes",
    [
        ([_overwrite_in_row], {"row"}),
        ([_swap_in_row], {"column"}),
        ([_overwrite_in_row, _swap_in_row], {"row", "column"}),
    ],
)
def test_not_latin_witness_is_first_repeat(defects, axes):
    """Seeded defects in order-8 tables, one kind at a time or two to five
    of either kind at once; the first repeat falls on each axis in axes."""
    rng = random.Random(8)
    groups8 = _groups_of_order(8)
    seen = set()
    for _ in range(300):
        table = [list(row) for row in rng.choice(groups8).table]
        count = 1 if len(defects) == 1 else rng.randrange(2, 6)
        for defect in rng.choices(defects, k=count):
            defect(rng, table)
        want = first_repeat(table)
        assert _latin_witness(table) == (latin_message(want) if want else None)
        seen.add(want[0] if want else None)
    assert axes <= seen


def test_nonassociative_loop_rejected_with_first_triple():
    with pytest.raises(NotAssociative) as exc:
        verify_group(NONASSOC_LOOP)
    assert first_nonassociative(NONASSOC_LOOP) == (1, 1, 2)
    assert str(exc.value) == associativity_message((1, 1, 2))


def test_no_identity():
    # Latin square in which no row equals 0..n-1
    with pytest.raises(NoIdentity):
        verify_group([[1, 0, 2], [0, 2, 1], [2, 1, 0]])


@pytest.mark.parametrize(
    "table, error, message",
    [
        ([], NoIdentity, "empty table"),
        ([1, 2], ValueError, "table must be a sequence of rows"),
        ([[0, 1], [1]], ValueError, "table must be square, got 2 rows of lengths [1, 2]"),
        ([[0, 1], [1, 2]], ValueError, "table entries must lie in 0..n-1"),
    ],
)
def test_malformed_table_is_refused(table, error, message):
    with pytest.raises(error) as exc:
        verify_group(table)
    assert str(exc.value) == message


def test_repeated_permutation_is_not_latin():
    with pytest.raises(NotLatin) as exc:
        groups.from_permutations([(0, 1), (0, 1)])
    assert str(exc.value) == "row 0 repeats value 1 at positions 0 and 1"


def test_identity_off_zero_raises_no_identity():
    # Z/3 written with identity at index 2
    table = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    with pytest.raises(NoIdentity):
        verify_group(table)


def test_sym3_from_direct_composition():
    # oracle: compose the six permutations of three points directly
    perms = sorted(permutations(range(3)))
    table = [
        [perms.index(tuple(p[q[i]] for i in range(3))) for q in perms]
        for p in perms
    ]
    g = verify_group(table)
    assert not g.is_abelian()
    assert isomorphic_groups(g, symmetric(3)) is not None


def test_inverses_are_two_sided():
    g = dihedral(5)
    for a in range(g.n):
        assert g.table[a][g.inv[a]] == 0
        assert g.table[g.inv[a]][a] == 0


def test_element_orders_and_exponent():
    z6 = cyclic(6)
    assert z6.element_orders == (1, 6, 3, 2, 3, 6)


@pytest.mark.parametrize(
    "table, bad",
    [
        ([[0, 1], [1, 0.5]], "float"),
        ([[0, "1"], [1, 0]], "str"),
        ([[0, 1], [True, 0]], "bool"),  # True == 1, but a bool is not a table entry
    ],
)
def test_non_integer_entries_rejected(table, bad):
    with pytest.raises(ValueError, match=f"table entries must be integers, got {bad}$"):
        verify_group(table)


def test_entry_types_are_checked_before_the_memo():
    # True == 1 and hash(True) == hash(1): the bool table must not find the
    # memo entry of the int table
    verify_group([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="got bool"):
        verify_group([[0, 1], [True, 0]])
    with pytest.raises(ValueError, match="got float"):
        verify_group([[0, 1], [1.0, 0]])


def test_carrier_budget():
    with pytest.raises(BudgetExceeded):
        verify_group([[0] * 300 for _ in range(300)])


def test_center_and_series():
    s3 = symmetric(3)
    assert s3.nilpotency_class is None
    assert [sorted(t) for t in upper_central_series(s3)] == [[0]]
    d4 = dihedral(4)
    assert d4.nilpotency_class == 2
    assert quaternion8().nilpotency_class == 2
    assert cyclic(8).nilpotency_class == 1
    assert cyclic(1).nilpotency_class == 0
    chain = lower_central_series(d4)
    assert [len(t) for t in chain] == [8, 2, 1]


def _subgroup_closure(g, seed):
    return Subset(g.n, closure_mask((g.table,), Subset.of(g.n, seed).mask))


def test_subgroup_closure():
    z12 = cyclic(12)
    assert sorted(_subgroup_closure(z12, [4])) == [0, 4, 8]
    assert sorted(_subgroup_closure(z12, [])) == [0]
    s3 = symmetric(3)
    # element 1 is the transposition fixing point 0
    assert len(_subgroup_closure(s3, [1])) == 2


def test_not_isomorphic_same_order():
    assert isomorphic_groups(cyclic(4), direct_product(cyclic(2), cyclic(2))) is None
    assert isomorphic_groups(dihedral(4), quaternion8()) is None
    assert isomorphic_groups(cyclic(6), symmetric(3)) is None


def test_isomorphism_found_and_symmetric():
    rng = random.Random(11)
    for g in (cyclic(6), dihedral(4), symmetric(3)):
        relabel = tuple([0] + rng.sample(range(1, g.n), g.n - 1))
        h = relabeled_group(g, relabel)
        phi = isomorphic_groups(g, h)
        assert phi is not None
        # phi is a homomorphism both ways
        back = invert(phi)
        for a in range(g.n):
            for b in range(g.n):
                assert phi[g.table[a][b]] == h.table[phi[a]][phi[b]]
                assert back[h.table[a][b]] == g.table[back[a]][back[b]]


def test_opposite_of_abelian_is_itself():
    z5 = cyclic(5)
    assert opposite(z5).table == z5.table
    s3 = symmetric(3)
    assert opposite(s3).table != s3.table
    assert isomorphic_groups(opposite(s3), s3) is not None


def test_automorphism_counts():
    assert len(all_automorphisms(cyclic(2))) == 1
    # oracle: units mod 4
    assert len(all_automorphisms(cyclic(4))) == 2
    # oracle: |GL(3,2)| = (8-1)(8-2)(8-4)
    e8 = direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2))
    assert len(all_automorphisms(e8)) == (8 - 1) * (8 - 2) * (8 - 4)
    # oracle: Aut(Q8) = Sym(4)
    assert len(all_automorphisms(quaternion8())) == 24
    # oracle: units mod 8
    assert len(all_automorphisms(cyclic(8))) == 4


def test_automorphisms_are_automorphisms():
    g = dihedral(4)
    auts = all_automorphisms(g)
    assert len(auts) == 8  # Aut(D4) = D4
    for phi in auts:
        for a in range(g.n):
            for b in range(g.n):
                assert phi[g.table[a][b]] == g.table[phi[a]][phi[b]]
    # closure under composition
    aut_set = set(auts)
    for p in auts:
        for q in auts:
            assert compose(p, q) in aut_set


# ---------------------------------------------------------------------------
# Central series against their definitions, written from the raw tables


def _raw_commutator(table, inv, x, y):
    """x y x^-1 y^-1."""
    return table[table[table[x][y]][inv[x]]][inv[y]]


def _raw_generated(table, seed):
    """Subgroup generated by seed: products of members to a fixpoint."""
    members = set(seed) | {0}
    while True:
        more = {table[a][c] for a in members for c in members} - members
        if not more:
            return members
        members |= more


def _raw_lower_central(table, inv):
    """gamma_1 = G, gamma_{k+1} = <[x, y] : x in G, y in gamma_k>, to the
    first repeat."""
    n = len(table)
    chain = [set(range(n))]
    while True:
        comms = {_raw_commutator(table, inv, x, y) for x in range(n) for y in chain[-1]}
        nxt = _raw_generated(table, comms)
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)


def _all_groups_to_24():
    return [g for n in range(1, 25) for g in _groups_of_order(n)]


def test_central_series_match_their_definitions():
    for g in _all_groups_to_24():
        table = [list(row) for row in g.table]
        inv = [row.index(0) for row in table]
        lcs = _raw_lower_central(table, inv)
        ucs = [set(t) for t in upper_central_series(g)]
        assert [set(t) for t in lower_central_series(g)] == lcs
        assert g.nilpotency_class == (len(lcs) - 1 if lcs[-1] == {0} else None)
        # ucs reaches G exactly when lcs reaches 1, in as many steps
        assert (ucs[-1] == set(range(g.n))) == (lcs[-1] == {0})
        if lcs[-1] == {0}:
            assert len(ucs) == len(lcs)


def test_commutator_masks_match_their_definition():
    for g in _all_groups_to_24():
        t, inv = g.table, g.inv
        comm = [[t[t[t[x][a]][inv[x]]][inv[a]] for a in range(g.n)] for x in range(g.n)]
        rows = tuple(Subset.of(g.n, comm[x]).mask for x in range(g.n))
        cols = tuple(Subset.of(g.n, (comm[a][y] for a in range(g.n))).mask for y in range(g.n))
        assert g.commutator_masks == (rows, cols)


def test_ascending_chain_stops_at_first_repeat_and_checks_containment():
    # 0 and 1 need only 0, and 2 needs 1: {0}, {0,1}, {0,1,2}
    chain = ascending_chain([0b001, 0b001, 0b010])
    assert [t.mask for t in chain] == [0b001, 0b011, 0b111]
    # 2 needs itself, so {0,1} repeats and the chain stops short of the carrier
    chain = ascending_chain([0b001, 0b001, 0b100])
    assert [t.mask for t in chain] == [0b001, 0b011]
    # 0 needs 1, so the second term {1,2} misses 0
    with pytest.raises(CrossCheckFailed):
        ascending_chain([0b010, 0b001, 0b001])


# ---------------------------------------------------------------------------
# The verify_group memo and the facts each GroupTable keeps


def test_verify_group_returns_one_object_per_table():
    g = dihedral(6)
    assert verify_group([list(row) for row in g.table]) is g


def test_caches_are_bounded():
    assert _verified.cache_info().maxsize == VERIFY_GROUP_CACHE > 0


def test_group_facts_match_their_definitions():
    for g in _all_groups_to_24():
        powers = [[0] for _ in range(g.n)]  # powers[a]: 0, a, a^2, ... up to the identity
        for a, seq in enumerate(powers):
            while len(seq) == 1 or seq[-1] != 0:
                seq.append(g.table[seq[-1]][a])
        assert g.element_orders == tuple(len(seq) - 1 for seq in powers)
        assert set(_raw_generated(g.table, g.generators)) == set(range(g.n))


def test_pickled_group_keeps_its_facts(monkeypatch):
    g = dihedral(6)
    facts = (g.nilpotency_class, g.subgroups)
    copy = pickle.loads(pickle.dumps(g))

    def recomputed(_):
        raise AssertionError("a kept fact was computed again")

    monkeypatch.setattr(groups, "lower_central_series", recomputed)
    monkeypatch.setattr(groups, "subgroup_lattice", recomputed)
    assert copy == g and copy is not g
    assert (copy.nilpotency_class, copy.subgroups) == facts
    assert (copy.element_orders, copy.generators) == (g.element_orders, g.generators)


# ---------------------------------------------------------------------------
# Pinned answers of the isomorphism search and Aut(G)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


AUTOMORPHISMS_DIGEST = "fffacab0831a18cdc7349762898651be8196f2b6b2507fce197392f26f30eac1"
AUTOMORPHISM_GROUPS_DIGEST = "3febd59046d35d92e34827460493ba09967f8e2febf2390491e235f040ed4fb3"
ISOMORPHIC_GROUPS_DIGEST = "971fe25a4c1f77b5b32ac398ee95cfc1fcdc1226f79d41e35aa3b50800482644"


def test_automorphisms_are_pinned():
    # every list in order, and the greedy generators drawn from it
    groups = groups_up_to(16)
    assert _digest([all_automorphisms(g) for g in groups]) == AUTOMORPHISMS_DIGEST
    pairs = [(automorphism_group(g), len(all_automorphisms(g))) for g in groups]
    assert _digest(pairs) == AUTOMORPHISM_GROUPS_DIGEST


def test_isomorphic_groups_results_are_pinned():
    # which isomorphism is found first, both ways round, for seeded
    # relabelings of every group of order <= 16 and every same-order pair
    rng = random.Random(20171)
    groups = groups_up_to(16)
    found = []
    for g in groups:
        for _ in range(2):
            h = relabeled_group(g, tuple([0] + rng.sample(range(1, g.n), g.n - 1)))
            found += [isomorphic_groups(g, h), isomorphic_groups(h, g)]
    found += [isomorphic_groups(g, h) for g in groups for h in groups if g.n == h.n]
    assert _digest(found) == ISOMORPHIC_GROUPS_DIGEST
