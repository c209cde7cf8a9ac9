import hashlib
import json
import random

import pytest

from bracelab.brace import (
    brace_from_tables,
    classify_flags,
    from_group_almost_trivial,
    from_group_trivial,
    from_zn_quadratic,
    isomorphic,
    star_identity_violations,
    verify_skew_brace,
)
from bracelab.enumeration import enumerate_skew_braces
from bracelab.errors import BraceLawViolated, NoIdentity, NotABrace
from bracelab.groups import cyclic, isomorphic_groups
from bracelab.perms import invert
from bracelab.subsets import Subset
from bracelab.substructures import is_ideal, subbrace_lattice
from oracles import (
    NotAnIdeal,
    brace_law_message,
    dihedral,
    direct_product,
    first_brace_law_violation,
    is_normal,
    quotient,
    relabeled,
    relabeled_group,
    symmetric,
)


def test_trivial_brace_on_z2(trivial_z2):
    assert trivial_z2.lam == ((0, 1), (0, 1))
    assert trivial_z2.star == ((0, 0), (0, 0))


def test_zn_quadratic_is_the_worked_example(z4_quadratic):
    b = z4_quadratic
    # lambda_1(b) = -1 + (1 + b + 2b) mod 4
    assert b.lam[1] == (0, 3, 2, 1)
    assert b.lam[2] == (0, 1, 2, 3)
    # x*y = 2xy mod 4
    assert b.star[1][1] == 2
    assert all(b.star[2][x] == 0 for x in range(4))


def test_brace_law_rejects_wrong_mul():
    # x o y = x + y + xy mod 4 is not even a group: 3 has no inverse
    with pytest.raises(NotABrace):
        from_zn_quadratic(4, 1)
    with pytest.raises(NotABrace):
        from_zn_quadratic(2, 1)


def test_brace_law_violation_names_triple():
    # two valid groups on one carrier that do not satisfy the brace law
    add = cyclic(4)
    mul = relabeled_group(cyclic(4), (0, 1, 3, 2))
    with pytest.raises(BraceLawViolated) as exc:
        verify_skew_brace(add, mul)
    a, b, c = first_brace_law_violation(add.table, mul.table)
    assert str(exc.value) == brace_law_message((a, b, c))
    lhs = mul.table[a][add.table[b][c]]
    rhs = add.table[add.table[mul.table[a][b]][add.inv[a]]][mul.table[a][c]]
    assert lhs != rhs


def test_almost_trivial_brace_law_exhaustive_oracle():
    g = symmetric(3)
    b = from_group_almost_trivial(g)
    # direct check of all 216 triples on the raw tables
    add = b.add.table
    mul = b.mul.table
    neg = b.add.inv
    for a in range(6):
        for x in range(6):
            for y in range(6):
                lhs = mul[a][add[x][y]]
                rhs = add[add[mul[a][x]][neg[a]]][mul[a][y]]
                assert lhs == rhs
    assert not classify_flags(b).nilpotent_type


def test_lambda_is_homomorphism_and_mul_decomposition(z4_quadratic, five_point_brace):
    for b in (z4_quadratic, five_point_brace):
        for x in range(b.n):
            for y in range(b.n):
                composed = tuple(b.lam[x][b.lam[y][c]] for c in range(b.n))
                assert b.lam[b.mul.table[x][y]] == composed
                assert b.mul.table[x][y] == b.add.table[x][b.lam[x][y]]


def test_quotients(z4_quadratic):
    b = z4_quadratic
    whole, proj = quotient(b, Subset.full(4))
    assert whole.n == 1 and proj == (0, 0, 0, 0)
    same, proj = quotient(b, Subset.zero(4))
    assert same.n == 4 and sorted(proj) == [0, 1, 2, 3]
    assert isomorphic(same, b) is not None
    small, proj = quotient(b, Subset.of(4, [0, 2]))
    assert small.n == 2
    assert small.add.table == small.mul.table  # trivial brace on Z/2
    assert proj == (0, 1, 0, 1)


def test_quotient_by_zero_is_the_brace_itself(braces_up_to_8):
    for b in braces_up_to_8:
        quot, proj = quotient(b, Subset.zero(b.n))
        assert quot == b
        assert proj == tuple(range(b.n))


def test_quotient_by_non_ideal_fails(trivial_s3):
    # {0, transposition} is a subgroup but not normal in Sym(3)
    sub = Subset.of(6, [0, 1])
    assert not is_normal(trivial_s3.add, sub)
    with pytest.raises(NotAnIdeal):
        quotient(trivial_s3, sub)


def test_quotient_revalidates_for_every_ideal(z4_quadratic, trivial_s3, five_point_brace):
    for b in (z4_quadratic, trivial_s3, five_point_brace):
        for ideal in (s for s in subbrace_lattice(b) if is_ideal(b, s)):
            quot, proj = quotient(b, ideal)
            assert quot.n == b.n // len(ideal)
            assert len(set(proj)) == quot.n


def test_classify_flags_examples(trivial_z2, z4_quadratic, five_point_brace):
    f = classify_flags(trivial_z2)
    assert f.trivial and f.two_sided and f.abelian_type and f.nilpotent_type
    assert f.add_nilpotency_class == 1 and f.mul_nilpotency_class == 1

    f = classify_flags(z4_quadratic)
    assert not f.trivial
    assert f.abelian_type and f.nilpotent_type
    assert f.mul_nilpotent and f.mul_nilpotency_class == 1  # Klein four group
    assert isomorphic_groups(z4_quadratic.mul, direct_product(cyclic(2), cyclic(2)))

    f = classify_flags(five_point_brace)
    assert f.abelian_type
    assert not f.mul_nilpotent  # Sym(3)


def test_isomorphic_reflexive_relabel_and_negative(z4_quadratic):
    assert isomorphic(z4_quadratic, z4_quadratic) is not None
    rng = random.Random(5)
    relabel = tuple([0] + rng.sample(range(1, 4), 3))
    other = relabeled(z4_quadratic, relabel)
    phi = isomorphic(z4_quadratic, other)
    assert phi is not None
    back = invert(phi)
    for a in range(4):
        for c in range(4):
            assert phi[z4_quadratic.add.table[a][c]] == other.add.table[phi[a]][phi[c]]
            assert phi[z4_quadratic.mul.table[a][c]] == other.mul.table[phi[a]][phi[c]]
            assert back[other.add.table[a][c]] == z4_quadratic.add.table[back[a]][back[c]]
    assert isomorphic(from_group_trivial(cyclic(4)), z4_quadratic) is None


def test_isomorphic_finds_random_relabelings_at_order_eight():
    rng = random.Random(8)
    braces = enumerate_skew_braces(8).items
    assert len(braces) == 47
    for b in braces:
        other = relabeled(b, tuple([0] + rng.sample(range(1, 8), 7)))
        phi = isomorphic(b, other)
        assert phi is not None and phi[0] == 0
        assert sorted(phi) == list(range(8))
        for a in range(8):
            for c in range(8):
                assert phi[b.add.table[a][c]] == other.add.table[phi[a]][phi[c]]
                assert phi[b.mul.table[a][c]] == other.mul.table[phi[a]][phi[c]]


def test_star_identities_exhaustive_small():
    braces = [
        from_zn_quadratic(4, 2),
        from_zn_quadratic(8, 2),
        from_zn_quadratic(12, 6),
        from_group_almost_trivial(symmetric(3)),
        from_group_almost_trivial(dihedral(5)),
    ]
    for b in braces:
        assert star_identity_violations(b) == []


def test_star_identities_exhaustive_at_order_18():
    b = from_group_almost_trivial(dihedral(9))
    assert star_identity_violations(b) == []


def test_brace_from_tables_requires_identity_zero():
    z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    shifted = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]  # identity at index 1
    with pytest.raises(NoIdentity):
        brace_from_tables(shifted, z3)


def test_ideal_definition_matches_quotient_safety(five_point_brace):
    # every subset passing is_ideal yields a re-validated quotient
    b = five_point_brace
    masks = [Subset(b.n, m) for m in range(1, 1 << b.n, 2)]
    for s in masks:
        if is_ideal(b, s):
            quotient(b, s)


ISOMORPHIC_DIGEST = "735ba6e10567ffccb0b7d63d0b3cc6623c1d9c8df9ecc304b545323eef5c42fa"


def test_isomorphic_results_are_pinned(braces_up_to_8):
    # which isomorphism is found first, both ways round, for seeded
    # relabelings of every brace of order <= 8 and every same-order pair
    rng = random.Random(20172)
    found = []
    for b in braces_up_to_8:
        c = relabeled(b, tuple([0] + rng.sample(range(1, b.n), b.n - 1)))
        found += [isomorphic(b, c), isomorphic(c, b)]
    found += [isomorphic(b, c) for b in braces_up_to_8 for c in braces_up_to_8 if b.n == c.n]
    assert hashlib.sha256(json.dumps(found).encode()).hexdigest() == ISOMORPHIC_DIGEST
