"""Validation over generators against the all-triples oracles.

verify_group runs Light's associativity test on generators, verify_skew_brace
checks lambda on generators of both groups, and two-sidedness checks
additivity on additive generators. Each must give the verdict of the oracles
in tests/oracles.py, and a failure's message must name the oracle's first
violation.
"""

import gzip
import json
import random
from pathlib import Path

import pytest

from bracelab.brace import (
    SkewBrace,
    _is_two_sided,
    _raise_first_brace_law_violation,
    star_identity_violations,
    verify_skew_brace,
)
from bracelab.enumeration import _groups_of_order
from bracelab.errors import BraceLawViolated, CrossCheckFailed, NoIdentity, NotAssociative, NotLatin
from bracelab.groups import _raise_first_nonassociative, cyclic, verify_group
from oracles import (
    associativity_message,
    brace_law_message,
    first_brace_law_violation,
    first_nonassociative,
    first_repeat,
    is_two_sided,
    latin_message,
    relabeled_group,
    star_identity_failures,
)

BENCH_CATALOG_24 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "braces-24.jsonl.gz"


def _group_verdict(table):
    try:
        verify_group(table)
    except (NotLatin, NoIdentity, NotAssociative) as exc:
        return type(exc).__name__, str(exc)
    return "ok", None


def _group_oracle(table):
    repeat = first_repeat(table)
    if repeat:
        return "NotLatin", latin_message(repeat)
    rng = list(range(len(table)))
    if list(table[0]) != rng or [row[0] for row in table] != rng:
        return "NoIdentity", "index 0 is not a two-sided identity"
    triple = first_nonassociative(table)
    return ("NotAssociative", associativity_message(triple)) if triple else ("ok", None)


def _brace_verdict(add, mul):
    try:
        verify_skew_brace(add, mul)
    except BraceLawViolated as exc:
        return "BraceLawViolated", str(exc)
    return "ok", None


def _brace_oracle(add_table, mul_table):
    triple = first_brace_law_violation(add_table, mul_table)
    return ("BraceLawViolated", brace_law_message(triple)) if triple else ("ok", None)


def _groups_to_12():
    return [g for n in range(1, 13) for g in _groups_of_order(n)]


def _swap_two_in_row(rng, table):
    i, (j, k) = rng.randrange(len(table)), rng.sample(range(len(table)), 2)
    table[i][j], table[i][k] = table[i][k], table[i][j]


def _intercalates(table):
    """Cells (i, j, k, l) of 2x2 Latin subsquares off row and column 0:
    table[i][k] == table[j][l] and table[i][l] == table[j][k]."""
    n = len(table)
    return [
        (i, j, k, l)
        for i in range(1, n)
        for j in range(i + 1, n)
        for k in range(1, n)
        for l in range(k + 1, n)
        if table[i][k] == table[j][l] and table[i][l] == table[j][k]
    ]


def test_groups_of_order_at_most_12_agree_with_the_oracles():
    for g in _groups_to_12():
        table = [list(row) for row in g.table]
        assert _group_verdict(table) == _group_oracle(table) == ("ok", None)


def test_corrupted_group_tables_name_the_oracle_witness():
    """Two entries of a row swapped, and intercalates switched (a Latin
    table with identity 0 that may no longer be associative)."""
    rng = random.Random(1961)
    seen = set()
    for g in _groups_to_12():
        if g.n < 3:
            continue
        for _ in range(4):
            table = [list(row) for row in g.table]
            _swap_two_in_row(rng, table)
            verdict = _group_verdict(table)
            assert verdict == _group_oracle(table)
            seen.add(verdict[0])
        spots = _intercalates(g.table)
        for i, j, k, l in rng.sample(spots, min(3, len(spots))):
            table = [list(row) for row in g.table]
            table[i][k], table[i][l] = table[i][l], table[i][k]
            table[j][k], table[j][l] = table[j][l], table[j][k]
            verdict = _group_verdict(table)
            assert verdict == _group_oracle(table)
            seen.add(verdict[0])
    assert seen == {"NotLatin", "NotAssociative", "ok"}


def test_brace_law_on_every_pair_of_groups_agrees_with_the_oracle():
    seen = set()
    for n in range(1, 13):
        for add in _groups_of_order(n):
            for mul in _groups_of_order(n):
                verdict = _brace_verdict(add, mul)
                assert verdict == _brace_oracle(add.table, mul.table)
                seen.add(verdict[0])
    assert seen == {"ok", "BraceLawViolated"}


def test_braces_of_order_at_most_12_agree_with_the_oracles(braces_up_to_12):
    rng = random.Random(2017)
    two_sided = set()
    law = set()
    for b in braces_up_to_12:
        add, mul = b.add.table, b.mul.table
        assert first_brace_law_violation(add, mul) is None
        assert _is_two_sided(b) == is_two_sided(add, mul)
        two_sided.add(_is_two_sided(b))
        if b.n < 3:
            continue
        # a relabeled multiplicative group is still a group, but the law breaks
        moved = relabeled_group(b.mul, tuple([0] + rng.sample(range(1, b.n), b.n - 1)))
        verdict = _brace_verdict(b.add, moved)
        assert verdict == _brace_oracle(add, moved.table)
        law.add(verdict[0])
        # one changed entry of the multiplicative table
        table = [list(row) for row in mul]
        i, j = rng.randrange(b.n), rng.randrange(b.n)
        table[i][j] = rng.choice([v for v in range(b.n) if v != table[i][j]])
        assert _group_verdict(table) == _group_oracle(table)
    assert two_sided == {True, False}
    assert law == {"ok", "BraceLawViolated"}


def test_order_24_catalog_agrees_with_the_oracles():
    lines = gzip.decompress(BENCH_CATALOG_24.read_bytes()).decode().splitlines()[1:]
    tables = set()
    two_sided = set()
    for line in lines:
        item = json.loads(line)
        add, mul = verify_group(item["add"]), verify_group(item["mul"])
        tables |= {add.table, mul.table}
        b = verify_skew_brace(add, mul)
        assert first_brace_law_violation(add.table, mul.table) is None
        assert _is_two_sided(b) == is_two_sided(add.table, mul.table)
        two_sided.add(_is_two_sided(b))
    assert len(lines) == 855 and two_sided == {True, False}
    assert all(first_nonassociative(t) is None for t in tables)


def test_failure_paths_raise_when_every_triple_holds():
    # the rescans behind a failed generator check report a disagreement,
    # not a success, when no triple breaks the law
    z4 = cyclic(4)
    with pytest.raises(CrossCheckFailed):
        _raise_first_nonassociative(z4.table)
    with pytest.raises(CrossCheckFailed):
        _raise_first_brace_law_violation(z4, z4)


def _unchecked_brace(add, mul):
    """lam and star of two groups on one carrier, without the brace law."""
    lam = tuple(tuple(add.table[add.inv[a]][mul.table[a][b]] for b in range(add.n)) for a in range(add.n))
    star = tuple(tuple(add.table[lam[a][b]][add.inv[b]] for b in range(add.n)) for a in range(add.n))
    return SkewBrace(add.n, add, mul, lam, star)


def test_star_identity_violations_match_the_oracle(braces_up_to_12):
    # the braces themselves, and their additive groups paired with seeded
    # relabelings of their multiplicative groups, which mostly break the law
    rng = random.Random(42)
    kinds = set()
    for b in braces_up_to_12:
        assert star_identity_violations(b) == star_identity_failures(b) == []
        if b.n < 3:
            continue
        moved = relabeled_group(b.mul, tuple([0] + rng.sample(range(1, b.n), b.n - 1)))
        fake = _unchecked_brace(b.add, moved)
        found = star_identity_violations(fake)
        assert found == star_identity_failures(fake)
        kinds |= {name for name, _ in found}
    assert kinds == {"star_of_sum", "sum_star", "product_star"}
