import gzip
import random
from collections import Counter
from pathlib import Path

import pytest

from bracelab import series as series_module
from bracelab import substructures
from bracelab.brace import (
    brace_from_tables,
    classify_flags,
    from_group_almost_trivial,
    from_group_trivial,
    from_zn_quadratic,
    lambda_orbits,
)
from bracelab.errors import CrossCheckFailed, HypothesisUnmet
from bracelab.groups import commutator_products, cyclic
from bracelab.series import gamma_distributivity_check, nilpotency_report, series
from bracelab.serialize import read_catalog
from bracelab.subsets import Subset
from bracelab.substructures import radical, star_products, subbrace_lattice
from conftest import series_digest
from oracles import dihedral, invariant_substructures, quaternion8, quotient, relabeled, symmetric


def chains(report):
    return [s.indices() for s in report.chain]


def test_left_series_of_trivial_brace(trivial_z2):
    r = series(trivial_z2, "left")
    assert chains(r) == [[0, 1], [0]]
    assert r.holds and r.cls == 2


def test_one_element_brace_series():
    one = from_group_trivial(cyclic(1))
    assert series(one, "left").cls == 1
    assert series(one, "gamma").cls == 0
    assert series(one, "annihilator").cls == 0
    assert series(one, "gamma_bracket").cls == 1


def test_annihilator_chain_of_quadratic_brace(z4_quadratic):
    r = series(z4_quadratic, "annihilator")
    assert chains(r) == [[0], [0, 2], [0, 1, 2, 3]]
    assert r.holds and r.cls == 2
    # gamma route gives the same verdict with its own indexing
    g = series(z4_quadratic, "gamma")
    assert chains(g) == [[0, 1, 2, 3], [0, 2], [0]]
    assert g.cls == 2
    gb = series(z4_quadratic, "gamma_bracket")
    assert gb.cls == 3


def test_five_point_brace_series(five_point_brace):
    right = series(five_point_brace, "right")
    left = series(five_point_brace, "left")
    assert right.holds
    assert not left.holds
    assert len(left.chain[-1]) > 1  # stabilizes above zero


def test_socle_series_descends_to_s_series(five_point_brace, z4_quadratic):
    # reversed socle chain is an s-series; right terms embed in it
    for b in (five_point_brace, z4_quadratic):
        soc = series(b, "socle")
        if not soc.holds:
            continue
        right = series(b, "right")
        m = len(soc.chain) - 1
        for i in range(m + 1):
            term = right.chain[i] if i < len(right.chain) else right.chain[-1]
            assert term <= soc.chain[m - i]


def test_unknown_series_kind_is_refused(trivial_z2):
    with pytest.raises(ValueError) as exc:
        series(trivial_z2, "upper")
    assert str(exc.value) == "unknown series kind 'upper'"


def test_nilpotency_report_trivial_braces():
    rep = nilpotency_report(from_group_trivial(quaternion8()))
    assert rep.annihilator.holds
    rep = nilpotency_report(from_group_trivial(symmetric(3)))
    assert not rep.annihilator.holds
    assert rep.left.holds and rep.right.holds and rep.strong.holds


def test_nilpotency_report_almost_trivial_matches_group_nilpotency():
    # (G, o, o-opposite) is annihilator nilpotent exactly when G is nilpotent
    for group, expect in ((dihedral(4), True), (symmetric(3), False), (dihedral(6), False)):
        rep = nilpotency_report(from_group_almost_trivial(group))
        assert rep.annihilator.holds == expect


def test_nilpotency_report_quadratic(z4_quadratic):
    rep = nilpotency_report(z4_quadratic)
    assert rep.annihilator.holds and rep.annihilator.cls == 2
    assert rep.left.holds and rep.right.holds and rep.strong.holds
    assert rep.nilpotent_type
    # of nilpotent type: left nilpotent exactly when (B, o) is nilpotent
    assert rep.left.holds == classify_flags(z4_quadratic).mul_nilpotent


def test_nilpotency_report_five_point(five_point_brace):
    rep = nilpotency_report(five_point_brace)
    assert rep.right.holds
    assert not rep.left.holds
    assert not rep.strong.holds
    assert not rep.annihilator.holds
    assert rep.nilpotent_type
    assert rep.left.holds == classify_flags(five_point_brace).mul_nilpotent


def test_gamma_distributivity(z4_quadratic, trivial_z2, five_point_brace):
    rep = gamma_distributivity_check(z4_quadratic, nilpotency_report(z4_quadratic))
    assert rep["class"] == 3
    assert rep["checked"] == 64  # one admissible k, all of B^3
    assert rep["counterexamples"] == []
    rep = gamma_distributivity_check(trivial_z2, nilpotency_report(trivial_z2))
    assert rep["counterexamples"] == []
    with pytest.raises(HypothesisUnmet):
        gamma_distributivity_check(five_point_brace, nilpotency_report(five_point_brace))


def test_distributivity_holds_on_nonabelian_nilpotent_trivial_brace():
    b = from_group_trivial(dihedral(4))
    rep = gamma_distributivity_check(b, nilpotency_report(b))
    assert rep["counterexamples"] == []
    assert rep["checked"] > 0


def _additive_closure(b, elems):
    """Brute-force fixpoint: add sums of members until nothing new appears."""
    add = b.add.table
    members = set(elems) | {0}
    while True:
        new = {add[x][y] for x in members for y in members} - members
        if not new:
            return members
        members |= new


def _star(b, x, y):
    """x * y = -x + x o y - y, from the raw tables."""
    add, neg = b.add.table, b.add.inv
    return add[add[neg[x]][b.mul.table[x][y]]][neg[y]]


def _add_commutator(b, x, y):
    """[x, y]_+ = x + y - x - y, from the raw tables."""
    add, neg = b.add.table, b.add.inv
    return add[add[add[x][y]][neg[x]]][neg[y]]


def _next_term(b, kind, chain):
    """The term after chain (chain[k - 1] is the k-th term), by definition."""
    full = range(b.n)
    m, term = len(chain), lambda k: chain[k - 1]
    last = chain[-1]
    if kind == "left":
        gens = {_star(b, a, x) for a in full for x in last}
    elif kind == "right":
        gens = {_star(b, x, a) for x in last for a in full}
    elif kind == "gamma":
        gens = (
            {_star(b, x, a) for x in last for a in full}
            | {_star(b, a, x) for a in full for x in last}
            | {_add_commutator(b, a, x) for a in full for x in last}
        )
    elif kind == "strong":
        # B[m+1] = < B[i] * B[m+1-i] : 1 <= i <= m >_+
        gens = {
            _star(b, x, y) for i in range(1, m + 1) for x in term(i) for y in term(m + 1 - i)
        }
    else:
        # G[m+1] = < G[i] * G[m+1-i], [G[i], G[m+1-i]]_+ : 1 <= i <= m >_+
        gens = {
            f(b, x, y)
            for i in range(1, m + 1)
            for x in term(i)
            for y in term(m + 1 - i)
            for f in (_star, _add_commutator)
        }
    return _additive_closure(b, gens)


def _assert_chain_is_recurrence(b, kind):
    chain = [set(t.indices()) for t in series(b, kind).chain]
    assert chain[0] == set(range(b.n))
    for k in range(1, len(chain)):
        assert chain[k] == _next_term(b, kind, chain[:k])
    # The strong and bracketed steps read every earlier term, so one
    # repeat is not enough: run the recurrence 2n further steps.
    longer = list(chain)
    for _ in range(2 * b.n):
        longer.append(_next_term(b, kind, longer))
    assert longer[len(chain) :] == [chain[-1]] * (2 * b.n)


@pytest.mark.parametrize("kind", ["left", "right", "strong", "gamma", "gamma_bracket"])
def test_descending_chains_match_brute_force_closure(braces_up_to_8, kind):
    for b in braces_up_to_8:
        _assert_chain_is_recurrence(b, kind)


# Brace 696 of enumerate_skew_braces(16). Its strong and bracketed gamma
# chains repeat a term of size 2 before they reach {0}.
_ORDER16_ADD = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    [1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14],
    [2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13],
    [3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12],
    [4, 5, 6, 7, 1, 0, 3, 2, 12, 13, 14, 15, 9, 8, 11, 10],
    [5, 4, 7, 6, 0, 1, 2, 3, 13, 12, 15, 14, 8, 9, 10, 11],
    [6, 7, 4, 5, 3, 2, 1, 0, 14, 15, 12, 13, 11, 10, 9, 8],
    [7, 6, 5, 4, 2, 3, 0, 1, 15, 14, 13, 12, 10, 11, 8, 9],
    [8, 9, 10, 11, 12, 13, 14, 15, 2, 3, 0, 1, 6, 7, 4, 5],
    [9, 8, 11, 10, 13, 12, 15, 14, 3, 2, 1, 0, 7, 6, 5, 4],
    [10, 11, 8, 9, 14, 15, 12, 13, 0, 1, 2, 3, 4, 5, 6, 7],
    [11, 10, 9, 8, 15, 14, 13, 12, 1, 0, 3, 2, 5, 4, 7, 6],
    [12, 13, 14, 15, 9, 8, 11, 10, 6, 7, 4, 5, 3, 2, 1, 0],
    [13, 12, 15, 14, 8, 9, 10, 11, 7, 6, 5, 4, 2, 3, 0, 1],
    [14, 15, 12, 13, 11, 10, 9, 8, 4, 5, 6, 7, 1, 0, 3, 2],
    [15, 14, 13, 12, 10, 11, 8, 9, 5, 4, 7, 6, 0, 1, 2, 3],
]
_ORDER16_MUL = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    [1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14],
    [2, 3, 1, 0, 6, 7, 5, 4, 12, 13, 15, 14, 9, 8, 10, 11],
    [3, 2, 0, 1, 7, 6, 4, 5, 13, 12, 14, 15, 8, 9, 11, 10],
    [4, 5, 7, 6, 1, 0, 2, 3, 11, 10, 8, 9, 15, 14, 12, 13],
    [5, 4, 6, 7, 0, 1, 3, 2, 10, 11, 9, 8, 14, 15, 13, 12],
    [6, 7, 4, 5, 3, 2, 1, 0, 14, 15, 12, 13, 11, 10, 9, 8],
    [7, 6, 5, 4, 2, 3, 0, 1, 15, 14, 13, 12, 10, 11, 8, 9],
    [8, 9, 10, 11, 13, 12, 15, 14, 0, 1, 2, 3, 5, 4, 7, 6],
    [9, 8, 11, 10, 12, 13, 14, 15, 1, 0, 3, 2, 4, 5, 6, 7],
    [10, 11, 9, 8, 15, 14, 12, 13, 5, 4, 6, 7, 1, 0, 2, 3],
    [11, 10, 8, 9, 14, 15, 13, 12, 4, 5, 7, 6, 0, 1, 3, 2],
    [12, 13, 15, 14, 8, 9, 11, 10, 2, 3, 1, 0, 7, 6, 4, 5],
    [13, 12, 14, 15, 9, 8, 10, 11, 3, 2, 0, 1, 6, 7, 5, 4],
    [14, 15, 12, 13, 10, 11, 8, 9, 6, 7, 4, 5, 2, 3, 0, 1],
    [15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0],
]


def test_repeated_term_is_not_the_limit():
    b = brace_from_tables(_ORDER16_ADD, _ORDER16_MUL)
    for kind in ("strong", "gamma_bracket"):
        r = series(b, kind)
        assert [len(t) for t in r.chain] == [16, 8, 4, 2, 2, 1]
        assert r.holds and r.cls == 6
    report = nilpotency_report(b)  # the three annihilator routes agree
    assert report.annihilator.holds and report.strong.holds
    for kind in ("left", "right", "strong", "gamma", "gamma_bracket"):
        _assert_chain_is_recurrence(b, kind)


def _invariants(b):
    """Answers that depend on b only up to isomorphism."""
    lattice = subbrace_lattice(b)
    return (
        classify_flags(b),
        {kind: [len(t) for t in series(b, kind).chain] for kind in sorted(series_module._KINDS)},
        nilpotency_report(b).to_json(),
        sorted(len(s) for s in lattice),
        len(radical(b, lattice)),
        sorted(len(o) for o in lambda_orbits(b)),
    )


def test_answers_invariant_under_relabeling(braces_up_to_8):
    rng = random.Random(20240607)
    for b in braces_up_to_8:
        relabel = tuple([0] + rng.sample(range(1, b.n), b.n - 1))
        assert _invariants(relabeled(b, relabel)) == _invariants(b)


def _ascending_chain(b, kind):
    """The socle or annihilator chain from the raw tables, with no quotient.

    x lies in A_{k+1} when, for every a, x + a, a + x and x o a (socle), and
    a o x as well (annihilator), lie in one additive coset of A_k; the chain
    starts at {0} and stops before its first repeated term.
    """
    add, mul, neg = b.add.table, b.mul.table, b.add.inv

    def lifts(x, a, term):
        images = [add[x][a], add[a][x], mul[x][a]]
        if kind == "annihilator":
            images.append(mul[a][x])
        return all(add[neg[images[0]]][y] in term for y in images[1:])

    chain = [{0}]
    while True:
        nxt = {x for x in range(b.n) if all(lifts(x, a, chain[-1]) for a in range(b.n))}
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)


@pytest.mark.parametrize("kind", ["socle", "annihilator"])
def test_ascending_chains_match_preimage_fixpoint(braces_up_to_12, kind):
    for b in braces_up_to_12:
        assert [set(t.indices()) for t in series(b, kind).chain] == _ascending_chain(b, kind)


def _quotient_chain(b, kind):
    """The socle or annihilator chain through quotient braces: A_{k+1} is the
    preimage of Soc(B/A_k), or Ann(B/A_k), under the projection from B."""
    chain = [Subset.zero(b.n)]
    while True:
        quot, proj = quotient(b, chain[-1])
        found = invariant_substructures(quot)
        target = found.soc if kind == "socle" else found.ann
        nxt = Subset.of(b.n, (x for x in range(b.n) if proj[x] in target))
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)


@pytest.mark.parametrize("kind", ["socle", "annihilator"])
def test_ascending_chains_match_quotient_route(braces_up_to_12, kind):
    for b in braces_up_to_12:
        assert list(series(b, kind).chain) == _quotient_chain(b, kind)


def test_product_masks_match_pairwise_products(braces_up_to_12, braces_24):
    # each mask path against star_products and commutator_products, the
    # pairwise products the bracketed gamma chain reads: X*B, B*Y and
    # [B,Y]_+ for every additive subgroup, and the per-element masks that
    # the socle and annihilator needs are ORed from
    for b in braces_up_to_12 + braces_24:
        products = series_module._Shared(b)
        full = Subset.full(b.n)
        for m, _ in b.add.subgroups:
            s = Subset(b.n, m)
            assert products.right(s) == star_products(b, s, full)
            assert products.left(s) == star_products(b, full, s)
            assert products.commutators(s) == commutator_products(b.add, full, s)
        for x in range(b.n):
            one = Subset(b.n, 1 << x)
            assert products.star_rows[x] == star_products(b, one, full)
            assert products.star_cols[x] == star_products(b, full, one)
            assert products.comm_rows[x] == commutator_products(b.add, one, full)


def test_a_wrong_mask_makes_the_annihilator_routes_disagree(monkeypatch, trivial_z2):
    # every star product of the trivial brace on Z/2 is 0; a star column of
    # 1 that also holds 1 stops the annihilator and gamma series, and the
    # bracketed gamma series, which reads no mask, still reaches {0}
    build = series_module._Shared

    def wrong(b):
        products = build(b)
        products.star_cols[1] |= 0b10
        return products

    monkeypatch.setattr(series_module, "_Shared", wrong)
    with pytest.raises(CrossCheckFailed) as exc:
        nilpotency_report(trivial_z2)
    assert str(exc.value) == "annihilator routes disagree: ann=False gamma=False gamma_bracket=True"


def test_series_work_counts(monkeypatch, braces_up_to_12, braces_24):
    # exact counts, taken by wrappers at the names the library calls
    calls = Counter()

    def count(module, name, key):
        kernel = getattr(module, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(series_module, "is_ideal", "report")
    count(substructures, "is_ideal", "radical")
    for b in braces_24:
        nilpotency_report(b)
        radical(b, subbrace_lattice(b))
    # 7,182 and 3,814 when each series tested every term of its own
    assert (calls["report"], calls["radical"]) == (2821, 3814)

    calls.clear()
    count(series_module, "star_products", "star")
    count(series_module, "commutator_products", "commutator")
    for b in braces_up_to_12:
        nilpotency_report(b)
    # 1,673 and 1,649 when products with the carrier were pairwise too
    assert (calls["star"], calls["commutator"]) == (458, 415)


BENCH_CATALOG_24 = Path(__file__).resolve().parents[1] / "perfbench/data/braces-24.jsonl.gz"

# conftest.series_digest pinned at the commit before the socle and annihilator
# terms were pulled back without quotient braces; recomputed at 62da773 with
# the report's cross_checks field, since removed, left out of its JSON
SERIES_UP_TO_12_DIGEST = "e2ff55ae82f6596dbcb22d593dc74e4364f7955c64ea7db2f1b5c54e2e14c570"
SERIES_24_DIGEST = "07d9b635c3c6d96cb924e73c16340ca74b7a0d6f255ce48b635b4189b1948429"


def test_series_and_reports_are_pinned(braces_up_to_12, tmp_path):
    assert series_digest(braces_up_to_12) == SERIES_UP_TO_12_DIGEST
    catalog = tmp_path / "braces-24.jsonl"
    catalog.write_bytes(gzip.decompress(BENCH_CATALOG_24.read_bytes()))
    assert series_digest(read_catalog(catalog).items) == SERIES_24_DIGEST


def test_series_is_the_module_under_the_package():
    # the package does not shadow its submodule with the function series
    import types

    import bracelab
    import bracelab.series as S

    assert isinstance(S, types.ModuleType) and bracelab.series is S
    b = from_zn_quadratic(4, 2)
    assert chains(S.series(b, "annihilator")) == [[0], [0, 2], [0, 1, 2, 3]]
    assert S.nilpotency_report(b).annihilator.cls == 2
