import pytest

from bracelab.brace import from_group_almost_trivial, from_group_trivial
from bracelab.errors import HypothesisUnmet
from bracelab.groups import cyclic, dihedral, quaternion8, symmetric
from bracelab.series import gamma_distributivity_check, gamma_series, nilpotency_report, series
from bracelab.subsets import Subset


def chains(report):
    return [s.indices() for s in report.chain]


def test_left_series_of_trivial_brace(trivial_z2):
    r = series(trivial_z2, "left")
    assert chains(r) == [[0, 1], [0]]
    assert r.terminates and r.cls == 2


def test_one_element_brace_series():
    one = from_group_trivial(cyclic(1))
    assert series(one, "left").cls == 1
    assert series(one, "gamma").cls == 0
    assert series(one, "annihilator").cls == 0
    assert series(one, "gamma_bracket").cls == 1


def test_annihilator_chain_of_quadratic_brace(z4_quadratic):
    r = series(z4_quadratic, "annihilator")
    assert chains(r) == [[0], [0, 2], [0, 1, 2, 3]]
    assert r.terminates and r.cls == 2
    # gamma route gives the same verdict with its own indexing
    g = series(z4_quadratic, "gamma")
    assert chains(g) == [[0, 1, 2, 3], [0, 2], [0]]
    assert g.cls == 2
    gb = series(z4_quadratic, "gamma_bracket")
    assert gb.cls == 3


def test_five_point_brace_series(five_point_brace):
    right = series(five_point_brace, "right")
    left = series(five_point_brace, "left")
    assert right.terminates
    assert not left.terminates
    assert len(left.chain[-1]) > 1  # stabilizes above zero


def test_socle_series_descends_to_s_series(five_point_brace, z4_quadratic):
    # reversed socle chain is an s-series; right terms embed in it
    for b in (five_point_brace, z4_quadratic):
        soc = series(b, "socle")
        if not soc.terminates:
            continue
        right = series(b, "right")
        m = len(soc.chain) - 1
        for i in range(m + 1):
            term = right.chain[i] if i < len(right.chain) else right.chain[-1]
            assert term <= soc.chain[m - i]


def test_group_series_kinds(five_point_brace):
    b = five_point_brace
    assert series(b, "lcs_add").terminates  # Z/6 abelian
    assert series(b, "lcs_add").cls == 1
    assert not series(b, "lcs_mul").terminates  # Sym(3)
    assert series(b, "ucs_mul").chain[-1].indices() == [0]


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
    assert all(c["holds"] for c in rep.cross_checks)


def test_nilpotency_report_five_point(five_point_brace):
    rep = nilpotency_report(five_point_brace)
    assert rep.right.holds
    assert not rep.left.holds
    assert not rep.strong.holds
    assert not rep.annihilator.holds
    assert rep.nilpotent_type
    assert all(c["holds"] for c in rep.cross_checks)


def test_gamma_series_general_ideal_argument(z4_quadratic):
    chain = gamma_series(z4_quadratic, Subset.of(4, [0, 2]))
    assert [s.indices() for s in chain] == [[0, 2], [0]]


def test_gamma_distributivity(z4_quadratic, trivial_z2, five_point_brace):
    rep = gamma_distributivity_check(z4_quadratic)
    assert rep["class"] == 3
    assert rep["checked"] == 64  # one admissible k, all of B^3
    assert rep["counterexamples"] == []
    rep = gamma_distributivity_check(trivial_z2)
    assert rep["counterexamples"] == []
    with pytest.raises(HypothesisUnmet):
        gamma_distributivity_check(five_point_brace)


def test_distributivity_holds_on_nonabelian_nilpotent_trivial_brace():
    rep = gamma_distributivity_check(from_group_trivial(dihedral(4)))
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


@pytest.mark.parametrize("kind", ["left", "right", "strong", "gamma", "gamma_bracket"])
def test_descending_chains_match_brute_force_closure(braces_up_to_8, kind):
    for b in braces_up_to_8:
        chain = [set(t.indices()) for t in series(b, kind).chain]
        assert chain[0] == set(range(b.n))
        for k in range(1, len(chain)):
            assert chain[k] == _next_term(b, kind, chain[:k])
        assert _next_term(b, kind, chain) == chain[-1]
