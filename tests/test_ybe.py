import hashlib
import json

import pytest

from bracelab.enumeration import enumerate_involutive_solutions, sample_involutive_solutions
from bracelab.errors import (
    BraidFailed,
    BudgetExceeded,
    NotBijective,
)
from bracelab.groups import cyclic, isomorphic_groups
from bracelab.perms import compose, invert, perm_order
from bracelab.series import nilpotency_report
from bracelab.ybe import (
    equivalence_check,
    involutive_from_sigma,
    multipermutation_level,
    permutation_brace,
    retract,
    verify_solution,
)
from conftest import FIVE_POINT_SIGMA
from oracles import from_cycles, symmetric


def test_flip_solution():
    sol = verify_solution([tuple(range(3))] * 3, [tuple(range(3))] * 3)
    assert sol.involutive
    assert (sol.sigma[0][2], sol.tau[2][0]) == (2, 0)  # r(0, 2)


def test_braid_failure_named():
    with pytest.raises(BraidFailed):
        verify_solution([(0, 1), (0, 1)], [(0, 1), (1, 0)])


def test_r_collision_named():
    with pytest.raises(NotBijective):
        verify_solution([(0, 1), (1, 0)], [(0, 1), (1, 0)])


def test_five_point_sigma_validates(five_point_solution):
    assert five_point_solution.involutive
    assert five_point_solution.n == 5


def test_involutive_from_sigma_flip():
    sol = involutive_from_sigma([tuple(range(4))] * 4)
    assert sol.tau == (tuple(range(4)),) * 4


def test_constant_cycle_sigma_gives_trivial_brace():
    pi = from_cycles(4, [(0, 1, 2, 3)])
    sol = involutive_from_sigma([pi] * 4)
    assert sol.involutive
    assert all(t == invert(pi) for t in sol.tau)
    brace, gen_map = permutation_brace(sol)
    assert brace.n == perm_order(pi)
    assert brace.add.table == brace.mul.table
    assert len(set(gen_map)) == 1


def test_retract_examples(five_point_solution):
    flip = involutive_from_sigma([tuple(range(3))] * 3)
    r1, cmap = retract(flip)
    assert r1.n == 1 and cmap == (0, 0, 0)
    r1, cmap = retract(five_point_solution)
    assert r1.n == 3
    assert cmap == (0, 0, 0, 1, 2)
    singleton = involutive_from_sigma([tuple(range(1))])
    again, cmap = retract(singleton)
    assert again.n == 1 and cmap == (0,)


def test_retract_size_never_grows(five_point_solution):
    current = five_point_solution
    while current.n > 1:
        nxt, cmap = retract(current)
        assert nxt.n <= current.n
        distinct_pairs = len({(current.sigma[x], current.tau[x]) for x in range(current.n)})
        assert nxt.n == distinct_pairs
        if nxt.n == current.n:
            break
        current = nxt


def test_multipermutation_levels(five_point_solution):
    assert multipermutation_level(involutive_from_sigma([tuple(range(1))])) == 0
    assert multipermutation_level(involutive_from_sigma([tuple(range(4))] * 4)) == 1
    # oracle: iterate the retraction by hand on the five-point data
    level = 0
    sig = [list(p) for p in FIVE_POINT_SIGMA]
    tau = [list(p) for p in five_point_solution.tau]
    size = 5
    while size > 1:
        keys = sorted({(tuple(sig[x]), tuple(tau[x])) for x in range(size)})
        if len(keys) == size:
            level = None
            break
        index = {k: i for i, k in enumerate(keys)}
        cmap = [index[(tuple(sig[x]), tuple(tau[x]))] for x in range(size)]
        new_sig = [[0] * len(keys) for _ in range(len(keys))]
        new_tau = [[0] * len(keys) for _ in range(len(keys))]
        reps = {}
        for x in range(size):
            reps.setdefault(cmap[x], x)
        for c, x in reps.items():
            for d, y in reps.items():
                new_sig[c][d] = cmap[sig[x][y]]
                new_tau[c][d] = cmap[tau[x][y]]
        sig, tau, size = new_sig, new_tau, len(keys)
        level += 1
    assert level == 3
    assert multipermutation_level(five_point_solution) == 3


def test_five_point_brace_structure(five_point_brace):
    assert five_point_brace.n == 6
    assert isomorphic_groups(five_point_brace.add, cyclic(6)) is not None
    assert isomorphic_groups(five_point_brace.mul, symmetric(3)) is not None
    rep = nilpotency_report(five_point_brace)
    assert rep.right.holds and not rep.left.holds


def test_permutation_brace_of_flip_is_one_point():
    sol = involutive_from_sigma([tuple(range(3))] * 3)
    brace, gen_map = permutation_brace(sol)
    assert brace.n == 1
    assert gen_map == (0, 0, 0)


def test_permutation_brace_budget(five_point_solution, monkeypatch):
    monkeypatch.setenv("BRACELAB_BUDGET", "3")
    with pytest.raises(BudgetExceeded):
        permutation_brace(five_point_solution)


def test_budget_env_override(five_point_solution, monkeypatch):
    monkeypatch.setenv("BRACELAB_BUDGET", "2")
    with pytest.raises(BudgetExceeded):
        permutation_brace(five_point_solution)


def test_gen_map_intertwines(five_point_solution):
    sol = five_point_solution
    brace, gen_map = permutation_brace(sol)
    for x in range(sol.n):
        for y in range(sol.n):
            lhs = brace.mul.table[gen_map[x]][gen_map[y]]
            rhs = brace.mul.table[gen_map[sol.sigma[x][y]]][gen_map[sol.tau[y][x]]]
            assert lhs == rhs
            assert brace.lam[gen_map[x]][gen_map[y]] == gen_map[sol.sigma[x][y]]


def test_equivalence_check(five_point_solution):
    flip = involutive_from_sigma([tuple(range(2))] * 2)
    rep = equivalence_check(flip)
    assert rep["multipermutation"] and rep["level"] == 1 and rep["brace_size"] == 1
    rep = equivalence_check(five_point_solution)
    assert rep["multipermutation"]
    assert rep["right_nilpotent"] and rep["nilpotent_type"]
    assert rep["abelian_type"]
    assert not rep["left_nilpotent"]


def _pinned_solutions():
    """The size 1..4 catalogs and eight seeded size-5 samples."""
    sets = {f"size {n}": enumerate_involutive_solutions(n).items for n in range(1, 5)}
    sets["sample 5/8/987653"] = sample_involutive_solutions(5, 8, 987653)
    return sets


# Pinned permutation-brace tables (add, then mul, of each solution in order).
PERMUTATION_BRACE_DIGESTS = {
    "size 1": "3cabb44f21b758fcd608b0a3cc848e5de615457fc5e77d156b7273acfd8b29e0",
    "size 2": "eec3309d99b13e1595c664bf99130e4a25e93a50ca6ca81a117e4e4df2a22a0e",
    "size 3": "a07ccc350029788e8086449fb63fb3b48cb95bf54d631fa763a77aebf245cb31",
    "size 4": "b1d823c0c3a528872be24597bcfd4eb01ad691732f3782fc8386b5ed718b1dcf",
    "sample 5/8/987653": "8e92d17f324d824cac247c2e88adcf19664cfda00bc309659bf114d456d1d36d",
}


def test_permutation_brace_tables_are_pinned():
    for name, sols in _pinned_solutions().items():
        braces = [permutation_brace(sol)[0] for sol in sols]
        tables = json.dumps([[b.add.table, b.mul.table] for b in braces])
        assert hashlib.sha256(tables.encode()).hexdigest() == PERMUTATION_BRACE_DIGESTS[name], name


def test_permutation_brace_addition_matches_its_definition():
    # a + g_x = a o g_{alpha_a^-1(x)}, alpha_a the first component of a. The
    # first components are read off the multiplication table: alpha of
    # a o g_x is alpha_a . sigma_x, from alpha = identity at the identity.
    for sols in _pinned_solutions().values():
        for sol in sols:
            b, gen_map = permutation_brace(sol)
            alpha = {0: tuple(range(sol.n))}
            queue = [0]
            while queue:
                a = queue.pop()
                for x in range(sol.n):
                    c = b.mul.table[a][gen_map[x]]
                    if c not in alpha:
                        alpha[c] = compose(alpha[a], sol.sigma[x])
                        queue.append(c)
            assert len(alpha) == b.n
            for a in range(b.n):
                alpha_inv = invert(alpha[a])
                for x in range(sol.n):
                    assert b.add.table[a][gen_map[x]] == b.mul.table[a][gen_map[alpha_inv[x]]]
