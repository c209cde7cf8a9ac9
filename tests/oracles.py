"""References and fixtures the tests compare against or build inputs from.

quotient and invariant_substructures are the definitional route to the socle
and annihilator series, which the library pulls back without quotients.
first_repeat, first_nonassociative, first_brace_law_violation,
is_two_sided and star_identity_failures check the laws on every pair or
triple, one at a time; latin_message, associativity_message and
brace_law_message give the message validation raises for such a witness.
unpruned_cyclic_extensions is the group census's candidate loop without
its orbit rule. is_normal and upper_central_series are group facts from
their definitions, for the tests that still need them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Optional, Sequence

from bracelab.brace import SkewBrace, brace_from_tables, verify_skew_brace
from bracelab.errors import BraceLabError, CrossCheckFailed
from bracelab.groups import GroupTable, all_automorphisms, from_permutations, verify_group
from bracelab.perms import Perm, compose, invert
from bracelab.subsets import Subset
from bracelab.substructures import is_ideal


class NotAnIdeal(BraceLabError):
    """quotient was given a subset that is not an ideal."""


def quotient(b: SkewBrace, ideal: Subset) -> tuple[SkewBrace, tuple[int, ...]]:
    """Quotient brace on additive cosets of an ideal, identity coset first.

    Every quotient is checked in full: the ideal, coset well-definedness over
    all pairs and the quotient tables.
    """
    if not is_ideal(b, ideal):
        raise NotAnIdeal(f"{ideal.indices()} is not an ideal")

    n = b.n
    add_t, mul_t = b.add.table, b.mul.table
    members = ideal.indices()
    proj = [-1] * n
    reps: list[int] = []
    for a in range(n):
        if proj[a] != -1:
            continue
        idx = len(reps)
        reps.append(a)
        row = add_t[a]
        for i in members:
            proj[row[i]] = idx
    qadd = [[proj[add_t[x][y]] for y in reps] for x in reps]
    qmul = [[proj[mul_t[x][y]] for y in reps] for x in reps]
    # Well-definedness over all pairs, not just representatives.
    for a in range(n):
        add_row, mul_row = add_t[a], mul_t[a]
        qadd_row, qmul_row = qadd[proj[a]], qmul[proj[a]]
        for c in range(n):
            if proj[add_row[c]] != qadd_row[proj[c]]:
                raise NotAnIdeal("additive_cosets_ill_defined", (a, c))
            if proj[mul_row[c]] != qmul_row[proj[c]]:
                raise NotAnIdeal("multiplicative_cosets_ill_defined", (a, c))
    quot = brace_from_tables(qadd, qmul)
    return quot, tuple(proj)


@dataclass(frozen=True)
class InvariantSubstructures:
    z_add: Subset
    z_mul: Subset
    ker_lambda: Subset
    fix: Subset
    soc: Subset
    ann: Subset


def invariant_substructures(b: SkewBrace) -> InvariantSubstructures:
    """Centers, Ker lambda, Fix, Soc = Ker lambda meet Z(B,+), Ann = Soc meet Fix.

    Ann is recomputed from its elementwise characterization
    {x : x o a = a o x = x + a = a + x for all a}; both must agree.
    """
    n = b.n
    add_t, mul_t, lam = b.add.table, b.mul.table, b.lam
    ident = tuple(range(n))
    z_add = Subset.of(
        n, (a for a in range(n) if all(add_t[a][c] == add_t[c][a] for c in range(n)))
    )
    z_mul = Subset.of(
        n, (a for a in range(n) if all(mul_t[a][c] == mul_t[c][a] for c in range(n)))
    )
    ker = Subset.of(n, (a for a in range(n) if lam[a] == ident))
    fix = Subset.of(n, (x for x in range(n) if all(lam[a][x] == x for a in range(n))))
    soc = ker & z_add
    ann = soc & fix
    ann_direct = Subset.of(
        n,
        (
            x
            for x in range(n)
            if all(
                mul_t[x][a] == mul_t[a][x] == add_t[x][a] == add_t[a][x]
                for a in range(n)
            )
        ),
    )
    if ann != ann_direct:
        raise CrossCheckFailed("annihilator characterizations disagree")
    return InvariantSubstructures(z_add, z_mul, ker, fix, soc, ann)


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    n = g.n * h.n
    table = [[0] * n for _ in range(n)]
    for a1 in range(g.n):
        for a2 in range(h.n):
            for b1 in range(g.n):
                for b2 in range(h.n):
                    table[a1 * h.n + a2][b1 * h.n + b2] = g.table[a1][b1] * h.n + h.table[a2][b2]
    return verify_group(table)


def is_normal(g: GroupTable, s: Subset) -> bool:
    """a x a^-1 lies in s for every a in g and every x in s."""
    t, inv = g.table, g.inv
    return all(t[t[a][x]][inv[a]] in s for a in range(g.n) for x in s)


def upper_central_series(g: GroupTable) -> list[Subset]:
    """Z_0 = 1, Z_{k+1} = {x : [x, a] in Z_k for all a}, [x, a] = x a x^-1 a^-1,
    up to the first repeat, which is left out."""
    t, inv, n = g.table, g.inv, g.n
    chain = [Subset.zero(n)]
    while True:
        nxt = Subset.of(n, (
            x for x in range(n)
            if all(t[t[t[x][a]][inv[x]]][inv[a]] in chain[-1] for a in range(n))
        ))
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)


def unpruned_cyclic_extensions(base: GroupTable, p: int) -> Iterable[list[list[int]]]:
    """Every table of order p*|N| built from t^i x with t^p = z and
    t x t^-1 = alpha(x), over all alpha in Aut(N) and z in N with
    alpha(z) = z and alpha^p equal to conjugation by z: one per pair, alpha
    in sorted order and then z ascending."""
    m, base_t = base.n, base.table
    n = m * p
    conj = {
        z: tuple(base.conjugate(z, x) for x in range(m)) for z in range(m)
    }
    for alpha in all_automorphisms(base):
        alpha_inv_pows = [tuple(range(m))]
        ainv = invert(alpha)
        for _ in range(p - 1):
            alpha_inv_pows.append(compose(ainv, alpha_inv_pows[-1]))
        alpha_p = tuple(range(m))
        for _ in range(p):
            alpha_p = compose(alpha, alpha_p)
        for z in range(m):
            if alpha[z] != z or alpha_p != conj[z]:
                continue
            table = [[0] * n for _ in range(n)]
            for i in range(p):
                for x in range(m):
                    row = table[i * m + x]
                    for j in range(p):
                        x_row = base_t[alpha_inv_pows[j][x]]
                        for y in range(m):
                            w = x_row[y]
                            if i + j < p:
                                row[j * m + y] = (i + j) * m + w
                            else:
                                row[j * m + y] = (i + j - p) * m + base_t[z][w]
            yield table


def symmetric(k: int) -> GroupTable:
    perms = sorted(tuple(p) for p in permutations(range(k)))
    return from_permutations(perms)


def dihedral(k: int) -> GroupTable:
    """Dihedral group of order 2k: (i, s) with i mod k, s in {0,1}."""
    n = 2 * k
    table = [[0] * n for _ in range(n)]
    for i in range(k):
        for s in (0, 1):
            for j in range(k):
                for u in (0, 1):
                    # (i, s)(j, u) = (i + j if s == 0 else i - j, s xor u)
                    m = (i + j) % k if s == 0 else (i - j) % k
                    table[s * k + i][u * k + j] = (s ^ u) * k + m
    return verify_group(table)


def quaternion8() -> GroupTable:
    # 0..7 = 1, -1, i, -i, j, -j, k, -k
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    sign = lambda s: 1 if not s.startswith("-") else -1
    base = lambda s: s.lstrip("-")
    rules = {
        ("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
        ("i", "1"): "i", ("j", "1"): "j", ("k", "1"): "k",
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }
    def product(x: str, y: str) -> str:
        s = sign(x) * sign(y)
        r = rules[(base(x), base(y))]
        s *= sign(r)
        r = base(r)
        return r if s == 1 else "-" + r
    idx = {s: i for i, s in enumerate(names)}
    table = [[idx[product(x, y)] for y in names] for x in names]
    return verify_group(table)


def from_cycles(n: int, cycles: Iterable[Sequence[int]]) -> Perm:
    out = list(range(n))
    for cyc in cycles:
        for i, v in enumerate(cyc):
            out[v] = cyc[(i + 1) % len(cyc)]
    return tuple(out)


def relabeled_group(g: GroupTable, relabel: Perm) -> GroupTable:
    """Transport the group structure along a carrier bijection fixing 0."""
    if relabel[0] != 0:
        raise ValueError("relabeling must fix the identity")
    old, t = invert(relabel), g.table
    return verify_group([[relabel[t[x][y]] for y in old] for x in old])


def relabeled(b: SkewBrace, relabel: Perm) -> SkewBrace:
    """Transport both tables along a carrier bijection fixing 0."""
    add, mul = (relabeled_group(g, relabel) for g in (b.add, b.mul))
    return verify_skew_brace(add, mul)


Table = Sequence[Sequence[int]]


def first_repeat(table: Table):
    """The first repeated entry of a table, rows before columns, as
    (axis, index, (first position, second position, value)), or None."""
    for axis, lines in (("row", table), ("column", [list(col) for col in zip(*table)])):
        for i, line in enumerate(lines):
            seen = {}
            for j, v in enumerate(line):
                if v in seen:
                    return axis, i, (seen[v], j, v)
                seen[v] = j
    return None


def first_nonassociative(t: Table) -> Optional[tuple[int, int, int]]:
    """The first (a, b, c) in lexicographic order with (a*b)*c != a*(b*c)."""
    n = len(t)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    return a, b, c
    return None


def first_brace_law_violation(add: Table, mul: Table) -> Optional[tuple[int, int, int]]:
    """The first (a, b, c) in lexicographic order with
    a o (b+c) != a o b - a + a o c; add and mul are group tables."""
    n = len(add)
    neg = [row.index(0) for row in add]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul[a][add[b][c]] != add[add[mul[a][b]][neg[a]]][mul[a][c]]:
                    return a, b, c
    return None


def latin_message(repeat) -> str:
    """verify_group's NotLatin message for a first_repeat result."""
    axis, index, (first, second, value) = repeat
    return f"{axis} {index} repeats value {value} at positions {first} and {second}"


def associativity_message(triple: tuple[int, int, int]) -> str:
    """verify_group's NotAssociative message for a first_nonassociative result."""
    return "(a*b)*c != a*(b*c) for (a,b,c)=({},{},{})".format(*triple)


def brace_law_message(triple: tuple[int, int, int]) -> str:
    """verify_skew_brace's BraceLawViolated message for a
    first_brace_law_violation result."""
    return "a o (b+c) != a o b - a + a o c for (a,b,c)=({},{},{})".format(*triple)


def is_two_sided(add: Table, mul: Table) -> bool:
    """(a+b) o c == a o c - c + b o c on all triples."""
    n = len(add)
    neg = [row.index(0) for row in add]
    return all(
        mul[add[a][b]][c] == add[add[mul[a][c]][neg[c]]][mul[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def star_identity_failures(b: SkewBrace) -> list[tuple[str, tuple[int, int, int]]]:
    """The three star expansion identities, triple by triple, each in
    (x, y, z) order, from the lam and star tables as b stores them."""
    n, add, mul, st, neg = b.n, b.add.table, b.mul.table, b.star, b.add.inv
    lam_inv = [invert(row) for row in b.lam]
    triples = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)]
    out = []
    for x, y, z in triples:
        if st[x][add[y][z]] != add[add[add[st[x][y]][y]][st[x][z]]][neg[y]]:
            out.append(("star_of_sum", (x, y, z)))
    for x, y, z in triples:
        s = st[lam_inv[x][y]][z]
        if st[add[x][y]][z] != add[add[st[x][s]][s]][st[x][z]]:
            out.append(("sum_star", (x, y, z)))
    for x, y, z in triples:
        s = st[y][z]
        if st[mul[x][y]][z] != add[add[st[x][s]][s]][st[x][z]]:
            out.append(("product_star", (x, y, z)))
    return out
