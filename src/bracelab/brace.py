"""Finite skew braces: two group tables on one carrier linked by the brace law."""

from __future__ import annotations

from dataclasses import dataclass
from operator import getitem, itemgetter
from typing import Callable, Optional, Sequence

from . import groups
from .errors import BraceLabError, BraceLawViolated, CrossCheckFailed, NotABrace
from .groups import GroupTable, cyclic, opposite, verify_group
from .perms import Perm, cycle_type, invert


@dataclass(frozen=True)
class SkewBrace:
    """Validated skew brace with precomputed lambda and star tables.

    lam[a][b] = -a + a o b, star[a][b] = lam[a][b] - b. Both operations have
    their identity at index 0.
    """

    n: int
    add: GroupTable
    mul: GroupTable
    lam: tuple[tuple[int, ...], ...]
    star: tuple[tuple[int, ...], ...]


def verify_skew_brace(add: GroupTable, mul: GroupTable) -> SkewBrace:
    """Check the brace law and build the lambda/star tables.

    With lam_a(b) = -a + a o b, the brace law a o (b+c) = a o b - a + a o c
    says each lam_a is additive. It is checked only for each generator g of
    (B,o) and only on the generators h of (B,+): lam_g(h + x) = lam_g(h) +
    lam_g(x) for every x. That is enough:
      - the h that pass are closed under +, so lam_g is additive;
      - if lam_a is additive, lam_a(lam_b(c)) = -lam_a(b) + lam_a(b o c) =
        lam_(a o b)(c) for all b, c, so lam_(a o b) = lam_a lam_b, and the
        elements with an additive lam are closed under o.
    So the law holds on all triples, and lam is a homomorphism (B,o) ->
    Aut(B,+) (Guarnieri and Vendramin, Math. Comp. 86, 2017). Each lam_a is a
    permutation, as the composite of x -> a o x and x -> -a + x, so with two
    verified groups nothing about lam is left to check. A failure rescans all
    triples for the first one that breaks the law.
    """
    if add.n != mul.n:
        raise NotABrace(f"carrier sizes differ: {add.n} != {mul.n}")
    n = add.n
    add_t, mul_t, neg = add.table, mul.table, add.inv
    lam = tuple(tuple(map(add_t[neg[a]].__getitem__, mul_t[a])) for a in range(n))
    for g in mul.generators:
        if not _is_additive(lam[g], add):
            _raise_first_brace_law_violation(add, mul)

    minus = _picker(neg)(tuple(zip(*add_t)))  # minus[b][v] = v - b
    star = tuple(tuple(map(getitem, minus, row)) for row in lam)
    return SkewBrace(n=n, add=add, mul=mul, lam=lam, star=star)


def _is_additive(f: Sequence[int], add: GroupTable) -> bool:
    """f(h + x) == f(h) + f(x) for each generator h of add and every x; by
    the argument in verify_skew_brace's docstring, f is then additive."""
    add_t = add.table
    for h in add.generators:
        if tuple(map(f.__getitem__, add_t[h])) != tuple(map(add_t[f[h]].__getitem__, f)):
            return False
    return True


def _raise_first_brace_law_violation(add: GroupTable, mul: GroupTable) -> None:
    """Raise BraceLawViolated at the first triple (a, b, c), in lexicographic
    order, with a o (b+c) != a o b - a + a o c."""
    add_t, mul_t = add.table, mul.table
    for a, (mul_row, neg_a) in enumerate(zip(mul_t, add.inv)):
        for b, ab in enumerate(mul_row):
            lhs = map(mul_row.__getitem__, add_t[b])
            rhs = map(add_t[add_t[ab][neg_a]].__getitem__, mul_row)
            for c, (x, y) in enumerate(zip(lhs, rhs)):
                if x != y:
                    raise BraceLawViolated(
                        f"a o (b+c) != a o b - a + a o c for (a,b,c)=({a},{b},{c})"
                    )
    raise CrossCheckFailed("a generator check failed, but the brace law holds on all triples")


def brace_from_tables(add_table, mul_table) -> SkewBrace:
    """Validate raw tables sharing one carrier labeling with identity 0."""
    return verify_skew_brace(verify_group(add_table), verify_group(mul_table))


# ---------------------------------------------------------------------------
# Constructors


def from_group_trivial(g: GroupTable) -> SkewBrace:
    return verify_skew_brace(g, g)


def from_group_almost_trivial(g: GroupTable) -> SkewBrace:
    return verify_skew_brace(g, opposite(g))


def from_zn_quadratic(n: int, c: int) -> SkewBrace:
    """Brace on Z/n with x o y = x + y + c*x*y, when that is a group."""
    add = cyclic(n)
    mul_table = [[(x + y + c * x * y) % n for y in range(n)] for x in range(n)]
    try:
        return verify_skew_brace(add, verify_group(mul_table))
    except BraceLabError as exc:
        raise NotABrace(f"x+y+{c}xy mod {n} is not a skew brace: {exc}") from exc


# ---------------------------------------------------------------------------
# Classification flags


@dataclass(frozen=True)
class BraceFlags:
    trivial: bool
    two_sided: bool
    abelian_type: bool
    nilpotent_type: bool
    add_nilpotency_class: Optional[int]
    mul_nilpotent: bool
    mul_nilpotency_class: Optional[int]


def classify_flags(b: SkewBrace) -> BraceFlags:
    add_class = b.add.nilpotency_class
    mul_class = b.mul.nilpotency_class
    return BraceFlags(
        trivial=b.add.table == b.mul.table,
        two_sided=_is_two_sided(b),
        abelian_type=b.add.is_abelian(),
        nilpotent_type=add_class is not None,
        add_nilpotency_class=add_class,
        mul_nilpotent=mul_class is not None,
        mul_nilpotency_class=mul_class,
    )


def _is_two_sided(b: SkewBrace) -> bool:
    """(a + b) o c == a o c - c + b o c on all triples, that is, each
    rho_c(x) = x o c - c is additive."""
    add_cols, neg = tuple(zip(*b.add.table)), b.add.inv
    return all(
        _is_additive(tuple(map(add_cols[neg[c]].__getitem__, mul_col)), b.add)
        for c, mul_col in enumerate(zip(*b.mul.table))
    )


# ---------------------------------------------------------------------------
# Isomorphism


def _element_fingerprints(b: SkewBrace) -> list[tuple]:
    """Per element: its orders in both groups, the size of its lambda orbit,
    the cycle type of its lambda map, and whether it is central in (B,+) and
    in (B,o). Every isomorphism preserves each mark, so the sorted marks are
    a brace invariant. They fix the order pairs, the lambda-orbit sizes,
    |Ker lambda| (identity cycle type), |Fix| (orbit size 1), |Soc| (Ker
    lambda meet Z(B,+)), |Ann| (Soc meet Fix) and whether each group is
    abelian."""
    orbit_sizes = {x: len(o) for o in lambda_orbits(b) for x in o}
    add_t, mul_t = b.add.table, b.mul.table
    add_cols, mul_cols = list(zip(*add_t)), list(zip(*mul_t))
    return [
        (b.add.element_orders[a], b.mul.element_orders[a], orbit_sizes[a], cycle_type(b.lam[a]),
         add_t[a] == add_cols[a], mul_t[a] == mul_cols[a])
        for a in range(b.n)
    ]


def lambda_orbits(b: SkewBrace) -> list[list[int]]:
    """Orbits of the lambda-image group acting on the carrier."""
    assigned = [False] * b.n
    orbits: list[list[int]] = []
    for x in range(b.n):
        if assigned[x]:
            continue
        orbit = sorted({b.lam[a][x] for a in range(b.n)})
        for y in orbit:
            assigned[y] = True
        orbits.append(orbit)
    return orbits


def isomorphic(b1: SkewBrace, b2: SkewBrace) -> Optional[Perm]:
    """A bijection fixing 0 that preserves both tables, or None: the first
    map of groups._isomorphisms, with _element_fingerprints as marks. Finer
    marks only drop candidates no isomorphism can use, so they never change
    which map is first."""
    maps = groups._isomorphisms(
        (b1.add.table, b1.mul.table),
        (b2.add.table, b2.mul.table),
        _element_fingerprints(b1),
        _element_fingerprints(b2),
    )
    return next(maps, None)


# ---------------------------------------------------------------------------
# Star-operation identities


def star_identity_violations(b: SkewBrace) -> list[tuple[str, tuple[int, int, int]]]:
    """Violations of the three star expansion identities, on all n^3 triples:

      x*(y+z)   = x*y + y + x*z - y
      (x+y)*z   = x*(lam_x^{-1}(y)*z) + lam_x^{-1}(y)*z + x*z
      (x o y)*z = x*(y*z) + y*z + x*z

    The violations of each identity in (x, y, z) order, the identities in the
    order above. An empty list is the only healthy outcome. This is the one
    all-triples check of the brace law; validation checks generators.

    For each x both sides are gathered as tuples by itemgetter from table
    rows and columns. With u = x*v + v, the right sides are u + x*z - y at
    v = y, and u + x*z at v = lam_x^{-1}(y)*z and at v = y*z.
    """
    n = b.n
    add_t, st = b.add.table, b.star
    add_cols, st_cols = tuple(zip(*add_t)), tuple(zip(*st))
    minus = _picker(b.add.inv)(add_cols)  # minus[y][v] = v - y
    by_add_row = [_picker(row) for row in add_t]
    by_st_col = [_picker(col) for col in st_cols]
    out: dict[str, list[tuple[int, int, int]]] = {"star_of_sum": [], "sum_star": [], "product_star": []}
    for x, st_x in enumerate(st):
        u = tuple(map(getitem, map(add_t.__getitem__, st_x), range(n)))
        # one tuple over z per y
        by_st_x = _picker(st_x)
        lhs = [pick(st_x) for pick in by_add_row]
        rhs = [by_st_x(by_add_row[u_y](minus_y)) for u_y, minus_y in zip(u, minus)]
        out["star_of_sum"] += [(x, y, z) for y, z in _mismatches(lhs, rhs)]
        # one tuple over y per z
        plus = list(map(_picker(u), map(add_cols.__getitem__, st_x)))  # plus[z][v] = u[v] + x*z
        expand = [pick(p) for pick, p in zip(by_st_col, plus)]  # expand[z][y]: v = y*z
        lhs = list(map(_picker(add_t[x]), st_cols))
        rhs = list(map(_picker(invert(b.lam[x])), expand))
        out["sum_star"] += [(x, y, z) for z, y in _mismatches(lhs, rhs)]
        lhs = list(map(_picker(b.mul.table[x]), st_cols))
        out["product_star"] += [(x, y, z) for z, y in _mismatches(lhs, expand)]
    return [(name, triple) for name, found in out.items() for triple in sorted(found)]


def _mismatches(lhs: list[tuple[int, ...]], rhs: list[tuple[int, ...]]) -> list[tuple[int, int]]:
    """The (i, j) with lhs[i][j] != rhs[i][j]."""
    if lhs == rhs:
        return []
    return [(i, j) for i, (l, r) in enumerate(zip(lhs, rhs)) for j in range(len(l)) if l[j] != r[j]]


def _picker(indices: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """t -> (t[i] for i in indices), as a tuple; itemgetter returns a bare
    item for a single index."""
    if len(indices) == 1:
        (i,) = indices
        return lambda t: (t[i],)
    return itemgetter(*indices)
