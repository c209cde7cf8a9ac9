"""Finite skew braces: two group tables on one carrier linked by the brace law."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import groups
from .errors import (
    BraceLabError,
    BraceLawViolated,
    LambdaNotHomomorphism,
    NotABrace,
)
from .groups import GroupTable, cyclic, opposite, verify_group
from .perms import Perm, cycle_type


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
    """Check the brace law on all triples and build the lambda/star caches.

    Elementwise gathers go through a flattened table, t.ravel()[x * n + y] for
    t[x][y], which numpy does faster than 2-D fancy indexing.
    """
    if add.n != mul.n:
        raise NotABrace(f"carrier sizes differ: {add.n} != {mul.n}")
    n = add.n
    a_t = add.as_array()
    m_t = mul.as_array()
    a_f, m_f = a_t.ravel(), m_t.ravel()
    neg = np.asarray(add.inv, dtype=np.int64)
    rows = np.arange(0, n * n, n)[:, None, None]  # row offsets along the first axis

    # a o (b + c) == a o b - a + a o c on all triples.
    lhs = m_f[rows + a_t]
    x1 = a_f[m_t * n + neg[:, None]]
    rhs = a_f[x1[:, :, None] * n + m_t[:, None, :]]
    if not np.array_equal(lhs, rhs):
        a, b, c = np.argwhere(lhs != rhs)[0]
        raise BraceLawViolated(int(a), int(b), int(c))

    lam = a_f[neg[:, None] * n + m_t]
    rng = np.arange(n)
    # Forced by the brace law; a failure here is an internal inconsistency.
    if not np.array_equal(np.sort(lam, axis=1), np.broadcast_to(rng, (n, n))):
        raise LambdaNotHomomorphism(int(np.argwhere(np.sort(lam, axis=1) != rng)[0][0]), -1)
    lam_f = lam.ravel()
    hom_lhs = lam_f[rows + a_t]
    hom_rhs = a_f[lam[:, :, None] * n + lam[:, None, :]]
    if not np.array_equal(hom_lhs, hom_rhs):
        a, b, _ = np.argwhere(hom_lhs != hom_rhs)[0]
        raise LambdaNotHomomorphism(int(a), int(b))
    comp_lhs = lam[m_t]
    comp_rhs = lam_f[rows + lam]
    if not np.array_equal(comp_lhs, comp_rhs):
        a, b, _ = np.argwhere(comp_lhs != comp_rhs)[0]
        raise LambdaNotHomomorphism(int(a), int(b))

    star = a_f[lam * n + neg]
    return SkewBrace(
        n=n,
        add=add,
        mul=mul,
        lam=tuple(map(tuple, lam.tolist())),
        star=tuple(map(tuple, star.tolist())),
    )


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
    add_class = groups.nilpotency_class(b.add)
    mul_class = groups.nilpotency_class(b.mul)
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
    a_t = b.add.as_array()
    m_t = b.mul.as_array()
    neg = np.asarray(b.add.inv, dtype=np.int64)
    # (a + b) o c == a o c - c + b o c on all triples.
    lhs = m_t[a_t, :]
    t1 = a_t[m_t, neg[None, :]]
    rhs = a_t[t1[:, None, :], m_t[None, :, :]]
    return bool(np.array_equal(lhs, rhs))


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
        (b.add.order_of(a), b.mul.order_of(a), orbit_sizes[a], cycle_type(b.lam[a]),
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

    An empty list is the only healthy outcome.
    """
    n = b.n
    a_t = b.add.as_array()
    m_t = b.mul.as_array()
    st = np.asarray(b.star, dtype=np.int64)
    lam_inv = np.argsort(np.asarray(b.lam, dtype=np.int64), axis=1)
    neg = np.asarray(b.add.inv, dtype=np.int64)
    xs, ys, zs = (axis.ravel() for axis in np.indices((n, n, n)))

    out: list[tuple[str, tuple[int, int, int]]] = []

    lhs1 = st[xs, a_t[ys, zs]]
    rhs1 = a_t[a_t[a_t[st[xs, ys], ys], st[xs, zs]], neg[ys]]
    for i in np.nonzero(lhs1 != rhs1)[0]:
        out.append(("star_of_sum", (int(xs[i]), int(ys[i]), int(zs[i]))))

    u = lam_inv[xs, ys]
    s1 = st[u, zs]
    lhs2 = st[a_t[xs, ys], zs]
    rhs2 = a_t[a_t[st[xs, s1], s1], st[xs, zs]]
    for i in np.nonzero(lhs2 != rhs2)[0]:
        out.append(("sum_star", (int(xs[i]), int(ys[i]), int(zs[i]))))

    s2 = st[ys, zs]
    lhs3 = st[m_t[xs, ys], zs]
    rhs3 = a_t[a_t[st[xs, s2], s2], st[xs, zs]]
    for i in np.nonzero(lhs3 != rhs3)[0]:
        out.append(("product_star", (int(xs[i]), int(ys[i]), int(zs[i]))))

    return out
