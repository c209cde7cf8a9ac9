"""Distinguished substructures of a skew brace: sub-braces, ideals, star
products, the sub-brace lattice, maximal ideals, radical, idealizer."""

from __future__ import annotations

from typing import Optional

from .brace import SkewBrace
from .errors import BudgetExceeded, CrossCheckFailed, NotASubBrace, env_budget
from .groups import closure_mask
from .subsets import Subset

DEFAULT_LATTICE_BUDGET = 48


# ---------------------------------------------------------------------------
# Closures


def subbrace_closure(b: SkewBrace, seed: Subset) -> Subset:
    """Smallest subset containing seed and 0 closed under + and o."""
    return Subset(b.n, closure_mask((b.add.table, b.mul.table), seed.mask))


def is_subbrace(b: SkewBrace, s: Subset) -> bool:
    if not s.mask:
        return False
    members = s.indices()
    add_t, mul_t = b.add.table, b.mul.table
    m = s.mask
    return all(
        m >> add_t[a][c] & 1 and m >> mul_t[a][c] & 1 for a in members for c in members
    )


# ---------------------------------------------------------------------------
# Ideals


def is_ideal(b: SkewBrace, i: Subset, within: Optional[Subset] = None) -> bool:
    """Additive subgroup, lambda-invariant, normal for + and for o.

    Without within, the last three conditions are tested only for a among
    the generators: lambda-invariance and o-normality for a in
    b.mul.generators, +-normality for a in b.add.generators. That is enough.
    The a with lambda_a(i) within i are closed under o, as lambda_(a o c) =
    lambda_a lambda_c; the a with a o i o a^-1 within i are closed under o;
    the a with a + i - a within i are closed under +. Each set holds 0, and
    a subset of a finite group closed under its operation is a subgroup, so
    one holding the generators is the whole group (the argument of
    verify_skew_brace, after Guarnieri and Vendramin).

    With within, whether i is an ideal of the sub skew brace on within: i
    must lie in within and the last three conditions range over every a in
    within, as no generating set of it is at hand.
    """
    m = i.mask
    if not m >> 0 & 1:
        return False
    if within is None:
        mul_gens, add_gens = b.mul.generators, b.add.generators
    elif not i <= within:
        return False
    else:
        mul_gens = add_gens = within.indices()
    members = i.indices()
    add_t, mul_t = b.add.table, b.mul.table
    for a in members:
        for c in members:
            if not m >> add_t[a][c] & 1:
                return False
    lam, neg, minv = b.lam, b.add.inv, b.mul.inv
    for a in mul_gens:
        for x in members:
            if not m >> lam[a][x] & 1:
                return False
    for a in add_gens:
        for x in members:
            if not m >> add_t[add_t[a][x]][neg[a]] & 1:
                return False
    for a in mul_gens:
        for x in members:
            if not m >> mul_t[mul_t[a][x]][minv[a]] & 1:
                return False
    return True


def is_left_ideal(b: SkewBrace, i: Subset) -> bool:
    """Additive subgroup closed under every lambda_a, tested for a in
    b.mul.generators: the a with lambda_a(i) within i are closed under o, so
    by the argument of is_ideal they are every a once they hold the
    generators."""
    m = i.mask
    if not m >> 0 & 1:
        return False
    members = i.indices()
    add_t, lam = b.add.table, b.lam
    if not all(m >> add_t[a][c] & 1 for a in members for c in members):
        return False
    return all(m >> lam[a][x] & 1 for a in b.mul.generators for x in members)


# ---------------------------------------------------------------------------
# Star products of subsets


def star_products(b: SkewBrace, xs: Subset, ys: Subset) -> int:
    """Mask of {x*y : x in X, y in Y}, not closed."""
    star, ys_idx = b.star, ys.indices()
    return Subset.of(b.n, {star[x][y] for x in xs.indices() for y in ys_idx}).mask


def star_sets(b: SkewBrace) -> Subset:
    """B*B: the additive subgroup generated by {x*y : x, y in B}."""
    full = Subset.full(b.n)
    return Subset(b.n, closure_mask((b.add.table,), star_products(b, full, full)))


# ---------------------------------------------------------------------------
# Lattice of sub skew braces, radical, idealizer


def subbrace_lattice(b: SkewBrace) -> list[Subset]:
    """All sub skew braces, ordered by (size, mask): the subgroups of (B,+)
    closed under o, filtered from b.add.subgroups."""
    budget = env_budget(DEFAULT_LATTICE_BUDGET)
    if b.n > budget:
        raise BudgetExceeded("sub-brace lattice carrier", b.n, budget)
    n, mul_t = b.n, b.mul.table
    out = []
    for m, members in b.add.subgroups:
        rows = [mul_t[a] for a in members]
        if all(m >> row[c] & 1 for row in rows for c in members):
            out.append(Subset(n, m))
    return out


def maximal_subbraces(lattice: list[Subset]) -> list[Subset]:
    """Maximal proper sub skew braces, from the sub-brace lattice."""
    proper = [s for s in lattice if not s.is_full()]
    return [s for s in proper if not any(s < t for t in proper)]


def maximal_ideals(b: SkewBrace, lattice: list[Subset]) -> list[Subset]:
    """Maximal proper ideals, in the (size, mask) order of subbrace_lattice.

    Walks the proper members from the top down and tests only those outside
    every maximal ideal found so far. A larger proper ideal was seen first,
    so it was found or lies in one found, and the member passing is_ideal
    is maximal.
    """
    found: list[Subset] = []
    for s in reversed(lattice):
        if s.is_full() or any(s <= m for m in found):
            continue
        if is_ideal(b, s):
            found.append(s)
    return found[::-1]


def radical(b: SkewBrace, lattice: list[Subset]) -> Subset:
    """Intersection of all maximal ideals; the whole brace when none exist."""
    out = Subset.full(b.n)
    for m in maximal_ideals(b, lattice):
        out = out & m
    return out


def idealizer(b: SkewBrace, h: Subset, lattice: list[Subset]) -> Subset:
    """Largest sub skew brace in which h is an ideal.

    Computed by filtering the sub-brace lattice; elementwise conditions would
    not give a closed candidate set. The maximum is believed unique (every
    call over the braces of orders 1-12 and the order-24 catalog found one)
    but not proved; CrossCheckFailed is raised if the candidates have
    incomparable maxima.
    """
    if not is_subbrace(b, h):
        raise NotASubBrace(f"{h.indices()} is not a sub skew brace")
    candidates = [s for s in lattice if is_ideal(b, h, within=s)]
    maxima = [s for s in candidates if not any(s < t for t in candidates)]
    if len(maxima) != 1:
        raise CrossCheckFailed(
            f"idealizer candidates have {len(maxima)} incomparable maxima"
        )
    return maxima[0]


def subideal_chain(b: SkewBrace, a: Subset, lattice: list[Subset]) -> Optional[list[Subset]]:
    """Chain A = H_1 <= ... <= H_k = B with H_i an ideal of H_{i+1}, built by
    iterated idealizers; None if the idealizer stops growing early."""
    chain = [a]
    while not chain[-1].is_full():
        nxt = idealizer(b, chain[-1], lattice)
        if nxt == chain[-1]:
            return None
        chain.append(nxt)
    return chain


# ---------------------------------------------------------------------------
# Generation


def generates(b: SkewBrace, s: Subset) -> bool:
    return subbrace_closure(b, s).is_full()
