"""Finite groups as Cayley tables over carrier 0..n-1 with identity 0."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from itertools import chain
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .errors import BudgetExceeded, CrossCheckFailed, NoIdentity, NotAssociative, NotLatin
from .perms import Perm, compose
from .subsets import Subset

# A table that fails a generator check is rescanned on all n^3 triples to
# name its first witness: 16.6 million triples at this carrier size.
MAX_CARRIER = 255

# Cayley tables on one carrier, as the closure and isomorphism kernels take them.
Tables = Sequence[Sequence[Sequence[int]]]

# Tables kept by verify_group's memo: analyze-24 meets 258 distinct tables
# and validates 243 of them, census-24 validates 333.
VERIFY_GROUP_CACHE = 1024


@dataclass(frozen=True)
class GroupTable:
    """A finite group: n x n Cayley table, identity at index 0. Only
    verify_group builds one; it sets element_orders and generators, which ==
    and hash do not read. nilpotency_class, subgroups and commutator_masks are
    kept on first use."""

    n: int
    table: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    element_orders: tuple[int, ...] = field(compare=False, repr=False)
    generators: tuple[int, ...] = field(compare=False, repr=False)

    @cached_property
    def nilpotency_class(self) -> Optional[int]:
        """Class c with gamma_{c+1} = 1, or None if not nilpotent."""
        chain = lower_central_series(self)
        return len(chain) - 1 if chain[-1].is_zero_only() else None

    @cached_property
    def subgroups(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(mask, members) of every subgroup, in subgroup_lattice's order.
        Exponential in the worst case; callers guard the carrier size."""
        masks = subgroup_lattice(self)
        return tuple((m, tuple(x for x in range(m.bit_length()) if m >> x & 1)) for m in masks)

    @cached_property
    def commutator_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(rows, cols): rows[x] is the mask of {[x, a] : a}, cols[y] that of
        {[a, y] : a}. [G, Y] is then the OR of cols[y] over y in Y. Since
        [a, y] = [y, a]^-1, cols[y] is the image of rows[y] under inversion."""
        t, inv = self.table, self.inv
        rows, cols = [], []
        for x, row in enumerate(t):
            x_inv = inv[x]
            values = {t[t[row[a]][x_inv]][inv[a]] for a in range(self.n)}
            rows.append(sum(1 << v for v in values))
            cols.append(sum(1 << inv[v] for v in values))
        return tuple(rows), tuple(cols)

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.n) for b in range(self.n))

    def conjugate(self, a: int, b: int) -> int:
        """a b a^-1."""
        return self.table[self.table[a][b]][self.inv[a]]

    def commutator(self, a: int, b: int) -> int:
        """a b a^-1 b^-1."""
        return self.table[self.conjugate(a, b)][self.inv[b]]


def _order_of(t: Tables, a: int) -> int:
    """Length of the cycle of x -> x*a through 0. In a Latin table with
    identity 0 that map is a permutation, so the cycle closes; in a group it
    is the order of a."""
    k, x = 1, a
    while x != 0:
        x = t[x][a]
        k += 1
    return k


def verify_group(table: Sequence[Sequence[int]]) -> GroupTable:
    """Validate a Cayley table whose identity is index 0.

    Entry types and the shape are checked first, then the table is looked up
    in a memo keyed on its content, so equal tables give one GroupTable
    object. A table not in the memo must have entries in 0..n-1, be Latin,
    have 0 as a two-sided identity, and pass Light's associativity test on
    the generators of _generators, which the GroupTable keeps. Raises NotLatin
    / NotAssociative with the first violating witness, and NoIdentity when
    index 0 is not a two-sided identity.
    """
    n = len(table)
    if n == 0:
        raise NoIdentity("empty table")
    if n > MAX_CARRIER:
        raise BudgetExceeded("carrier size for exhaustive validation", n, MAX_CARRIER)
    try:
        rows = tuple(map(tuple, table))
    except TypeError:
        raise ValueError("table must be a sequence of rows") from None
    # Before the memo: True == 1 and hash(True) == hash(1), so a bool entry
    # would otherwise find the memo entry of the int table.
    if set(map(type, chain.from_iterable(rows))) - {int}:
        bad = next(type(v) for row in rows for v in row if type(v) is not int)
        raise ValueError(f"table entries must be integers, got {bad.__name__}")
    if set(map(len, rows)) != {n}:
        raise ValueError(f"table must be square, got {n} rows of lengths {sorted(set(map(len, rows)))}")
    return _verified(rows)


@lru_cache(maxsize=VERIFY_GROUP_CACHE)
def _verified(t: tuple[tuple[int, ...], ...]) -> GroupTable:
    """The checks of verify_group after the type and shape checks."""
    n = len(t)
    if min(map(min, t)) < 0 or max(map(max, t)) >= n:
        raise ValueError("table entries must lie in 0..n-1")

    _check_latin(t)

    rng = tuple(range(n))
    if t[0] != rng or tuple(row[0] for row in t) != rng:
        raise NoIdentity("index 0 is not a two-sided identity")

    # Light's test: (x*g)*y == x*(g*y) for all x, y and each generator g. The
    # g that pass are closed under products (if g and h pass, x*(g*h) =
    # (x*g)*h and then (x*(g*h))*y = x*((g*h)*y)), so every element passes.
    # Over all x at once: row t[x*g] against row x composed with row g.
    orders = tuple(_order_of(t, a) for a in rng)
    gens = _generators(t, orders)
    for g in gens:
        if list(map(t.__getitem__, map(itemgetter(g), t))) != list(map(itemgetter(*t[g]), t)):
            _raise_first_nonassociative(t)

    return GroupTable(n, t, tuple(row.index(0) for row in t), orders, gens)


def _raise_first_nonassociative(t: tuple[tuple[int, ...], ...]) -> None:
    """Raise NotAssociative at the first triple (a, b, c), in lexicographic
    order, with (a*b)*c != a*(b*c)."""
    for a, row in enumerate(t):
        for b, ab in enumerate(row):
            for c, (lhs, rhs) in enumerate(zip(t[ab], map(row.__getitem__, t[b]))):
                if lhs != rhs:
                    raise NotAssociative(f"(a*b)*c != a*(b*c) for (a,b,c)=({a},{b},{c})")
    raise CrossCheckFailed("Light's test failed on a table associative on all triples")


def _check_latin(t: tuple[tuple[int, ...], ...]) -> None:
    """Raise NotLatin at the first repeated entry, rows before columns.

    Entries lie in 0..n-1, so the table is Latin when every row and every
    column sorts to 0..n-1; only a failing table is walked for its witness.
    """
    n, rng = len(t), list(range(len(t)))
    cols = tuple(zip(*t))
    if list(map(sorted, t)).count(rng) == n and list(map(sorted, cols)).count(rng) == n:
        return
    for axis, lines in (("row", t), ("column", cols)):
        for i, line in enumerate(lines):
            seen: dict[int, int] = {}
            for j, v in enumerate(line):
                if v in seen:
                    raise NotLatin(f"{axis} {i} repeats value {v} at positions {seen[v]} and {j}")
                seen[v] = j


def _generators(t: tuple[tuple[int, ...], ...], orders: tuple[int, ...]) -> tuple[int, ...]:
    """Elements whose products give the whole carrier.

    t is a Latin table with identity 0, not yet known to be a group, so
    closure_mask's Lagrange shortcut does not apply. Instead each element is
    reached from 0 by right multiplication by generators, so it is a product
    of generators; in a group that reaches exactly the subgroup they
    generate. Elements are taken by descending order (orders[a] is a's
    _order_of), ties by index, each one not yet reached by those before it:
    high orders first give two or three generators on the groups of order 24.
    """
    n = len(t)
    gens: list[int] = []
    mask, reached = 1, [0]
    for a in sorted(range(n), key=lambda a: (-orders[a], a)):
        if len(reached) == n:
            break
        if mask >> a & 1:
            continue
        gens.append(a)
        frontier = reached
        while frontier:
            new = []
            for x in frontier:
                row = t[x]
                for g in gens:
                    y = row[g]
                    if not mask >> y & 1:
                        mask |= 1 << y
                        new.append(y)
            reached = reached + new
            frontier = new
    return tuple(gens)


# ---------------------------------------------------------------------------
# Constructors


def cyclic(n: int) -> GroupTable:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return verify_group(table)


def from_permutations(perms: list[Perm]) -> GroupTable:
    """Cayley table of a permutation list closed under composition, identity
    first. A repeated permutation gives two equal rows, which verify_group
    refuses as not Latin."""
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[compose(p, q)] for q in perms] for p in perms]
    return verify_group(table)


def opposite(g: GroupTable) -> GroupTable:
    table = [[g.table[b][a] for b in range(g.n)] for a in range(g.n)]
    return verify_group(table)


# ---------------------------------------------------------------------------
# Subgroup machinery (subsets of the carrier as Subset bit masks)


def closure_mask(tables: Tables, mask: int, closed: int = 0) -> int:
    """Least superset of mask | {0} closed under every table in tables.

    Works in rounds: each table maps frontier x members in both orders, and
    members grows once per round by what was new. (g.table,) closes to a
    subgroup; (b.add.table, b.mul.table) to a sub-brace.

    closed is a submask of mask already closed under tables; its products
    among themselves are members, so the first frontier is mask minus closed.
    Every table is a group on the carrier, so the result is a subgroup and its
    size divides n (Lagrange): a round that starts with more members than
    n // p, p the least prime dividing n, returns the whole carrier.
    """
    n = len(tables[0])
    mask |= closed | 1
    members = [i for i in range(n) if mask >> i & 1]
    frontier = [i for i in members if not closed >> i & 1]
    cap = _largest_proper_divisor(n)
    while frontier:
        if len(members) > cap:
            return (1 << n) - 1
        new = []
        for t in tables:
            for a in frontier:
                row = t[a]
                for c in members:
                    d = row[c]
                    if not mask >> d & 1:
                        mask |= 1 << d
                        new.append(d)
                    d = t[c][a]
                    if not mask >> d & 1:
                        mask |= 1 << d
                        new.append(d)
        members = members + new
        frontier = new
    return mask


@cache
def _largest_proper_divisor(n: int) -> int:
    """n // p for p the least prime dividing n; 1 when n is 1."""
    return n // next((p for p in range(2, n + 1) if n % p == 0), 1)


def subgroup_lattice(g: GroupTable) -> tuple[int, ...]:
    """Masks of every subgroup of g, ordered by (size, mask); g.subgroups
    keeps them.

    Atoms are the closures of singletons. Every subgroup H is reached from an
    atom in H by closing the join with one more atom in H at a time, so each
    round joins every new member m with every atom and closes the join from
    m, which is already closed. A join that is a member, or was closed
    before, is skipped. Exponential in the worst case; callers guard the
    carrier size.
    """
    tables = (g.table,)
    atoms = sorted({closure_mask(tables, 1 << x) for x in range(1, g.n)})
    found: set[int] = {1, *atoms}
    joined: set[int] = set()
    new = atoms
    while new:
        nxt: list[int] = []
        for m in new:
            for a in atoms:
                join = m | a
                if join in found or join in joined:
                    continue
                joined.add(join)
                closed = closure_mask(tables, join, m)
                if closed not in found:
                    found.add(closed)
                    nxt.append(closed)
        new = nxt
    return tuple(sorted(found, key=lambda m: (m.bit_count(), m)))


def commutator_products(g: GroupTable, xs: Subset, ys: Subset) -> int:
    """Mask of {[x, y] : x in X, y in Y} in g, not closed."""
    t, inv, ys_idx = g.table, g.inv, ys.indices()
    out = 0
    for x in xs.indices():
        row, x_inv = t[x], inv[x]
        for y in ys_idx:
            out |= 1 << t[t[row[y]][x_inv]][inv[y]]
    return out


def descending_chain(g: GroupTable, step, history: bool = False) -> list[Subset]:
    """The carrier of g, then the subgroup of g generated by an unclosed
    mask, until the chain reaches its limit; each term must lie in the one
    before, and the chain is returned cut after the first occurrence of the
    limit. The mask is step(chain) when history is set, else step(last term).

    A {0} term is the limit. A step of the last term alone reaches its limit
    at the first repeat. A step of the history reads pairs of earlier terms:
    let X, the last term, first occur as term m (counting from 1); star
    products and commutators shrink with their arguments, so once the chain
    has 2m - 1 terms every later step generates the same set as the step
    that gave the last X: X is the limit.
    """
    chain = [Subset.full(g.n)]
    first = 0  # index of the first occurrence of chain[-1]
    while not chain[-1].is_zero_only():
        gen = step(chain) if history else step(chain[-1])
        nxt = Subset(g.n, closure_mask((g.table,), gen))
        if not nxt <= chain[-1]:
            raise CrossCheckFailed(
                f"descending series term {nxt.indices()} escapes {chain[-1].indices()}"
            )
        if nxt != chain[-1]:
            first = len(chain)
        chain.append(nxt)
        if len(chain) > first + 1 and (not history or len(chain) >= 2 * first + 1):
            return chain[: first + 1]
    return chain


def lower_central_series(g: GroupTable) -> list[Subset]:
    """gamma_1 = G, gamma_{k+1} = [G, gamma_k]; cut at first repetition."""
    full = Subset.full(g.n)
    return descending_chain(g, lambda last: commutator_products(g, full, last))


def ascending_chain(needs: Sequence[int]) -> list[Subset]:
    """A_0 = {0}, A_{k+1} = {x : needs[x] lies in A_k}, until a term repeats
    the one before; the chain is returned without the repeat.

    Each term must contain the one before. The step is monotone (S inside T
    gives step(S) inside step(T)), so that holds for every term once A_1
    holds 0, that is once needs[0] lies in {0}; that one condition is checked
    up front.
    """
    n = len(needs)
    if needs[0] | 1 != 1:
        raise CrossCheckFailed(
            f"ascending series term A_1 misses 0, which needs {Subset(n, needs[0]).indices()}"
        )
    chain = [Subset.zero(n)]
    while True:
        last = chain[-1].mask
        nxt = Subset.of(n, (x for x, need in enumerate(needs) if need | last == last))
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)


# ---------------------------------------------------------------------------
# Isomorphism testing: generator-image backtracking over tuples of tables


def _generation_plan(tables: Tables) -> tuple[list[int], list[tuple[int, int, int, int]]]:
    """Greedy generators of the carrier under tables, and a plan of steps
    (target, op, x, y), target = tables[op][x][y], that derives every other
    element from them.

    One breadth-first pass from {0}: each round multiplies the frontier by
    every element reached before the round, in both orders and under every
    table, and each element first reached is a target. A round that reaches
    nothing leaves a closed set short of the carrier; its least unreached
    element becomes the next generator and the next frontier. So each
    generator is the least element outside the closure of those before it.
    """
    n = len(tables[0])
    mask, known, frontier = 1, [0], [0]
    gens: list[int] = []
    plan: list[tuple[int, int, int, int]] = []
    while len(known) < n:
        new = []
        for a in frontier:
            for c in known:
                for op, t in enumerate(tables):
                    for target, x, y in ((t[a][c], a, c), (t[c][a], c, a)):
                        if not mask >> target & 1:
                            mask |= 1 << target
                            plan.append((target, op, x, y))
                            new.append(target)
        if not new:
            new = [next(a for a in range(n) if not mask >> a & 1)]
            gens.append(new[0])
            mask |= 1 << new[0]
        known += new
        frontier = new
    return gens, plan


def _isomorphisms(
    src_tables: Tables,
    dst_tables: Tables,
    src_marks: Sequence,
    dst_marks: Sequence,
) -> Iterator[Perm]:
    """Every bijection phi fixing 0 with phi(s[a][b]) = d[phi(a)][phi(b)] for
    each table pair (s, d) of src_tables and dst_tables.

    Marks are per-element invariants, which every such phi preserves; there
    is no phi when the two mark multisets differ. The search backtracks over
    the images of the generators of _generation_plan, each trying the dst
    elements with its mark in index order; the plan derives the other images
    and each completed map is verified on all pairs of every table.
    """
    if sorted(src_marks) != sorted(dst_marks):
        return
    n = len(src_marks)
    gens, plan = _generation_plan(src_tables)
    by_mark: dict = {}
    for b, mark in enumerate(dst_marks):
        by_mark.setdefault(mark, []).append(b)
    candidates = [by_mark[src_marks[a]] for a in gens]
    pairs = tuple(zip(src_tables, dst_tables))
    phi = [-1] * n
    phi[0] = 0

    def preserves() -> bool:
        if len(set(phi)) != n:
            return False
        for s, d in pairs:
            for a, row in enumerate(s):
                prow = d[phi[a]]
                for b, v in enumerate(row):
                    if phi[v] != prow[phi[b]]:
                        return False
        return True

    def extend(k: int, used: set[int]) -> Iterator[Perm]:
        if k == len(gens):
            for target, op, x, y in plan:
                phi[target] = dst_tables[op][phi[x]][phi[y]]
            if preserves():
                yield tuple(phi)
            return
        for cand in candidates[k]:
            if cand not in used:
                phi[gens[k]] = cand
                yield from extend(k + 1, used | {cand})

    yield from extend(0, {0})


def isomorphic_groups(g1: GroupTable, g2: GroupTable) -> Optional[Perm]:
    """A bijection phi with phi(a*b) = phi(a)*phi(b), or None."""
    maps = _isomorphisms((g1.table,), (g2.table,), g1.element_orders, g2.element_orders)
    return next(maps, None)


def automorphism_group(g: GroupTable) -> list[Perm]:
    """Generating automorphisms of G, a greedy subset of all_automorphisms(g)."""
    auts = all_automorphisms(g)
    gens: list[Perm] = []
    reached = {tuple(range(g.n))}
    for p in auts:
        if p in reached:
            continue
        gens.append(p)
        reached = set(generated_group(gens, g.n))
        if len(reached) == len(auts):
            break
    return gens


def generated_group(gens: Sequence[Perm], degree: int) -> Iterator[Perm]:
    """Each element of the group of permutations of 0..degree-1 generated by
    gens, once, breadth first from the identity."""
    identity = tuple(range(degree))
    members = {identity}
    frontier = [identity]
    yield identity
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = compose(p, q)
                if r not in members:
                    members.add(r)
                    nxt.append(r)
                    yield r
        frontier = nxt


@cache
def all_automorphisms(g: GroupTable) -> list[Perm]:
    """Every automorphism of G, sorted; one list per group, computed once."""
    orders = g.element_orders
    return sorted(_isomorphisms((g.table,), (g.table,), orders, orders))
