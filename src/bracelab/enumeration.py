"""Census machinery: small groups, automorphism groups, skew braces via
regular subgroups of the holomorph, and involutive solutions.

The brace search runs unit by unit, one first-generator choice of one
additive group at a time, in a fixed order, so a checkpointed run resumes to
the same catalog. Groups and braces reach their isomorphism classes through
one kernel, _isomorphism_classes, which keeps the first member of each class
in input order.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from functools import cache, lru_cache
from operator import attrgetter
from pathlib import Path
from random import Random
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .brace import SkewBrace, _element_fingerprints, isomorphic, verify_skew_brace
from .errors import BraceLabError, BudgetExceeded, CrossCheckFailed
from .groups import (
    GroupTable,
    all_automorphisms,
    automorphism_group,
    isomorphic_groups,
    verify_group,
)
from .perms import Perm, all_perms, compose, invert, perm_order
from .ybe import Solution, involutive_from_sigma, multipermutation_level, permutation_brace

# Classical group counts (OEIS A000001); groups_of_order() must reproduce these.
EXPECTED_GROUP_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5,
    9: 2, 10: 2, 11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14,
    17: 1, 18: 5, 19: 1, 20: 5, 21: 2, 22: 2, 23: 1, 24: 15,
    25: 2, 26: 2, 27: 5, 28: 4, 29: 1, 30: 4,
}

GROUP_ORDER_BUDGET = 48


@dataclass
class Catalog:
    kind: str
    items: list
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.items)


def _with_meta(kind: str, n: int, items: list, started: float, method: str, **extra) -> Catalog:
    """The catalog of items with its meta: kind, order, count, the seconds
    since started, method, then any extra keys."""
    meta = {
        "kind": kind,
        "order": n,
        "count": len(items),
        "wall_time_s": round(time.monotonic() - started, 3),
        "method": method,
        **extra,
    }
    return Catalog(kind, items, meta)


# ---------------------------------------------------------------------------
# Groups of a given order


def groups_of_order(n: int) -> Catalog:
    started = time.monotonic()
    return _with_meta("groups", n, list(_groups_of_order(n)), started, "cyclic-extension")


@cache
def _groups_of_order(n: int) -> list[GroupTable]:
    """All groups of order n up to isomorphism.

    Every group of order < 60 is solvable, hence has a normal subgroup of
    prime index; so each candidate arises as a cyclic extension of a group
    of order n/p by data (alpha, z) with alpha in Aut(N), alpha(z) = z and
    alpha^p equal to conjugation by z. _cyclic_extensions builds one
    candidate per Aut(N)-orbit of that data. Candidates are validated and then
    reduced to their isomorphism classes, with element orders as marks.

    The orbit rule changes no answer. _isomorphism_classes keeps the first
    candidate of each class in input order. Without the rule, that candidate
    is the first of its own data orbit, since the rest of the orbit gives
    isomorphic tables. So the rule builds it, and it builds no candidate of
    the class before it: the kept tables are the same, in the same order.
    """
    if n > GROUP_ORDER_BUDGET:
        raise BudgetExceeded("group order", n, GROUP_ORDER_BUDGET)
    if n == 1:
        return [verify_group([[0]])]
    candidates = (
        verify_group(table)
        for p in _primes_dividing(n)
        for base in _groups_of_order(n // p)
        for table in _cyclic_extensions(base, p)
    )
    found = _isomorphism_classes(candidates, attrgetter("element_orders"), isomorphic_groups)
    if n in EXPECTED_GROUP_COUNTS and len(found) != EXPECTED_GROUP_COUNTS[n]:
        raise CrossCheckFailed(
            f"group census at order {n}: got {len(found)}, "
            f"expected {EXPECTED_GROUP_COUNTS[n]}"
        )
    return found


def _isomorphism_classes(items: Iterable, marks: Callable, iso: Callable) -> list:
    """The first item of each isomorphism class, in input order.

    marks(item) gives per-element invariants that every isomorphism
    preserves, so isomorphic items have equal sorted marks. Items are
    bucketed by the hash of their sorted marks, and an item is dropped when
    iso(item, kept) is not None for a kept item of its bucket. A hash
    collision only merges two buckets. Keys are hashes, not the mark tuples,
    so a bucket costs no copy of its marks.
    """
    buckets: dict[int, list] = {}
    kept = []
    for item in items:
        bucket = buckets.setdefault(hash(tuple(sorted(marks(item)))), [])
        if not any(iso(item, other) is not None for other in bucket):
            bucket.append(item)
            kept.append(item)
    return kept


def _primes_dividing(n: int) -> list[int]:
    out = []
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def _cyclic_extensions(base: GroupTable, p: int) -> Iterable[list[list[int]]]:
    """Tables of order p*|N| built from t^i x with t^p = z and t x t^-1 = alpha(x),
    one per Aut(N)-orbit of the data (alpha, z), alpha in sorted order and then
    z ascending.

    For beta in Aut(N), x -> beta(x), t -> t maps the extension by (alpha, z)
    isomorphically onto the extension by (beta alpha beta^-1, beta(z)): it
    carries t x t^-1 = alpha(x) to t beta(x) t^-1 = beta(alpha(x)) and
    t^p = z to t^p = beta(z). So the pairs of one orbit give one isomorphism
    class, and the first pair of the orbit stands for the rest. When a pair
    is met first, its whole orbit is marked; a marked pair is skipped before
    its table is built.
    """
    m, base_t = base.n, base.table
    n = m * p
    conj = {
        z: tuple(base.conjugate(z, x) for x in range(m)) for z in range(m)
    }
    auts = all_automorphisms(base)
    inverses = [invert(beta) for beta in auts]
    seen: set[tuple[Perm, int]] = set()
    for alpha, ainv in zip(auts, inverses):
        alpha_inv_pows = [tuple(range(m))]
        for _ in range(p - 1):
            alpha_inv_pows.append(compose(ainv, alpha_inv_pows[-1]))
        alpha_p = tuple(range(m))
        for _ in range(p):
            alpha_p = compose(alpha, alpha_p)
        for z in range(m):
            if alpha[z] != z or alpha_p != conj[z] or (alpha, z) in seen:
                continue
            seen.update(
                (compose(compose(beta, alpha), beta_inv), beta[z])
                for beta, beta_inv in zip(auts, inverses)
            )
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


# ---------------------------------------------------------------------------
# Skew braces via regular subgroups of the holomorph


LambdaMap = tuple[Perm, ...]  # a -> the additive automorphism lambda_a


@dataclass
class _SearchTables:
    """What regular_subgroups and reduce_by_aut_conjugation need of one
    additive group, built once from its automorphism list."""

    auts: list[Perm]
    aut_index: dict[Perm, int]
    aut_order: list[int]
    usable: list[int]  # automorphisms whose order divides n
    inv: list[int]  # index of each automorphism's inverse
    comp: dict[int, int]  # i * len(auts) + j -> index of auts[i] . auts[j], filled lazily
    units: list[int]  # the census units: one first choice per Stab(1)-class of usable

    def compose(self, i: int, j: int) -> int:
        key = i * len(self.auts) + j
        k = self.comp.get(key)
        if k is None:
            k = self.aut_index[tuple(map(self.auts[i].__getitem__, self.auts[j]))]
            if len(self.comp) > 1 << 24:  # a bound on memory, whatever the group
                self.comp.clear()
            self.comp[key] = k
        return k

    def conj(self, p: int, f: int) -> int:
        """The index of auts[p] . auts[f] . auts[p]^-1."""
        return self.compose(self.compose(p, f), self.inv[p])


# The census searches one additive group unit by unit, so only the tables of
# the most recently searched group are kept.
@lru_cache(maxsize=1)
def _search_tables(a_group: GroupTable) -> _SearchTables:
    auts = all_automorphisms(a_group)
    aut_index = {p: i for i, p in enumerate(auts)}
    aut_order = [perm_order(p) for p in auts]
    tables = _SearchTables(
        auts=auts,
        aut_index=aut_index,
        aut_order=aut_order,
        usable=[i for i, k in enumerate(aut_order) if a_group.n % k == 0],
        inv=[aut_index[invert(p)] for p in auts],
        comp={},
        units=[],
    )
    if a_group.n > 1:
        tables.units = [fi for fi, _ in _classes(tables, range(len(auts)), 1)]
    return tables


def _classes(tables: _SearchTables, stab: Iterable[int], a0: int) -> list[tuple[int, list[int]]]:
    """The classes of tables.usable under conjugation by the members of the
    group stab that fix the point a0: the least index of each class, in index
    order, with its centralizer among those members."""
    auts = tables.auts
    fixing = [p for p in stab if auts[p][a0] == a0]
    if len(fixing) == 1:  # the identity alone
        return [(fi, fixing) for fi in tables.usable]
    covered: set[int] = set()
    out = []
    for fi in tables.usable:
        if fi in covered:
            continue
        images = [tables.conj(p, fi) for p in fixing]
        covered.update(images)
        out.append((fi, [p for p, c in zip(fixing, images) if c == fi]))
    return out


def regular_subgroups(a_group: GroupTable, unit: int) -> list[LambdaMap]:
    """The regular subgroups of Hol(A) found in one work unit, each as the
    map a -> f_a; over all the units, at least one from every
    Aut(A)-conjugation orbit, and often only one. A has order at least 2.

    A regular subgroup has exactly one element (a, f_a) per first coordinate;
    the search extends a partial subgroup by the element at the least
    uncovered coordinate a0, so a regular subgroup is produced at most once.
    Each node carries stab, the automorphisms phi that fix every generator
    (x_i, f_i) chosen so far: phi(x_i) = x_i and phi f_i phi^-1 = f_i. Of the
    members of stab that fix a0, the node tries one candidate per class of
    their conjugation action, the least index of each, and hands the
    candidate's centralizer down as the child's stab. This loses no orbit:
    let H be a regular subgroup holding the generators so far, with element
    (a0, g), and let psi, a member of stab fixing a0, conjugate g to the
    class representative. Then psi H psi^-1 holds the same generators and
    (a0, representative), so the representative's branch reaches it.

    At the root a0 = 1 and stab is all of Aut(A), so the work units (for
    checkpointing) are the Stab(1)-class representatives in
    _SearchTables.units. unit is the index of the automorphism part at
    coordinate 1; the search runs that unit alone, representative or not.

    Candidate automorphism parts are limited to those whose order divides n:
    the cyclic group generated by any member of a regular subgroup has order
    dividing n, and the automorphism part's order divides that.
    """
    n = a_group.n
    tables = _search_tables(a_group)
    auts, aut_index, aut_order = tables.auts, tables.aut_index, tables.aut_order
    comp = tables.compose
    rows = a_group.table

    results: list[LambdaMap] = []

    def close(h: dict[int, int], gens: tuple[tuple[int, int], ...]) -> Optional[dict[int, int]]:
        # Subgroup closure on (coordinate, automorphism index) pairs, in
        # place: h is the subgroup generated by gens[:-1] and gets the new
        # generator gens[-1]. As in the orbit algorithm, only the new
        # generator is applied to the old elements and every generator to
        # the new ones. None on a coordinate conflict or when the size cannot
        # divide n.
        new: list[tuple[int, int]] = []
        # The second pass also reaches the pairs it appends to new.
        for elements, by in ((list(h.items()), gens[-1:]), (new, gens)):
            for b, gi in elements:
                gb = auts[gi]
                row_b = rows[b]
                for a, fi in by:
                    c = row_b[gb[a]]
                    ki = comp(gi, fi)
                    cur = h.get(c)
                    if cur is None:
                        if n % aut_order[ki] != 0:
                            return None
                        h[c] = ki
                        new.append((c, ki))
                    elif cur != ki:
                        return None
        if n % len(h) != 0:
            return None
        return h

    def extend(h: dict[int, int], gens: tuple[tuple[int, int], ...], stab: list[int]) -> None:
        if len(h) == n:
            results.append(tuple(auts[h[a]] for a in range(n)))
            return
        a0 = min(a for a in range(n) if a not in h)
        for fi, centralizer in _classes(tables, stab, a0):
            gens2 = gens + ((a0, fi),)
            closed = close(dict(h), gens2)
            if closed is not None:
                extend(closed, gens2, centralizer)

    gens = ((1, unit),)
    closed = close({0: aut_index[tuple(range(n))]}, gens)
    if closed is not None:
        fixing_1 = [p for p in range(len(auts)) if auts[p][1] == 1]
        extend(closed, gens, [p for p in fixing_1 if tables.conj(p, unit) == unit])
    return results


def _product_table(a_group: GroupTable, lam: LambdaMap) -> list[list[int]]:
    """The table of a o b = a + lambda_a(b): a group exactly when the map is
    a regular subgroup of Hol(A)."""
    return [list(map(row.__getitem__, lam_a)) for row, lam_a in zip(a_group.table, lam)]


def brace_from_lambda_map(a_group: GroupTable, lam: LambdaMap) -> SkewBrace:
    return verify_skew_brace(a_group, verify_group(_product_table(a_group, lam)))


def reduce_by_aut_conjugation(lams: Iterable[LambdaMap], a_group: GroupTable) -> list[LambdaMap]:
    """The least member of each Aut(A)-conjugation orbit that lams meets,
    sorted (orbits give isomorphic braces via the conjugating automorphism).

    phi conjugates a map lam to a -> phi lam_(phi^-1 a) phi^-1. Each orbit is
    walked once, with maps as tuples of automorphism indices and one
    conjugation table per generator of Aut(A). all_automorphisms is sorted,
    so index order is the order of the maps themselves. lams need not be
    closed under the action: regular_subgroups leaves a member of every
    orbit, not the whole orbit."""
    tables = _search_tables(a_group)
    auts, aut_index = tables.auts, tables.aut_index
    moves = []
    for phi in automorphism_group(a_group):
        phi_inv = invert(phi)
        moves.append((phi, [aut_index[compose(compose(phi, f), phi_inv)] for f in auts]))
    seen: set[tuple[int, ...]] = set()
    minima = []
    for lam in lams:
        least = tuple(aut_index[f] for f in lam)
        if least in seen:
            continue
        seen.add(least)
        queue = [least]
        while queue:
            cur = queue.pop()
            for phi, table in moves:
                out = [0] * len(cur)
                for a, f in enumerate(cur):
                    out[phi[a]] = table[f]
                nxt = tuple(out)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
                    least = min(least, nxt)
        minima.append(least)
    return [tuple(auts[f] for f in lam) for lam in sorted(minima)]


def dedup_braces(braces: Iterable[SkewBrace]) -> list[SkewBrace]:
    """The first brace of each isomorphism class, in input order: the class
    kernel with _element_fingerprints as marks and brace.isomorphic as the
    test."""
    return _isomorphism_classes(braces, _element_fingerprints, isomorphic)


CHECKPOINT_VERSION = 1


def _checkpoint_header(n: int, groups: Sequence[GroupTable]) -> dict:
    return {
        "bracelab_checkpoint": CHECKPOINT_VERSION,
        "order": n,
        "groups": [hashlib.sha256(json.dumps(g.table).encode()).hexdigest() for g in groups],
    }


def _checkpoint_record(
    rec, groups: Sequence[GroupTable], auts: list[dict[Perm, Perm]]
) -> tuple[tuple[int, int], list[LambdaMap]]:
    """The unit and maps of one record, each map rebuilt from auts[gi], which
    maps every automorphism of group gi to itself, and checked to be a
    regular subgroup; others raise ValueError."""
    gi, unit = rec["group"], rec["unit"]
    if not (
        isinstance(gi, int) and 0 <= gi < len(auts)
        and isinstance(unit, int) and 0 <= unit < len(auts[gi])
    ):
        raise ValueError(f"no unit ({gi}, {unit}) at this order")
    aut, a_group = auts[gi], groups[gi]
    maps = [tuple(aut.get(tuple(p)) for p in lam) for lam in rec["maps"]]
    for lam in maps:
        if len(lam) != a_group.n or None in lam:
            raise ValueError(
                f"a map of unit ({gi}, {unit}) is not {a_group.n} automorphisms of its group"
            )
        try:
            verify_group(_product_table(a_group, lam))
        except BraceLabError as exc:
            raise ValueError(
                f"a map of unit ({gi}, {unit}) is not a regular subgroup: {exc}"
            ) from None
    return (gi, unit), maps


def _read_checkpoint(
    path: Path, n: int, groups: Sequence[GroupTable]
) -> dict[tuple[int, int], list[LambdaMap]]:
    """The finished units of a checkpoint; a missing or empty file is started
    with the header. A torn final record, left by an interrupted write, is cut
    off so that its unit is redone. A missing or foreign header, or a bad
    record before the last, raises BraceLabError."""
    header = _checkpoint_header(n, groups)
    text = path.read_text() if path.exists() else ""
    if not text:
        path.write_text(json.dumps(header) + "\n")
        return {}
    lines = text.splitlines(keepends=True)
    try:
        found = json.loads(lines[0])
    except ValueError:
        found = None
    if not isinstance(found, dict) or "bracelab_checkpoint" not in found:
        raise BraceLabError(f"{path}: first line is not a bracelab checkpoint header")
    if found["bracelab_checkpoint"] != CHECKPOINT_VERSION:
        raise BraceLabError(
            f"{path}: checkpoint format {found['bracelab_checkpoint']!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    if found.get("order") != n:
        raise BraceLabError(f"{path}: written for order {found.get('order')!r}, not {n}")
    if found.get("groups") != header["groups"]:
        raise BraceLabError(f"{path}: written for other additive groups (table digests differ)")

    auts = [{p: p for p in all_automorphisms(g)} for g in groups]
    done: dict[tuple[int, int], list[LambdaMap]] = {}
    kept = len(lines)
    for i in range(1, len(lines)):
        try:
            if not lines[i].endswith("\n"):
                raise ValueError("unterminated record")
            key, maps = _checkpoint_record(json.loads(lines[i]), groups, auts)
        except (ValueError, KeyError, TypeError) as exc:
            if i < len(lines) - 1:
                raise BraceLabError(f"{path}: line {i + 1} is not a unit record ({exc})") from None
            kept = i
            break
        done[key] = maps
    intact = "".join(lines[:kept])
    if not intact.endswith("\n"):  # the header itself was cut before its newline
        intact += "\n"
    if intact != text:
        path.write_text(intact)
    return done


def enumerate_skew_braces(n: int, checkpoint: Optional[str | Path] = None) -> Catalog:
    """All skew braces of order n up to isomorphism: regular subgroups of
    Hol(A) for each additive group A, reduced by Aut(A)-conjugation, then
    certified pairwise non-isomorphic. The census suite checks its counts
    against the independent search _enumerate_braces_direct."""
    started = time.monotonic()
    groups = _groups_of_order(n)
    ckpt_path = Path(checkpoint) if checkpoint else None
    done = _read_checkpoint(ckpt_path, n, groups) if ckpt_path else {}

    braces: list[SkewBrace] = []
    for gi, a_group in enumerate(groups):
        if n == 1:
            braces.append(brace_from_lambda_map(a_group, (tuple([0]),)))
            continue
        lams: list[LambdaMap] = []
        for unit in _search_tables(a_group).units:
            key = (gi, unit)
            if key not in done:
                found = regular_subgroups(a_group, unit)
                done[key] = found
                if ckpt_path:
                    with ckpt_path.open("a") as fh:
                        fh.write(
                            json.dumps(
                                {
                                    "group": gi,
                                    "unit": unit,
                                    "maps": [[list(p) for p in lam] for lam in found],
                                }
                            )
                            + "\n"
                        )
            lams.extend(done[key])
        reduced = reduce_by_aut_conjugation(lams, a_group)
        braces.extend(brace_from_lambda_map(a_group, lam) for lam in reduced)
    classes = dedup_braces(braces)
    if len(classes) != len(braces):
        raise CrossCheckFailed(
            f"order {n}: {len(braces)} Aut(A)-orbit representatives "
            f"fall into only {len(classes)} isomorphism classes"
        )
    return _with_meta("braces", n, classes, started, "holomorph")


# The largest order the direct brace search runs.
DIRECT_SEARCH_MAX_ORDER = 6


def _enumerate_braces_direct(n: int) -> list[SkewBrace]:
    """Backtrack over multiplication tables with identity 0 over each fixed
    additive group, pruning rows by the brace law; leaves are validated."""
    if n > DIRECT_SEARCH_MAX_ORDER:
        raise BudgetExceeded("direct brace search order", n, DIRECT_SEARCH_MAX_ORDER)
    out: list[SkewBrace] = []
    for a_group in _groups_of_order(n):
        add_t = a_group.table
        neg = a_group.inv
        rows: list[list[int]] = [list(range(n))]

        def row_ok(a: int, row: Sequence[int]) -> bool:
            # a o (b + c) == a o b - a + a o c uses only row a.
            for b in range(n):
                for c in range(n):
                    if row[add_t[b][c]] != add_t[add_t[row[b]][neg[a]]][row[c]]:
                        return False
            return True

        found_tables: list[list[list[int]]] = []

        def fill(a: int, used_cols: list[set[int]]) -> None:
            if a == n:
                found_tables.append([list(r) for r in rows])
                return
            # row a starts with a (identity in column 0)
            def backtrack(pos: int, row: list[int]) -> None:
                if pos == n:
                    if row_ok(a, row):
                        rows.append(row)
                        for j, v in enumerate(row):
                            used_cols[j].add(v)
                        fill(a + 1, used_cols)
                        rows.pop()
                        for j, v in enumerate(row):
                            used_cols[j].discard(v)
                    return
                for v in range(n):
                    if v in row[:pos] or v in used_cols[pos]:
                        continue
                    row.append(v)
                    backtrack(pos + 1, row)
                    row.pop()

            backtrack(1, [a])

        cols = [set(row[j] for row in rows) for j in range(n)]
        fill(1, cols)

        for table in found_tables:
            try:
                mul_group = verify_group(table)
            except BraceLabError:  # non-groups are just skipped
                continue
            out.append(verify_skew_brace(a_group, mul_group))
    return dedup_braces(out)


# ---------------------------------------------------------------------------
# Involutive solutions


# The largest size the exhaustive solution census runs; verify --max-size
# stops here too.
MAX_SOLUTION_SIZE = 4

# The size of the seeded samples that verify --suite equivalence checks
# beyond the census. It is its own constant: raising MAX_SOLUTION_SIZE does
# not move it.
SAMPLED_SOLUTION_SIZE = 5


def _involutive_families(n: int, order: Callable[[list[int]], Iterable[int]]) -> Iterator[Solution]:
    """Every sigma family on 0..n-1 that is an involutive solution, depth first.

    sigma_0, sigma_1, ... are assigned in turn. A node at depth k < n first
    finds its children: the all_perms(n) indices p = sigma_k that pass the
    pruning, in index order. Then it calls order(kids) once, which returns
    the kids in the order to visit them: the census passes `lambda kids:
    kids`, the sampler a fresh shuffle (_shuffler). Which kids a node has
    does not depend on order(), so every order() visits the same tree and
    calls order() at the same nodes, in the same sequence.

    Once sigma_x and sigma_u (u = sigma_x(y)) are assigned, involutivity
    forces r(x, y) = (u, tau_y(x)) with tau_y(x) = sigma_u^{-1}(x). A
    candidate is pruned when a forced tau_y(x) repeats a value in the row
    tau_y, or when a braid triple whose six r-values are all forced fails.
    Each complete family is validated by involutive_from_sigma; at depth n
    every entry is forced, so the pruning has checked every tau row and
    braid triple, and a family that fails validation means the search is
    wrong: CrossCheckFailed.

    The search keeps sig[x] = sigma_x and sig_inv[x] for x <= k, and an
    unset row of -1s above; a candidate is tried by setting sig[k] and
    sig_inv[k], two stores, so no table of r-values is written. A
    candidate p = sigma_k forces two kinds of new entries:
    - r(x, c_x) = (k, p^{-1}(x)) for x < k, where c_x = sigma_x^{-1}(k),
      writes p^{-1}(x) in the tau row c_x;
    - r(k, y) = (u, c_u) where u = p(y) < k writes c_u in row y, and
      r(k, y) = (k, y) where p(y) = k writes y in row y.
    The tau rows are one int, and the whole tau-row check is one bitset per
    node, `banned`, over the perm indices (maps_to[y][u] holds the perms p
    with p(y) = u): it takes every candidate that would repeat a value in a
    tau row, because a new value is already in its row (one table lookup
    per kind and x), or because two of p's own entries write one value in
    one row. The entries (x, c_x) have distinct values and the entries
    (k, y) distinct rows, so only (x, c_x) and (k, c_x) can clash, with
    u = p(c_x) < k, exactly when p(c_u) = x: maps_to[c_x][u] &
    maps_to[c_u][x], symmetric in x and u.

    The braid check walks the triples (x, y, z) with x, y <= k, the only
    ones whose six entries can all be forced, reading each entry
    r(x, y) = (sigma_x(y), sigma_u^{-1}(x)) from sig and sig_inv: it is
    forced when its second part is not -1. It takes first the pairs (x, k)
    and (k, y), whose triples read sigma_k: almost every candidate fails on
    one of those. With r(x, y) = (u, v), r(v, z) is forced for the k + 1
    values z = sigma_v^{-1}(0..k) when v <= k, and for none when v > k;
    `reach[v]` lists them, so only those z are walked. A triple that the
    parent already passed passes again, and is checked again: in the
    sampler's size-5 pass such triples are 4% of the z steps walked, too
    few to pay for tracking them.
    """
    perms = all_perms(n)
    inverses = [invert(p) for p in perms]
    maps_to = [[0] * n for _ in range(n)]
    for idx, p in enumerate(perms):
        for y, u in enumerate(p):
            maps_to[y][u] |= 1 << idx
    everyone = (1 << len(perms)) - 1
    # The tau rows are one int, `tau`: bit y * n + t is set when some forced
    # tau_y(x) equals t. Row c is tau >> c * n & full; the rows holding t
    # are the bits y * n of tau >> t & column; the rows y holding y are
    # the bits y * n + y of tau & diagonal.
    full = (1 << n) - 1
    column = sum(1 << y * n for y in range(n))
    diagonal = sum(1 << y * n + y for y in range(n))
    # row_or[x][row]: the perms p with p(t) = x for a t set in row;
    # col_or[u][tau >> t & column]: with p(y) = u for a row y holding t;
    # diag_or[u][tau & diagonal]: with p(y) = u for a row y holding y
    row_or = [[0] * (1 << n) for _ in range(n)]
    col_or: list[dict[int, int]] = [{} for _ in range(n)]
    diag_or: list[dict[int, int]] = [{} for _ in range(n)]
    for u in range(n):
        for held in range(1 << n):
            ys = [y for y in range(n) if held >> y & 1]
            for y in ys:
                row_or[u][held] |= maps_to[y][u]
            col_or[u][sum(1 << y * n for y in ys)] = row_or[u][held]
            diag_or[u][sum(1 << y * n + y for y in ys)] = row_or[u][held]
    # heads[k][idx]: p^{-1}(0..k), the z with p(z) <= k
    heads = [[p_inv[: k + 1] for p_inv in inverses] for k in range(n)]
    # walk[k]: the pairs (x, y) of the braid check at depth k; those that
    # read sigma_k come first
    walk = [
        [(x, k) for x in range(k + 1)]
        + [(k, y) for y in range(k)]
        + [(x, y) for x in range(k) for y in range(k)]
        for k in range(n)
    ]
    # sig[x] is sigma_x and sig_inv[x] its inverse, or `unset` while x > k.
    # sig_inv has one more unset row, read as sig_inv[-1] when an unset
    # sigma's value -1 is looked up.
    unset = (-1,) * n
    sig: list[Perm] = [unset] * n
    sig_inv: list[Perm] = [unset] * (n + 1)

    def descend(k: int, tau: int) -> Iterator[Solution]:
        if k == n:
            try:
                sol = involutive_from_sigma(sig)
            except (BraceLabError, ValueError) as exc:
                raise CrossCheckFailed(
                    f"pruned search reached an invalid sigma family {sig}: {exc}"
                ) from exc
            yield sol
            return
        cols = [s_inv[k] for s_inv in sig_inv[:k]]  # c_x = sigma_x^{-1}(k)
        banned = diag_or[k][tau & diagonal]  # p(y) = k, and row y holds y
        for x, c in enumerate(cols):
            # p(t) = x for a t in row c_x; p(y) = x for a row y holding c_x
            banned |= row_or[x][tau >> c * n & full] | col_or[x][tau >> c & column]
            at_c = maps_to[c]
            for u in range(x + 1):  # p(c_x) = u and p(c_u) = x: both write c_u in row c_x
                banned |= at_c[u] & maps_to[cols[u]][x]
        walk_k, heads_k = walk[k], heads[k]
        # reach[k] is the candidate's, set before each braid check
        reach = [s_inv[: k + 1] for s_inv in sig_inv[:k]] + [()] * (n - k)
        kids = []
        free = ~banned & everyone
        while free:
            low = free & -free
            free ^= low
            idx = low.bit_length() - 1
            sig[k] = perms[idx]
            sig_inv[k] = inverses[idx]
            reach[k] = heads_k[idx]
            # the braid check, r12 r23 r12 = r23 r12 r23, on every triple
            # whose six entries r(x, y) = (sigma_x(y), sigma_u^{-1}(x)) are
            # forced: an unset row reads -1
            for x, y in walk_k:
                sx = sig[x]
                u = sx[y]
                v = sig_inv[u][x]
                if v < 0:
                    continue
                su, sv, sy = sig[u], sig[v], sig[y]
                for z in reach[v]:
                    b0 = sv[z]
                    c0 = su[b0]
                    c1 = sig_inv[c0][u]
                    d0 = sy[z]
                    d1 = sig_inv[d0][y]
                    if c1 < 0 or d1 < 0:
                        continue
                    e0 = sx[d0]
                    e1 = sig_inv[e0][x]
                    if e1 < 0:
                        continue
                    f0 = sig[e1][d1]
                    f1 = sig_inv[f0][e1]
                    if f1 >= 0 and (c0 != e0 or c1 != f0 or sig_inv[b0][v] != f1):
                        break
                else:
                    continue
                break
            else:
                kids.append(idx)
        for idx in order(kids):
            p_inv = sig_inv[k] = inverses[idx]
            sig[k] = perms[idx]
            # r(x, c_x) = (k, p^{-1}(x)) writes p^{-1}(x) in row c_x, and
            # r(k, y) with p(y) = x < k writes c_x in row y = p^{-1}(x)
            child = tau | 1 << p_inv[k] * (n + 1)  # r(k, y) = (k, y) for p(y) = k
            for c, t in zip(cols, p_inv):
                child |= 1 << c * n + t | 1 << t * n + c
            yield from descend(k + 1, child)
        sig[k] = sig_inv[k] = unset

    return descend(0, 0)


def solution_canonical_form(sol: Solution) -> tuple:
    """Minimum relabeling of (sigma, tau) over Sym(n)."""
    n = sol.n
    best = None
    for pi in all_perms(n):
        pi_inv = invert(pi)
        sig = tuple(
            tuple(pi[sol.sigma[pi_inv[x]][pi_inv[y]]] for y in range(n)) for x in range(n)
        )
        tau = tuple(
            tuple(pi[sol.tau[pi_inv[x]][pi_inv[y]]] for y in range(n)) for x in range(n)
        )
        cand = (sig, tau)
        if best is None or cand < best:
            best = cand
    return best


def enumerate_involutive_solutions(n: int) -> Catalog:
    """Involutive solutions of size n up to relabeling, with the
    multipermutation level and permutation-brace size of each item."""
    started = time.monotonic()
    if n > MAX_SOLUTION_SIZE:
        raise BudgetExceeded("exhaustive solution census", n, MAX_SOLUTION_SIZE)
    seen: dict[tuple, Solution] = {}
    for sol in _involutive_families(n, lambda kids: kids):
        canon = solution_canonical_form(sol)
        if canon not in seen:
            seen[canon] = sol
    items = [seen[k] for k in sorted(seen)]
    levels = []
    brace_sizes = []
    for sol in items:
        levels.append(multipermutation_level(sol))
        brace_sizes.append(permutation_brace(sol)[0].n)
    return _with_meta(
        "solutions", n, items, started, "exhaustive-sigma", levels=levels, brace_sizes=brace_sizes
    )


def _shuffler(rng: Random, size: int) -> Callable[[list[int]], list[int]]:
    """The sampler's order(kids): the kids in the order of a fresh shuffle
    of range(size).

    Every call makes the getrandbits calls of one Random.shuffle of
    range(size), so the stream does not depend on the kids: for i = size-1
    down to 1, it draws j below m = i + 1 as Random._randbelow does,
    getrandbits(m.bit_length()) again while the value is >= m. With fewer
    than two kids there is nothing to order, so the call only advances the
    generator and builds no list; test_sampler_shuffle_matches_random_shuffle
    pins the lists and the generator's state against Random.shuffle.
    """
    getrandbits = rng.getrandbits
    draws = [(i, i + 1, (i + 1).bit_length()) for i in range(size - 1, 0, -1)]

    def shuffled(kids: list[int]) -> list[int]:
        if len(kids) < 2:
            for _, m, bits in draws:
                while getrandbits(bits) >= m:
                    pass
            return kids
        order = list(range(size))
        for i, m, bits in draws:
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            order[i], order[j] = order[j], order[i]
        keep = set(kids)
        return [idx for idx in order if idx in keep]

    return shuffled


def sample_involutive_solutions(n: int, count: int, seed: int) -> list[Solution]:
    """Seeded randomized depth-first sampling of valid involutive solutions.

    The search of _involutive_families with every node's children visited
    in a fresh shuffled order; passes restart while a full pass adds a
    solution.
    Solutions are distinct as labeled sigma-families.
    """
    shuffled = _shuffler(Random(seed), len(all_perms(n)))
    found: list[Solution] = []
    seen: set[tuple] = set()
    while len(found) < count:
        before = len(found)
        for sol in _involutive_families(n, shuffled):
            if sol.sigma not in seen:
                seen.add(sol.sigma)
                found.append(sol)
                if len(found) >= count:
                    break
        if len(found) == before:
            break
    return found
