"""Nilpotency series of skew braces and the verdicts they support.

Every descending kind goes through groups.descending_chain with star
products and commutators as its steps, closing under the additive table.
Every ascending kind goes through groups.ascending_chain with one
requirement mask per element: x joins A_{k+1} when its mask lies in A_k.
For an ideal I, x + I lies in Soc(B/I) exactly when x*a and [x,a]_+ lie in I
for every a, and in Ann(B/I) when a*x does too, so the socle and annihilator
terms are pulled back without building a quotient brace. An ascending chain
is cut at its first repetition, and each of its terms must contain the one
before. A descending chain is cut at its limit, which the first repetition
need not be: the strong and bracketed gamma steps read every earlier term
(see groups.descending_chain). Every chain ends with the first occurrence of
its limit.

A product with the whole carrier is an OR of per-element masks: X*B of the
rows {x*a : a}, B*Y of the columns {a*y : a}, and [B,Y]_+ of the additive
commutator columns. The left, right, gamma and annihilator kinds and the
carrier pairs of the strong step read those masks. The bracketed gamma kind
reads only pairwise products from the tables, so one of the three routes to
the annihilator verdict stays independent of the masks: a wrong mask makes
the routes disagree instead of going unseen.

Each kind is one _Kind record: its builder, its direction, the index of its
first term, and whether every term must be an ideal or only a left ideal.
What the series of one brace share is one _Shared object: the product masks
and the (member test, term) pairs already passed. nilpotency_report builds
it once and passes it to each of its six series calls; a series call
without one builds its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

from .brace import SkewBrace
from .errors import CrossCheckFailed, HypothesisUnmet
from .groups import ascending_chain, commutator_products, descending_chain
from .subsets import Subset
from .substructures import is_ideal, is_left_ideal, star_products


@dataclass(frozen=True)
class SeriesReport:
    kind: str
    chain: tuple[Subset, ...]
    holds: bool  # the chain reaches {0}, or the carrier for an ascending kind
    cls: Optional[int]


def series(b: SkewBrace, kind: str, shared: Optional[_Shared] = None) -> SeriesReport:
    """The series of b of this kind. shared, built from b, carries the
    product masks and passed member tests from one call to the next."""
    spec = _KINDS.get(kind)
    if spec is None:
        raise ValueError(f"unknown series kind {kind!r}")
    if shared is None:
        shared = _Shared(b)
    chain = spec.build(b, shared)
    # looked up at call time, so a rebound module name (a tracer's wrapper,
    # say) sees every member test
    member, term_name = (is_ideal, "an ideal") if spec.ideals else (is_left_ideal, "a left ideal")
    for term in chain:
        # {0} and the carrier are ideals and left ideals
        key = (spec.ideals, term.mask)
        if term.is_full() or term.is_zero_only() or key in shared.passed:
            continue
        if not member(b, term):
            raise CrossCheckFailed(f"{kind} series term {term.indices()} is not {term_name}")
        shared.passed.add(key)
    holds = chain[-1].is_zero_only() if spec.descends else chain[-1].is_full()
    return SeriesReport(
        kind=kind,
        chain=tuple(chain),
        holds=holds,
        cls=len(chain) - 1 + spec.first if holds else None,
    )


class _Shared:
    """What the series of one brace share. The products with the whole
    carrier, as ORs of per-element masks: star rows {x*a : a} and star
    columns {a*y : a}, each built on first use, and the additive commutator
    rows and columns that b.add keeps. And passed, the (ideals, mask) pairs
    whose member test a term has passed. Neither is kept on the brace."""

    def __init__(self, b: SkewBrace) -> None:
        self._star = b.star
        self._bits = [1 << v for v in range(b.n)]
        self.comm_rows, self.comm_cols = b.add.commutator_masks
        self.passed: set[tuple[bool, int]] = set()

    @cached_property
    def star_rows(self) -> list[int]:
        return [sum(map(self._bits.__getitem__, set(row))) for row in self._star]

    @cached_property
    def star_cols(self) -> list[int]:
        return [sum(map(self._bits.__getitem__, set(col))) for col in zip(*self._star)]

    def right(self, xs: Subset) -> int:
        """Mask of X*B."""
        return _join(self.star_rows, xs)

    def left(self, ys: Subset) -> int:
        """Mask of B*Y."""
        return _join(self.star_cols, ys)

    def commutators(self, ys: Subset) -> int:
        """Mask of [B, Y]_+."""
        return _join(self.comm_cols, ys)


def _join(masks: Sequence[int], s: Subset) -> int:
    """OR of masks[x] over x in s."""
    out = 0
    for x in s.indices():
        out |= masks[x]
    return out


def _left_chain(b: SkewBrace, shared: _Shared) -> list[Subset]:
    return descending_chain(b.add, shared.left)


def _right_chain(b: SkewBrace, shared: _Shared) -> list[Subset]:
    return descending_chain(b.add, shared.right)


def _strong_chain(b: SkewBrace, shared: _Shared) -> list[Subset]:
    """B[1] = B, B[m+1] = <union of B[i] * B[m+1-i] for i = 1..m>_+. The
    pairs with B[1] = B read the masks, the others the star table."""

    def step(chain: list[Subset]) -> int:
        gen = shared.left(chain[-1]) | shared.right(chain[-1])
        inner = chain[1:-1]
        for xs, ys in zip(inner, reversed(inner)):
            gen |= star_products(b, xs, ys)
        return gen

    return descending_chain(b.add, step, history=True)


def _gamma_chain(b: SkewBrace, shared: _Shared) -> list[Subset]:
    """Gamma_0 = B, Gamma_{n+1} = <Gn*B, B*Gn, [B,Gn]_+>_+."""

    def step(prev: Subset) -> int:
        return shared.right(prev) | shared.left(prev) | shared.commutators(prev)

    return descending_chain(b.add, step)


def _gamma_bracket_chain(b: SkewBrace, shared: _Shared) -> list[Subset]:
    """G[1] = B, G[n] = <G[i]*G[n-i], [G[i],G[n-i]]_+ : 1 <= i <= n-1>_+,
    from pairwise products only: the route that reads no mask."""

    def step(chain: list[Subset]) -> int:
        gen = 0
        for xs, ys in zip(chain, reversed(chain)):
            gen |= star_products(b, xs, ys) | commutator_products(b.add, xs, ys)
        return gen

    return descending_chain(b.add, step, history=True)


def _pull_back_chain(shared: _Shared, both_sides: bool) -> list[Subset]:
    """A_0 = {0}, A_{k+1} = {x : x*a, [x,a]_+ and, with both_sides, a*x in A_k
    for all a}: the socle series, or the annihilator series with both_sides."""
    needs = [row | comm for row, comm in zip(shared.star_rows, shared.comm_rows)]
    if both_sides:
        needs = [need | col for need, col in zip(needs, shared.star_cols)]
    return ascending_chain(needs)


@dataclass(frozen=True)
class _Kind:
    build: Callable[[SkewBrace, _Shared], list[Subset]]
    descends: bool  # toward {0}; an ascending chain climbs toward the carrier
    first: int  # index of the first term; the class is the index of the last
    ideals: bool  # every term must be an ideal; else a left ideal


_KINDS = {
    "left": _Kind(_left_chain, True, 1, False),
    "right": _Kind(_right_chain, True, 1, True),
    "strong": _Kind(_strong_chain, True, 1, True),
    "gamma": _Kind(_gamma_chain, True, 0, True),
    "gamma_bracket": _Kind(_gamma_bracket_chain, True, 1, True),
    "socle": _Kind(lambda b, shared: _pull_back_chain(shared, False), False, 0, True),
    "annihilator": _Kind(lambda b, shared: _pull_back_chain(shared, True), False, 0, True),
}


# ---------------------------------------------------------------------------
# Nilpotency verdicts


# The four nilpotency notions a report renders a verdict on, in report order.
VERDICTS = ("left", "right", "strong", "annihilator")


@dataclass(frozen=True)
class NilpotencyReport:
    """The six series nilpotency_report computes: the four VERDICTS, then the
    gamma and bracketed gamma series, the annihilator's other two routes."""

    left: SeriesReport
    right: SeriesReport
    strong: SeriesReport
    annihilator: SeriesReport
    gamma: SeriesReport
    gamma_bracket: SeriesReport
    nilpotent_type: bool

    def to_json(self) -> dict:
        out = {}
        for kind in VERDICTS:
            rep = getattr(self, kind)
            out[kind] = {"holds": rep.holds, "class": rep.cls}
        out["nilpotent_type"] = self.nilpotent_type
        return out


def nilpotency_report(b: SkewBrace) -> NilpotencyReport:
    """All four nilpotency verdicts with redundant routes cross-asserted.

    The annihilator verdict is computed three ways (annihilator series up,
    gamma series down, bracketed gamma series down); disagreement raises
    CrossCheckFailed and always indicates an implementation bug. The six
    series share one _Shared: the masks are built once and each (member
    test, term) pair is tested once.
    """
    shared = _Shared(b)
    left = series(b, "left", shared)
    right = series(b, "right", shared)
    strong = series(b, "strong", shared)
    ann = series(b, "annihilator", shared)
    gam = series(b, "gamma", shared)
    gam_br = series(b, "gamma_bracket", shared)

    if not (ann.holds == gam.holds == gam_br.holds):
        raise CrossCheckFailed(
            "annihilator routes disagree: "
            f"ann={ann.holds} gamma={gam.holds} gamma_bracket={gam_br.holds}"
        )
    # Gamma_n sits inside Gamma_[n+1] (positionwise on the two chains), and
    # consecutive bracketed terms nest; both checked on the computed chains.
    for i, term in enumerate(gam.chain):
        if i < len(gam_br.chain) and not term <= gam_br.chain[i]:
            raise CrossCheckFailed("gamma term escapes bracketed gamma term")
    if strong.holds != (left.holds and right.holds):
        raise CrossCheckFailed("strong vs left-and-right disagree")
    if ann.holds and not strong.holds:
        raise CrossCheckFailed("annihilator nilpotent but not strongly nilpotent")

    nilpotent_type = b.add.nilpotency_class is not None
    if nilpotent_type and ann.holds != strong.holds:
        raise CrossCheckFailed("nilpotent type: annihilator vs strong disagree")

    return NilpotencyReport(
        left=left,
        right=right,
        strong=strong,
        annihilator=ann,
        gamma=gam,
        gamma_bracket=gam_br,
        nilpotent_type=nilpotent_type,
    )


# ---------------------------------------------------------------------------
# Distributivity inside the bracketed gamma chain


def gamma_distributivity_check(b: SkewBrace, report: NilpotencyReport) -> dict:
    """For a in G[c-k] and q, w in G[k-1], star and additive commutators
    distribute over + and o in the second argument; all six identities are
    checked on every admissible triple. G is the bracketed gamma series that
    report, the nilpotency_report of b, keeps."""
    gam_br = report.gamma_bracket
    c = gam_br.cls  # set exactly when the chain reaches {0}
    if c is None:
        raise HypothesisUnmet("brace is not annihilator nilpotent")
    chain = gam_br.chain  # chain[j-1] = G[j]

    checked = 0
    counterexamples: list[dict] = []
    add_t, mul_t, st, comm = b.add.table, b.mul.table, b.star, b.add.commutator
    for k in range(2, c):
        a_set = chain[c - k - 1].indices()
        qw_set = chain[k - 2].indices()
        for a in a_set:
            for q in qw_set:
                for w in qw_set:
                    checked += 1
                    qpw = add_t[q][w]
                    qow = mul_t[q][w]
                    sum_star_a = add_t[st[a][q]][st[a][w]]
                    sum_star_right = add_t[st[q][a]][st[w][a]]
                    comm_sum = add_t[comm(a, q)][comm(a, w)]
                    results = (
                        st[a][qpw] == sum_star_a,
                        st[a][qow] == sum_star_a,
                        st[qow][a] == sum_star_right,
                        st[qpw][a] == sum_star_right,
                        comm(a, qpw) == comm_sum,
                        comm(a, qow) == comm_sum,
                    )
                    if not all(results):
                        counterexamples.append(
                            {
                                "k": k,
                                "triple": (a, q, w),
                                "identities": [i + 1 for i, r in enumerate(results) if not r],
                            }
                        )
    return {
        "class": c,
        "checked": checked,
        "counterexamples": counterexamples,
    }
