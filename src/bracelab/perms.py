"""Permutations of 0..n-1 as image tuples."""

from __future__ import annotations

from numbers import Integral
from typing import Sequence

Perm = tuple[int, ...]


def is_perm(p: Sequence[int], n: int) -> bool:
    """p lists each of 0..n-1 once, as integers; a bool is not one."""
    if len(p) != n:
        return False
    if not all(isinstance(v, Integral) and not isinstance(v, bool) for v in p):
        return False
    return sorted(p) == list(range(len(p)))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: (p.q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(q)))


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Sorted cycle lengths of p."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        out.append(length)
    return tuple(sorted(out))


def perm_order(p: Perm) -> int:
    order = 1
    for length in cycle_type(p):
        order = _lcm(order, length)
    return order


def _lcm(a: int, b: int) -> int:
    from math import gcd

    return a * b // gcd(a, b)


def all_perms(n: int) -> list[Perm]:
    from itertools import permutations

    return [tuple(p) for p in permutations(range(n))]
