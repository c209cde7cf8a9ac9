"""Set-theoretic Yang-Baxter solutions: validation, retraction, and the
permutation skew brace they generate inside Sym(X) x Sym(X)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .brace import SkewBrace, verify_skew_brace
from .errors import (
    BraceLabError,
    BraidFailed,
    BudgetExceeded,
    CrossCheckFailed,
    NotBijective,
    env_budget,
)
from .groups import from_permutations, generated_group, verify_group
from .perms import Perm, compose, invert, is_perm
from .series import nilpotency_report

# Keeps the quadratic addition-table construction interactive.
DEFAULT_CLOSURE_BUDGET = 10080


@dataclass(frozen=True)
class Solution:
    """Non-degenerate solution r(x,y) = (sigma_x(y), tau_y(x)) on 0..n-1."""

    n: int
    sigma: tuple[Perm, ...]
    tau: tuple[Perm, ...]
    involutive: bool


def verify_solution(sigma: Sequence[Sequence[int]], tau: Sequence[Sequence[int]]) -> Solution:
    """Check bijectivity of r and the braid relation on all triples."""
    n = len(sigma)
    if len(tau) != n:
        raise ValueError("sigma and tau must have the same length")
    sig = tuple(tuple(p) for p in sigma)
    ta = tuple(tuple(p) for p in tau)
    for fam, name in ((sig, "sigma"), (ta, "tau")):
        for x, p in enumerate(fam):
            if not is_perm(p, n):
                raise ValueError(f"{name}[{x}] is not a permutation of 0..{n - 1}")

    seen: dict[tuple[int, int], tuple[int, int]] = {}
    for x in range(n):
        for y in range(n):
            img = (sig[x][y], ta[y][x])
            if img in seen:
                raise NotBijective(f"pairs {seen[img]} and {(x, y)} both map to {img}")
            seen[img] = (x, y)

    def r12(t):
        x, y, z = t
        return sig[x][y], ta[y][x], z

    def r23(t):
        x, y, z = t
        return x, sig[y][z], ta[z][y]

    for x in range(n):
        for y in range(n):
            for z in range(n):
                t = (x, y, z)
                if r12(r23(r12(t))) != r23(r12(r23(t))):
                    raise BraidFailed(f"braid relation fails on triple ({x},{y},{z})")

    involutive = all(
        (sig[sig[x][y]][ta[y][x]], ta[ta[y][x]][sig[x][y]]) == (x, y)
        for x in range(n)
        for y in range(n)
    )
    return Solution(n=n, sigma=sig, tau=ta, involutive=involutive)


def involutive_from_sigma(sigma: Sequence[Sequence[int]]) -> Solution:
    """Build tau from the involutivity constraint tau_y(x) = sigma_{sigma_x(y)}^{-1}(x),
    then validate. Not every sigma family yields a solution; one that does is
    involutive, since with u = sigma_x(y) and v = tau_y(x) = sigma_u^{-1}(x),
    r(u, v) = (sigma_u(v), tau_v(u)) = (x, sigma_x^{-1}(u)) = (x, y)."""
    n = len(sigma)
    sig = tuple(tuple(p) for p in sigma)
    for x, p in enumerate(sig):
        if not is_perm(p, n):
            raise ValueError(f"sigma[{x}] is not a permutation of 0..{n - 1}")
    sig_inv = [invert(p) for p in sig]
    tau = [[sig_inv[sig[x][y]][x] for x in range(n)] for y in range(n)]
    return verify_solution(sig, tau)


# ---------------------------------------------------------------------------
# Retraction


def retract(sol: Solution) -> tuple[Solution, tuple[int, ...]]:
    """Quotient solution identifying x and y with equal (sigma_x, tau_x)."""
    n = sol.n
    key_to_class: dict[tuple[Perm, Perm], int] = {}
    class_map = [0] * n
    for x in range(n):
        key = (sol.sigma[x], sol.tau[x])
        if key not in key_to_class:
            key_to_class[key] = len(key_to_class)
        class_map[x] = key_to_class[key]
    m = len(key_to_class)
    members: list[list[int]] = [[] for _ in range(m)]
    for x in range(n):
        members[class_map[x]].append(x)

    sigma_bar = [[-1] * m for _ in range(m)]
    tau_bar = [[-1] * m for _ in range(m)]
    for c in range(m):
        for d in range(m):
            sig_vals = {class_map[sol.sigma[x][y]] for x in members[c] for y in members[d]}
            tau_vals = {class_map[sol.tau[x][y]] for x in members[c] for y in members[d]}
            if len(sig_vals) != 1 or len(tau_vals) != 1:
                raise CrossCheckFailed(
                    f"classes ({c},{d}) induce sigma {sig_vals}, tau {tau_vals}"
                )
            sigma_bar[c][d] = sig_vals.pop()
            tau_bar[c][d] = tau_vals.pop()
    return verify_solution(sigma_bar, tau_bar), tuple(class_map)


def multipermutation_level(sol: Solution) -> Optional[int]:
    """Least m with |Ret^m(X)| = 1, or None when retraction stabilizes above
    one point. Sizes never increase, so this always terminates."""
    level = 0
    current = sol
    while current.n > 1:
        retracted, _ = retract(current)
        if retracted.n == current.n:
            return None
        current = retracted
        level += 1
    return level


# ---------------------------------------------------------------------------
# The permutation skew brace


def permutation_brace(sol: Solution) -> tuple[SkewBrace, tuple[int, ...]]:
    """The finite skew brace on the subgroup of Sym(X) x Sym(X) generated by
    (sigma_x, tau_x^{-1}).

    Multiplication is componentwise composition. Addition is built column by
    column from the right-addition moves a + g_x = a o g_{alpha^-1(x)}, for a
    with first component alpha, which realize the generator rule
    lambda_a(g_y) = g_{alpha(y)} (Guarnieri and Vendramin, Math. Comp. 2017).
    In a finite group the forward moves reach every element, so no inverse
    move is needed. The generator rule is only a construction heuristic: the
    resulting tables are revalidated in full, and the structure relation
    g_x o g_y = g_{sigma_x(y)} o g_{tau_y(x)} is asserted, so no unproved
    identity is trusted.
    """
    budget = env_budget(DEFAULT_CLOSURE_BUDGET)
    n = sol.n
    # (sigma_x, tau_x^-1) as one permutation of 0..2n-1, the second component
    # moved to n..2n-1; these sort as the pairs do, identity first.
    gens = [sol.sigma[x] + tuple(n + i for i in invert(sol.tau[x])) for x in range(n)]
    elements = []
    for g in generated_group(gens, 2 * n):
        elements.append(g)
        if len(elements) > budget:
            raise BudgetExceeded("multiplicative closure", len(elements), budget)
    elements.sort()
    index = {g: i for i, g in enumerate(elements)}
    gen_map = tuple(index[g] for g in gens)

    # plus[j][x] = j + g_x = j o g_{alpha_j^-1(x)}, alpha_j the first component of j.
    plus = []
    for g in elements:
        alpha_inv = invert(g[:n])
        plus.append([index[compose(g, gens[alpha_inv[x]])] for x in range(n)])

    # cols[k][i] = i + k. Breadth first from cols[0] = identity: whenever
    # k = j + g_x is new, i + k = (i + j) + g_x gives its column from j's.
    m = len(elements)
    cols: dict[int, list[int]] = {0: list(range(m))}
    queue = [0]
    while queue:
        nxt = []
        for j in queue:
            for x in range(n):
                k = plus[j][x]
                if k not in cols:
                    cols[k] = [plus[v][x] for v in cols[j]]
                    nxt.append(k)
        queue = nxt
    if len(cols) != m:
        raise CrossCheckFailed(f"addition moves reach {len(cols)} of {m} elements")
    add_table = [[cols[k][i] for k in range(m)] for i in range(m)]

    try:
        brace = verify_skew_brace(verify_group(add_table), from_permutations(elements))
    except BraceLabError as exc:
        raise CrossCheckFailed(f"reconstructed tables fail validation: {exc}") from exc

    for x in range(n):
        for y in range(n):
            if brace.lam[gen_map[x]][gen_map[y]] != gen_map[sol.sigma[x][y]]:
                raise CrossCheckFailed(
                    f"lambda generator rule fails at ({x},{y})"
                )
            lhs = brace.mul.table[gen_map[x]][gen_map[y]]
            rhs = brace.mul.table[gen_map[sol.sigma[x][y]]][gen_map[sol.tau[y][x]]]
            if lhs != rhs:
                raise CrossCheckFailed(f"structure relation fails at ({x},{y})")
    return brace, gen_map


def equivalence_check(sol: Solution) -> dict:
    """Both sides of: multipermutation iff the permutation brace is right
    nilpotent of nilpotent type. Raises CrossCheckFailed on disagreement,
    which always indicates an implementation bug."""
    level = multipermutation_level(sol)
    brace, _ = permutation_brace(sol)
    report = nilpotency_report(brace)
    lhs = level is not None
    rhs = report.right.holds and report.nilpotent_type
    if lhs != rhs:
        raise CrossCheckFailed(
            f"multipermutation={lhs} but right-nilpotent-of-nilpotent-type={rhs}"
        )
    return {
        "multipermutation": lhs,
        "level": level,
        "brace_size": brace.n,
        "right_nilpotent": report.right.holds,
        "right_class": report.right.cls,
        "left_nilpotent": report.left.holds,
        "nilpotent_type": report.nilpotent_type,
        "abelian_type": brace.add.is_abelian(),
    }
