import gzip
import hashlib
import json
from pathlib import Path

import pytest

from bracelab.brace import from_group_trivial, from_zn_quadratic
from bracelab.enumeration import _groups_of_order, enumerate_skew_braces
from bracelab.groups import cyclic, lower_central_series
from bracelab.serialize import read_catalog
from bracelab.series import _KINDS, nilpotency_report, series
from bracelab.ybe import involutive_from_sigma, permutation_brace
from oracles import from_cycles, symmetric, upper_central_series


@pytest.fixture(scope="session")
def z4_quadratic():
    """The brace on Z/4 with x o y = x + y + 2xy."""
    return from_zn_quadratic(4, 2)


@pytest.fixture(scope="session")
def trivial_z2():
    return from_group_trivial(cyclic(2))


@pytest.fixture(scope="session")
def trivial_s3():
    return from_group_trivial(symmetric(3))


# sigma data of the five-point involutive solution whose permutation brace
# has additive group Z/6 and multiplicative group Sym(3)
FIVE_POINT_SIGMA = (
    tuple(range(5)),
    tuple(range(5)),
    tuple(range(5)),
    from_cycles(5, [(1, 2), (3, 4)]),
    from_cycles(5, [(0, 1), (3, 4)]),
)


def _group_row(chain, holds):
    """A group series as a series_digest row; its class is the index of its
    last term, counting the carrier or {0} as term 0."""
    return [[t.mask for t in chain], holds, len(chain) - 1 if holds else None]


def series_digest(braces):
    """sha256 of each brace's series of every kind (term masks, whether the
    chain terminates, its class) and its nilpotency report.

    The lower and upper central series of (B,+) and (B,o) join the brace
    kinds under the names they had as series kinds (lcs_add, lcs_mul,
    ucs_add, ucs_mul), in the same sorted order, so a digest pinned while
    the library had those kinds covers the same answers."""
    answers = []
    for b in braces:
        rows = {}
        for kind in _KINDS:
            r = series(b, kind)
            rows[kind] = [[t.mask for t in r.chain], r.holds, r.cls]
        for name, g in (("add", b.add), ("mul", b.mul)):
            lcs, ucs = lower_central_series(g), upper_central_series(g)
            rows[f"lcs_{name}"] = _group_row(lcs, lcs[-1].is_zero_only())
            rows[f"ucs_{name}"] = _group_row(ucs, ucs[-1].is_full())
        answers.append([rows[kind] for kind in sorted(rows)] + [nilpotency_report(b).to_json()])
    return hashlib.sha256(json.dumps(answers).encode()).hexdigest()


def groups_up_to(n):
    """One group per isomorphism class of every order 1..n."""
    return [g for k in range(1, n + 1) for g in _groups_of_order(k)]


@pytest.fixture(scope="session")
def five_point_solution():
    return involutive_from_sigma(FIVE_POINT_SIGMA)


@pytest.fixture(scope="session")
def five_point_brace(five_point_solution):
    brace, _ = permutation_brace(five_point_solution)
    return brace


@pytest.fixture(scope="session")
def braces_up_to_8():
    """One skew brace per isomorphism class of every order 1..8."""
    return [b for n in range(1, 9) for b in enumerate_skew_braces(n).items]


@pytest.fixture(scope="session")
def braces_up_to_12(braces_up_to_8):
    """One skew brace per isomorphism class of every order 1..12."""
    return braces_up_to_8 + [b for n in range(9, 13) for b in enumerate_skew_braces(n).items]


@pytest.fixture(scope="session")
def braces_24(tmp_path_factory):
    """The 855 braces of the order-24 benchmark catalog."""
    gz = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "braces-24.jsonl.gz"
    catalog = tmp_path_factory.mktemp("catalog") / "braces-24.jsonl"
    catalog.write_bytes(gzip.decompress(gz.read_bytes()))
    return read_catalog(catalog).items
