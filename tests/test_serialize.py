import json

import pytest

from bracelab.enumeration import enumerate_skew_braces
from bracelab.serialize import (
    brace_from_json,
    brace_to_json,
    item_to_json,
    read_catalog,
    solution_from_json,
    solution_to_json,
    write_catalog,
)
from bracelab.subsets import Subset
from bracelab.ybe import involutive_from_sigma
from conftest import FIVE_POINT_SIGMA


def test_brace_round_trip(z4_quadratic):
    data = brace_to_json(z4_quadratic)
    assert set(data) == {"n", "add", "mul"}
    again = brace_from_json(data)
    assert again.add.table == z4_quadratic.add.table
    assert again.mul.table == z4_quadratic.mul.table
    assert again.lam == z4_quadratic.lam


def test_brace_json_rejects_bad_tables(z4_quadratic):
    data = brace_to_json(z4_quadratic)
    data["mul"][1][2] = data["mul"][1][0]  # break the Latin property
    with pytest.raises(Exception):
        brace_from_json(data)


def test_solution_round_trip(five_point_solution):
    data = solution_to_json(five_point_solution)
    again = solution_from_json(data)
    assert again.sigma == five_point_solution.sigma
    assert again.tau == five_point_solution.tau


def test_solution_tau_omitted_uses_involutive_closure():
    data = {"n": 5, "sigma": [list(p) for p in FIVE_POINT_SIGMA]}
    sol = solution_from_json(data)
    expected = involutive_from_sigma(FIVE_POINT_SIGMA)
    assert sol.tau == expected.tau


def test_subset_serializes_sorted():
    assert Subset.of(6, [4, 0, 2]).indices() == [0, 2, 4]


def test_subset_refuses_a_member_outside_the_carrier():
    with pytest.raises(ValueError) as exc:
        Subset.of(3, [0, 3])
    assert str(exc.value) == "member 3 outside carrier 0..2"


def test_unknown_catalog_kind_has_no_encoder():
    with pytest.raises(ValueError) as exc:
        item_to_json("widgets", None)
    assert str(exc.value) == "unknown catalog kind 'widgets'"


def test_catalog_file_round_trip(tmp_path):
    cat = enumerate_skew_braces(4)
    path = tmp_path / "braces4.jsonl"
    write_catalog(cat, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["meta"]["count"] == 4
    assert header["meta"]["method"] == "holomorph"
    again = read_catalog(path)
    assert again.kind == "braces" and len(again) == 4
    for a, b in zip(cat.items, again.items):
        assert a.add.table == b.add.table and a.mul.table == b.mul.table


def test_catalog_count_mismatch_detected(tmp_path):
    cat = enumerate_skew_braces(4)
    path = tmp_path / "braces4.jsonl"
    write_catalog(cat, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop one item
    with pytest.raises(ValueError):
        read_catalog(path)
