import hashlib
import json
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from bracelab import enumeration
from bracelab.cli import main
from bracelab.enumeration import (
    GROUP_ORDER_BUDGET,
    MAX_SOLUTION_SIZE,
    enumerate_skew_braces,
    groups_of_order,
)
from bracelab.groups import all_automorphisms
from bracelab.perms import compose, invert, perm_order
from bracelab.serialize import solution_to_json, write_catalog
from bracelab.ybe import involutive_from_sigma
from conftest import FIVE_POINT_SIGMA


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env)


def test_enumerate_braces_to_file(tmp_path):
    out = tmp_path / "braces4.jsonl"
    res = run("enumerate", "--kind", "braces", "--order", "4", "--out", str(out))
    assert res.exit_code == 0, res.output
    lines = out.read_text().splitlines()
    assert json.loads(lines[0])["meta"]["count"] == 4
    assert len(lines) == 5


def test_enumerate_stdout_jsonl():
    res = run("enumerate", "--kind", "groups", "--order", "6")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert json.loads(lines[0])["meta"]["count"] == 2


@pytest.mark.parametrize("kind,order", [("braces", 6), ("solutions", 3), ("groups", 8)])
def test_enumerate_stdout_is_the_out_file(tmp_path, monkeypatch, kind, order):
    # a still clock, so that both runs write the same wall_time_s
    monkeypatch.setattr(enumeration, "time", SimpleNamespace(monotonic=lambda: 0.0))
    out = tmp_path / "catalog.jsonl"
    args = ["enumerate", "--kind", kind, "--order", str(order)]
    assert run(*args, "--out", str(out)).exit_code == 0
    res = run(*args)
    assert res.exit_code == 0, res.output
    assert res.stdout_bytes == out.read_bytes()


def test_enumerate_over_budget_is_input_error():
    res = run("enumerate", "--kind", "solutions", "--order", "5")
    assert res.exit_code == 2


def test_classify(tmp_path):
    out = tmp_path / "braces4.jsonl"
    run("enumerate", "--kind", "braces", "--order", "4", "--out", str(out))
    report = tmp_path / "report.csv"
    res = run("classify", "--in", str(out), "--report", str(report))
    assert res.exit_code == 0, res.output
    lines = report.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("index,n,trivial,two_sided")


# sha256 of the classify CSV of the order-n brace catalog
CLASSIFY_DIGESTS = {
    8: "56502a8edecb1002b7c3a165b3fa3e39b703011c41e613e258ea351bcc1d5066",
    12: "b0064e97393af7cb3d5aeb7c726b419ad8a73e92b53b11c2ca8074222f1f6a2e",
}


@pytest.mark.parametrize("order", sorted(CLASSIFY_DIGESTS))
def test_classify_output_is_pinned(tmp_path, order):
    catalog, report = tmp_path / "braces.jsonl", tmp_path / "report.csv"
    write_catalog(enumerate_skew_braces(order), catalog)
    res = run("classify", "--in", str(catalog), "--report", str(report))
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(report.read_bytes()).hexdigest() == CLASSIFY_DIGESTS[order]


def test_classify_missing_file_exits_2(tmp_path):
    res = run("classify", "--in", str(tmp_path / "absent.jsonl"), "--report", "x.csv")
    assert res.exit_code == 2


def test_classify_wrong_kind_exits_2(tmp_path):
    out = tmp_path / "groups.jsonl"
    run("enumerate", "--kind", "groups", "--order", "4", "--out", str(out))
    res = run("classify", "--in", str(out), "--report", str(tmp_path / "r.csv"))
    assert res.exit_code == 2


def test_solution_analyze(tmp_path):
    sol = involutive_from_sigma(FIVE_POINT_SIGMA)
    path = tmp_path / "sol.json"
    path.write_text(json.dumps(solution_to_json(sol)))
    res = run("solution", "analyze", "--in", str(path))
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["level"] == 3
    assert data["permutation_brace"]["size"] == 6
    assert data["permutation_brace"]["right"]["holds"] is True
    assert data["permutation_brace"]["left"]["holds"] is False


FIVE_POINT_ANALYSIS = """\
{
  "n": 5,
  "involutive": true,
  "multipermutation": true,
  "level": 3,
  "permutation_brace": {
    "size": 6,
    "abelian_type": true,
    "nilpotent_type": true,
    "left": {
      "holds": false,
      "class": null
    },
    "right": {
      "holds": true,
      "class": 3
    },
    "strong": {
      "holds": false,
      "class": null
    },
    "annihilator": {
      "holds": false,
      "class": null
    }
  }
}
"""


def test_solution_analyze_output_is_pinned(tmp_path):
    path = tmp_path / "sol.json"
    path.write_text(json.dumps(solution_to_json(involutive_from_sigma(FIVE_POINT_SIGMA))))
    res = run("solution", "analyze", "--in", str(path))
    assert res.exit_code == 0, res.output
    assert res.output == FIVE_POINT_ANALYSIS


def test_solution_analyze_tau_omitted(tmp_path):
    path = tmp_path / "sol.json"
    path.write_text(json.dumps({"n": 2, "sigma": [[0, 1], [0, 1]]}))
    res = run("solution", "analyze", "--in", str(path))
    assert res.exit_code == 0
    assert json.loads(res.output)["involutive"] is True


def test_solution_analyze_invalid_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "sigma": [[0, 1], [0, 0]]}))
    res = run("solution", "analyze", "--in", str(path))
    assert res.exit_code == 2


def test_verify_pass_and_outputs(tmp_path):
    out = tmp_path / "rep.json"
    csv_path = tmp_path / "rep.csv"
    res = run(
        "verify", "--suite", "census", "--max-order", "4",
        "--out", str(out), "--csv", str(csv_path),
    )
    assert res.exit_code == 0, res.output
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert csv_path.read_text().startswith("order,groups,braces")


def test_verify_stdout_json():
    res = run("verify", "--suite", "axioms", "--max-order", "3")
    assert res.exit_code == 0
    assert json.loads(res.output)["suite"] == "axioms"


def test_verify_identities_past_order_12():
    # every carrier is checked on all triples; no order needs a sampling seed
    res = run("verify", "--suite", "identities", "--max-order", "13")
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["passed"] is True


def test_damaged_cached_catalog_exits_2(tmp_path):
    args = ("verify", "--suite", "census", "--max-order", "4", "--catalog-dir", str(tmp_path))
    assert run(*args).exit_code == 0
    path = tmp_path / "braces-4.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop one brace
    res = run(*args)
    assert res.exit_code == 2
    assert f"error: cached catalog {path}: meta count 4 != 3 items" in res.stderr


def test_cached_catalog_of_another_order_exits_2(tmp_path):
    # the order-6 catalog under the order-5 name would pass as 19 braces
    write_catalog(enumerate_skew_braces(6), tmp_path / "braces-5.jsonl")
    res = run("verify", "--suite", "axioms", "--max-order", "6", "--catalog-dir", str(tmp_path))
    assert res.exit_code == 2
    path = tmp_path / "braces-5.jsonl"
    assert res.stderr == (
        f"error: cached catalog {path}: header has kind 'braces' and order 6, "
        "expected kind 'braces' and order 5\n"
    )


def test_cached_catalog_of_another_kind_exits_2(tmp_path):
    # a brace catalog under a solution catalog's name
    write_catalog(enumerate_skew_braces(3), tmp_path / "solutions-3.jsonl")
    res = run("verify", "--suite", "equivalence", "--max-size", "3", "--samples", "0",
              "--catalog-dir", str(tmp_path))
    assert res.exit_code == 2
    path = tmp_path / "solutions-3.jsonl"
    assert res.stderr == (
        f"error: cached catalog {path}: header has kind 'braces' and order 3, "
        "expected kind 'solutions' and order 3\n"
    )


def test_verify_unknown_suite_usage_error():
    res = run("verify", "--suite", "nope")
    assert res.exit_code == 2


def test_malformed_budget_is_input_error():
    res = run("verify", "--suite", "radical", "--max-order", "4",
              env={"BRACELAB_BUDGET": "abc"})
    assert res.exit_code == 2
    assert "BRACELAB_BUDGET" in res.output


@pytest.mark.parametrize(
    "args",
    [
        ["enumerate", "--kind", "braces", "--order", "-3"],
        ["enumerate", "--kind", "braces", "--order", "0"],
        ["verify", "--suite", "census", "--max-order", "-1"],
        ["verify", "--suite", "census", "--max-order", "0"],
        ["verify", "--suite", "census", "--max-order", str(GROUP_ORDER_BUDGET + 1)],
        ["verify", "--suite", "equivalence", "--max-size", "0"],
        ["verify", "--suite", "equivalence", "--max-size", str(MAX_SOLUTION_SIZE + 1)],
        ["verify", "--suite", "equivalence", "--samples", "-5"],
        ["verify", "--suite", "equivalence", "--jobs", "0"],
        ["verify", "--suite", "equivalence", "--jobs", "-1"],
    ],
)
def test_out_of_range_number_is_input_error(args):
    res = run(*args)
    assert res.exit_code == 2
    assert "not in the range" in res.output


def test_verify_library_error_is_input_error():
    # The budget stops the radical suite's lattice step at order 5.
    res = run("verify", "--suite", "radical", "--max-order", "5",
              env={"BRACELAB_BUDGET": "4"})
    assert res.exit_code == 2
    assert "error: " in res.output
    assert "exceeds budget 4" in res.output


def enumerate_with_checkpoint(order, path, out):
    return run("enumerate", "--kind", "braces", "--order", str(order),
               "--checkpoint", str(path), "--out", str(out))


def test_checkpoint_header_names_order_and_groups(tmp_path):
    ckpt = tmp_path / "b.ckpt"
    res = enumerate_with_checkpoint(4, ckpt, tmp_path / "b.jsonl")
    assert res.exit_code == 0, res.output
    header, *records = [json.loads(line) for line in ckpt.read_text().splitlines()]
    assert header["bracelab_checkpoint"] == 1
    assert header["order"] == 4
    assert len(header["groups"]) == 2
    groups = groups_of_order(4).items
    assert [(r["group"], r["unit"]) for r in records] == [
        (gi, unit) for gi, g in enumerate(groups) for unit in census_units(g)
    ]


def census_units(g):
    """The index of the least usable automorphism (order dividing |G|) of
    each class under conjugation by the automorphisms fixing 1."""
    auts = all_automorphisms(g)
    fixing_1 = [p for p in auts if p[1] == 1]
    covered, units = set(), []
    for i, f in enumerate(auts):
        if g.n % perm_order(f) == 0 and f not in covered:
            covered.update(compose(p, compose(f, invert(p))) for p in fixing_1)
            units.append(i)
    return units


def test_foreign_checkpoint_is_refused(tmp_path):
    ckpt = tmp_path / "b.ckpt"
    assert enumerate_with_checkpoint(4, ckpt, tmp_path / "b4.jsonl").exit_code == 0
    before = ckpt.read_text()
    res = enumerate_with_checkpoint(6, ckpt, tmp_path / "b6.jsonl")
    assert res.exit_code == 2
    assert "written for order 4, not 6" in res.output
    assert ckpt.read_text() == before
    assert not (tmp_path / "b6.jsonl").exists()


def test_checkpoint_for_other_groups_is_refused(tmp_path):
    ckpt = tmp_path / "b.ckpt"
    assert enumerate_with_checkpoint(4, ckpt, tmp_path / "b.jsonl").exit_code == 0
    header, rest = ckpt.read_text().split("\n", 1)
    data = json.loads(header)
    data["groups"].reverse()
    ckpt.write_text(json.dumps(data) + "\n" + rest)
    res = enumerate_with_checkpoint(4, ckpt, tmp_path / "b.jsonl")
    assert res.exit_code == 2
    assert "other additive groups" in res.output


def test_checkpoint_of_another_format_is_refused(tmp_path):
    ckpt = tmp_path / "b.ckpt"
    assert enumerate_with_checkpoint(4, ckpt, tmp_path / "b.jsonl").exit_code == 0
    header, rest = ckpt.read_text().split("\n", 1)
    ckpt.write_text(json.dumps({**json.loads(header), "bracelab_checkpoint": 2}) + "\n" + rest)
    res = enumerate_with_checkpoint(4, ckpt, tmp_path / "b.jsonl")
    assert res.exit_code == 2
    assert res.stderr == f"error: {ckpt}: checkpoint format 2, expected 1\n"


def test_record_of_an_unknown_unit_is_refused(tmp_path):
    ckpt = tmp_path / "b.ckpt"
    assert enumerate_with_checkpoint(4, ckpt, tmp_path / "b.jsonl").exit_code == 0
    lines = ckpt.read_text().splitlines(keepends=True)
    rec = json.loads(lines[1])
    lines[1] = json.dumps({**rec, "unit": 99}) + "\n"
    ckpt.write_text("".join(lines))
    res = enumerate_with_checkpoint(4, ckpt, tmp_path / "b.jsonl")
    assert res.exit_code == 2
    assert res.stderr == (
        f"error: {ckpt}: line 2 is not a unit record (no unit ({rec['group']}, 99) at this order)\n"
    )


def test_headerless_checkpoint_is_refused(tmp_path):
    ckpt = tmp_path / "b.ckpt"
    assert enumerate_with_checkpoint(4, ckpt, tmp_path / "b.jsonl").exit_code == 0
    ckpt.write_text(ckpt.read_text().split("\n", 1)[1])
    res = enumerate_with_checkpoint(4, ckpt, tmp_path / "b.jsonl")
    assert res.exit_code == 2
    assert "not a bracelab checkpoint header" in res.output


def test_torn_final_record_is_redone(tmp_path):
    ckpt = tmp_path / "b.ckpt"
    out = tmp_path / "b.jsonl"
    assert enumerate_with_checkpoint(4, ckpt, out).exit_code == 0
    complete = ckpt.read_text()
    fresh = out.read_text().splitlines()[1:]
    ckpt.write_text(complete[: len(complete) - 20])  # an interrupted last write
    res = enumerate_with_checkpoint(4, ckpt, out)
    assert res.exit_code == 0, res.output
    assert out.read_text().splitlines()[1:] == fresh
    assert ckpt.read_text() == complete


def test_corrupt_inner_record_is_refused(tmp_path):
    ckpt = tmp_path / "b.ckpt"
    assert enumerate_with_checkpoint(4, ckpt, tmp_path / "b.jsonl").exit_code == 0
    lines = ckpt.read_text().splitlines(keepends=True)
    lines[2] = lines[2][:30] + "\n"
    ckpt.write_text("".join(lines))
    res = enumerate_with_checkpoint(4, ckpt, tmp_path / "b.jsonl")
    assert res.exit_code == 2
    assert "line 3 is not a unit record" in res.output


# Per additive group of order 4: automorphisms of that group whose map is no
# regular subgroup, so a o b = a + lambda_a(b) repeats a column entry.
NOT_REGULAR = {
    0: [[0, 1, 2, 3], [0, 3, 2, 1], [0, 1, 2, 3], [0, 1, 2, 3]],
    1: [[0, 1, 2, 3], [0, 1, 3, 2], [0, 1, 2, 3], [0, 1, 2, 3]],
}


def _with_map(line, lam):
    """The unit record line with one more map."""
    rec = json.loads(line)
    rec["maps"].append(lam)
    return json.dumps(rec) + "\n"


def test_inner_record_of_a_non_regular_map_is_refused(tmp_path):
    ckpt = tmp_path / "b.ckpt"
    assert enumerate_with_checkpoint(4, ckpt, tmp_path / "b.jsonl").exit_code == 0
    lines = ckpt.read_text().splitlines(keepends=True)
    lines[1] = _with_map(lines[1], NOT_REGULAR[json.loads(lines[1])["group"]])
    ckpt.write_text("".join(lines))
    res = enumerate_with_checkpoint(4, ckpt, tmp_path / "b.jsonl")
    assert res.exit_code == 2
    assert "line 2 is not a unit record" in res.output
    assert "not a regular subgroup" in res.output


def test_final_record_of_a_non_regular_map_is_redone(tmp_path):
    ckpt = tmp_path / "b.ckpt"
    out = tmp_path / "b.jsonl"
    assert enumerate_with_checkpoint(4, ckpt, out).exit_code == 0
    complete = ckpt.read_text()
    fresh = out.read_text().splitlines()[1:]
    lines = complete.splitlines(keepends=True)
    lines[-1] = _with_map(lines[-1], NOT_REGULAR[json.loads(lines[-1])["group"]])
    ckpt.write_text("".join(lines))
    res = enumerate_with_checkpoint(4, ckpt, out)
    assert res.exit_code == 0, res.output
    assert out.read_text().splitlines()[1:] == fresh
    assert ckpt.read_text() == complete


# a permutation that moves the identity, and two that are no permutations
NOT_AUTOMORPHISMS = [[1, 0, 2, 3], [0, 0, 0, 0], [0, 1, 2, 9]]


@pytest.mark.parametrize("perm", NOT_AUTOMORPHISMS)
def test_inner_record_of_non_automorphisms_is_refused(tmp_path, perm):
    ckpt = tmp_path / "b.ckpt"
    assert enumerate_with_checkpoint(4, ckpt, tmp_path / "b.jsonl").exit_code == 0
    lines = ckpt.read_text().splitlines(keepends=True)
    lines[1] = _with_map(lines[1], [perm] * 4)
    ckpt.write_text("".join(lines))
    res = enumerate_with_checkpoint(4, ckpt, tmp_path / "b.jsonl")
    assert res.exit_code == 2
    assert "line 2 is not a unit record" in res.output
    assert "automorphisms" in res.output


@pytest.mark.parametrize("perm", NOT_AUTOMORPHISMS)
def test_final_record_of_non_automorphisms_is_redone(tmp_path, perm):
    ckpt = tmp_path / "b.ckpt"
    out = tmp_path / "b.jsonl"
    assert enumerate_with_checkpoint(4, ckpt, out).exit_code == 0
    complete = ckpt.read_text()
    fresh = out.read_text().splitlines()[1:]
    lines = complete.splitlines(keepends=True)
    lines[-1] = _with_map(lines[-1], [perm] * 4)
    ckpt.write_text("".join(lines))
    res = enumerate_with_checkpoint(4, ckpt, out)
    assert res.exit_code == 0, res.output
    assert out.read_text().splitlines()[1:] == fresh
    assert ckpt.read_text() == complete


BRACE_Z2 = {"n": 2, "add": [[0, 1], [1, 0]], "mul": [[0, 1], [1, 0]]}
META_Z2 = {"meta": {"kind": "braces", "order": 2, "count": 1}}


@pytest.mark.parametrize(
    "header, item, message",
    [
        # 0.5 must not be truncated to 0, which would make a valid table
        (META_Z2, {**BRACE_Z2, "mul": [[0, 1], [1, 0.5]]}, "must be integers, got float"),
        (META_Z2, [BRACE_Z2["add"], BRACE_Z2["mul"]], "brace must be a JSON object, got list"),
        (META_Z2, {**BRACE_Z2, "add": 5}, "add must be a list of lists"),
        ([META_Z2], BRACE_Z2, "catalog header must be a JSON object, got list"),
    ],
)
def test_classify_malformed_catalog_exits_2(tmp_path, header, item, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(header) + "\n" + json.dumps(item) + "\n")
    res = run("classify", "--in", str(path), "--report", str(tmp_path / "r.csv"))
    assert res.exit_code == 2
    assert "error:" in res.stderr
    assert message in res.stderr


@pytest.mark.parametrize(
    "header, item, message",
    [
        (META_Z2, {"n": 2, "add": BRACE_Z2["add"]}, "brace needs the keys n, add, mul"),
        (META_Z2, {**BRACE_Z2, "n": 3}, "carrier size mismatch: 2 != 3"),
        (META_Z2, {**BRACE_Z2, "mul": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
         "carrier sizes differ: 2 != 3"),
        ({"meta": {"kind": "widgets", "count": 1}}, BRACE_Z2, "unknown catalog kind 'widgets'"),
    ],
)
def test_classify_names_what_is_wrong_with_a_catalog(tmp_path, header, item, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(header) + "\n" + json.dumps(item) + "\n")
    res = run("classify", "--in", str(path), "--report", str(tmp_path / "r.csv"))
    assert res.exit_code == 2
    assert res.stderr == f"error: {path}: {message}\n"


def test_classify_empty_catalog_exits_2(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    res = run("classify", "--in", str(path), "--report", str(tmp_path / "r.csv"))
    assert res.exit_code == 2
    assert res.stderr == f"error: {path}: empty catalog file\n"


def test_solution_analyze_malformed_sigma_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "sigma": 7}))
    res = run("solution", "analyze", "--in", str(path))
    assert res.exit_code == 2
    assert "error:" in res.stderr
    assert "sigma must be a list of lists" in res.stderr


@pytest.mark.parametrize(
    "data, message",
    [
        # true would be read as 1, which makes a valid permutation
        ({"n": 2, "sigma": [[0, True], [0, 1]]}, "sigma[0] is not a permutation"),
        ({"n": 2, "sigma": [[0, "a"], [0, 1]]}, "sigma[0] is not a permutation"),
        ({"n": 2, "sigma": [[0, 1], [0, 1]], "tau": [[0, 1.0], [0, 1]]},
         "tau[0] is not a permutation"),
        ({"n": "2", "sigma": [[0, 1], [0, 1]]}, "n must be an integer, got str"),
    ],
)
def test_solution_analyze_wrong_entry_type_exits_2(tmp_path, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    res = run("solution", "analyze", "--in", str(path))
    assert res.exit_code == 2
    assert "error:" in res.stderr
    assert message in res.stderr


@pytest.mark.parametrize(
    "data, message",
    [
        ({"n": 2, "sigma": [[0, 1], [0, 1]], "tau": [[0, 1]]},
         "sigma and tau must have the same length"),
        ({"n": 3, "sigma": [[0, 1], [0, 1]]}, "size mismatch: 2 != 3"),
    ],
)
def test_solution_analyze_names_what_is_wrong_with_a_solution(tmp_path, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    res = run("solution", "analyze", "--in", str(path))
    assert res.exit_code == 2
    assert res.stderr == f"error: {path}: {message}\n"


@pytest.fixture
def empty_catalog(tmp_path, monkeypatch):
    """An empty brace catalog file; every library call that does work fails the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the output paths were checked")

    for name in ("enumerate_skew_braces", "groups_of_order", "run_suite", "read_catalog"):
        monkeypatch.setattr(f"bracelab.cli.{name}", refuse)
    catalog = tmp_path / "b.jsonl"
    catalog.write_text('{"meta": {"kind": "braces", "order": 1, "count": 0}}\n')
    return catalog


@pytest.mark.parametrize(
    "args, option",
    [
        (["enumerate", "--kind", "braces", "--order", "4", "--out", "{bad}"], "--out"),
        (["enumerate", "--kind", "braces", "--order", "4", "--checkpoint", "{bad}"],
         "--checkpoint"),
        (["verify", "--suite", "census", "--max-order", "4", "--out", "{bad}"], "--out"),
        (["verify", "--suite", "census", "--max-order", "4", "--csv", "{bad}"], "--csv"),
        (["classify", "--in", "{catalog}", "--report", "{bad}"], "--report"),
    ],
)
def test_output_in_missing_directory_exits_2_before_work(tmp_path, empty_catalog, args, option):
    bad = tmp_path / "missing" / "x.out"
    res = run(*(a.format(bad=bad, catalog=empty_catalog) for a in args))
    assert res.exit_code == 2, res.output
    assert f"error: {option} {bad}: directory {bad.parent} does not exist" in res.output
    assert not bad.parent.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["enumerate", "--kind", "groups", "--order", "4", "--out"],
        ["enumerate", "--kind", "braces", "--order", "4", "--checkpoint"],
        ["verify", "--suite", "census", "--max-order", "4", "--out"],
        ["verify", "--suite", "census", "--max-order", "4", "--csv"],
        ["classify", "--in", "{catalog}", "--report"],
    ],
)
def test_output_naming_a_directory_exits_2(tmp_path, empty_catalog, args):
    res = run(*(a.format(catalog=empty_catalog) for a in args), str(tmp_path))
    assert res.exit_code == 2, res.output
    assert "is a directory" in res.output


@pytest.mark.parametrize(
    "args",
    [
        ["--kind", "groups", "--order", "4"],
        ["--kind", "solutions", "--order", "3"],
    ],
)
def test_checkpoint_outside_holomorph_census_exits_2(tmp_path, args):
    ckpt = tmp_path / "ck.txt"
    res = run("enumerate", *args, "--checkpoint", str(ckpt))
    assert res.exit_code == 2, res.output
    assert "error: --checkpoint applies only to --kind braces" in res.output
    assert not ckpt.exists()


def test_solution_analyze_empty_solution(tmp_path):
    # no points, no generators: the permutation brace is the one-element group
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": 0, "sigma": []}))
    res = run("solution", "analyze", "--in", str(path))
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert (data["n"], data["involutive"], data["level"]) == (0, True, 0)
    brace = data["permutation_brace"]
    assert brace["size"] == 1
    assert brace["right"] == {"holds": True, "class": 1}
    assert brace["annihilator"] == {"holds": True, "class": 0}
