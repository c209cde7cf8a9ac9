import hashlib
import json
from dataclasses import replace

import pytest

from bracelab import campaigns, series
from bracelab.campaigns import run_suite, write_report_csv
from bracelab.errors import CrossCheckFailed, SuiteUnknown

# order 6 covers the interesting flag combinations while staying quick
MAX_ORDER = 6


def claims(report):
    return {c.claim_id: c for c in report.checks}


def test_unknown_suite():
    with pytest.raises(SuiteUnknown):
        run_suite("frobnicate")


def test_axioms_suite():
    report = run_suite("axioms", max_order=MAX_ORDER)
    assert report.passed()
    c = claims(report)["brace_axioms_revalidate"]
    assert c.instances == 14  # 1+1+1+4+1+6 braces


def test_identities_suite():
    report = run_suite("identities", max_order=MAX_ORDER)
    assert report.passed()
    assert claims(report)["star_expansion_identities"].failures == 0
    assert claims(report)["bracket_chain_distributivity"].failures == 0


def test_series_suite_records_witnesses():
    report = run_suite("series", max_order=MAX_ORDER)
    assert report.passed()
    wit = claims(report)["strict_implication_witnesses"]
    named = set()
    for entry in wit.witnesses:
        named.update(entry.keys())
    assert {"strong_not_annihilator", "right_not_strong", "left_not_strong"} <= named


def test_series_suite_failure_path(monkeypatch):
    # a strong chain one term short wherever it has more than one term: the
    # braces whose nilpotency_report then raises count as routes failures and
    # are skipped by every later claim, and the run goes on to the end
    spec = series._KINDS["strong"]

    def cut(b, shared, build=spec.build):
        chain = build(b, shared)
        return chain[:-1] if len(chain) > 1 else chain

    monkeypatch.setitem(series._KINDS, "strong", replace(spec, build=cut))
    c = claims(run_suite("series", max_order=8))
    assert {claim_id: (r.instances, r.failures) for claim_id, r in c.items()} == {
        "annihilator_routes_agree": (62, 55),
        "implication_diagram": (7, 0),
        "nilpotent_type_three_way": (4, 0),
        "left_iff_multiplicative_nilpotent": (4, 0),
        "left_right_give_multiplicative_nilpotent": (1, 0),
        "gamma_chain_nesting": (19, 0),
        "right_series_within_socle_series": (4, 0),
        "strict_implication_witnesses": (3, 1),
    }
    assert all("error" in w for w in c["annihilator_routes_agree"].witnesses)


def witness_keys(report):
    return {c.claim_id: sorted({tuple(w) for w in c.witnesses}) for c in report.checks}


def test_equivalence_suite_failure_path(monkeypatch):
    # equivalence_check refuses every solution that is not multipermutation
    # and calls the size-2 ones not of abelian type, and retract refuses
    # every three-point solution: each failure is counted in its claim, the
    # catalog then holds no non-multipermutation witness, and the run goes
    # on to the end
    real_check, real_retract = campaigns.equivalence_check, campaigns.retract

    def check(sol):
        rep = real_check(sol)
        if not rep["multipermutation"]:
            raise CrossCheckFailed("not multipermutation")
        return {**rep, "abelian_type": rep["abelian_type"] and sol.n != 2}

    def retract(sol):
        if sol.n == 3:
            raise CrossCheckFailed("three points")
        return real_retract(sol)

    monkeypatch.setattr(campaigns, "equivalence_check", check)
    monkeypatch.setattr(campaigns, "retract", retract)
    report = run_suite("equivalence", max_size=4, samples=20, seed=42)
    assert {c.claim_id: (c.instances, c.failures) for c in report.checks} == {
        "multipermutation_iff_right_nilpotent_of_nilpotent_type": (51, 6),
        "involutive_brace_abelian_type": (45, 2),
        "retraction_revalidates": (45, 7),
        "non_multipermutation_witness_present": (1, 1),
    }
    assert witness_keys(report) == {
        "multipermutation_iff_right_nilpotent_of_nilpotent_type": [
            ("size", "index", "error"), ("size", "sample", "error")],
        "involutive_brace_abelian_type": [("size", "index")],
        "retraction_revalidates": [("size", "index", "error")],
        "non_multipermutation_witness_present": [("max_size",)],
    }


def test_census_suite_failure_path(monkeypatch):
    # an expected brace count off at order 4, an expected group count off at
    # order 6, the order-6 catalog one brace short, and every brace's
    # annihilator verdict flipped: each claim fails where its figure is
    # wrong, and the table rows tally the flipped verdicts
    monkeypatch.setitem(campaigns.EXPECTED_BRACE_COUNTS, 4, 5)
    monkeypatch.setitem(campaigns.EXPECTED_GROUP_COUNTS, 6, 3)
    real_catalog, real_row = campaigns._catalog, campaigns.classification_row

    def catalog(kind, n, catalog_dir):
        cat = real_catalog(kind, n, catalog_dir)
        return replace(cat, items=cat.items[:-1]) if n == 6 else cat

    def row(b):
        out = real_row(b)
        return {**out, "annihilator": not out["annihilator"]}

    monkeypatch.setattr(campaigns, "_catalog", catalog)
    monkeypatch.setattr(campaigns, "classification_row", row)
    report = run_suite("census", max_order=8)
    assert {c.claim_id: (c.instances, c.failures) for c in report.checks} == {
        "brace_counts": (8, 2),
        "group_counts": (8, 1),
        "order8_non_annihilator": (1, 1),
        "double_method_agreement": (6, 1),
    }
    assert witness_keys(report) == {
        "brace_counts": [("order", "got")],
        "group_counts": [("order", "got")],
        "order8_non_annihilator": [("non_annihilator",)],
        "double_method_agreement": [("order", "holomorph", "direct")],
    }
    assert [(r["braces"], r["annihilator"]) for r in report.tables] == [
        (1, 0), (1, 0), (1, 0), (4, 0), (1, 0), (5, 4), (1, 0), (47, 2),
    ]


def test_hirsch_suite():
    report = run_suite("hirsch", max_order=MAX_ORDER)
    assert report.passed()
    c = claims(report)
    assert c["right_nilpotent_generation"].instances > 0
    assert c["annihilator_nilpotent_generation"].instances > 0
    assert c["lambda_orbit_transversal_generates"].instances > 0


def test_radical_suite():
    report = run_suite("radical", max_order=MAX_ORDER)
    assert report.passed()
    assert claims(report)["subideal_chains_exist"].instances > 0


def test_equivalence_suite_small():
    report = run_suite("equivalence", max_size=3, samples=20, seed=42)
    assert report.passed()
    assert report.seed == 42
    assert report.scope["samples_size_5"] == 20
    eq = claims(report)["multipermutation_iff_right_nilpotent_of_nilpotent_type"]
    assert eq.instances == 8 + 20  # sizes 1..3 census plus samples
    # the witness check only applies once size four is in scope
    assert claims(report)["non_multipermutation_witness_present"].instances == 0


def test_equivalence_suite_deterministic():
    a = run_suite("equivalence", max_size=2, samples=5, seed=7)
    b = run_suite("equivalence", max_size=2, samples=5, seed=7)
    ja, jb = a.to_json(), b.to_json()
    ja.pop("wall_time_s"), jb.pop("wall_time_s")
    assert ja == jb


@pytest.mark.parametrize(
    "suite, scope",
    [
        ("equivalence", {"max_size": 2, "samples": 8, "seed": 3}),
        ("hirsch", {"max_order": 8}),
        ("axioms", {"max_order": 8}),
        ("identities", {"max_order": 8}),
        ("series", {"max_order": 8}),
        ("radical", {"max_order": 8}),
        ("census", {"max_order": 8}),
    ],
    ids=["equivalence", "hirsch", "axioms", "identities", "series", "radical", "census"],
)
def test_equivalence_jobs_match_serial(suite, scope):
    a = run_suite(suite, jobs=1, **scope)
    b = run_suite(suite, jobs=2, **scope)
    ja, jb = a.to_json(), b.to_json()
    ja.pop("wall_time_s"), jb.pop("wall_time_s")
    assert ja == jb


def test_census_suite_and_csv(tmp_path):
    report = run_suite("census", max_order=MAX_ORDER)
    assert report.passed()
    rows = {row["order"]: row for row in report.tables}
    assert rows[4]["braces"] == 4
    assert rows[6]["braces"] == 6
    assert rows[6]["two_sided"] == 5
    assert rows[6]["annihilator"] == 1
    path = tmp_path / "census.csv"
    write_report_csv(report, path)
    header = path.read_text().splitlines()[0]
    assert header == (
        "order,groups,braces,trivial,two_sided,abelian_type,nilpotent_type,"
        "left,right,strong,annihilator"
    )


def test_generic_csv(tmp_path):
    report = run_suite("axioms", max_order=3)
    path = tmp_path / "axioms.csv"
    write_report_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "suite,claim_id,instances,failures"
    assert lines[1].startswith("axioms,brace_axioms_revalidate,")


def test_catalog_dir_caching(tmp_path):
    a = run_suite("axioms", max_order=4, catalog_dir=tmp_path)
    assert (tmp_path / "braces-4.jsonl").exists()
    b = run_suite("axioms", max_order=4, catalog_dir=tmp_path)
    assert a.passed() and b.passed()
    assert [c.to_json() for c in a.checks] == [c.to_json() for c in b.checks]


def test_report_json_shape():
    report = run_suite("census", max_order=4)
    data = json.loads(json.dumps(report.to_json()))
    assert data["suite"] == "census"
    assert data["passed"] is True
    assert all(
        set(c) == {"claim_id", "statement", "instances", "failures", "witnesses"}
        for c in data["checks"]
    )


# sha256 of each suite's to_json() with wall_time_s dropped: every suite at
# max_order 8, equivalence at max_size 3 with 20 seeded samples
REPORT_DIGESTS = {
    "axioms": "bcdbef4a38f1b497a59fcc45bcc771d49e08f9d26848a0fbc3f7dd8196d2e6ee",
    "identities": "f33aeb27f927dab1cd839c1ec666e8b51dacecf352161e1caac4e5067605b888",
    "series": "4677533ef80d478a8d857f6ca441022d8ed14f7a4426492735d9e381a62e06ec",
    "hirsch": "dd4e25f11f3117fa0a9346dfd287b7277d593794dc68071905f4800309edf015",
    "radical": "1ac40422291e3db6e5f88301b664e74be1f1afa8ada82e2d91738f04e5a27909",
    "census": "6f4879ec4e217ec5d41ca6f33513e78c1fe0914c384b4ebf8bb25990943da343",
    "equivalence": "7289457dce9113686c0faf4c8bf9593e3fc00fac0d13d7ce747657b474addb94",
}


def _digest(report):
    data = report.to_json()
    data.pop("wall_time_s")
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


@pytest.mark.parametrize("suite", sorted(REPORT_DIGESTS))
def test_report_is_pinned(suite):
    if suite == "equivalence":
        report = run_suite(suite, max_size=3, samples=20, seed=42)
    else:
        report = run_suite(suite, max_order=8)
    assert _digest(report) == REPORT_DIGESTS[suite]


# The scope and report digest of each `verify` step in
# .github/workflows/tests.yml, hirsch and census under --jobs 2 as there
CI_SCOPE_DIGESTS = {
    "axioms": ({"max_order": 12},
               "fea693c28271965370a899401626299e38038db6eb8d83448ab34756d589b4ef"),
    "identities": ({"max_order": 15},
                   "10888ddf1819cc53cea7f6415fdca19ccb4c8feceb45ba94c1f799102e7f5b1a"),
    "series": ({"max_order": 12},
               "7f5f9937014e3355ae82c3c3d53e309199e5036b70deae846248b1633da140e6"),
    "hirsch": ({"max_order": 12, "jobs": 2},
               "8fb3e8a89ee38766ec9a43a30654fa0df105ba6fd135201055bfe87c4c066f1f"),
    "radical": ({"max_order": 12},
                "3c340cf5c74555ee2a5270887813a042c4759d171c18abb00912b36329cf5f6e"),
    "census": ({"max_order": 12, "jobs": 2},
               "9fdee07de6d9f1a9335399a501f6691b0cba51105dc32a9dfc9c39a5d6e6804a"),
    "equivalence": ({"max_size": 4, "samples": 200, "seed": 987653},
                    "c352e968ef4197be7bcd63df9c565db71ed2b6cc5ae22af76939bd8b9916d08e"),
}


@pytest.mark.parametrize("suite", sorted(CI_SCOPE_DIGESTS))
def test_ci_scope_report_is_pinned(suite):
    scope, digest = CI_SCOPE_DIGESTS[suite]
    assert _digest(run_suite(suite, **scope)) == digest


def _negated(real, *names):
    """real, a function returning a report, with each named bool field of
    the report negated; a named verdict has its holds negated."""
    def negated(*args):
        rep = real(*args)
        for name in names:
            value = getattr(rep, name)
            if isinstance(value, bool):
                rep = replace(rep, **{name: not value})
            else:
                rep = replace(rep, **{name: replace(value, holds=not value.holds)})
        return rep
    return negated


def test_guarded_claims_fail_outside_their_hypothesis(monkeypatch):
    # The control arm: each suite runs over orders <= 12 with the
    # hypotheses its checks read negated, so every guarded claim is checked
    # exactly where its hypothesis fails, and must fail there somewhere.
    # bracket_chain_distributivity has no arm: gamma_distributivity_check
    # raises HypothesisUnmet on a brace that is not annihilator nilpotent.
    want = {
        "series": {
            "nilpotent_type_three_way": (36, 7),
            "left_iff_multiplicative_nilpotent": (36, 14),
            "left_right_give_multiplicative_nilpotent": (7, 7),
            "right_series_within_socle_series": (54, 52),
        },
        "hirsch": {
            "right_nilpotent_generation": (32, 11),
            "annihilator_nilpotent_generation": (108, 62),
            # holds outside its hypothesis too: all 854 transversals of
            # the braces of order <= 12 that are not annihilator nilpotent
            # generate their brace, so this claim has no failing arm
            "lambda_orbit_transversal_generates": (854, 0),
        },
        "radical": {
            "maximal_subbraces_are_ideals": (140, 82),
            "radical_is_intersection_of_maximal_subbraces": (46, 43),
            "subideal_chains_exist": (337, 115),
        },
    }
    hypotheses = {
        "series": ["nilpotent_type"],
        "hirsch": ["right", "annihilator"],
        "radical": ["annihilator"],
    }
    report = campaigns.nilpotency_report
    # the socle series' holds guards right_series_within_socle_series
    monkeypatch.setattr(campaigns, "series", _negated(campaigns.series, "holds"))
    for suite, claim_counts in want.items():
        monkeypatch.setattr(campaigns, "nilpotency_report", _negated(report, *hypotheses[suite]))
        c = claims(run_suite(suite, max_order=12))
        assert {claim_id: (c[claim_id].instances, c[claim_id].failures)
                for claim_id in claim_counts} == claim_counts
