"""Every cross-check fires when the kernel it guards gives a wrong answer.

Each test monkeypatches one kernel to return a plausible but wrong result
and expects CrossCheckFailed with the message of the check that guards it.
"""

from dataclasses import replace

import pytest

from bracelab import enumeration, groups, series, substructures, ybe
from bracelab.brace import from_group_trivial
from bracelab.errors import CrossCheckFailed
from bracelab.groups import cyclic, lower_central_series
from bracelab.series import nilpotency_report
from bracelab.subsets import Subset
from bracelab.substructures import idealizer, subbrace_lattice
from bracelab.ybe import Solution, equivalence_check, permutation_brace, retract
from oracles import direct_product


def _cut_short(monkeypatch, *kinds):
    """Each series kind in kinds drops the last term of its chain."""
    for kind in kinds:
        spec = series._KINDS[kind]
        cut = replace(spec, build=lambda b, shared, build=spec.build: build(b, shared)[:-1])
        monkeypatch.setitem(series._KINDS, kind, cut)


@pytest.mark.parametrize(
    "kinds, message",
    [
        (["gamma"], "annihilator routes disagree: ann=True gamma=False gamma_bracket=True"),
        (["strong"], "strong vs left-and-right disagree"),
        (["strong", "left"], "annihilator nilpotent but not strongly nilpotent"),
        (["annihilator", "gamma", "gamma_bracket"],
         "nilpotent type: annihilator vs strong disagree"),
    ],
)
def test_nilpotency_report_checks_its_verdicts(monkeypatch, trivial_z2, kinds, message):
    _cut_short(monkeypatch, *kinds)
    with pytest.raises(CrossCheckFailed) as exc:
        nilpotency_report(trivial_z2)
    assert str(exc.value) == message


def test_nilpotency_report_nests_the_gamma_chains(monkeypatch, z4_quadratic):
    # a bracketed gamma chain that drops straight to {0}
    spec = series._KINDS["gamma_bracket"]
    monkeypatch.setitem(series._KINDS, "gamma_bracket",
                        replace(spec, build=lambda b, shared: [Subset.full(b.n), Subset.zero(b.n)]))
    with pytest.raises(CrossCheckFailed) as exc:
        nilpotency_report(z4_quadratic)
    assert str(exc.value) == "gamma term escapes bracketed gamma term"


def test_series_terms_must_be_ideals(monkeypatch, trivial_s3):
    # {0, 1} is a subgroup of Sym(3) that is not normal, so not an ideal
    spec = series._KINDS["right"]
    monkeypatch.setitem(series._KINDS, "right",
                        replace(spec, build=lambda b, shared: [Subset.full(b.n), Subset.of(b.n, [0, 1])]))
    with pytest.raises(CrossCheckFailed) as exc:
        series.series(trivial_s3, "right")
    assert str(exc.value) == "right series term [0, 1] is not an ideal"


def test_descending_chain_terms_must_nest(monkeypatch):
    # commutators of Z/4 that give {0, 2} and then the whole group
    def commutators(g, xs, ys):
        return 0b0101 if ys.is_full() else 0b1111

    monkeypatch.setattr(groups, "commutator_products", commutators)
    with pytest.raises(CrossCheckFailed) as exc:
        lower_central_series(cyclic(4))
    assert str(exc.value) == "descending series term [0, 1, 2, 3] escapes [0, 2]"


def test_group_census_checks_the_known_counts(monkeypatch):
    # an isomorphism test that finds none, at order 8 only: the orders
    # below are cached first and the call bypasses the cache, so the cache
    # keeps the true classes
    enumeration._groups_of_order(4)
    monkeypatch.setattr(enumeration, "isomorphic_groups", lambda g, h: None)
    with pytest.raises(CrossCheckFailed) as exc:
        enumeration._groups_of_order.__wrapped__(8)
    assert str(exc.value) == "group census at order 8: got 9, expected 5"


def test_idealizer_needs_a_unique_maximum(monkeypatch):
    # an ideal test that accepts {0} in the three subgroups of order 2 of the
    # Klein four-group and nowhere larger
    b = from_group_trivial(direct_product(cyclic(2), cyclic(2)))
    lattice = subbrace_lattice(b)
    monkeypatch.setattr(substructures, "is_ideal", lambda b, i, within: len(within) <= 2)
    with pytest.raises(CrossCheckFailed) as exc:
        idealizer(b, Subset.zero(4), lattice)
    assert str(exc.value) == "idealizer candidates have 3 incomparable maxima"


def test_equivalence_check_compares_both_sides(monkeypatch, five_point_solution):
    # the five-point solution is multipermutation; a level of None says not
    monkeypatch.setattr(ybe, "multipermutation_level", lambda sol: None)
    with pytest.raises(CrossCheckFailed) as exc:
        equivalence_check(five_point_solution)
    assert str(exc.value) == "multipermutation=False but right-nilpotent-of-nilpotent-type=True"


def test_retract_needs_well_defined_induced_maps():
    # a solution record whose validation went wrong: sigma_0 = sigma_1 and
    # tau_0 = tau_1 put 0 and 1 in one class, but sigma_2 separates them
    identity = (0, 1, 2)
    sol = Solution(3, sigma=(identity, identity, (0, 2, 1)), tau=(identity,) * 3, involutive=True)
    with pytest.raises(CrossCheckFailed) as exc:
        retract(sol)
    assert str(exc.value) == "classes (1,0) induce sigma {0, 1}, tau {0}"


def test_permutation_brace_addition_reaches_every_element(monkeypatch, five_point_solution):
    # a closure that also yields the elements of one more generator, which
    # the addition moves from 0 never reach
    closure = ybe.generated_group
    extra = (1, 0, 2, 3, 4) + tuple(range(5, 10))
    monkeypatch.setattr(ybe, "generated_group",
                        lambda gens, degree: closure(gens + [extra], degree))
    with pytest.raises(CrossCheckFailed) as exc:
        permutation_brace(five_point_solution)
    assert str(exc.value) == "addition moves reach 6 of 36 elements"


def test_permutation_brace_revalidates_its_tables(monkeypatch, five_point_solution):
    # a multiplicative table from the wrong product order: (B, o) becomes
    # its opposite group, and the brace law fails
    monkeypatch.setattr(ybe, "from_permutations",
                        lambda perms: groups.opposite(groups.from_permutations(perms)))
    with pytest.raises(CrossCheckFailed) as exc:
        permutation_brace(five_point_solution)
    assert str(exc.value) == (
        "reconstructed tables fail validation: "
        "a o (b+c) != a o b - a + a o c for (a,b,c)=(1,1,1)"
    )


def test_permutation_brace_checks_the_generator_rule(monkeypatch, five_point_solution):
    # a brace built as the trivial brace on the multiplicative group
    build = ybe.verify_skew_brace
    monkeypatch.setattr(ybe, "verify_skew_brace", lambda add, mul: build(mul, mul))
    with pytest.raises(CrossCheckFailed) as exc:
        permutation_brace(five_point_solution)
    assert str(exc.value) == "lambda generator rule fails at (3,3)"


def test_permutation_brace_checks_the_structure_relation(monkeypatch, five_point_solution):
    # the brace with its lambda table intact but (B, +) as its multiplication
    build = ybe.verify_skew_brace
    monkeypatch.setattr(ybe, "verify_skew_brace",
                        lambda add, mul: replace(build(add, mul), mul=add))
    with pytest.raises(CrossCheckFailed) as exc:
        permutation_brace(five_point_solution)
    assert str(exc.value) == "structure relation fails at (3,3)"
