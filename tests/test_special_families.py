"""Tests for the distinguished permutation families and their intervals."""

import itertools

import pytest

from tbhl import special_families
from tbhl.hecke_engine import (
    characteristic_by_composition_series,
    characteristic_by_descent_sum,
    family_from_elements,
    verify_relations,
)
from tbhl.qsym_typeb import QSymElement
from tbhl.signed_permutations import (
    MAX_RANK,
    SignedPermutation,
    all_elements,
    ascent_compatibility_report,
    left_descents,
    leq_left_weak,
    weak_order_interval,
)
from tbhl.special_families import (
    build_family,
    convexity_witness,
    invert_family,
    is_left_unimodal,
    is_signed_arc,
    parse_family_spec,
    smallest_non_convex_arc_degree,
    unimodal_interval,
    unimodal_interval_endpoints,
)


def all_index_sets(n):
    for size in range(n + 1):
        yield from (frozenset(s) for s in itertools.combinations(range(n), size))


def interleavings(first, second):
    """Words on the letters of both words keeping each word's own order."""
    return {
        word
        for word in itertools.permutations(first + second)
        if tuple(v for v in word if v in first) == first
        and tuple(v for v in word if v in second) == second
    }


class TestArcFamily:
    def test_membership_predicate_pinned(self):
        assert is_signed_arc(SignedPermutation((2, 3, -1)))
        assert is_signed_arc(SignedPermutation((2, 1)))
        assert not is_signed_arc(SignedPermutation((2, 1, 3)))
        assert not is_signed_arc(SignedPermutation((2, -3, 4, -1)))

    def test_small_degrees_are_whole_group(self):
        for n in (1, 2):
            assert len(build_family("arc", (), n)) == len(all_elements(n))

    def test_degree_three_is_the_displayed_union(self):
        explicit = [
            (1, 2, 3),
            (2, 3, 1),
            (3, 1, 2),
            (-3, -2, -1),
            (-2, -1, -3),
            (-1, -3, -2),
        ]
        union = {SignedPermutation(w) for w in explicit}
        for pos, neg in [
            ((1, 2), (-3,)),
            ((3, 1), (-2,)),
            ((2, 3), (-1,)),
            ((1,), (-3, -2)),
            ((2,), (-1, -3)),
            ((3,), (-2, -1)),
        ]:
            for word in interleavings(pos, neg):
                union.add(SignedPermutation(word))
        family = build_family("arc", (), 3)
        assert len(family) == 24
        assert set(family.members) == union

    def test_counts(self):
        assert [len(build_family("arc", (), n)) for n in (1, 2, 3, 4)] == [
            2,
            8,
            24,
            64,
        ]

    def test_ascent_compatible_up_to_four(self):
        for n in range(2, 5):
            report = ascent_compatibility_report(build_family("arc", (), n).members)
            assert report.compatible

    def test_inverse_sets_also_scan_compatible(self):
        # observed fact: the element-wise inverse families pass the same
        # scan at every degree small enough to enumerate
        for n in range(2, 5):
            inverses = [x.inverse() for x in build_family("arc", (), n).members]
            assert ascent_compatibility_report(inverses).compatible

    def test_not_convex_and_smallest_degree_is_three(self):
        degree, (low, high, gap) = smallest_non_convex_arc_degree(4)
        assert degree == 3
        family = build_family("arc", (), 3)
        assert low in family.members and high in family.members
        assert gap not in family.members
        assert leq_left_weak(low, gap) and leq_left_weak(gap, high)
        assert convexity_witness(build_family("arc", (), 2).members) is None


class TestDescentClassFamily:
    def test_identity_class(self):
        fam = build_family("dclass", (frozenset(),), 2)
        assert [x.window for x in fam.members] == [(1, 2)]

    def test_members_match_defining_filter(self):
        for n in range(1, 4):
            for index_set in all_index_sets(n):
                fam = build_family("dclass", (index_set,), n)
                assert all(left_descents(x) == index_set for x in fam.members)
                others = set(all_elements(n)) - set(fam.members)
                assert all(left_descents(x) != index_set for x in others)

    def test_classes_partition_the_group(self):
        for n in range(1, 4):
            total = sum(
                len(build_family("dclass", (index_set,), n))
                for index_set in all_index_sets(n)
            )
            assert total == len(all_elements(n))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_family("dclass", (frozenset({3}),), 2)


class TestUnimodalFamily:
    def test_position_one_is_increasing_inverse_window(self):
        fam = build_family("luni", (1,), 2)
        for x in fam.members:
            q = x.inverse().window
            assert q[0] < q[1]
        assert len(fam) == 4

    def test_membership_at_position_two(self):
        assert is_left_unimodal(SignedPermutation((2, 1, 3)), 2)
        assert not is_left_unimodal(SignedPermutation((1, 2, 3)), 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_descent_filter_matches_the_inverse_window_oracle(self, n):
        for i in range(1, n + 1):
            expected = tuple(x for x in all_elements(n) if is_left_unimodal(x, i))
            assert build_family("luni", (i,), n).members == expected

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            build_family("luni", (0,), 2)
        with pytest.raises(ValueError):
            build_family("luni", (3,), 2)

    def test_forward_sets_can_fail_the_scan_yet_satisfy_relations(self):
        fam = build_family("luni", (2,), 3)
        report = ascent_compatibility_report(fam.members)
        assert not report.compatible
        assert report.witness.u.window == (-3, 1, -2)
        assert report.witness.v.window == (2, 1, 3)
        assert (report.witness.s, report.witness.t) == (0, 0)
        assert {left_descents(x) for x in fam.members} == {
            frozenset({1}),
            frozenset({0, 1}),
        }
        ops = family_from_elements(fam.members)
        assert verify_relations(ops) == {"relations": "ok"}


class TestUnimodalInterval:
    def test_pinned_endpoints(self):
        top, bottom = unimodal_interval_endpoints(1, 2)
        assert top.window == (-2, -1)
        assert bottom.window == (1, 2)
        top, bottom = unimodal_interval_endpoints(2, 2)
        assert top.window == (-1, -2)
        assert bottom.window == (2, 1)

    def test_corrected_interval_equals_inverted_family(self):
        for n in range(1, 5):
            for i in range(1, n + 1):
                family = set(invert_family(build_family("luni", (i,), n)).members)
                assert set(unimodal_interval(i, n)) == family

    def test_literal_variant_is_shifted_by_one(self):
        # the published bottom at position i reverses only the first i - 1
        # values: it is the bottom at position i - 1, so its interval
        # describes the wrong family
        for n in range(2, 5):
            for i in range(2, n + 1):
                top, _ = unimodal_interval_endpoints(i, n)
                published = SignedPermutation(
                    tuple(i - j for j in range(1, i)) + tuple(range(i, n + 1))
                )
                assert published == unimodal_interval_endpoints(i - 1, n)[1]
                family = set(invert_family(build_family("luni", (i,), n)).members)
                assert set(weak_order_interval(published, top)) != family

    def test_interval_count_matches_family_size(self):
        for n in range(1, 5):
            for i in range(1, n + 1):
                assert len(unimodal_interval(i, n)) == len(
                    build_family("luni", (i,), n)
                )


class TestFamilySpecs:
    def test_round_trip_names(self):
        for spec in ["arc:3", "dclass:{0,1}:3", "luni:2:4", "luni:1:2:inv"]:
            assert parse_family_spec(spec).name == spec

    def test_inversion_suffix(self):
        fam = parse_family_spec("dclass:{0}:2:inv")
        plain = parse_family_spec("dclass:{0}:2")
        assert set(fam.members) == {x.inverse() for x in plain.members}
        assert fam.inverted and not plain.inverted

    def test_bad_specs_rejected(self):
        for bad in ["arc", "arc:x", "dclass:3", "luni:2", "blob:3", "arc:1:3"]:
            with pytest.raises(ValueError):
                parse_family_spec(bad)

    def test_unknown_kinds_rejected(self):
        for kind in ("blob", "luni_union"):
            with pytest.raises(ValueError):
                build_family(kind, (), 2)

    @pytest.mark.parametrize(
        "kind, params",
        [("dclass", (frozenset(),)), ("luni", (1,)), ("arc", ())],
        ids=["dclass", "luni", "arc"],
    )
    def test_degrees_outside_the_bound_are_rejected(self, monkeypatch, kind, params):
        def refuse(n):
            raise AssertionError(f"enumerated B_{n} for a rejected degree")

        monkeypatch.setattr(special_families, "all_elements", refuse)
        monkeypatch.setattr(special_families, "_rank_table", refuse)
        for n in (0, MAX_RANK + 1):
            with pytest.raises(ValueError, match="outside"):
                build_family(kind, params, n)


def assert_module_realizes_descent_sum(members):
    """The 0-Hecke module spanned by ``members`` is well defined, satisfies
    the relations, and has the descent sum of ``members`` as characteristic."""
    assert ascent_compatibility_report(members).compatible
    ops = family_from_elements(members)
    assert verify_relations(ops) == {"relations": "ok"}
    char, _ = characteristic_by_composition_series(ops)
    assert char == characteristic_by_descent_sum(members)


class TestFamilyModules:
    def test_descent_class_inverse_families(self):
        for n in range(1, 4):
            for index_set in all_index_sets(n):
                fam = build_family("dclass", (index_set,), n)
                if fam.members:
                    assert_module_realizes_descent_sum(invert_family(fam).members)

    def test_arc_family_characteristic(self):
        for n in range(2, 4):
            assert_module_realizes_descent_sum(build_family("arc", (), n).members)

    def test_inverted_unimodal_families(self):
        for n in range(1, 4):
            for i in range(1, n + 1):
                fam = invert_family(build_family("luni", (i,), n))
                assert_module_realizes_descent_sum(fam.members)

    def test_single_element_family_is_one_fundamental(self):
        fam = build_family("dclass", (frozenset({0}),), 1)
        assert len(fam) == 1
        char, _ = characteristic_by_composition_series(
            family_from_elements(fam.members)
        )
        assert char == QSymElement.fundamental({0}, 1)


class TestInverseFamilies:
    def test_inverse_sets_realize_their_descent_sums(self):
        # the sum over inverse descent sets of a family is the characteristic
        # of the module of its inverses, whenever those scan compatible
        for spec in ["dclass:{0}:2", "luni:2:3", "arc:3"]:
            inverses = [x.inverse() for x in parse_family_spec(spec).members]
            assert ascent_compatibility_report(inverses).compatible
            ops = family_from_elements(inverses)
            assert verify_relations(ops) == {"relations": "ok"}
            char, _ = characteristic_by_composition_series(ops)
            assert char == characteristic_by_descent_sum(inverses)
