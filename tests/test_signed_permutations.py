"""Tests for signed permutations, weak order, and ascent-compatibility."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbhl.signed_permutations import (
    AlignedWitness,
    Reflection,
    SignedPermutation,
    all_elements,
    ascent_compatibility_report,
    bfs_word_lengths,
    braid_exponent,
    convexity_witness,
    format_index_set,
    format_window,
    generator_indices,
    identity,
    is_aligned,
    is_convex_left_weak,
    leq_left_weak,
    left_descents,
    length,
    parse_index_set,
    parse_window,
    reflections,
    right_inversions,
    simple_reflection,
    unique_maximal,
    weak_order_interval,
)


def windows(n):
    return st.permutations(list(range(1, n + 1))).flatmap(
        lambda p: st.tuples(*[st.sampled_from([v, -v]) for v in p])
    )


class TestGroupStructure:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            SignedPermutation((1, 1))
        with pytest.raises(ValueError):
            SignedPermutation((0, 1))
        with pytest.raises(ValueError):
            SignedPermutation((3, 1))

    def test_value_acts_oddly(self):
        x = SignedPermutation((2, -3, 1))
        assert x.value(1) == 2 and x.value(-1) == -2
        assert x.value(2) == -3 and x.value(-2) == 3

    def test_product_composes_left_to_right(self):
        s0, s1 = simple_reflection(0, 2), simple_reflection(1, 2)
        assert (s1 * s0 * s1).window == (1, -2)
        assert (s0 * s1 * s0 * s1).window == (-1, -2)
        assert (s1 * s0 * s1 * s0).window == (-1, -2)

    @given(windows(3), windows(3), windows(3))
    @settings(max_examples=50)
    def test_group_laws(self, a, b, c):
        x, y, z = map(SignedPermutation, (a, b, c))
        assert (x * y) * z == x * (y * z)
        assert x * identity(3) == x == identity(3) * x
        assert x * x.inverse() == identity(3)

    def test_generator_indices_and_braid_exponents(self):
        assert generator_indices(3, "B") == (0, 1, 2)
        assert generator_indices(3, "A") == (1, 2)
        assert braid_exponent(0, 1) == 4
        assert braid_exponent(1, 2) == 3
        assert braid_exponent(0, 2) == 2
        assert braid_exponent(1, 2, "A") == 3

    def test_group_sizes(self):
        assert len(all_elements(1)) == 2
        assert len(all_elements(2)) == 8
        assert len(all_elements(3)) == 48
        assert len(all_elements(3, "A")) == 6


class TestLengthAndDescents:
    def test_pinned_lengths(self):
        values = {
            (-1, 2): 1,
            (2, -1): 2,
            (-2, 1): 2,
            (-2, -1): 3,
            (-1, -2): 4,
        }
        for window, expected in values.items():
            assert length(SignedPermutation(window)) == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_length_matches_bfs_oracle_type_b(self, n):
        oracle = bfs_word_lengths(n, "B")
        assert len(oracle) == len(all_elements(n))
        for x, expected in oracle.items():
            assert length(x, "B") == expected

    @pytest.mark.parametrize("n", [2, 3])
    def test_length_matches_bfs_oracle_type_a(self, n):
        oracle = bfs_word_lengths(n, "A")
        for x, expected in oracle.items():
            assert length(x, "A") == expected

    def test_pinned_descents(self):
        assert left_descents(SignedPermutation((2, -1))) == frozenset({0})
        assert left_descents(identity(3)) == frozenset()
        assert left_descents(SignedPermutation((-1, -2))) == frozenset({0, 1})

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_descent_position_criterion(self, n):
        # Independent characterization: 0 is a left descent iff the position
        # of value 1 is negative; i >= 1 is a left descent iff value i sits
        # at a larger signed position than value i+1.
        for x in all_elements(n):
            inv = x.inverse()
            expected = set()
            if inv.value(1) < 0:
                expected.add(0)
            for i in range(1, n):
                if inv.value(i) > inv.value(i + 1):
                    expected.add(i)
            assert left_descents(x) == frozenset(expected)


class TestReflectionsAndInversions:
    @pytest.mark.parametrize("n,kind,count", [(2, "B", 4), (3, "B", 9), (3, "A", 3)])
    def test_reflection_counts(self, n, kind, count):
        assert len(reflections(n, kind)) == count

    @pytest.mark.parametrize("n,kind", [(2, "B"), (3, "B"), (3, "A")])
    def test_reflections_are_conjugates_of_generators(self, n, kind):
        conjugates = {
            w.inverse() * simple_reflection(i, n) * w
            for w in all_elements(n, kind)
            for i in generator_indices(n, kind)
        }
        assert conjugates == set(reflections(n, kind))

    def test_reflection_classification(self):
        assert Reflection(SignedPermutation((-1, 2))).descriptor == ("negation", 1)
        assert Reflection(SignedPermutation((2, 1))).descriptor == ("swap", 1, 2)
        assert Reflection(SignedPermutation((-2, -1))).descriptor == ("swap", 1, -2)
        with pytest.raises(ValueError):
            Reflection(SignedPermutation((2, -1))).descriptor

    @pytest.mark.parametrize("n,kind", [(2, "B"), (3, "B"), (3, "A")])
    def test_inversion_count_equals_length(self, n, kind):
        for x in all_elements(n, kind):
            assert len(right_inversions(x, kind)) == length(x, kind)

    def test_pinned_inversion_chain(self):
        chain = [(2, 1), (2, -1), (1, -2), (-1, -2)]
        inversions = [right_inversions(SignedPermutation(w)) for w in chain]
        for smaller, larger in zip(inversions, inversions[1:]):
            assert smaller < larger
        assert inversions[0] == {SignedPermutation((2, 1))}
        assert inversions[1] == {
            SignedPermutation((2, 1)),
            SignedPermutation((1, -2)),
        }


class TestWeakOrder:
    def test_pinned_interval(self):
        bottom = simple_reflection(1, 2)
        top = SignedPermutation((-1, -2))
        interval = weak_order_interval(bottom, top)
        assert set(interval) == {
            SignedPermutation((2, 1)),
            SignedPermutation((2, -1)),
            SignedPermutation((1, -2)),
            SignedPermutation((-1, -2)),
        }
        assert is_convex_left_weak(interval)
        assert unique_maximal(interval) == top

    def test_interval_of_incomparable_pair_is_empty(self):
        assert weak_order_interval(simple_reflection(0, 2), simple_reflection(1, 2)) == ()

    @pytest.mark.parametrize("n", [2, 3])
    def test_order_is_graded_by_length(self, n):
        elements = all_elements(n)
        for x in elements:
            for y in elements:
                if leq_left_weak(x, y) and x != y:
                    assert length(x) < length(y)

    def test_unique_maximal_rejects_antichains(self):
        assert unique_maximal([simple_reflection(0, 2), simple_reflection(1, 2)]) is None

    def test_full_group_is_convex_with_unique_max(self):
        group = all_elements(2)
        assert is_convex_left_weak(group)
        assert unique_maximal(group) == SignedPermutation((-1, -2))

    def test_nonconvex_set_detected(self):
        # e and the longest element without anything in between
        assert not is_convex_left_weak([identity(2), SignedPermutation((-1, -2))])

    def test_convexity_witness_on_every_subset_of_b2(self):
        group = all_elements(2)
        inversions = {z: right_inversions(z) for z in group}
        for size in range(len(group) + 1):
            for chosen in itertools.combinations(group, size):
                subset = set(chosen)
                witness = convexity_witness(subset)
                assert is_convex_left_weak(subset) == (witness is None)
                convex = all(
                    z in subset
                    for x in subset
                    for y in subset
                    for z in group
                    if inversions[x] <= inversions[z] <= inversions[y]
                )
                assert convex == (witness is None), chosen
                if witness is not None:
                    x, y, z = witness
                    assert x in subset and y in subset and z not in subset
                    assert inversions[x] <= inversions[z] <= inversions[y]


class TestAlignmentAndCompatibility:
    def test_pinned_aligned_quadruple(self):
        assert is_aligned(identity(2), SignedPermutation((1, -2)), 0, 0)
        # s must be an ascent of u
        assert not is_aligned(simple_reflection(0, 2), identity(2), 0, 0)
        # different conjugated reflections are not aligned
        assert not is_aligned(identity(2), identity(2), 0, 1)

    def test_full_group_is_ascent_compatible(self):
        assert ascent_compatibility_report(all_elements(2)).compatible

    def test_pinned_incompatible_set_with_witness(self):
        bad = [identity(2), simple_reflection(0, 2), SignedPermutation((1, -2))]
        report = ascent_compatibility_report(bad)
        assert not report.compatible
        w = report.witness
        assert isinstance(w, AlignedWitness)
        assert is_aligned(w.u, w.v, w.s, w.t)
        member_set = set(bad)
        su = simple_reflection(w.s, 2) * w.u
        tv = simple_reflection(w.t, 2) * w.v
        assert (su in member_set) != (tv in member_set)

    @pytest.mark.parametrize("n", [2, 3])
    def test_descent_classes_are_ascent_compatible(self, n):
        by_descent = {}
        for x in all_elements(n):
            by_descent.setdefault(left_descents(x), []).append(x)
        for members in by_descent.values():
            assert ascent_compatibility_report(members).compatible

    @pytest.mark.parametrize("n", [2, 3])
    def test_intervals_are_ascent_compatible(self, n):
        # convex sets with a unique maximum are ascent-compatible
        elements = all_elements(n)
        count = len(elements)
        samples = [
            (elements[3 % count], elements[17 % count]),
            (elements[0], elements[10 % count]),
            (elements[5 % count], elements[5 % count]),
        ]
        for x, y in samples:
            interval = weak_order_interval(x, y)
            if interval:
                assert ascent_compatibility_report(interval).compatible


class TestTextFormats:
    def test_window_round_trip(self):
        assert parse_window("2,-3,1").window == (2, -3, 1)
        assert format_window(SignedPermutation((2, -3, 1))) == "2,-3,1"
        barred = format_window(SignedPermutation((2, -3, 1)), barred=True)
        assert parse_window(barred).window == (2, -3, 1)

    @given(windows(3))
    @settings(max_examples=40)
    def test_round_trip_property(self, window):
        x = SignedPermutation(window)
        assert parse_window(format_window(x)) == x
        assert parse_window(format_window(x, barred=True)) == x

    def test_index_set_round_trip(self):
        assert parse_index_set("{0,3}") == frozenset({0, 3})
        assert parse_index_set("{}") == frozenset()
        assert format_index_set([3, 0]) == "{0,3}"
        assert format_index_set([]) == "{}"
