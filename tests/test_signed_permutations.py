"""Tests for signed permutations, weak order, and ascent-compatibility."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbhl.signed_permutations import (
    MAX_RANK,
    AlignedWitness,
    SignedPermutation,
    _rank_table,
    all_elements,
    ascent_compatibility_report,
    bfs_word_lengths,
    braid_exponent,
    convexity_witness,
    format_index_set,
    format_window,
    identity,
    is_aligned,
    is_convex_left_weak,
    leq_left_weak,
    left_descents,
    length,
    parse_index_set,
    reflections,
    right_inversions,
    simple_reflection,
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

    def test_braid_exponents(self):
        assert braid_exponent(0, 1) == 4
        assert braid_exponent(1, 2) == 3
        assert braid_exponent(0, 2) == 2

    def test_group_sizes(self):
        assert len(all_elements(1)) == 2
        assert len(all_elements(2)) == 8
        assert len(all_elements(3)) == 48


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_length_matches_bfs_oracle_type_b(self, n):
        oracle = bfs_word_lengths(n)
        assert len(oracle) == len(all_elements(n))
        for x, expected in oracle.items():
            assert length(x) == expected

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

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_descents_match_the_length_definition(self, n):
        for x in all_elements(n):
            base = length(x)
            expected = {
                i for i in range(n) if length(simple_reflection(i, n) * x) < base
            }
            assert left_descents(x) == frozenset(expected)


class TestReflectionsAndInversions:
    @pytest.mark.parametrize("n,count", [(2, 4), (3, 9)])
    def test_reflection_counts(self, n, count):
        assert len(reflections(n)) == count

    @pytest.mark.parametrize("n", [2, 3])
    def test_reflections_are_conjugates_of_generators(self, n):
        conjugates = {
            w.inverse() * simple_reflection(i, n) * w
            for w in all_elements(n)
            for i in range(n)
        }
        assert conjugates == set(reflections(n))

    @pytest.mark.parametrize("n", [2, 3])
    def test_inversion_count_equals_length(self, n):
        for x in all_elements(n):
            assert len(right_inversions(x)) == length(x)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_masks_match_the_length_definition(self, n):
        table = _rank_table(n)
        assert table.elements == all_elements(n)
        for x, mask in zip(table.elements, table.masks):
            base = length(x)
            expected = frozenset(r for r in reflections(n) if length(x * r) < base)
            assert right_inversions(x) == expected
            assert mask == sum(
                1 << k for k, r in enumerate(reflections(n)) if r in expected
            )

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
        assert all(leq_left_weak(z, top) for z in interval)

    def test_interval_of_incomparable_pair_is_empty(self):
        assert weak_order_interval(simple_reflection(0, 2), simple_reflection(1, 2)) == ()

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_order_matches_length_additivity_on_the_bfs_oracle(self, n):
        # x <= y in left weak order iff y = (y x^-1) x with lengths adding up
        lengths = bfs_word_lengths(n)
        for x in all_elements(n):
            for y in all_elements(n):
                additive = lengths[y * x.inverse()] + lengths[x] == lengths[y]
                assert leq_left_weak(x, y) == additive, (x, y)

    def test_mixed_ranks_are_rejected(self):
        one, two = SignedPermutation((1,)), identity(2)
        with pytest.raises(ValueError, match="ranks differ"):
            leq_left_weak(one, two)
        with pytest.raises(ValueError, match="ranks differ"):
            weak_order_interval(one, two)
        with pytest.raises(ValueError, match="ranks differ"):
            convexity_witness([one, two])
        assert convexity_witness([]) is None

    @pytest.mark.parametrize("n", [2, 3])
    def test_order_is_graded_by_length(self, n):
        elements = all_elements(n)
        for x in elements:
            for y in elements:
                if leq_left_weak(x, y) and x != y:
                    assert length(x) < length(y)

    def test_generators_are_incomparable(self):
        s0, s1 = simple_reflection(0, 2), simple_reflection(1, 2)
        assert not leq_left_weak(s0, s1) and not leq_left_weak(s1, s0)

    def test_full_group_is_convex_with_unique_max(self):
        group = all_elements(2)
        assert is_convex_left_weak(group)
        top = SignedPermutation((-1, -2))
        assert all(leq_left_weak(x, top) for x in group)
        assert [x for x in group if leq_left_weak(top, x)] == [top]

    def test_nonconvex_set_detected(self):
        # e and the longest element without anything in between
        assert not is_convex_left_weak([identity(2), SignedPermutation((-1, -2))])

    def test_convexity_witness_on_every_subset_of_b2(self):
        group = all_elements(2)
        lengths = bfs_word_lengths(2)
        below = {
            (x, y)
            for x in group
            for y in group
            if lengths[y * x.inverse()] + lengths[x] == lengths[y]
        }
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
                    if (x, z) in below and (z, y) in below
                )
                assert convex == (witness is None), chosen
                if witness is not None:
                    x, y, z = witness
                    assert x in subset and y in subset and z not in subset
                    assert (x, z) in below and (z, y) in below


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


def brute_force_compatible(subset, aligned):
    """Compatibility by definition, over the aligned quadruples of the group."""
    n = next(iter(subset)).n
    return all(
        (simple_reflection(s, n) * u in subset) == (simple_reflection(t, n) * v in subset)
        for u, v, s, t in aligned
        if u in subset and v in subset
    )


def pairwise_witness(subset):
    """The first disagreeing pair over all pairs of each class of (element,
    ascent) pairs with one conjugated reflection ``u^-1 s u``, found by
    products; the classes and their members are met in the report's order."""
    members = list(set(subset))
    n = members[0].n
    classes = {}
    for u in members:
        for s in sorted(set(range(n)) - left_descents(u)):
            su = simple_reflection(s, n) * u
            classes.setdefault(u.inverse() * su, []).append((u, s, su in subset))
    for group in classes.values():
        for (u, s, in_u), (v, t, in_v) in itertools.combinations(group, 2):
            if in_u != in_v:
                return AlignedWitness(u, v, s, t)
    return None


def aligned_quadruples(n):
    """Every aligned (u, v, s, t) of B_n, found by ``is_aligned``."""
    pairs = [(u, s) for u in all_elements(n) for s in range(n)]
    return [
        (u, v, s, t)
        for u, s in pairs
        for v, t in pairs
        if is_aligned(u, v, s, t)
    ]


class TestRankTable:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_columns_match_products(self, n):
        # the descents are checked against lengths in TestLengthAndDescents
        table = _rank_table(n)
        assert table.elements == all_elements(n)
        assert table.ids == {x.window: k for k, x in enumerate(all_elements(n))}
        for k, x in enumerate(table.elements):
            for i in range(n):
                assert table.elements[table.left[i][k]] == simple_reflection(i, n) * x

    def test_columns_are_built_on_demand(self):
        # the descent filter of a family reads only the elements and descents
        table = _rank_table(3)
        fresh = type(table)(3)
        fresh.descents
        assert set(vars(fresh)) == {"n", "elements", "descents"}

    def test_ranks_above_the_table_bound_are_refused(self):
        big = SignedPermutation(tuple(range(1, MAX_RANK + 2)))
        with pytest.raises(ValueError, match="rank"):
            length(big)
        with pytest.raises(ValueError, match="rank"):
            left_descents(big)

    def test_compatibility_matches_brute_force_on_every_subset_of_b2(self):
        aligned = aligned_quadruples(2)
        group = all_elements(2)
        for size in range(len(group) + 1):
            for chosen in itertools.combinations(group, size):
                self._check(set(chosen), aligned)

    def test_compatibility_matches_brute_force_on_random_subsets_of_b3(self):
        aligned = aligned_quadruples(3)
        group = all_elements(3)
        rng = random.Random(15)
        verdicts = set()
        for _ in range(300):
            subset = set(rng.sample(group, rng.randint(1, len(group))))
            verdicts.add(self._check(subset, aligned))
        assert verdicts == {True, False}

    def test_witness_matches_the_pairwise_scan_on_random_subsets_of_b3(self):
        # the report compares each class member with the first one only; the
        # first disagreeing pair is the one a scan over all pairs finds first
        group = all_elements(3)
        rng = random.Random(29)
        witnesses = set()
        for _ in range(300):
            subset = set(rng.sample(group, rng.randint(1, len(group))))
            witness = ascent_compatibility_report(subset).witness
            assert witness == pairwise_witness(subset)
            witnesses.add(witness)
        assert None in witnesses and len(witnesses) > 10

    @staticmethod
    def _check(subset, aligned):
        report = ascent_compatibility_report(subset)
        if not subset:
            assert report.compatible and report.witness is None
            return True
        assert report.compatible == brute_force_compatible(subset, aligned)
        if report.compatible:
            assert report.witness is None
        else:
            w = report.witness
            n = w.u.n
            assert w.u in subset and w.v in subset
            assert is_aligned(w.u, w.v, w.s, w.t)
            assert (simple_reflection(w.s, n) * w.u in subset) != (
                simple_reflection(w.t, n) * w.v in subset
            )
        return report.compatible

    def test_mixed_ranks_are_rejected(self):
        mixed = [identity(1), identity(2)]
        with pytest.raises(ValueError, match="ranks differ"):
            ascent_compatibility_report(mixed)
        with pytest.raises(ValueError, match="ranks differ"):
            ascent_compatibility_report([identity(2), simple_reflection(0, 3)])


class TestSlots:
    """``SignedPermutation`` stores its window in a slot, with no
    ``__dict__``; hashing, order and the witnesses read only the window."""

    def test_no_instance_dict(self):
        for x in (SignedPermutation((2, -3, 1)), identity(2).inverse(), all_elements(2)[3]):
            assert not hasattr(x, "__dict__")
            with pytest.raises(AttributeError):
                x.window = (1,)

    def test_trusted_and_inverse(self):
        x = SignedPermutation._trusted((2, -3, 1))
        assert x == SignedPermutation((2, -3, 1)) and type(x) is SignedPermutation
        assert x.inverse() == SignedPermutation((3, 1, -2))
        assert (x * x.inverse()).window == (1, 2, 3)
        assert not hasattr(x.inverse(), "__dict__")

    def test_hash_order_and_witnesses_unchanged(self):
        group = all_elements(3)
        assert all(hash(x) == hash((x.window,)) for x in group)
        assert sorted(group) == sorted(group, key=lambda x: x.window)
        assert len({*group, *all_elements(3)}) == 48
        assert convexity_witness([identity(2), SignedPermutation((-1, -2))]) == (
            SignedPermutation((1, 2)),
            SignedPermutation((-1, -2)),
            SignedPermutation((-2, -1)),
        )
        bad = [identity(2), simple_reflection(0, 2), SignedPermutation((1, -2))]
        assert ascent_compatibility_report(bad).witness == AlignedWitness(
            SignedPermutation((1, 2)), SignedPermutation((1, -2)), 0, 0
        )


class TestTextFormats:
    def test_window_round_trip(self):
        assert format_window(SignedPermutation((2, -3, 1))) == "2,-3,1"

    @given(windows(3))
    @settings(max_examples=40)
    def test_round_trip_property(self, window):
        x = SignedPermutation(window)
        assert SignedPermutation(tuple(map(int, format_window(x).split(",")))) == x

    def test_index_set_round_trip(self):
        assert parse_index_set("{0,3}") == frozenset({0, 3})
        assert parse_index_set("{}") == frozenset()
        assert format_index_set([3, 0]) == "{0,3}"
        assert format_index_set([]) == "{}"
