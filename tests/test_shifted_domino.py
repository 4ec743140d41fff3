"""Tests for shifted tilings, shifted tableaux, and their generating functions."""

import itertools

import pytest

from tbhl import shifted_domino
from tbhl.domino_tableaux import (
    Domino,
    brute_force_sdt,
    enumerate_tilings,
    partitions_of,
    standard_orders,
    swap_entries,
)
from tbhl.exact_algebra import TruncatedPolynomial
from tbhl.hecke_engine import (
    characteristic_by_composition_series,
    verify_relations,
)
from tbhl.qsym_typeb import QSymElement, peak_characteristic
from tbhl.shifted_domino import (
    MarkedStandardTableau,
    ShiftedSemistandardTableau,
    ShiftedStandardTableau,
    ShiftedTiling,
    conjugate_family,
    entry_index,
    entry_is_primed,
    entry_text,
    enumerate_shifted,
    enumerate_shifted_tilings,
    filled_count,
    find_semistandard_with_weight,
    find_standard_with_descents,
    h_lambda,
    iter_semistandard,
    iter_standard,
    marked_descents,
    stand_theorem_failures,
    standardize,
    two_quotient,
    verify_peak_theorem,
    verify_stand_theorem,
)


def valid_shapes(max_size):
    for total in range(2, max_size + 1, 2):
        for shape in partitions_of(total):
            if two_quotient(shape).valid:
                yield shape


def markings_of(base):
    for size in range(base.size + 1):
        for subset in itertools.combinations(range(1, base.size + 1), size):
            yield MarkedStandardTableau(base, frozenset(subset))


class TestEntryAlphabet:
    def test_order_and_round_trip(self):
        # codes 0 < 1' < 1 < 2' < 2 < 3' < 3 are the integers 0..6
        codes = range(7)
        assert [entry_index(c) for c in codes] == [0, 1, 1, 2, 2, 3, 3]
        assert [entry_is_primed(c) for c in codes] == [False, True] * 3 + [False]
        assert [entry_text(c) for c in codes] == ["0", "1'", "1", "2'", "2", "3'", "3"]


class TestTrustedConstruction:
    def test_enumerated_tableaux_pass_the_public_checks(self):
        # the enumerators build tableaux without re-checking; the public
        # constructors must accept, and reproduce, everything they yield
        for shape in valid_shapes(8):
            for standard in iter_standard(shape):
                rebuilt = ShiftedStandardTableau(standard.tiling, standard.dominoes)
                assert rebuilt == standard
            for semi in iter_semistandard(shape, 2):
                assert ShiftedSemistandardTableau(semi.tiling, semi.entries) == semi

    def test_enumerated_fillings_are_all_the_valid_ones(self):
        # every filling with codes 0..2 that the public constructor accepts
        # is enumerated, so the enumerator's pruning rejects nothing valid
        for shape in valid_shapes(8):
            enumerated = set(iter_semistandard(shape, 2))
            accepted = set()
            for tiling in enumerate_shifted_tilings(shape):
                filled = sorted(tiling.filled)
                for codes in itertools.product(range(5), repeat=len(filled)):
                    try:
                        accepted.add(
                            ShiftedSemistandardTableau(tiling, tuple(zip(filled, codes)))
                        )
                    except ValueError:
                        pass
            assert accepted == enumerated, shape

    def test_standard_orders_are_all_the_valid_ones(self):
        # every permutation of the filled dominoes of a shifted tiling that
        # the public constructor accepts is enumerated; on plain tilings the
        # orders are those of the permutation filter, in its (sorted) order
        for shape in valid_shapes(8):
            enumerated = set(iter_standard(shape))
            accepted = set()
            for tiling in enumerate_shifted_tilings(shape):
                for order in itertools.permutations(sorted(tiling.filled)):
                    try:
                        accepted.add(ShiftedStandardTableau(tiling, order))
                    except ValueError:
                        pass
            assert accepted == enumerated, shape
        for total in range(2, 11, 2):
            for shape in partitions_of(total):
                filtered = [t.dominoes for t in brute_force_sdt(shape)]
                for tiling in enumerate_tilings(shape):
                    expected = [order for order in filtered if set(order) == set(tiling)]
                    assert list(standard_orders(tiling)) == expected, shape


class TestTwoQuotient:
    def test_pinned_values(self):
        q = two_quotient((7, 7, 6, 5, 1))
        assert q.lambda_star == (11, 10, 8, 6, 1)
        assert q.word == (3, 4, 2, 0, 1)
        assert (q.mu, q.nu) == ((3, 3, 3), (4,))
        assert q.valid

        assert two_quotient((2,)).mu == (1,)
        assert two_quotient((2,)).nu == ()
        assert two_quotient((2,)).valid

        q22 = two_quotient((2, 2))
        assert (q22.lambda_star, q22.word) == ((3, 2), (1, 0))
        assert (q22.mu, q22.nu) == ((1,), (1,))
        assert q22.valid

    def test_vertical_dominoes_shape_is_valid_but_untileable(self):
        assert two_quotient((1, 1)).valid
        assert enumerate_shifted_tilings((1, 1)) == ()

    def test_odd_size_is_rejected(self):
        assert two_quotient((2, 1)).valid
        with pytest.raises(ValueError, match="even"):
            enumerate_shifted((2, 1))

    def test_invalid_quotient(self):
        assert not two_quotient((2, 2, 1, 1)).valid
        with pytest.raises(ValueError):
            enumerate_shifted((2, 2, 1, 1))
        with pytest.raises(ValueError):
            h_lambda((2, 2, 1, 1), "peak")


class TestShiftedTilings:
    @pytest.mark.parametrize(
        "enumerate_shape",
        [enumerate_shifted_tilings, enumerate_shifted],
    )
    def test_cached_enumerators_validate_before_the_cache(self, enumerate_shape):
        # a list shape hits the cache entry of its tuple
        assert enumerate_shape([4, 4]) is enumerate_shape((4, 4))
        assert len(enumerate_shape([2, 2])) == 1
        with pytest.raises(ValueError):
            enumerate_shape([2, 4])
        assert enumerate_shape.cache_info().currsize >= 2

    def test_list_shape_keeps_the_enumeration_kind(self):
        assert enumerate_shifted([4, 4], "marked") is enumerate_shifted((4, 4), "marked")
        assert enumerate_shifted([2, 2], "semistandard", 2) == enumerate_shifted(
            (2, 2), "semistandard", 2
        )

    def test_pinned_counts(self):
        assert len(enumerate_shifted_tilings((2,))) == 1
        assert len(enumerate_shifted_tilings((2, 2))) == 1
        assert len(enumerate_shifted_tilings((4, 4))) == 2

    def test_two_by_two_is_the_horizontal_pair(self):
        (tiling,) = enumerate_shifted_tilings((2, 2))
        assert set(tiling.dominoes) == {
            Domino(((1, 1), (1, 2))),
            Domino(((2, 1), (2, 2))),
        }
        assert tiling.filled == tiling.dominoes

    def test_vertical_diagonal_domino_rejected(self):
        with pytest.raises(ValueError, match="shifted"):
            ShiftedTiling(
                (2, 2),
                (Domino(((1, 1), (2, 1))), Domino(((1, 2), (2, 2)))),
            )

    def test_enumerator_agrees_with_the_public_constructor(self):
        # the enumerator builds its tilings without re-validation
        for shape in [*valid_shapes(10), (7, 7, 6, 5, 1)]:
            public = []
            for dominoes in enumerate_tilings(shape):
                try:
                    public.append(ShiftedTiling(shape, dominoes))
                except ValueError:
                    continue
            assert enumerate_shifted_tilings(shape) == tuple(sorted(public))

    def test_deep_vertical_diagonal_domino_allowed(self):
        # a diagonal vertical whose left neighbor reaches the diagonal is fine
        witnesses = [
            domino
            for tiling in enumerate_shifted_tilings((4, 3, 3))
            for domino in tiling.dominoes
            if domino.orientation == "vertical"
            and any(r == c for (r, c) in domino.cells)
        ]
        assert witnesses

    def test_filled_split(self):
        for shape in valid_shapes(8):
            for tiling in enumerate_shifted_tilings(shape):
                assert set(tiling.filled) | set(tiling.unfilled) == set(
                    tiling.dominoes
                )
                for domino in tiling.unfilled:
                    assert all(c < r for (r, c) in domino.cells)


class TestStandardTableaux:
    def test_pinned_small_shapes(self):
        (only,) = enumerate_shifted((2,))
        assert only.descent_set() == frozenset()
        assert only.dominoes[0].orientation == "horizontal"

        (only,) = enumerate_shifted((2, 2))
        assert only.descent_set() == frozenset({1})
        assert [d.min_row for d in only.dominoes] == [1, 2]

    def test_first_domino_always_horizontal_at_origin(self):
        for shape in valid_shapes(8):
            for standard in enumerate_shifted(shape):
                first = standard.dominoes[0]
                assert (1, 1) in first.cells
                assert first.orientation == "horizontal"
                assert 0 not in standard.descent_set()

    def test_strict_increase_enforced(self):
        (tiling,) = enumerate_shifted_tilings((2, 2))
        top, bottom = sorted(tiling.filled)
        with pytest.raises(ValueError):
            ShiftedStandardTableau(tiling, (bottom, top))

    def test_filled_count_uniform(self):
        for shape in valid_shapes(10):
            filled_count(shape)


class TestSemistandardTableaux:
    def test_single_domino_fillings(self):
        fillings = enumerate_shifted((2,), "semistandard", maxval=2)
        codes = sorted(code for t in fillings for (_, code) in t.entries)
        assert codes == [0, 1, 2, 3, 4]

    def test_two_by_two_weights(self):
        fillings = enumerate_shifted((2, 2), "semistandard", maxval=1)
        weights = sorted(t.weight(2) for t in fillings)
        assert weights == [(0, 2), (0, 2), (1, 1), (1, 1)]
        total = TruncatedPolynomial.zero(2, 2)
        for t in fillings:
            total = total + t.monomial(2)
        assert total.as_dict() == {(1, 1): 2, (0, 2): 2}

    def test_stacked_zeros_rejected(self):
        (tiling,) = enumerate_shifted_tilings((2, 2))
        with pytest.raises(ValueError, match="column"):
            ShiftedSemistandardTableau(
                tiling, tuple((d, 0) for d in tiling.filled)
            )

    def test_zero_pair_in_a_row_allowed(self):
        fillings = enumerate_shifted((4,), "semistandard", maxval=1)
        assert sum(1 for t in fillings if t.weight(2) == (2, 0)) == 1

    def test_weight_totals(self):
        for shape in valid_shapes(6):
            m = filled_count(shape)
            for t in enumerate_shifted(shape, "semistandard", maxval=2):
                assert sum(t.weight(3)) == m


class TestStandardizeAndMarkedDescents:
    def test_single_domino(self):
        (zero_fill,) = [
            t
            for t in enumerate_shifted((2,), "semistandard", maxval=2)
            if t.entries[0][1] == 0
        ]
        marked = standardize(zero_fill)
        assert marked.primed == frozenset()
        assert marked_descents(marked) == frozenset()

        primed_fills = [
            t
            for t in enumerate_shifted((2,), "semistandard", maxval=2)
            if entry_is_primed(t.entries[0][1])
        ]
        assert len(primed_fills) == 2
        for t in primed_fills:
            marked = standardize(t)
            assert marked.primed == frozenset({1})
            assert marked_descents(marked) == frozenset({0})

    def test_two_by_two_pinned(self):
        (base,) = enumerate_shifted((2, 2))
        top, bottom = base.dominoes

        primed_then_unprimed = ShiftedSemistandardTableau(
            base.tiling,
            ((top, 1), (bottom, 2)),  # 1' then 1
        )
        marked = standardize(primed_then_unprimed)
        assert marked.base == base and marked.primed == frozenset({1})

        zero_then_one = ShiftedSemistandardTableau(
            base.tiling, ((top, 0), (bottom, 2))
        )
        marked = standardize(zero_then_one)
        assert marked.base == base and marked.primed == frozenset()

    def test_marked_descent_table_two_by_two(self):
        (base,) = enumerate_shifted((2, 2))
        table = {
            frozenset(): {1},
            frozenset({1}): {0},
            frozenset({2}): {1},
            frozenset({1, 2}): {0},
        }
        for primed, expected in table.items():
            assert marked_descents(
                MarkedStandardTableau(base, primed)
            ) == frozenset(expected)

    def test_standardization_respects_value_order(self):
        for shape in valid_shapes(6):
            for t in enumerate_shifted(shape, "semistandard", maxval=3):
                marked = standardize(t)
                assert marked.base in enumerate_shifted(shape)
                code_of = dict(t.entries)
                entry_of = {
                    d: k for k, d in enumerate(marked.base.dominoes, 1)
                }
                for a, b in itertools.combinations(code_of, 2):
                    if code_of[a] < code_of[b]:
                        assert entry_of[a] < entry_of[b]
                    elif code_of[a] > code_of[b]:
                        assert entry_of[a] > entry_of[b]
                for domino, code in t.entries:
                    assert (entry_of[domino] in marked.primed) == (
                        entry_is_primed(code)
                    )

    def test_descent_in_interval_lemma(self):
        for shape in valid_shapes(8):
            for base in enumerate_shifted(shape):
                dom = {k: d for k, d in enumerate(base.dominoes, 1)}
                base_descents = base.descent_set()
                for marked in markings_of(base):
                    descents = marked_descents(marked)
                    for i, j in itertools.combinations(
                        range(1, base.size + 1), 2
                    ):
                        unprimed_i = i not in marked.primed
                        unprimed_j = j not in marked.primed
                        cond1 = unprimed_i and not unprimed_j
                        cond2 = (
                            unprimed_i
                            and unprimed_j
                            and dom[j].min_row > dom[i].max_row
                        )
                        cond3 = (
                            not unprimed_i
                            and not unprimed_j
                            and dom[i].max_row >= dom[j].min_row
                        )
                        if cond1 or cond2 or cond3:
                            assert any(
                                k in descents for k in range(i, j)
                            ), (shape, marked.primed, i, j, base_descents)


class TestHLambda:
    def test_single_row_pinned(self):
        poly = h_lambda((2,), "monomial", nvars=3)
        assert poly.as_dict() == {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 2}
        char = h_lambda((2,), "peak")
        assert char == QSymElement.make(
            1, {frozenset(): 1, frozenset({0}): 1}
        )

    def test_two_by_two_pinned(self):
        poly = h_lambda((2, 2), "monomial", nvars=2)
        assert poly.as_dict() == {(1, 1): 2, (0, 2): 2}
        assert h_lambda((2, 2), "peak") == peak_characteristic({1}, 2)

    @pytest.mark.parametrize("variant", ["literal", "complemented"])
    def test_peak_mode_equals_per_tableau_sum(self, variant):
        # below size 12 no two standard tableaux of a shape share a descent set
        repeated = [t.descent_set() for t in enumerate_shifted((6, 6), "standard")]
        assert len(set(repeated)) < len(repeated)
        for shape in [*valid_shapes(10), (6, 6), (6, 4, 4)]:
            degree = filled_count(shape)
            total = QSymElement.zero(degree)
            for standard in enumerate_shifted(shape, "standard"):
                total = total + peak_characteristic(
                    standard.descent_set(), degree, variant
                )
            assert h_lambda(shape, "peak", variant=variant) == total, shape

    def test_column_pair_vanishes(self):
        assert h_lambda((1, 1), "peak").is_zero()
        assert h_lambda((1, 1), "monomial", nvars=3).is_zero()

    def test_row_of_four_has_zero_square(self):
        poly = h_lambda((4,), "monomial", nvars=3)
        assert poly.as_dict()[(2, 0, 0)] == 1

    def test_two_by_two_lacks_zero_square(self):
        poly = h_lambda((2, 2), "monomial", nvars=3)
        assert (2, 0, 0) not in poly.as_dict()

    @pytest.mark.parametrize("shape", list(valid_shapes(8)))
    def test_modes_agree(self, shape):
        nvars = filled_count(shape) + 1
        assert h_lambda(shape, "monomial", nvars=nvars) == h_lambda(
            shape, "peak"
        ).to_monomials(nvars)


class TestTheorems:
    @pytest.mark.parametrize("shape", list(valid_shapes(6)))
    def test_stand_theorem(self, shape):
        nvars = filled_count(shape) + 1
        for marked in enumerate_shifted(shape, "marked"):
            assert verify_stand_theorem(shape, marked, nvars)
        assert stand_theorem_failures(shape, nvars) == 0

    def test_one_pass_check_fails_on_a_wrong_standardization(self, monkeypatch):
        def unprimed(tableau):
            return MarkedStandardTableau(standardize(tableau).base, frozenset())

        monkeypatch.setattr("tbhl.shifted_domino.standardize", unprimed)
        for shape in ((2,), (2, 2), (4,)):
            nvars = filled_count(shape) + 1
            oracle = sum(
                not verify_stand_theorem(shape, marked, nvars)
                for marked in enumerate_shifted(shape, "marked")
            )
            assert stand_theorem_failures(shape, nvars) == oracle > 0

    @pytest.mark.parametrize("shape", list(valid_shapes(8)))
    def test_peak_theorem_both_variants(self, shape):
        for standard in enumerate_shifted(shape):
            assert verify_peak_theorem(shape, standard, "literal")
            assert verify_peak_theorem(shape, standard, "complemented")

    def test_peak_theorem_row_of_four(self):
        (standard,) = enumerate_shifted((4,))
        assert standard.descent_set() == frozenset()
        assert verify_peak_theorem((4,), standard)

    @pytest.mark.parametrize("dropped", [0, -1])
    def test_peak_theorem_fails_on_a_missing_marking(self, monkeypatch, dropped):
        markings = shifted_domino._markings

        def all_but_one(standard):
            kept = list(markings(standard))
            del kept[dropped]
            return iter(kept)

        monkeypatch.setattr(shifted_domino, "_markings", all_but_one)
        for shape in ((2,), (4,), (4, 2)):
            for standard in enumerate_shifted(shape):
                assert not verify_peak_theorem(shape, standard, "literal")
                assert not verify_peak_theorem(shape, standard, "complemented")


class TestConjugateFamily:
    def test_single_row(self):
        fam = conjugate_family((2,))
        assert fam.labels == enumerate_shifted((2,))
        assert fam.matrices[0].get(0, 0).re == -1

    def test_two_by_two(self):
        fam = conjugate_family((2, 2))
        assert fam.labels == enumerate_shifted((2, 2))
        assert fam.rank == 2
        assert fam.matrices[0].get(0, 0).re == -1
        assert fam.matrices[1].is_zero()

    @pytest.mark.parametrize("shape", list(valid_shapes(8)))
    def test_descent_labels_are_complements(self, shape):
        # the indices acting by -1 on a tableau are its non-descents
        fam = conjugate_family(shape)
        m = filled_count(shape)
        for k, tableau in enumerate(fam.labels):
            acting = {
                i for i, matrix in enumerate(fam.matrices)
                if matrix.get(k, k).re == -1
            }
            assert acting == set(range(m)) - tableau.descent_set()

    @pytest.mark.parametrize("shape", list(valid_shapes(8)))
    def test_relations(self, shape):
        assert verify_relations(conjugate_family(shape)) == {
            "relations": "ok"
        }

    @pytest.mark.parametrize("shape", list(valid_shapes(8)))
    def test_characteristic_is_complemented_descent_sum(self, shape):
        fam = conjugate_family(shape)
        if not fam.labels:
            return
        char, _ = characteristic_by_composition_series(fam)
        m = filled_count(shape)
        expected = QSymElement.from_descent_sets(
            (
                frozenset(range(m)) - q.descent_set()
                for q in enumerate_shifted(shape)
            ),
            m,
        )
        assert char == expected


class TestWitnessSearch:
    def test_found(self):
        status, witness = find_standard_with_descents((2, 2), {1})
        assert status == "found"
        assert witness.descent_set() == frozenset({1})

    def test_not_found(self):
        status, witness = find_standard_with_descents((2, 2), {0})
        assert status == "not-found" and witness is None

    def test_weight_search(self):
        status, witness = find_semistandard_with_weight((2, 2), (1, 1))
        assert status == "found"
        assert witness.weight(2) == (1, 1)

    def test_unreachable_weight_is_not_found(self):
        assert find_semistandard_with_weight((2, 2), (2, 0)) == (
            "not-found",
            None,
        )

    @pytest.mark.parametrize("shape", list(valid_shapes(6)))
    def test_capped_search_agrees_with_unpruned_filter(self, shape):
        size = filled_count(shape)
        for maxval in range(3):
            nvars = maxval + 1
            unpruned = list(iter_semistandard(shape, maxval))
            for weight in itertools.product(range(size + 1), repeat=nvars):
                if sum(weight) != size:
                    continue
                first = next(
                    (t for t in unpruned if t.weight(nvars) == weight), None
                )
                status, witness = find_semistandard_with_weight(shape, weight)
                assert witness == first, (shape, weight)
                assert status == ("not-found" if first is None else "found")


class TestTextFormat:
    def test_standard_text(self):
        (only,) = enumerate_shifted((2, 2))
        assert only.to_text() == "1:(1,1)-(1,2)\n2:(2,1)-(2,2)"

    def test_semistandard_text(self):
        (base,) = enumerate_shifted((2, 2))
        top, bottom = base.dominoes
        semi = ShiftedSemistandardTableau(
            base.tiling, ((top, 0), (bottom, 3))
        )
        assert semi.to_text() == "0:(1,1)-(1,2)\n2':(2,1)-(2,2)"

    def test_unfilled_marker(self):
        for shape in valid_shapes(8):
            for tiling in enumerate_shifted_tilings(shape):
                if tiling.unfilled:
                    standard = next(
                        s
                        for s in enumerate_shifted(shape)
                        if s.tiling == tiling
                    )
                    assert "-:(" in standard.to_text()
                    return
        pytest.skip("no unfilled dominoes in small shapes")


class TestConjugatedLabelOrder:
    def test_labels_sorted_and_hashable(self):
        fam = conjugate_family((4,))
        labels = fam.labels
        assert len(set(labels)) == len(labels)
        assert labels == tuple(sorted(labels)) == enumerate_shifted((4,))

    def test_swap_roundtrip(self):
        for shape in valid_shapes(6):
            for standard in enumerate_shifted(shape):
                for i in standard.descent_set():
                    if i == 0:
                        continue
                    moved = swap_entries(standard, i)
                    if moved is not None:
                        assert swap_entries(moved, i) == standard
