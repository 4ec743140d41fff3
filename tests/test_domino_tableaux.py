"""Tests for domino tilings, tableaux, descents, and the operator family."""

import dataclasses
import math

import pytest

from tbhl import domino_tableaux, shifted_domino
from tbhl.cli_verify import _count_tableaux
from tbhl.domino_tableaux import (
    Domino,
    StandardDominoTableau,
    brute_force_sdt,
    diagram_cells,
    enumerate_sdt,
    enumerate_tilings,
    flip_northwest_square,
    g_lambda,
    generator_action,
    partitions_of,
    sdt_operator_family,
    swap_entries,
    validate_partition,
)
from tbhl.hecke_engine import (
    characteristic_by_composition_series,
    verify_relations,
)
from tbhl.qsym_typeb import QSymElement
from tbhl.shifted_domino import (
    ShiftedStandardTableau,
    ShiftedTiling,
    conjugate_family,
    enumerate_shifted,
    iter_semistandard,
    two_quotient,
)


def even_partitions(max_n):
    for n in range(1, max_n + 1):
        yield from partitions_of(2 * n)


HORIZONTAL_PAIR = StandardDominoTableau(
    (2, 2), (Domino(((1, 1), (1, 2))), Domino(((2, 1), (2, 2))))
)
VERTICAL_PAIR = StandardDominoTableau(
    (2, 2), (Domino(((1, 1), (2, 1))), Domino(((1, 2), (2, 2))))
)


class TestPartitions:
    def test_validation(self):
        assert validate_partition([3, 1]) == (3, 1)
        with pytest.raises(ValueError):
            validate_partition([1, 3])
        with pytest.raises(ValueError):
            validate_partition([2, 0])

    def test_parts_are_read_as_ints(self, cleared_caches):
        # a float or a string part is rejected, not truncated to a real shape
        # that would share its cache entry
        assert validate_partition([True, True]) == (1, 1)
        enumerators = (
            enumerate_tilings, enumerate_sdt,
            shifted_domino.enumerate_shifted_tilings, shifted_domino.enumerate_shifted,
        )
        for enumerate_shape in enumerators:
            enumerate_shape((2, 2))
        sizes = [e.cache_info().currsize for e in enumerators]
        for bad in ([2.5, 1.9], "21", [2.7, 2.2], "22"):
            with pytest.raises(TypeError):
                validate_partition(bad)
            for enumerate_shape in enumerators:
                with pytest.raises(TypeError):
                    enumerate_shape(bad)
        assert [e.cache_info().currsize for e in enumerators] == sizes

    def test_counts(self):
        assert [len(partitions_of(m)) for m in range(9)] == [
            1, 1, 2, 3, 5, 7, 11, 15, 22,
        ]

    def test_diagram(self):
        assert diagram_cells((2, 1)) == {(1, 1), (1, 2), (2, 1)}

    @pytest.mark.parametrize("enumerate_shape", [enumerate_tilings, enumerate_sdt])
    def test_cached_enumerators_validate_before_the_cache(self, enumerate_shape):
        # a list shape hits the cache entry of its tuple
        assert enumerate_shape([4, 2]) is enumerate_shape((4, 2))
        assert len(enumerate_shape([2, 2])) == 2
        with pytest.raises(ValueError):
            enumerate_shape([2, 4])
        assert enumerate_shape.cache_info().currsize >= 2
        # the public name clears its cache, as a sweep over caches needs
        enumerate_shape.cache_clear()
        assert enumerate_shape.cache_info().currsize == 0


class TestDomino:
    def test_normalization_and_orientation(self):
        d = Domino(((1, 2), (1, 1)))
        assert d.cells == ((1, 1), (1, 2))
        assert d.orientation == "horizontal"
        assert Domino(((3, 1), (2, 1))).orientation == "vertical"

    def test_adjacency_required(self):
        with pytest.raises(ValueError):
            Domino(((1, 1), (2, 2)))
        with pytest.raises(ValueError):
            Domino(((1, 1), (1, 3)))


class TestTilings:
    def test_pinned_counts(self):
        assert len(enumerate_tilings((2,))) == 1
        assert len(enumerate_tilings((2, 2))) == 2
        assert len(enumerate_tilings((3, 1))) == 1

    def test_pinned_staircase_tiling(self):
        ((tiling),) = enumerate_tilings((3, 1))
        assert set(tiling) == {
            Domino(((1, 1), (2, 1))),
            Domino(((1, 2), (1, 3))),
        }

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            enumerate_tilings((3,))

    @pytest.mark.parametrize("shape", list(even_partitions(4)))
    def test_tilings_cover_diagram(self, shape):
        cells = diagram_cells(shape)
        seen = set()
        for tiling in enumerate_tilings(shape):
            covered = [cell for d in tiling for cell in d.cells]
            assert len(covered) == len(set(covered))
            assert set(covered) == cells
            assert tiling not in seen
            seen.add(tiling)
            # the enumerator builds each domino without the constructor's checks
            for domino in tiling:
                rebuilt = Domino(tuple(reversed(domino.cells)))
                assert rebuilt == domino and hash(rebuilt) == hash(domino)


def hook_count(shape):
    """The number of standard Young tableaux of ``shape``, by hook lengths."""
    columns = [sum(part > c for part in shape) for c in range(shape[0] if shape else 0)]
    hooks = math.prod(
        part - c + columns[c] - r - 1 for r, part in enumerate(shape) for c in range(part)
    )
    return math.factorial(sum(shape)) // hooks


def sdt_count(shape):
    """C(m, |mu|) * f^mu * f^nu for a shape of m dominoes with 2-quotient
    (mu, nu); a shape with a nonempty 2-core, where |mu| + |nu| < m, has no
    tiling."""
    m = sum(shape) // 2
    q = two_quotient(shape)
    if sum(q.mu) + sum(q.nu) != m:
        return 0
    return math.comb(m, sum(q.mu)) * hook_count(q.mu) * hook_count(q.nu)


class TestCountOracle:
    def test_hook_counts(self):
        assert [hook_count(s) for s in ((), (1,), (2, 1), (3, 2), (2, 2, 1))] == [
            1, 1, 2, 5, 5
        ]

    def test_every_shape_up_to_eight_dominoes(self):
        tileable = 0
        for shape in even_partitions(8):
            expected = sdt_count(shape)
            assert len(enumerate_sdt(shape)) == expected, shape
            tileable += expected > 0
        assert tileable == 433

    @pytest.mark.parametrize(
        "shape, count", [((6, 6, 6, 6), 23_100), ((6, 6, 4, 2, 2, 2), 44_352)]
    )
    def test_large_shapes(self, shape, count):
        assert sdt_count(shape) == count
        assert len(enumerate_sdt(shape)) == count
        assert _count_tableaux(shape, "sdt", None) == count

    def test_counts_without_tableaux_up_to_eight_dominoes(self):
        # the ``--count`` path of ``tbhl enumerate`` walks standard orders and
        # fillings without building a tableau
        for shape in even_partitions(8):
            assert _count_tableaux(shape, "sdt", None) == len(enumerate_sdt(shape))
            if two_quotient(shape).valid:
                expected = len(enumerate_shifted(shape))
                assert _count_tableaux(shape, "standard", None) == expected, shape

    def test_semistandard_counts_without_tableaux(self):
        # every shape up to the 6-domino bound of ``--maxval``, at values 1..3
        for shape in even_partitions(6):
            if not two_quotient(shape).valid:
                continue
            for maxval in range(1, min(3, sum(shape) // 2) + 1):
                expected = sum(1 for _ in iter_semistandard(shape, maxval))
                assert _count_tableaux(shape, "semistandard", maxval) == expected


class TestEnumerateSdt:
    def test_pinned_small_shapes(self):
        (only,) = enumerate_sdt((2,))
        assert only.descent_set() == frozenset()
        (only,) = enumerate_sdt((1, 1))
        assert only.descent_set() == frozenset({0})
        pair = enumerate_sdt((2, 2))
        assert {t.descent_set() for t in pair} == {
            frozenset({0}),
            frozenset({1}),
        }
        assert set(pair) == {HORIZONTAL_PAIR, VERTICAL_PAIR}

    def test_large_shape_contains_pinned_descent_set(self):
        shapes = {t.descent_set() for t in enumerate_sdt((5, 4, 4, 1))}
        assert frozenset({0, 2, 5, 6}) in shapes

    @pytest.mark.parametrize("shape", list(even_partitions(4)))
    def test_matches_filter_oracle(self, shape):
        assert enumerate_sdt(shape) == brute_force_sdt(shape)

    @pytest.mark.parametrize("shape", list(even_partitions(4)))
    def test_enumerated_tableaux_equal_their_validated_rebuilds(self, shape):
        # the enumerator skips the constructor's checks; the public
        # constructor accepts each tableau and rebuilds the same value
        for t in enumerate_sdt(shape):
            rebuilt = StandardDominoTableau(list(t.shape), list(t.dominoes))
            assert rebuilt == t and hash(rebuilt) == hash(t)
            assert type(t.shape) is type(t.dominoes) is tuple

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            enumerate_sdt((5,))


TOP = Domino(((1, 1), (1, 2)))
BOTTOM = Domino(((2, 1), (2, 2)))


class TestSharedChecks:
    # plain and shifted tableaux share the tiling check and the increase check
    @pytest.mark.parametrize(
        "dominoes",
        [
            (TOP, BOTTOM, Domino(((1, 1), (2, 1)))),  # covers every cell, twice
            (TOP,),
            (TOP, BOTTOM, Domino(((1, 3), (1, 4)))),
        ],
    )
    def test_non_tilings_rejected(self, dominoes):
        with pytest.raises(ValueError, match="tile the diagram exactly"):
            StandardDominoTableau((2, 2), dominoes)
        with pytest.raises(ValueError, match="tile the diagram exactly"):
            ShiftedTiling((2, 2), dominoes)

    def test_decrease_rejected(self):
        with pytest.raises(ValueError, match="increase"):
            StandardDominoTableau((2, 2), (BOTTOM, TOP))
        tiling = ShiftedTiling((2, 2), (TOP, BOTTOM))
        with pytest.raises(ValueError, match="increase"):
            ShiftedStandardTableau(tiling, (BOTTOM, TOP))


class TestDescentsAndG:
    def test_g_pinned(self):
        assert g_lambda((2,)) == QSymElement.fundamental(set(), 1)
        assert g_lambda((1, 1)) == QSymElement.fundamental({0}, 1)
        assert g_lambda((2, 2)) == QSymElement.make(
            2, {frozenset({0}): 1, frozenset({1}): 1}
        )

    def test_descents_bounded_by_size(self):
        for shape in even_partitions(3):
            n = sum(shape) // 2
            for t in enumerate_sdt(shape):
                assert t.descent_set() <= set(range(n))


class TestGeneratorAction:
    def test_flip_on_two_by_two(self):
        assert flip_northwest_square(HORIZONTAL_PAIR) == VERTICAL_PAIR
        assert flip_northwest_square(VERTICAL_PAIR) == HORIZONTAL_PAIR

    def test_flip_undefined_without_square(self):
        (t,) = enumerate_sdt((2,))
        assert flip_northwest_square(t) is None
        (t31,) = enumerate_sdt((3, 1))
        assert flip_northwest_square(t31) is None

    def test_every_flip_passes_the_public_check(self):
        # flips skip the constructor's checks; each one is a standard tableau
        # of the same shape, and flipping twice gives the tableau back
        flips = 0
        for shape in even_partitions(6):
            tableaux = set(enumerate_sdt(shape))
            for t in tableaux:
                flipped = flip_northwest_square(t)
                if flipped is None:
                    continue
                flips += 1
                assert StandardDominoTableau(flipped.shape, flipped.dominoes) == flipped
                assert flipped in tableaux and flip_northwest_square(flipped) == t
        assert flips == 794

    def test_swap_invalid_gives_none(self):
        assert swap_entries(VERTICAL_PAIR, 1) is None

    def test_known_shape_has_blocked_swap_witness(self):
        witnesses = [
            t
            for t in enumerate_sdt((4, 3, 3))
            if {1, 3} <= t.descent_set()
            and 4 not in t.descent_set()
            and swap_entries(t, 4) is None
        ]
        assert witnesses

    def test_trusted_swaps_match_the_validated_rebuild(self, monkeypatch):
        # swap_entries decides a move from its two dominoes and skips the
        # constructor; rebuilding every move through the public constructor
        # must give the same labels and matrices on every family
        def validated_swap(tableau, i):
            if not 1 <= i < len(tableau.dominoes):
                return None
            dominoes = list(tableau.dominoes)
            dominoes[i - 1], dominoes[i] = dominoes[i], dominoes[i - 1]
            try:
                return dataclasses.replace(tableau, dominoes=tuple(dominoes))
            except ValueError:
                return None

        cases = [(sdt_operator_family, shape) for shape in even_partitions(5)]
        cases += [
            (conjugate_family, shape)
            for shape in even_partitions(6)
            if two_quotient(shape).valid
        ]

        def built():
            return [
                (
                    [label.to_text() for label in fam.labels],
                    [matrix.entries for matrix in fam.matrices],
                )
                for build, shape in cases
                for fam in [build(shape)]
            ]

        trusted = built()
        monkeypatch.setattr(domino_tableaux, "swap_entries", validated_swap)
        monkeypatch.setattr(shifted_domino, "swap_entries", validated_swap)
        assert len(cases) == 136
        assert built() == trusted

    @pytest.mark.parametrize("shape", list(even_partitions(3)))
    def test_action_lands_in_descent(self, shape):
        n = sum(shape) // 2
        for t in enumerate_sdt(shape):
            for i in range(n):
                if i in t.descent_set():
                    continue
                moved = generator_action(t, i)
                if moved is not None:
                    assert i in moved.descent_set()


class TestOperatorFamily:
    def test_two_by_two_matrices(self):
        fam = sdt_operator_family((2, 2))
        h, v = fam.labels.index(HORIZONTAL_PAIR), fam.labels.index(VERTICAL_PAIR)
        pi0, pi1 = fam.matrices[0], fam.matrices[1]
        one = pi0.get(v, h)
        assert one.re == 1 and one.im == 0
        assert pi0.get(v, v).re == -1
        assert pi0.get(h, h).is_zero()
        assert pi1.get(h, h).re == -1
        assert all(col != v for _, col in pi1.entries)

    def test_single_horizontal_domino_kills_index_zero(self):
        fam = sdt_operator_family((2,))
        assert fam.matrices[0].entries == {}

    @pytest.mark.parametrize("shape", list(even_partitions(4)))
    def test_relations(self, shape):
        assert verify_relations(sdt_operator_family(shape)) == {
            "relations": "ok"
        }

    @pytest.mark.parametrize("shape", list(even_partitions(3)))
    def test_characteristic_matches_descent_sum(self, shape):
        char, _ = characteristic_by_composition_series(
            sdt_operator_family(shape)
        )
        assert char == g_lambda(shape)


class TestTextFormat:
    def test_round_trip(self):
        # one line per domino, in entry order, naming both cells
        for shape in ((2, 2), (5, 4, 4, 1)):
            for t in enumerate_sdt(shape):
                assert t.to_text().splitlines() == [
                    f"{k}:({r1},{c1})-({r2},{c2})"
                    for k, ((r1, c1), (r2, c2)) in enumerate(
                        (d.cells for d in t.dominoes), 1
                    )
                ]

    def test_pinned_format(self):
        assert HORIZONTAL_PAIR.to_text() == "1:(1,1)-(1,2)\n2:(2,1)-(2,2)"
