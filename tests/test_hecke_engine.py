"""Tests for operator families, relation checks, and composition series."""

import random

import pytest

from tbhl.cli_verify import _ascent_compatible_catalog
from tbhl.domino_tableaux import sdt_operator_family
from tbhl.exact_algebra import GaussianInteger, SparseMatrix
from tbhl.hecke_clifford import build_MI, induce_labeled_basis
from tbhl.hecke_engine import (
    OperatorFamily,
    alternating_product,
    characteristic_by_composition_series,
    characteristic_by_descent_sum,
    family_from_action,
    family_from_elements,
    verify_relations,
)
from tbhl.qsym_typeb import QSymElement
from tbhl.signed_permutations import (
    SignedPermutation,
    all_elements,
    identity,
    left_descents,
    length,
    simple_reflection,
    subsets,
    weak_order_interval,
)


def mat(rows):
    entries = {
        (r, c): GaussianInteger.integer(value)
        for r, row in enumerate(rows)
        for c, value in enumerate(row)
        if value
    }
    return SparseMatrix(len(rows), len(rows[0]), entries)


def descent_classes(n):
    classes = {}
    for x in all_elements(n):
        classes.setdefault(left_descents(x), []).append(x)
    return classes


class TestFamilyFromAction:
    def test_rank_one_group_family_pinned(self):
        fam = family_from_elements(all_elements(1))
        assert fam.matrices[0] == mat([[0, 0], [1, -1]])
        assert fam.labels == (
            SignedPermutation((1,)),
            SignedPermutation((-1,)),
        )
        assert fam.rank == 1
        assert fam.labels.index(SignedPermutation((-1,))) == 1

    def test_singleton_full_descent_label(self):
        fam = family_from_action(("x",), lambda y: {0}, lambda y, i: None, 1)
        assert fam.matrices[0] == mat([[-1]])

    def test_keeps_moves_that_land_inside(self):
        # on 0..3 with index 0 adding one and index 1 adding two: the moves
        # that leave the labels, and a None move, give zero columns
        fam = family_from_action(
            range(4),
            lambda y: {1} if y == 3 else (),
            lambda y, i: None if y == 0 and i == 1 else y + 1 + i,
            rank=2,
        )
        assert fam.labels == (0, 1, 2, 3)
        assert fam.matrices[0] == mat(
            [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
        )
        assert fam.matrices[1] == mat(
            [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, -1]]
        )

    def test_descent_wins_over_move(self):
        # a move at a descent index is never taken
        fam = family_from_action(("a", "b"), lambda y: {0}, lambda y, i: "b", 1)
        assert fam.matrices[0] == mat([[-1, 0], [0, -1]])

    def test_cyclic_action_has_no_composition_series(self):
        swap = {"a": "b", "b": "a"}
        fam = family_from_action(("a", "b"), lambda y: (), lambda y, i: swap[y], 1)
        assert fam.matrices[0] == mat([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="cyclic"):
            characteristic_by_composition_series(fam)

    def test_matrices_equal_checked_construction(self):
        fam = family_from_elements(all_elements(3))
        for matrix in fam.matrices:
            assert matrix == SparseMatrix(matrix.nrows, matrix.ncols, matrix.entries)

    def test_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            family_from_action(("a", "a"), lambda y: (), lambda y, i: None, 1)

    def test_operator_family_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            OperatorFamily(("a", "a"), ())
        with pytest.raises(ValueError, match="square"):
            OperatorFamily(("a",), (mat([[0, 0], [0, 0]]),))


class TestAlternatingProduct:
    def test_expansions(self):
        a = mat([[0, 1], [0, 0]])
        b = mat([[0, 0], [1, 0]])
        assert alternating_product(a, b, 1) == b
        assert alternating_product(a, b, 2) == a @ b
        assert alternating_product(a, b, 3) == b @ a @ b
        assert alternating_product(a, b, 4) == a @ b @ a @ b


class TestVerifyRelations:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_group_families(self, n):
        assert verify_relations(family_from_elements(all_elements(n))) == {
            "relations": "ok"
        }

    @pytest.mark.parametrize("n", [2, 3])
    def test_descent_class_subsets(self, n):
        rng = random.Random(7)
        for subset, members in descent_classes(n).items():
            pool = [members] if n == 2 else []
            for _ in range(3):
                size = rng.randint(1, len(members))
                pool.append(rng.sample(members, size))
            for chosen in pool:
                fam = family_from_elements(chosen)
                assert verify_relations(fam) == {"relations": "ok"}
                for i in range(fam.rank):
                    expected = (
                        mat([[-1]]) if i in subset
                        else SparseMatrix.zero(len(chosen), len(chosen))
                    )
                    if i in subset:
                        expected = SparseMatrix.identity(len(chosen)).scale(
                            GaussianInteger.integer(-1)
                        )
                    assert fam.matrices[i] == expected

    def test_quadratic_fault_reported(self):
        fam = family_from_elements(all_elements(2))
        pos = fam.labels.index
        e = identity(2)
        bad = dict(fam.matrices[0].entries)
        del bad[(pos(simple_reflection(0, 2)), pos(e))]
        bad[(pos(simple_reflection(1, 2)), pos(e))] = GaussianInteger.integer(1)
        fam = OperatorFamily(
            fam.labels, (SparseMatrix(8, 8, bad), fam.matrices[1])
        )
        assert verify_relations(fam) == {"failed": {"kind": "quadratic", "i": 0}}

    def test_braid_fault_reported(self):
        # both matrices satisfy the quadratic relation but not the braid one:
        # ABAB = [[1, -1], [0, 0]] while BABA = [[0, 0], [-1, 1]]
        fam = OperatorFamily(
            ("p", "q"), (mat([[-1, 1], [0, 0]]), mat([[0, 0], [1, -1]]))
        )
        assert verify_relations(fam) == {"failed": {"kind": "braid", "i": 0, "j": 1}}


class TestFamilyFromElements:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_order_and_moves_match_products(self, n):
        members = [x for k, x in enumerate(all_elements(n)) if k % 3 != 1]
        fam = family_from_elements(reversed(members))
        assert list(fam.labels) == sorted(members, key=lambda x: (length(x), x.window))
        for i, matrix in enumerate(fam.matrices):
            for col, x in enumerate(fam.labels):
                moved = simple_reflection(i, n) * x
                if i in left_descents(x):
                    expected = {(col, col): GaussianInteger.integer(-1)}
                elif moved in fam.labels:
                    expected = {(fam.labels.index(moved), col): GaussianInteger.integer(1)}
                else:
                    expected = {}
                assert {
                    pos: value for pos, value in matrix.entries.items() if pos[1] == col
                } == expected

    def test_mixed_ranks_are_rejected(self):
        mixed = [identity(1), identity(2)]
        with pytest.raises(ValueError, match="ranks differ"):
            family_from_elements(mixed)
        with pytest.raises(ValueError, match="ranks differ"):
            characteristic_by_descent_sum(mixed)


class TestDescentSumCharacteristic:
    def test_pinned_values(self):
        assert characteristic_by_descent_sum([identity(2)]) == (
            QSymElement.fundamental(set(), 2)
        )
        assert characteristic_by_descent_sum(all_elements(1)) == QSymElement.make(
            1, {frozenset(): 1, frozenset({0}): 1}
        )

    def test_left_unimodal_inverse_interval_rank_two(self):
        members = [
            SignedPermutation(w)
            for w in [(1, 2), (-1, 2), (-2, 1), (-2, -1)]
        ]
        assert characteristic_by_descent_sum(members) == QSymElement.make(
            2, {frozenset(): 1, frozenset({0}): 2, frozenset({1}): 1},
        )


def is_walk_order(fam, char, order):
    """Whether ``order`` is a permutation of the basis positions that puts
    the row of every off-diagonal ``blocks()`` entry before its column, and
    whose diagonal masks, read in that order, sum to ``char``."""
    if sorted(order) != list(range(fam.size)):
        return False
    place = {k: p for p, k in enumerate(order)}
    acting = [set() for _ in range(fam.size)]
    for i, row, col, pairs in fam.blocks():
        for (s, t), value in pairs:
            r, c = row + s, col + t
            if r == c and value == GaussianInteger.integer(-1):
                acting[c].add(i)
            elif r == c or place[r] > place[c]:
                return False
    return QSymElement.from_descent_sets(
        (acting[k] for k in order), fam.rank
    ) == char


def has_off_diagonal_entry(fam):
    return any(
        row + s != col + t
        for _, row, col, pairs in fam.blocks()
        for (s, t), _ in pairs
    )


def walked_families():
    # the groups of rank <= 3, the B2 intervals, a tableau module, and the
    # induced modules of ranks <= 3
    for n in (1, 2, 3):
        yield family_from_elements(all_elements(n))
    group = all_elements(2)
    for x in group:
        for z in group:
            members = weak_order_interval(x, z)
            if members:
                yield family_from_elements(members)
    yield sdt_operator_family((2, 2))
    for n in (1, 2, 3):
        for index_set in subsets(range(n)):
            yield build_MI(index_set, n)
        for fam in _ascent_compatible_catalog(n):
            yield induce_labeled_basis(family_from_elements(fam.members))


class TestCompositionSeries:
    def test_rank_one_group(self):
        char, _ = characteristic_by_composition_series(
            family_from_elements(all_elements(1))
        )
        assert char == QSymElement.make(
            1, {frozenset(): 1, frozenset({0}): 1}
        )

    def test_singleton_with_two_descents(self):
        fam = family_from_action(("y",), lambda y: {0, 2}, lambda y, i: None, 3)
        char, order = characteristic_by_composition_series(fam)
        assert char == QSymElement.fundamental({0, 2}, 3)
        assert order == (0,)

    def test_order_is_a_walk_order(self):
        # the reversed order fails exactly when the family has an edge
        count = 0
        for fam in walked_families():
            char, order = characteristic_by_composition_series(fam)
            assert is_walk_order(fam, char, order)
            assert is_walk_order(fam, char, order[::-1]) != (
                has_off_diagonal_entry(fam)
            )
            count += 1
        assert count == 3 + 27 + 1 + 14 + 23

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_descent_sum_on_full_group(self, n):
        fam = family_from_elements(all_elements(n))
        char, _ = characteristic_by_composition_series(fam)
        assert char == characteristic_by_descent_sum(all_elements(n))

    def test_agrees_on_intervals(self):
        group = all_elements(2)
        for x in group:
            for z in group:
                members = weak_order_interval(x, z)
                if not members:
                    continue
                fam = family_from_elements(members)
                char, _ = characteristic_by_composition_series(fam)
                assert char == characteristic_by_descent_sum(members)

    def test_characteristic_invariant_under_basis_reversal(self):
        fam = family_from_elements(all_elements(2))
        reversed_fam = family_from_action(
            fam.labels[::-1],
            left_descents,
            lambda x, i: simple_reflection(i, 2) * x,
            2,
        )
        char_a, _ = characteristic_by_composition_series(fam)
        char_b, _ = characteristic_by_composition_series(reversed_fam)
        assert char_a == char_b

    def test_cyclic_support_graph_rejected(self):
        fam = OperatorFamily(("a", "b"), (mat([[0, 1], [1, 0]]),))
        with pytest.raises(ValueError, match="cyclic"):
            characteristic_by_composition_series(fam)

    def test_bad_diagonal_rejected(self):
        fam = OperatorFamily(("a", "b"), (mat([[1, 0], [0, 0]]),))
        with pytest.raises(ValueError, match="neither"):
            characteristic_by_composition_series(fam)
