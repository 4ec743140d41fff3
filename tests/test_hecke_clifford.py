"""Tests for Clifford-extended casewise modules and their invariants."""

import itertools
import random
from dataclasses import replace

import pytest

from tbhl.exact_algebra import GaussianInteger, SparseMatrix
from tbhl.hecke_clifford import (
    build_MI,
    build_intertwiner,
    centralizer_check,
    centralizer_valleys,
    clifford_matrices,
    clifford_normalize,
    clifford_parity_matrix,
    cover_lower_targets,
    induce_and_restrict,
    induce_labeled_basis,
    iso_predicate,
    k_factor,
    k_set,
    pi_commute,
    res_MI_formula,
    restriction_characteristic,
    ribbon_table_matrix,
    verify_hcl_relations,
)
from tbhl.cli_verify import clifford_audit_cases
from tbhl import hecke_clifford
from tbhl.hecke_engine import OperatorFamily, family_from_action, verify_relations
from tbhl.domino_tableaux import sdt_operator_family
from tbhl.qsym_typeb import QSymElement, peak_data
from tbhl.signed_permutations import parse_index_set, subsets

ONE = GaussianInteger.integer(1)
MINUS_ONE = GaussianInteger.integer(-1)
SQRT = GaussianInteger.sqrt_minus_one()


def all_index_sets(n):
    for size in range(n + 1):
        yield from (frozenset(s) for s in itertools.combinations(range(n), size))


def fb(subset, n):
    return QSymElement.fundamental(subset, n)


def with_pi(module, i, matrix):
    """``module`` with its ``pi_i`` replaced by ``matrix``."""
    matrices = list(module.matrices)
    matrices[i] = matrix
    return replace(module, matrices=matrices)


class TestCliffordNormalForm:
    def test_pinned_words(self):
        assert clifford_normalize((2, 1)) == (MINUS_ONE, (1, 2))
        assert clifford_normalize((1, 1)) == (MINUS_ONE, ())
        assert clifford_normalize((3, 1, 3)) == (ONE, (1,))

    def test_empty_word(self):
        assert clifford_normalize(()) == (ONE, ())

    def test_rejects_nonpositive_indices(self):
        with pytest.raises(ValueError):
            clifford_normalize((0,))

    def test_random_words_against_reference(self):
        rng = random.Random(7)
        for _ in range(200):
            word = [rng.randint(1, 5) for _ in range(rng.randint(0, 8))]
            sign, letters = self._reference(word)
            assert clifford_normalize(tuple(word)) == (sign, tuple(letters))

    @staticmethod
    def _reference(word):
        # Bubble sort with an explicit -1 per swap and per square.
        letters = list(word)
        sign = ONE
        changed = True
        while changed:
            changed = False
            for k in range(len(letters) - 1):
                if letters[k] > letters[k + 1]:
                    letters[k], letters[k + 1] = letters[k + 1], letters[k]
                    sign = sign * MINUS_ONE
                    changed = True
        k = 0
        while k + 1 < len(letters):
            if letters[k] == letters[k + 1]:
                del letters[k : k + 2]
                sign = sign * MINUS_ONE
                k = 0
            else:
                k += 1
        return sign, letters

    def test_monomial_products_are_group_like(self):
        rng = random.Random(11)
        for _ in range(100):
            a = tuple(sorted(rng.sample(range(1, 5), rng.randint(0, 4))))
            b = tuple(sorted(rng.sample(range(1, 5), rng.randint(0, 4))))
            sign, product = clifford_normalize(a + b)
            assert product == tuple(sorted(set(a) ^ set(b)))
            assert sign in (ONE, MINUS_ONE)

    def test_subsets_ordering(self):
        assert subsets(range(1, 3)) == ((), (1,), (2,), (1, 2))
        assert subsets(range(1, 1)) == ((),)
        assert len(subsets(range(1, 5))) == 16


class TestPiCommute:
    def test_pinned_expansions(self):
        assert pi_commute(1, (3,)) == (((3,), GaussianInteger.integer(0), ONE),)
        assert pi_commute(1, (2,)) == (((1,), GaussianInteger.integer(0), ONE),)
        assert pi_commute(1, (1,)) == (
            ((1,), MINUS_ONE, GaussianInteger.integer(0)),
            ((2,), ONE, ONE),
        )

    def test_zero_index_graded_rule(self):
        assert pi_commute(0, (2,)) == (((2,), GaussianInteger.integer(0), ONE),)
        assert pi_commute(0, (1,)) == (((), GaussianInteger.integer(0), SQRT),)
        # one extra letter flips the coefficient
        assert pi_commute(0, (1, 2)) == (
            ((2,), GaussianInteger.integer(0), SQRT * MINUS_ONE),
        )
        assert pi_commute(0, (1, 2, 3)) == (
            ((2, 3), GaussianInteger.integer(0), SQRT),
        )

    def test_zero_index_parity_alternates(self):
        for extra in range(0, 5):
            word = (1, *range(2, 2 + extra))
            ((rest, const, coeff),) = pi_commute(0, word)
            assert rest == word[1:]
            assert const.is_zero()
            expected = SQRT if extra % 2 == 0 else SQRT * MINUS_ONE
            assert coeff == expected

    def test_arguments_are_validated(self):
        for i, word in ((-1, (1,)), (0, (0,)), (1, (0, 2)), (1, (2, 1)), (1, (2, 2))):
            with pytest.raises(ValueError):
                pi_commute(i, word)

    def test_expansions_are_cached_per_key(self):
        expansion = pi_commute(1, (1, 2))
        assert pi_commute(1, (1, 2)) is expansion
        # a rejected key raises every time and leaves nothing in the cache
        size = pi_commute.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError):
                pi_commute(1, (2, 1))
        assert pi_commute.cache_info().currsize == size


class TestBuildMI:
    def test_rank_one_empty_set_kills_everything(self):
        module = build_MI(frozenset(), 1)
        assert module.matrices[0] == SparseMatrix.zero(2, 2)
        assert [pair[0] for pair in module.labels] == [(), (1,)]
        assert module.rank == 1
        assert {label for _, label in module.labels} == {frozenset()}

    def test_rank_one_full_set_pinned_action(self):
        module = build_MI({0}, 1)
        label = frozenset({0})
        plain = module.position[((), label)]
        barred = module.position[((1,), label)]
        pi = module.matrices[0]
        assert pi.column(plain) == {plain: MINUS_ONE}
        assert pi.column(barred) == {plain: SQRT * MINUS_ONE}

    def test_dimension_is_two_power_times_labels(self):
        for n in range(1, 4):
            for index_set in all_index_sets(n):
                module = build_MI(index_set, n)
                assert len(module.labels) == 1 << n

    def test_rejects_out_of_range_subsets(self):
        with pytest.raises(ValueError):
            build_MI({2}, 2)
        with pytest.raises(ValueError):
            ribbon_table_matrix(0, {2}, 2)
        with pytest.raises(ValueError):
            ribbon_table_matrix(2, {0}, 2)

    def test_case_table_cross_check_runs_everywhere(self):
        # the transcribed table and the commutation engine agree; all ranks
        # up to 3 cover every case of the table
        for n in range(1, 4):
            for index_set in all_index_sets(n):
                module = build_MI(index_set, n)
                for i in range(n):
                    assert ribbon_table_matrix(i, index_set, n) == (
                        module.matrices[i]
                    ), (n, sorted(index_set), i)


class TestRelationSuite:
    def test_all_modules_rank_up_to_three(self):
        for n in range(1, 4):
            for index_set in all_index_sets(n):
                module = build_MI(index_set, n)
                assert verify_hcl_relations(module) == {"relations": "ok"}

    def test_tableau_module_rank_two(self):
        fam = sdt_operator_family((2, 2))
        module = induce_labeled_basis(fam)
        assert verify_hcl_relations(module) == {"relations": "ok"}

    def test_graded_zero_identity_needs_parity(self):
        # The plain identity pi_0 c_1 = sqrt(-1) pi_0 fails on modules with
        # basis vectors of odd Clifford degree not containing 1; the parity
        # factor is what makes the suite pass.
        module = build_MI({0, 1}, 2)
        pi0 = module.matrices[0]
        c1 = clifford_matrices(module)[1]
        assert pi0 @ c1 != pi0.scale(SQRT)
        assert pi0 @ c1 == (clifford_parity_matrix(module) @ pi0).scale(SQRT)

    def test_fault_injection_scalar_drift_is_reported(self):
        # Replace the sqrt(-1) elimination coefficient with 1: the casewise
        # relations still hold but the mixed zero-index relation breaks.
        module = build_MI({0}, 1)
        label = frozenset({0})
        plain = module.position[((), label)]
        barred = module.position[((1,), label)]
        corrupted = dict(module.matrices[0].entries)
        corrupted[(plain, barred)] = MINUS_ONE
        module = with_pi(module, 0, SparseMatrix(2, 2, corrupted))
        report = verify_hcl_relations(module)
        assert report == {"failed": {"kind": "mixed-zero", "j": 1}}

    def test_fault_injection_broken_braid_is_reported(self):
        module = build_MI({0, 1}, 2)
        label = frozenset({0, 1})
        source = module.position[((1, 2), label)]
        target = module.position[((2,), label)]
        corrupted = dict(module.matrices[0].entries)
        corrupted[(target, source)] = corrupted[(target, source)] * MINUS_ONE
        module = with_pi(module, 0, SparseMatrix(4, 4, corrupted))
        report = verify_hcl_relations(module)
        assert report["failed"]["kind"] in ("braid", "mixed-zero")

    def test_quadratic_fault_is_reported_as_verify_relations_does(self):
        module = build_MI({0}, 2)
        module = with_pi(module, 1, SparseMatrix.identity(len(module.labels)))
        expected = {"failed": {"kind": "quadratic", "i": 1}}
        assert verify_hcl_relations(module) == expected
        assert verify_relations(module) == expected

    def test_clifford_fault_is_reported(self, monkeypatch):
        module = build_MI(frozenset(), 2)
        generators = clifford_matrices(module)
        generators[1] = SparseMatrix.identity(4)
        monkeypatch.setattr(hecke_clifford, "clifford_matrices", lambda m: generators)
        report = verify_hcl_relations(module)
        assert report == {"failed": {"kind": "clifford-square", "j": 1}}

    def test_clifford_anticommute_fault_is_reported(self, monkeypatch):
        # One entry of c_j alone always breaks c_j^2 = -1, so negate both
        # entries of one 2-cycle of c_1: it still squares to -1 but no longer
        # anticommutes with c_2.
        module = build_MI(frozenset(), 2)
        plain = module.position[((), frozenset())]
        barred = module.position[((1,), frozenset())]
        generators = clifford_matrices(module)
        corrupted = dict(generators[1].entries)
        for pos in ((barred, plain), (plain, barred)):
            corrupted[pos] = corrupted[pos] * MINUS_ONE
        generators[1] = SparseMatrix(4, 4, corrupted)
        monkeypatch.setattr(hecke_clifford, "clifford_matrices", lambda m: generators)
        report = verify_hcl_relations(module)
        assert report == {"failed": {"kind": "clifford-anticommute", "i": 1, "j": 2}}

    def test_mixed_commute_fault_is_reported(self):
        module = build_MI({1}, 3)
        label = frozenset({1})
        row = module.position[((1,), label)]
        col = module.position[((2,), label)]
        corrupted = dict(module.matrices[1].entries)
        corrupted[(row, col)] = corrupted[(row, col)] * MINUS_ONE
        size = len(module.labels)
        module = with_pi(module, 1, SparseMatrix(size, size, corrupted))
        report = verify_hcl_relations(module)
        assert report == {"failed": {"kind": "mixed-commute", "i": 1, "j": 3}}

    def test_mixed_swap_fault_is_reported(self):
        module = build_MI(frozenset(), 2)
        row = module.position[((2,), frozenset())]
        col = module.position[((1,), frozenset())]
        corrupted = dict(module.matrices[1].entries)
        corrupted[(row, col)] = corrupted[(row, col)] * MINUS_ONE
        module = with_pi(module, 1, SparseMatrix(4, 4, corrupted))
        report = verify_hcl_relations(module)
        assert report == {"failed": {"kind": "mixed-swap", "i": 1}}

    def test_mixed_shift_fault_is_reported(self):
        # One changed entry of pi_i always breaks pi_i c_{i+1} = c_i pi_i
        # first, so pi_1 acts by zero instead: that satisfies the quadratic,
        # braid and swap relations, and the shift then demands c_1 = c_2.
        module = build_MI(frozenset(), 2)
        module = with_pi(module, 1, SparseMatrix.zero(4, 4))
        report = verify_hcl_relations(module)
        assert report == {"failed": {"kind": "mixed-shift", "i": 1}}


class TestDiagonalData:
    def test_k_set_pinned(self):
        assert k_set({0, 3, 4, 6}, {1, 2, 5}, 7) == frozenset({1, 2, 3, 5, 6})
        assert k_set(set(), set(), 1) == frozenset()
        # index 0 never contributes even when position 1 is barred
        assert k_set(set(), {1}, 1) == frozenset()
        assert k_set(set(), {1}, 2) == frozenset({1})

    def test_k_set_matches_k_factor(self):
        for n in range(1, 5):
            for index_set in all_index_sets(n):
                for subset in subsets(range(1, n + 1)):
                    expected = frozenset(
                        i
                        for i in range(n)
                        if k_factor(i, index_set, subset) == -1
                    )
                    assert k_set(index_set, subset, n) == expected

    def test_k_set_matches_module_diagonal(self):
        for n in range(1, 4):
            for index_set in all_index_sets(n):
                module = build_MI(index_set, n)
                label = frozenset(index_set)
                for subset in subsets(range(1, n + 1)):
                    col = module.position[(subset, label)]
                    for i in range(n):
                        diag = module.matrices[i].get(col, col)
                        assert diag in (
                            GaussianInteger.integer(0),
                            MINUS_ONE,
                        )
                        expected = k_factor(i, index_set, subset)
                        assert diag == GaussianInteger.integer(expected)

    def test_valley_stability(self):
        # adding any valley of the complement to the barred set does not
        # change which indices act by -1
        for n in range(1, 5):
            for index_set in all_index_sets(n):
                complement = frozenset(range(n)) - index_set
                for valley in peak_data(complement, n).valley:
                    for subset in subsets(range(1, n + 1)):
                        enlarged = frozenset(subset) | {valley}
                        assert k_set(index_set, subset, n) == k_set(
                            index_set, enlarged, n
                        )

    def test_off_diagonal_support_is_strictly_lower(self):
        for n in range(1, 4):
            for index_set in all_index_sets(n):
                module = build_MI(index_set, n)
                label = frozenset(index_set)
                for subset in subsets(range(1, n + 1)):
                    col = module.position[(subset, label)]
                    for i in range(n):
                        allowed = cover_lower_targets(i, index_set, subset)
                        for row, _value in module.matrices[i].column(
                            col
                        ).items():
                            if row == col:
                                continue
                            target = module.labels[row][0]
                            assert target in allowed


class TestRestrictionCharacteristic:
    def test_rank_one_pinned(self):
        direct, series = restriction_characteristic(build_MI(frozenset(), 1))
        assert direct == fb(set(), 1).scale(2)
        assert sorted(series.factors, key=sorted) == [frozenset(), frozenset()]
        direct, _ = restriction_characteristic(build_MI({0}, 1))
        assert direct == fb(set(), 1) + fb({0}, 1)

    def test_rank_two_pinned(self):
        direct, _ = restriction_characteristic(build_MI({0}, 2))
        assert direct == (fb({0}, 2) + fb({1}, 2)).scale(2)

    def test_penultimate_form_always_matches(self):
        for n in range(1, 4):
            for index_set in all_index_sets(n):
                direct, _ = restriction_characteristic(build_MI(index_set, n))
                assert direct == res_MI_formula(
                    index_set, n, "proof_penultimate"
                )

    def test_agreement_pattern(self):
        # The complemented reading always matches; the literal reading
        # matches exactly when 0 is selected.
        cases = clifford_audit_cases(3)
        assert len(cases) == 3 * (2 + 4 + 8)
        for case in cases:
            literal_differs = (
                case.params["form"] == "theorem_literal"
                and 0 not in parse_index_set(case.params["indices"])
            )
            expected = "variant-dependent" if literal_differs else "pass"
            assert case.status == expected, case

    def test_rank_one_empty_set_discrepancy_pinned(self):
        # the smallest case separating the two readings
        direct, _ = restriction_characteristic(build_MI(frozenset(), 1))
        assert direct == fb(set(), 1).scale(2)
        assert res_MI_formula(set(), 1, "theorem_literal") == fb({0}, 1).scale(2)
        assert res_MI_formula(set(), 1, "theorem_complemented") == direct

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError):
            res_MI_formula(set(), 1, "no-such-form")


class TestIsoPredicate:
    def test_pinned(self):
        assert iso_predicate({1}, {1}, 3)
        assert not iso_predicate(set(), {0}, 1)
        assert not iso_predicate({1}, {1, 2}, 3)
        assert iso_predicate(set(), {1}, 2)

    def test_matches_characteristic_equality(self):
        for n in range(1, 4):
            chars = {
                index_set: restriction_characteristic(build_MI(index_set, n))[0]
                for index_set in all_index_sets(n)
            }
            for first in chars:
                for second in chars:
                    assert iso_predicate(first, second, n) == (
                        chars[first] == chars[second]
                    )


class TestIntertwiner:
    def test_rank_two_pinned(self):
        result = build_intertwiner(set(), 1, 2)
        assert result.commutes and result.invertible
        assert result.matrix.nrows == 4
        order = subsets(range(1, 3))
        position = {subset: idx for idx, subset in enumerate(order)}
        col = position[()]
        assert result.matrix.column(col) == {
            position[(1, 2)]: ONE,
            col: MINUS_ONE,
        }

    def test_all_admissible_cases_up_to_rank_three(self):
        count = 0
        for n in range(1, 4):
            for index_set in all_index_sets(n):
                for k in range(1, n):
                    if k in index_set:
                        continue
                    if not iso_predicate(index_set, index_set | {k}, n):
                        continue
                    result = build_intertwiner(index_set, k, n)
                    assert result.commutes
                    assert result.invertible
                    count += 1
        assert count == 4

    def test_clifford_fault_breaks_commutation(self, monkeypatch):
        # negate c_1 on the larger module only: every pi_i still commutes
        original = hecke_clifford.clifford_matrices

        def corrupted(module):
            generators = original(module)
            if module.labels[0][1] == frozenset({1}):
                generators[1] = generators[1].scale(MINUS_ONE)
            return generators

        monkeypatch.setattr(hecke_clifford, "clifford_matrices", corrupted)
        result = build_intertwiner(set(), 1, 2)
        assert not result.commutes and result.invertible

    def test_rejected_cases(self):
        with pytest.raises(ValueError, match="between 1 and"):
            build_intertwiner(set(), 0, 2)
        with pytest.raises(ValueError, match="between 1 and"):
            build_intertwiner(set(), 2, 2)
        with pytest.raises(ValueError, match="already present"):
            build_intertwiner({1}, 1, 2)
        with pytest.raises(ValueError, match="changes the complement"):
            build_intertwiner({1}, 2, 3)


class TestCentralizer:
    def test_rank_one_pinned(self):
        assert centralizer_check(frozenset(), 1) == ((), (1,))
        assert centralizer_check({0}, 1) == ((),)

    def test_rank_two_empty_set_contains_top_valley(self):
        # the valley at the last position is genuine even though the
        # selected set is empty
        assert centralizer_check(frozenset(), 2) == ((), (2,))

    def test_matches_valley_powerset(self):
        for n in range(1, 4):
            for index_set in all_index_sets(n):
                valleys = centralizer_valleys(index_set, n)
                expected = sorted(
                    (
                        tuple(sorted(chosen))
                        for size in range(len(valleys) + 1)
                        for chosen in itertools.combinations(
                            sorted(valleys), size
                        )
                    ),
                    key=lambda s: (len(s), s),
                )
                assert sorted(
                    centralizer_check(index_set, n), key=lambda s: (len(s), s)
                ) == expected

    def test_size_is_power_of_two(self):
        for n in range(1, 4):
            for index_set in all_index_sets(n):
                size = len(centralizer_check(index_set, n))
                assert size & (size - 1) == 0


def summed_form(descent_labels, n, form):
    """A closed form of ``res_MI_formula`` summed label by label."""
    total = QSymElement.zero(n)
    for descent_label in descent_labels:
        total = total + res_MI_formula(descent_label, n, form)
    return total


class TestInduceAndRestrict:
    def test_single_label_matches_direct_construction(self):
        base = OperatorFamily(("x",), (SparseMatrix.identity(1).scale(MINUS_ONE),))
        direct, expected = induce_and_restrict(base)
        assert direct == fb(set(), 1) + fb({0}, 1)
        assert expected == direct
        for form in ("theorem_literal", "theorem_complemented"):
            assert summed_form([{0}], 1, form) == direct

    def test_two_labels_pinned(self):
        # "e" moves to "s" at index 0, where "s" acts by -1; the same
        # family built by the casewise rule and from its matrices
        pi0 = SparseMatrix(2, 2, {(1, 0): ONE, (1, 1): MINUS_ONE})
        built = family_from_action(
            ("e", "s"), lambda y: {0} if y == "s" else (), lambda y, i: "s", 1
        )
        assert built.matrices == (pi0,)
        for base in (built, OperatorFamily(("e", "s"), (pi0,))):
            direct, expected = induce_and_restrict(base)
            assert direct == fb(set(), 1).scale(3) + fb({0}, 1)
            assert expected == direct
        # a label without 0 separates the literal reading
        labels = [set(), {0}]
        assert summed_form(labels, 1, "theorem_literal") != direct
        assert summed_form(labels, 1, "theorem_complemented") == direct

    def test_operator_family_accepted(self):
        fam = sdt_operator_family((2, 2))
        direct, expected = induce_and_restrict(fam)
        assert expected == direct
        assert direct == fb(set(), 2).scale(2) + fb({0}, 2).scale(2) + fb(
            {1}, 2
        ).scale(4)

    @pytest.mark.parametrize("shape", [(4, 2, 2), (3, 3, 1, 1), (5, 5)])
    def test_closed_form_is_the_label_by_label_sum(self, shape):
        # one closed form per distinct descent label, weighted by its count
        fam = sdt_operator_family(shape)
        descent_labels = [t.descent_set() for t in fam.labels]
        assert len(set(descent_labels)) < len(descent_labels)
        _, expected = induce_and_restrict(fam)
        assert expected == summed_form(
            descent_labels, fam.rank, "proof_penultimate"
        )

    def test_cyclic_transitions_rejected(self):
        swap = {"a": "b", "b": "a"}
        base = family_from_action(("a", "b"), lambda y: (), lambda y, i: swap[y], 1)
        with pytest.raises(ValueError):
            induce_and_restrict(base)

    def test_reads_no_clifford_generators(self, monkeypatch):
        def unexpected(module):
            raise AssertionError("induce_and_restrict read the c_j")

        monkeypatch.setattr(hecke_clifford, "clifford_matrices", unexpected)
        for base in (sdt_operator_family((2, 2)), build_MI({0}, 2)):
            induce_and_restrict(base)
