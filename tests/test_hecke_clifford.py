"""Tests for Clifford-extended casewise modules and their invariants."""

import itertools
import random

import pytest

from tbhl.exact_algebra import GaussianInteger, SparseMatrix
from tbhl.hecke_clifford import (
    InducedModule,
    build_MI,
    build_intertwiner,
    centralizer_check,
    centralizer_valleys,
    clifford_matrices,
    clifford_tables,
    clifford_normalize,
    cover_lower_targets,
    induce_and_restrict,
    induce_labeled_basis,
    iso_predicate,
    k_set,
    pi_commute,
    res_MI_formula,
    restriction_characteristic,
    ribbon_table_matrix,
    verify_hcl_relations,
)
from tbhl.cli_verify import _ascent_compatible_catalog, clifford_audit_cases
from tbhl import hecke_clifford
from tbhl.hecke_engine import (
    NoCompositionSeries,
    OperatorFamily,
    characteristic_by_composition_series,
    family_from_action,
    family_from_elements,
    verify_relations,
)
from tbhl.domino_tableaux import partitions_of, sdt_operator_family
from tbhl.qsym_typeb import QSymElement, peak_data
from tbhl.shifted_domino import conjugate_family, two_quotient
from tbhl.signed_permutations import (
    all_elements,
    ascent_compatibility_report,
    parse_index_set,
    subsets,
    weak_order_interval,
)

ONE = GaussianInteger.integer(1)
MINUS_ONE = GaussianInteger.integer(-1)
SQRT = GaussianInteger.sqrt_minus_one()


def all_index_sets(n):
    for size in range(n + 1):
        yield from (frozenset(s) for s in itertools.combinations(range(n), size))


def fb(subset, n):
    return QSymElement.fundamental(subset, n)


def with_pi(module, i, matrix):
    """The operator family of ``module`` with its ``pi_i`` replaced by
    ``matrix``; an induced module is rebuilt as a plain family."""
    matrices = list(module.matrices)
    matrices[i] = matrix
    return OperatorFamily(module.labels, matrices)


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

    def test_every_short_word_against_reference(self):
        # the 5,461 words of length <= 6 over 1..4, 0.06-0.07 s on 2 vCPUs
        words = 0
        for length in range(7):
            for word in itertools.product(range(1, 5), repeat=length):
                sign, letters = self._reference(word)
                assert clifford_normalize(word) == (sign, tuple(letters)), word
                words += 1
        assert words == 5461

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


def induced_oracle(base):
    """The induced module label by label: ``pi_i c_D y`` expands by
    ``pi_commute`` as ``sum_E c_E (gamma_E y + delta_E pi_i y)``, with
    ``pi_i y`` read off column ``y`` of the base operator, and every term is
    added into the entry of its ``(E, target)`` label."""
    basis = subsets(range(1, base.rank + 1))
    labels = tuple((subset, y) for y in base.labels for subset in basis)
    at = {label: k for k, label in enumerate(labels)}
    matrices = []
    for i, matrix in enumerate(base.matrices):
        entries = {}
        for k, y in enumerate(base.labels):
            image = [(base.labels[r], v) for (r, c), v in matrix.entries.items() if c == k]
            for subset in basis:
                col = at[(subset, y)]
                for e, const, with_pi in pi_commute(i, subset):
                    terms = [(y, const)] + [(target, with_pi * v) for target, v in image]
                    for target, value in terms:
                        key = (at[(e, target)], col)
                        entries[key] = entries.get(key, GaussianInteger.integer(0)) + value
        # the checked constructor drops the entries that sum to zero
        matrices.append(SparseMatrix(len(labels), len(labels), entries))
    return labels, tuple(matrices)


def conjugate_shapes(max_total):
    for total in range(2, max_total + 1, 2):
        for shape in partitions_of(total):
            if two_quotient(shape).valid:
                yield shape


def random_rank3_ascent_compatible(seed, count):
    """Seeded random weak-order intervals of B3, which are ascent-compatible."""
    rng = random.Random(seed)
    group = all_elements(3)
    found = []
    while len(found) < count:
        members = weak_order_interval(rng.choice(group), rng.choice(group))
        if len(members) > 1:
            assert ascent_compatibility_report(members).compatible
            found.append(members)
    return found


def stream_entries(module):
    """The block stream of a module as a dict, each position given once."""
    stream = {}
    for i, row, col, pairs in module.blocks():
        for (s, t), value in pairs:
            assert (i, row + s, col + t) not in stream
            stream[i, row + s, col + t] = value
    return stream


class TestInducedBlockForm:
    """``induce_labeled_basis`` equals the label-by-label expansion."""

    def assert_matches_oracle(self, base):
        module = induce_labeled_basis(base)
        labels, matrices = induced_oracle(base)
        assert module.labels == labels
        assert module.matrices == matrices
        for matrix in module.matrices:
            assert all(not value.is_zero() for value in matrix.entries.values())

    def test_one_dimensional_modules(self):
        for n in range(1, 4):
            for index_set in all_index_sets(n):
                base = family_from_action((index_set,), lambda y: y, lambda y, i: None, n)
                self.assert_matches_oracle(base)
                assert build_MI(index_set, n).matrices == induced_oracle(base)[1]

    def test_tableau_module(self):
        self.assert_matches_oracle(sdt_operator_family((2, 2)))

    @pytest.mark.parametrize("shape", list(conjugate_shapes(8)), ids=str)
    def test_conjugate_families(self, shape):
        self.assert_matches_oracle(conjugate_family(shape))

    def test_random_rank_three_ascent_compatible_families(self):
        for members in random_rank3_ascent_compatible(seed=16, count=6):
            self.assert_matches_oracle(family_from_elements(members))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stream_matches_oracle_on_ascent_compatible_families(self, n):
        # entry by entry, without collecting the induced matrices
        for fam in _ascent_compatible_catalog(n):
            base = family_from_elements(fam.members)
            labels, matrices = induced_oracle(base)
            module = induce_labeled_basis(base)
            assert module.labels == labels
            assert stream_entries(module) == {
                (i, row, col): value
                for i, matrix in enumerate(matrices)
                for (row, col), value in matrix.entries.items()
            }, fam.name

    def test_cancelling_entry_is_absent(self):
        # pi_1 c_1 = -c_1 + c_2 + c_2 pi_1 and pi_1 acts on the base by -1, so
        # Gamma_1 and M_1 Delta_1 cancel at row c_2, column c_1
        module = build_MI({1}, 2)
        tables = clifford_tables(2)
        row, col = tables.index[(2,)], tables.index[(1,)]
        assert tables.gamma[1].get(row, col) == ONE == tables.delta[1].get(row, col)
        assert module.base.matrices[1].get(0, 0) == MINUS_ONE
        assert (1, row, col) not in stream_entries(module)
        assert module.matrices[1].get(row, col).is_zero()
        assert module.matrices == induced_oracle(module.base)[1]

    def test_clifford_basis_layout(self):
        tables = clifford_tables(3)
        assert tables.basis == subsets(range(1, 4))
        assert [tables.index[subset] for subset in tables.basis] == list(range(8))
        assert clifford_tables(3) is tables
        base = sdt_operator_family((2, 2))
        module = induce_labeled_basis(base)
        for k, (subset, y) in enumerate(module.labels):
            # (D, y_j) sits at j * 2**n + index(D)
            expected = (base.labels[k // 4], clifford_tables(2).basis[k % 4])
            assert (y, subset) == expected


class TestBuildMI:
    def test_rank_one_empty_set_kills_everything(self):
        module = build_MI(frozenset(), 1)
        assert module.matrices[0] == SparseMatrix.zero(2, 2)
        assert [pair[0] for pair in module.labels] == [(), (1,)]
        assert module.rank == 1
        assert {label for _, label in module.labels} == {frozenset()}

    def test_rank_one_full_set_pinned_action(self):
        module = build_MI({0}, 1)
        index = clifford_tables(1).index
        plain, barred = index[()], index[(1,)]
        assert module.matrices[0].entries == {
            (plain, plain): MINUS_ONE,
            (plain, barred): SQRT * MINUS_ONE,
        }

    def test_each_call_builds_a_new_module(self):
        # no cache keeps a module: equal index sets give equal, distinct ones
        first, second = build_MI({0, 2}, 3), build_MI([2, 0], 3)
        assert first == second and first is not second

    def test_dimension_is_two_power_times_labels(self):
        for n in range(1, 4):
            for index_set in all_index_sets(n):
                module = build_MI(index_set, n)
                assert len(module.labels) == 1 << n

    def test_rejects_out_of_range_generator_index(self):
        with pytest.raises(ValueError, match="generator index 2 out of range"):
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
        parity = SparseMatrix(4, 4, {
            (d, d): -1 if len(subset) % 2 else 1
            for d, subset in enumerate(clifford_tables(2).basis)
        })
        assert pi0 @ c1 != pi0.scale(SQRT)
        assert pi0 @ c1 == (parity @ pi0).scale(SQRT)

    def test_fault_injection_scalar_drift_is_reported(self):
        # Replace the sqrt(-1) elimination coefficient with 1: the casewise
        # relations still hold but the mixed zero-index relation breaks.
        module = build_MI({0}, 1)
        index = clifford_tables(1).index
        plain, barred = index[()], index[(1,)]
        corrupted = dict(module.matrices[0].entries)
        corrupted[(plain, barred)] = MINUS_ONE
        module = with_pi(module, 0, SparseMatrix(2, 2, corrupted))
        report = verify_hcl_relations(module)
        assert report == {"failed": {"kind": "mixed-zero", "j": 1}}

    def test_fault_injection_broken_braid_is_reported(self):
        module = build_MI({0, 1}, 2)
        index = clifford_tables(2).index
        source, target = index[(1, 2)], index[(2,)]
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
        index = clifford_tables(2).index
        plain, barred = index[()], index[(1,)]
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
        index = clifford_tables(3).index
        row, col = index[(1,)], index[(2,)]
        corrupted = dict(module.matrices[1].entries)
        corrupted[(row, col)] = corrupted[(row, col)] * MINUS_ONE
        size = len(module.labels)
        module = with_pi(module, 1, SparseMatrix(size, size, corrupted))
        report = verify_hcl_relations(module)
        assert report == {"failed": {"kind": "mixed-commute", "i": 1, "j": 3}}

    def test_mixed_swap_fault_is_reported(self):
        module = build_MI(frozenset(), 2)
        index = clifford_tables(2).index
        row, col = index[(2,)], index[(1,)]
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

    def test_k_set_matches_module_diagonal(self):
        for n in range(1, 4):
            for index_set in all_index_sets(n):
                module = build_MI(index_set, n)
                label = frozenset(index_set)
                for subset in subsets(range(1, n + 1)):
                    col = module.labels.index((subset, label))
                    acting = k_set(index_set, subset, n)
                    for i in range(n):
                        diag = module.matrices[i].get(col, col)
                        expected = MINUS_ONE if i in acting else GaussianInteger.integer(0)
                        assert diag == expected

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
                for i in range(n):
                    for row, col in module.matrices[i].entries:
                        if row == col:
                            continue
                        subset = module.labels[col][0]
                        allowed = cover_lower_targets(i, index_set, subset, n)
                        assert module.labels[row][0] in allowed


class TestRestrictionCharacteristic:
    def test_rank_one_pinned(self):
        direct = restriction_characteristic(frozenset(), 1)
        assert direct == fb(set(), 1).scale(2)
        assert restriction_characteristic({0}, 1) == fb(set(), 1) + fb({0}, 1)

    def test_rank_two_pinned(self):
        direct = restriction_characteristic({0}, 2)
        assert direct == (fb({0}, 2) + fb({1}, 2)).scale(2)

    def test_penultimate_form_always_matches(self):
        for n in range(1, 4):
            for index_set in all_index_sets(n):
                direct = restriction_characteristic(index_set, n)
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
        direct = restriction_characteristic(frozenset(), 1)
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
                index_set: restriction_characteristic(index_set, n)
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
        assert {
            row: value
            for (row, other), value in result.matrix.entries.items()
            if other == col
        } == {position[(1, 2)]: ONE, col: MINUS_ONE}

    def test_whole_matrices_up_to_rank_four(self):
        # right multiplication by the even c_k c_{k+1} is left multiplication
        # by it, signed by (-1)^|D ∩ {k, k+1}|; the intertwiner subtracts 1
        cases = 0
        for n in range(1, 5):
            basis, _, _, _, c, _ = clifford_tables(n)
            identity = SparseMatrix.identity(len(basis))
            for index_set in all_index_sets(n):
                for k in range(1, n):
                    if k in index_set or not iso_predicate(
                        index_set, index_set | {k}, n
                    ):
                        continue
                    sign = SparseMatrix(len(basis), len(basis), {
                        (d, d): (-1) ** len({k, k + 1} & set(subset))
                        for d, subset in enumerate(basis)
                    })
                    expected = sign @ c[k - 1] @ c[k] + identity.scale(MINUS_ONE)
                    assert build_intertwiner(index_set, k, n).matrix == expected
                    cases += 1
        assert cases == 12

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

    def test_restriction_collects_no_matrices(self, monkeypatch, cleared_caches):
        # the series reads the entry stream; only the relation checks collect
        def unexpected(module):
            raise AssertionError("an induced module collected its matrices")

        monkeypatch.setattr(InducedModule, "matrices", property(unexpected))
        for n in range(1, 4):
            for index_set in all_index_sets(n):
                assert restriction_characteristic(index_set, n) == res_MI_formula(
                    index_set, n, "proof_penultimate"
                )
        bases = (sdt_operator_family((4, 2, 2)), family_from_elements(all_elements(2)))
        for base in bases:
            direct, expected = induce_and_restrict(base)
            assert direct == expected
        with pytest.raises(AssertionError, match="collected"):
            verify_hcl_relations(build_MI({0}, 2))

    def test_restriction_builds_no_labels(self, monkeypatch, cleared_caches):
        # the series reads the block stream and a size; neither the labels
        # nor the matrices of an induced module are built
        built = []

        def recorded(base):
            built.append(induce_labeled_basis(base))
            return built[-1]

        monkeypatch.setattr(hecke_clifford, "induce_labeled_basis", recorded)
        for n in range(1, 4):
            for index_set in all_index_sets(n):
                restriction_characteristic(index_set, n)
        induce_and_restrict(sdt_operator_family((4, 2, 2)))
        induce_and_restrict(family_from_elements(all_elements(2)))
        assert len(built) == 14 + 2
        for module in built:
            assert "labels" not in vars(module) and "matrices" not in vars(module)

    def test_bad_diagonal_names_the_induced_label(self):
        base = OperatorFamily(("a",), (SparseMatrix(1, 1, {(0, 0): 1}),))
        module = induce_labeled_basis(base)
        with pytest.raises(NoCompositionSeries) as raised:
            characteristic_by_composition_series(module)
        assert str(raised.value) == (
            "diagonal entry of operator 0 at ((), 'a') is neither 0 nor -1"
        )

    def test_reads_no_clifford_generators(self, monkeypatch):
        def unexpected(module):
            raise AssertionError("induce_and_restrict read the c_j")

        monkeypatch.setattr(hecke_clifford, "clifford_matrices", unexpected)
        for base in (sdt_operator_family((2, 2)), build_MI({0}, 2)):
            induce_and_restrict(base)
