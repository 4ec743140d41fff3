"""Clifford-algebra extension of the casewise operators and induced modules.

The algebra adds anticommuting generators ``c_1..c_n`` with ``c_j^2 = -1`` to
the casewise generators ``pi_0..pi_{n-1}``, with mixed relations

* ``pi_i c_j = c_j pi_i`` for ``i >= 1`` when ``j`` is not ``i`` or ``i+1``;
* ``pi_i c_{i+1} = c_i pi_i`` for ``i >= 1``;
* ``(pi_i + 1) c_i = c_{i+1} (pi_i + 1)`` for ``i >= 1``;
* ``pi_0 c_1 = sqrt(-1) pi_0``.

The index-0 generator has no consistent two-sided rule against ``c_j`` for
``j >= 2`` (adding one collapses the algebra: associativity against the
``c_1`` rule forces ``pi_0 = 0``).  Normal ordering therefore needs a
convention, and exactly one choice keeps the casewise quadratic and braid
identities true on the induced modules: anticommute ``c_1`` rightward past
the other letters of the monomial, absorb it with the ``sqrt(-1)`` rule,
and commute the remaining letters unchanged.  Concretely,

    ``pi_0 c_D = sqrt(-1) * (-1)^(|D| - 1) * c_{D - {1}} pi_0``  (``1 in D``)
    ``pi_0 c_D = c_D pi_0``                                      (``1 not in D``)

With this convention the plain identity ``pi_0 c_1 = sqrt(-1) pi_0`` holds
only up to the Clifford parity of the column; the exact operator identity on
every induced module is ``pi_0 c_1 = sqrt(-1) * parity * pi_0`` where
``parity`` negates basis vectors with an odd Clifford index set.  The
relation suite checks that graded form.

Words in the ``c`` generators normalize to a sign times ``c_D`` with the
index set ``D`` increasing.  Inducing an operator family adjoins a free
Clifford factor: the induced module is a plain operator family on all pairs
``(D, y)``, and its ``pi`` action is computed by commuting ``pi_i`` across
``c_D`` with the rules above and then applying the base family's ``pi_i`` to
``y``.  The ``c_j`` act on ``D`` alone, so :func:`clifford_matrices` reads
them off the labels; only the relation suite and the intertwiner check
build them.

The one-dimensional cyclic case (a single basis label whose descent label is
a chosen subset) is also transcribed from the closed ribbon case table
(``ribbon_table_matrix``).  The two constructions are independent; the audit
(``clifford.diagonal``) compares them for every index set it visits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .exact_algebra import GaussianInteger, SparseMatrix
from .hecke_engine import (
    CompositionSeries,
    OperatorFamily,
    characteristic_by_composition_series,
    family_from_action,
    verify_relations,
)
from .qsym_typeb import (
    QSymElement,
    peak_characteristic,
    peak_data,
    symmetric_difference_condition,
)
from .signed_permutations import subsets

_ZERO = GaussianInteger.integer(0)
_ONE = GaussianInteger.integer(1)
_MINUS_ONE = GaussianInteger.integer(-1)
_SQRT = GaussianInteger.sqrt_minus_one()


# ---------------------------------------------------------------------------
# Clifford normal forms


def clifford_normalize(
    word: Iterable[int],
) -> tuple[GaussianInteger, tuple[int, ...]]:
    """Sort a product of ``c`` generators into ``(sign, D)`` with the word
    equal to ``sign * c_D``, tracking signs and squares.

    >>> sign, subset = clifford_normalize((2, 1))
    >>> sign.re, subset
    (-1, (1, 2))
    >>> clifford_normalize((1, 1))
    (GaussianInteger(re=-1, im=0), ())
    >>> clifford_normalize((3, 1, 3))[0].re
    1
    """
    letters: list[int] = []
    sign = _ONE
    for index in word:
        if index < 1:
            raise ValueError("generator indices start at 1")
        position = len(letters)
        while position > 0 and letters[position - 1] > index:
            position -= 1
        swaps = len(letters) - position
        if swaps % 2:
            sign = sign * _MINUS_ONE
        if position > 0 and letters[position - 1] == index:
            # adjacent equal letters square to -1
            del letters[position - 1]
            sign = sign * _MINUS_ONE
        else:
            letters.insert(position, index)
    return sign, tuple(letters)


# ---------------------------------------------------------------------------
# commuting pi across a Clifford monomial


def _single_rules(i: int, j: int):
    """Terms of ``pi_i c_j`` for ``i >= 1`` as (word, const coeff, pi coeff)."""
    if j == i + 1:
        return (((i,), _ZERO, _ONE),)
    if j == i:
        return (
            ((i,), _MINUS_ONE, _ZERO),
            ((i + 1,), _ONE, _ZERO),
            ((i + 1,), _ZERO, _ONE),
        )
    return (((j,), _ZERO, _ONE),)


@lru_cache(maxsize=None)
def pi_commute(
    i: int, word: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], GaussianInteger, GaussianInteger], ...]:
    """Normal-ordered expansion ``pi_i c_D = sum c_E (gamma_E + delta_E pi_i)``
    for ``D`` given as a strictly increasing tuple of generator indices.

    Returns ``(E, gamma_E, delta_E)`` triples sorted by ``E``.  For ``i = 0``
    the expansion follows the graded convention from the module docstring:
    the letter 1 is anticommuted to the right end and absorbed, so its
    coefficient carries the parity of the rest of the monomial.  Cached, and
    validated once per distinct key, since every induced module of rank
    ``n`` needs the same ``n * 2**n`` expansions.

    >>> [(e, (g.re, d.re)) for e, g, d in pi_commute(1, (2,))]
    [((1,), (0, 1))]
    >>> [(e, d.im) for e, g, d in pi_commute(0, (1,))]
    [((), 1)]
    >>> [(e, d.im) for e, g, d in pi_commute(0, (1, 2))]
    [((2,), -1)]
    """
    if i < 0 or (word and word[0] < 1):
        raise ValueError("pi indices start at 0 and generator indices at 1")
    if any(a >= b for a, b in zip(word, word[1:])):
        raise ValueError(f"generator indices {word} must strictly increase")
    if i == 0:
        if 1 not in word:
            return ((word, _ZERO, _ONE),)
        rest = tuple(x for x in word if x != 1)
        coefficient = _SQRT if len(rest) % 2 == 0 else _SQRT * _MINUS_ONE
        return ((rest, _ZERO, coefficient),)

    def push(remaining: tuple[int, ...]):
        # expansion of pi_i * c_remaining
        if not remaining:
            return [((), _ZERO, _ONE)]
        first, rest = remaining[0], remaining[1:]
        out = []
        for prefix, const, with_pi in _single_rules(i, first):
            if not const.is_zero():
                out.append((prefix + rest, const, _ZERO))
            if not with_pi.is_zero():
                for tail, tail_const, tail_pi in push(rest):
                    out.append(
                        (
                            prefix + tail,
                            with_pi * tail_const,
                            with_pi * tail_pi,
                        )
                    )
        return out

    combined: dict[tuple[int, ...], list[GaussianInteger]] = {}
    for raw_word, const, with_pi in push(word):
        sign, subset = clifford_normalize(raw_word)
        slot = combined.setdefault(subset, [_ZERO, _ZERO])
        slot[0] = slot[0] + sign * const
        slot[1] = slot[1] + sign * with_pi
    return tuple(
        (subset_key, consts[0], consts[1])
        for subset_key, consts in sorted(combined.items())
        if not (consts[0].is_zero() and consts[1].is_zero())
    )


# ---------------------------------------------------------------------------
# induced modules


def induce_labeled_basis(base: OperatorFamily) -> OperatorFamily:
    """Adjoin a free Clifford factor to an operator family.

    The labels are the pairs ``(D, y)`` of a Clifford index set and a label
    of ``base``; the matrices are the ``pi_i``.  ``pi_i c_D y`` expands by
    :func:`pi_commute` as ``sum_E c_E (gamma_E y + delta_E pi_i y)``, with
    ``pi_i y`` read off column ``y`` of ``base.matrices[i]``.  The ``c_j``
    act on the labels alone (:func:`clifford_matrices`).  ``(D, y)`` sits at
    ``k * 2**n + index(D)`` for ``y`` the ``k``-th base label.
    """
    n = base.rank
    all_subsets = subsets(range(1, n + 1))
    width = len(all_subsets)
    index = {subset: d for d, subset in enumerate(all_subsets)}
    labels = tuple(
        (subset, label) for label in base.labels for subset in all_subsets
    )
    size = len(labels)
    pi_matrices = []
    for i, base_matrix in enumerate(base.matrices):
        expansions = [
            [(index[e], const, with_pi) for e, const, with_pi in pi_commute(i, d)]
            for d in all_subsets
        ]
        entries: dict[tuple[int, int], GaussianInteger] = {}
        for k in range(len(base.labels)):
            image = base_matrix.column(k).items()
            for d, expansion in enumerate(expansions):
                col = k * width + d
                for e, const, with_pi in expansion:
                    terms = [(k, const)]
                    terms += [(row, with_pi * v) for row, v in image]
                    for target, value in terms:
                        key = (target * width + e, col)
                        entries[key] = entries.get(key, _ZERO) + value
        # the constructor drops the entries that sum to zero
        pi_matrices.append(SparseMatrix(size, size, entries))
    return OperatorFamily(labels, pi_matrices)


def clifford_matrices(module: OperatorFamily) -> dict[int, SparseMatrix]:
    """The Clifford generators ``c_1..c_rank`` of an induced module.

    They act on the Clifford index alone: ``c_j (D, y) = sign * (E, y)`` where
    ``c_j c_D = sign * c_E`` (:func:`clifford_normalize`).
    """
    size = len(module.labels)
    generators = {}
    for j in range(1, module.rank + 1):
        entries = {}
        for col, (subset, label) in enumerate(module.labels):
            sign, product = clifford_normalize((j, *subset))
            entries[(module.position[(product, label)], col)] = sign
        # one unit per column, at a label of the module
        generators[j] = SparseMatrix._trusted(size, size, entries)
    return generators


def _ribbon_table_column(
    i: int, index_set: frozenset[int], subset: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], GaussianInteger], ...]:
    """Image of the basis element ``c_D`` under ``pi_i`` per the case table."""
    barred = set(subset)

    def swap_to(new_barred) -> tuple[int, ...]:
        return tuple(sorted(new_barred))

    if i == 0:
        if 0 not in index_set:
            return ()
        if 1 in barred:
            # the displayed -sqrt(-1) coefficient is the singleton case of
            # the graded rule: it flips with the parity of the other bars
            coefficient = _MINUS_ONE * _SQRT if len(barred) % 2 else _SQRT
            return ((swap_to(barred - {1}), coefficient),)
        return ((subset, _MINUS_ONE),)
    above, below = i in barred, (i + 1) in barred
    if i not in index_set:
        if above and not below:
            return (
                (subset, _MINUS_ONE),
                (swap_to(barred - {i} | {i + 1}), _ONE),
            )
        if above and below:
            return (
                (subset, _MINUS_ONE),
                (swap_to(barred - {i, i + 1}), _MINUS_ONE),
            )
        return ()
    if not above and below:
        return ((swap_to(barred - {i + 1} | {i}), _MINUS_ONE),)
    if above and below:
        return ((swap_to(barred - {i, i + 1}), _MINUS_ONE),)
    return ((subset, _MINUS_ONE),)


def _checked_index_set(index_set, n: int) -> frozenset[int]:
    index_set = frozenset(index_set)
    if not index_set <= set(range(n)):
        raise ValueError(f"subset {sorted(index_set)} out of range for n={n}")
    return index_set


def ribbon_table_matrix(i: int, index_set, n: int) -> SparseMatrix:
    """Matrix of ``pi_i`` on ``build_MI(index_set, n)`` per the case table.

    Rows and columns follow the module's basis order.

    >>> table = ribbon_table_matrix(0, {0}, 1)
    >>> {row: str(value) for row, value in table.column(1).items()}
    {0: '-1*i'}
    """
    index_set = _checked_index_set(index_set, n)
    if not 0 <= i < n:
        raise ValueError(f"generator index {i} out of range for n={n}")
    all_subsets = subsets(range(1, n + 1))
    position = {subset: k for k, subset in enumerate(all_subsets)}
    entries = {
        (position[target], position[subset]): coefficient
        for subset in all_subsets
        for target, coefficient in _ribbon_table_column(i, index_set, subset)
    }
    return SparseMatrix(len(all_subsets), len(all_subsets), entries)


def build_MI(index_set, n: int) -> OperatorFamily:
    """Induced module of the one-dimensional module selected by a subset."""
    index_set = _checked_index_set(index_set, n)
    base = family_from_action((index_set,), lambda y: y, lambda y, i: None, n)
    return induce_labeled_basis(base)


# ---------------------------------------------------------------------------
# relation suite


def verify_hcl_relations(module: OperatorFamily) -> dict:
    """Check casewise, Clifford, and mixed relations as matrix identities.

    The casewise quadratic and braid relations are those of
    :func:`verify_relations`, whose failure is returned as is.
    """
    casewise = verify_relations(module)
    if casewise != {"relations": "ok"}:
        return casewise
    n = module.rank
    identity = SparseMatrix.identity(len(module.labels))
    pi = module.matrices
    cg = clifford_matrices(module)
    for j in range(1, n + 1):
        if cg[j] @ cg[j] != identity.scale(_MINUS_ONE):
            return {"failed": {"kind": "clifford-square", "j": j}}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if cg[a] @ cg[b] != (cg[b] @ cg[a]).scale(_MINUS_ONE):
                return {"failed": {"kind": "clifford-anticommute", "i": a, "j": b}}
    for i in range(1, n):
        for j in range(1, n + 1):
            if j in (i, i + 1):
                continue
            if pi[i] @ cg[j] != cg[j] @ pi[i]:
                return {"failed": {"kind": "mixed-commute", "i": i, "j": j}}
        if pi[i] @ cg[i + 1] != cg[i] @ pi[i]:
            return {"failed": {"kind": "mixed-swap", "i": i}}
        if (pi[i] + identity) @ cg[i] != cg[i + 1] @ (pi[i] + identity):
            return {"failed": {"kind": "mixed-shift", "i": i}}
    if n >= 1:
        parity = clifford_parity_matrix(module)
        if pi[0] @ cg[1] != (parity @ pi[0]).scale(_SQRT):
            return {"failed": {"kind": "mixed-zero", "j": 1}}
    return {"relations": "ok"}


def clifford_parity_matrix(module: OperatorFamily) -> SparseMatrix:
    """Diagonal sign matrix negating columns with odd Clifford index sets."""
    entries = {}
    for idx, (subset, _label) in enumerate(module.labels):
        entries[(idx, idx)] = _MINUS_ONE if len(subset) % 2 else _ONE
    return SparseMatrix(len(module.labels), len(module.labels), entries)


# ---------------------------------------------------------------------------
# diagonal eigenvalues and descent-set factors


def k_factor(i: int, index_set, subset) -> int:
    """Diagonal eigenvalue of ``pi_i`` at the ``c_D`` column: ``-1`` or ``0``."""
    index_set = frozenset(index_set)
    barred = frozenset(subset)
    if i not in index_set and i in barred:
        return -1
    if i in index_set and (i + 1) not in barred:
        return -1
    return 0


def k_set(index_set, subset, n: int) -> frozenset[int]:
    """Indices acting by ``-1`` on the ``c_D`` column, in closed form.

    >>> sorted(k_set({0, 3, 4, 6}, {1, 2, 5}, 7))
    [1, 2, 3, 5, 6]
    """
    index_set = frozenset(index_set)
    barred = frozenset(subset)
    shifted_down = {d - 1 for d in barred}
    return frozenset(
        ((barred - index_set) | (index_set - shifted_down)) & set(range(n))
    )


def cover_lower_targets(
    i: int, index_set, subset
) -> frozenset[tuple[int, ...]]:
    """Strictly smaller neighbors of the ``c_D`` column under index ``i``.

    These are the only rows where ``pi_i`` may have off-diagonal support.
    """
    index_set = frozenset(index_set)
    barred = frozenset(subset)
    out = []
    if i == 0:
        if 0 in index_set and 1 in barred:
            out.append(barred - {1})
    else:
        above, below = i in barred, (i + 1) in barred
        if above and below:
            out.append(barred - {i, i + 1})
        if i not in index_set and above and not below:
            out.append(barred - {i} | {i + 1})
        if i in index_set and below and not above:
            out.append(barred - {i + 1} | {i})
    return frozenset(tuple(sorted(found)) for found in out)


# ---------------------------------------------------------------------------
# restriction characteristics and the convention audit


def restriction_characteristic(
    module: OperatorFamily,
) -> tuple[QSymElement, CompositionSeries]:
    """Composition-series characteristic of the casewise-operator restriction."""
    return characteristic_by_composition_series(module)


RES_FORMS = ("proof_penultimate", "theorem_literal", "theorem_complemented")


def res_MI_formula(index_set, n: int, form: str) -> QSymElement:
    """Candidate closed forms for the restriction characteristic.

    ``proof_penultimate`` scales by two to the number of valleys of the
    complement and sums fundamentals over index sets whose shifted symmetric
    difference contains the complement's peaks, excluding 0 whenever the
    selecting subset omits 0.  The ``theorem_*`` forms evaluate the two
    readings of the peak-function characteristic of the complement.
    """
    index_set = frozenset(index_set)
    complement = frozenset(range(n)) - index_set
    if form == "theorem_literal":
        return peak_characteristic(complement, n, "literal")
    if form == "theorem_complemented":
        return peak_characteristic(complement, n, "complemented")
    if form != "proof_penultimate":
        raise ValueError(f"unknown form {form!r}")
    data = peak_data(complement, n)
    coefficient = 1 << len(data.valley)
    total: dict[frozenset[int], int] = {}
    for candidate in map(frozenset, subsets(range(n))):
        if 0 not in index_set and 0 in candidate:
            continue
        if not symmetric_difference_condition(data.peak, candidate):
            continue
        total[candidate] = coefficient
    return QSymElement.make(n, total)


# ---------------------------------------------------------------------------
# isomorphism classification, intertwiners, centralizers


def iso_predicate(first, second, n: int) -> bool:
    """Same complement peak sets and agreement at index 0.

    >>> iso_predicate({1}, {1, 2}, 3)
    False
    >>> iso_predicate(set(), {1}, 2)
    True
    """
    first = frozenset(first)
    second = frozenset(second)
    everything = frozenset(range(n))
    if 0 in first.symmetric_difference(second):
        return False
    return (
        peak_data(everything - first, n).peak
        == peak_data(everything - second, n).peak
    )


@dataclass(frozen=True)
class IntertwinerResult:
    matrix: SparseMatrix
    commutes: bool
    invertible: bool


def build_intertwiner(index_set, k: int, n: int) -> IntertwinerResult:
    """Map between modules whose subsets differ by one admissible index.

    Sends ``c_D`` (over the smaller subset) to ``c_D (c_k c_{k+1} - 1)``
    (over the larger one), then verifies commutation with every generator
    and invertibility.
    """
    index_set = frozenset(index_set)
    if not 1 <= k <= n - 1:
        raise ValueError("the new index must lie between 1 and n-1")
    if k in index_set:
        raise ValueError("the new index is already present")
    enlarged = index_set | {k}
    if not iso_predicate(index_set, enlarged, n):
        raise ValueError(
            "adding the index changes the complement peak data; "
            "no intertwiner of this shape exists"
        )
    smaller = build_MI(index_set, n)
    larger = build_MI(enlarged, n)
    all_subsets = subsets(range(1, n + 1))
    position = {subset: idx for idx, subset in enumerate(all_subsets)}
    size = len(all_subsets)
    entries: dict[tuple[int, int], GaussianInteger] = {}
    for subset in all_subsets:
        col = position[subset]
        sign, product = clifford_normalize((*subset, k, k + 1))
        entries[(position[product], col)] = sign
        entries[(col, col)] = entries.get((col, col), _ZERO) + _MINUS_ONE
    matrix = SparseMatrix(size, size, entries)
    smaller_c, larger_c = clifford_matrices(smaller), clifford_matrices(larger)
    commutes = all(
        matrix @ smaller.matrices[i] == larger.matrices[i] @ matrix
        for i in range(n)
    ) and all(
        matrix @ smaller_c[j] == larger_c[j] @ matrix for j in range(1, n + 1)
    )
    return IntertwinerResult(matrix, commutes, matrix.is_invertible())


def centralizer_valleys(index_set, n: int) -> frozenset[int]:
    """Valley set of the complement: the expected endomorphism indices."""
    complement = frozenset(range(n)) - frozenset(index_set)
    return peak_data(complement, n).valley


def centralizer_check(index_set, n: int) -> tuple[tuple[int, ...], ...]:
    """Subsets whose right Clifford multiplication is an endomorphism.

    Right multiplication by ``c_D`` is determined by where it sends the
    cyclic generator, so it intertwines the action exactly when the basis
    vector ``c_D e`` transforms under every ``pi_i`` the same way the
    generator does: scaled by -1 when ``i`` is selected, killed otherwise.
    The check inspects the ``c_D`` column of every ``pi_i`` matrix.
    """
    index_set = frozenset(index_set)
    module = build_MI(index_set, n)
    found = []
    for subset in subsets(range(1, n + 1)):
        col = module.position[(subset, index_set)]
        ok = True
        for i in range(n):
            column = module.matrices[i].column(col)
            expected = {}
            if i in index_set:
                expected = {col: _MINUS_ONE}
            if column != expected:
                ok = False
                break
        if ok:
            found.append(subset)
    return tuple(found)


# ---------------------------------------------------------------------------
# general induction


def induce_and_restrict(base: OperatorFamily) -> tuple[QSymElement, QSymElement]:
    """Induce an operator family and restrict it to the casewise operators.

    Returns the direct characteristic and the ``proof_penultimate`` closed
    form summed over the labels: once per distinct descent label (read off
    the diagonals of the base operators), weighted by its label count.
    """
    module = induce_labeled_basis(base)
    direct, _ = restriction_characteristic(module)
    n = base.rank
    descent_labels = Counter(
        frozenset(
            i for i, matrix in enumerate(base.matrices)
            if matrix.get(k, k) == _MINUS_ONE
        )
        for k in range(len(base.labels))
    )
    expected = sum(
        (res_MI_formula(label, n, "proof_penultimate").scale(count)
         for label, count in descent_labels.items()),
        QSymElement.zero(n),
    )
    return direct, expected
