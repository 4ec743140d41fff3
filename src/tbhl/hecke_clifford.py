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
index set ``D`` increasing.  Inducing an operator family ``M`` of dimension
``m`` adjoins a free Clifford factor: ``(D, y)`` sits at ``k * 2**n +
index(D)`` for ``y`` the ``k``-th label of ``M``.  With ``pi_i c_D = sum_E
c_E (gamma_E + delta_E pi_i)`` read as tables ``Gamma_i`` and ``Delta_i`` on
that basis, the induced ``pi_i`` is ``identity(m).kron(Gamma_i) +
M_i.kron(Delta_i)`` and ``c_j`` is ``identity(m).kron(C_j)``.  The basis and
the tables are cached per rank (:func:`clifford_tables`) and each module's
characteristic per ``(I, n)`` (:func:`restriction_characteristic`); no
module is kept, :func:`build_MI` builds a new one on every call.

The one-dimensional cyclic case (a single basis label whose descent label is
a chosen subset) is also transcribed from the closed ribbon case table
(``ribbon_table_matrix``).  The two constructions are independent; the audit
(``clifford.diagonal``) compares them for every index set it visits.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .exact_algebra import GaussianInteger, SparseMatrix, _collect
from .hecke_engine import (
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
from .signed_permutations import (
    _cached_on, _checked_generator, checked_index_set, subsets
)

_ZERO = GaussianInteger.integer(0)
_ONE = GaussianInteger.integer(1)
_MINUS_ONE = GaussianInteger.integer(-1)
_SQRT = GaussianInteger.sqrt_minus_one()


# ---------------------------------------------------------------------------
# Clifford normal forms


def clifford_normalize(
    word: Iterable[int],
) -> tuple[GaussianInteger, tuple[int, ...]]:
    """Sort a product of ``c`` generators into ``(sign, D)``, the word equal
    to ``sign * c_D``: each letter passes the larger letters placed (a bit set)
    and squares against an equal one, one flip per placed letter not below it.

    >>> sign, subset = clifford_normalize((2, 1))
    >>> sign.re, subset
    (-1, (1, 2))
    >>> clifford_normalize((1, 1))
    (GaussianInteger(re=-1, im=0), ())
    >>> clifford_normalize((3, 1, 3))[0].re
    1
    """
    placed = flips = 0
    for index in word:
        if index < 1:
            raise ValueError("generator indices start at 1")
        flips += (placed >> index).bit_count()
        placed ^= 1 << index
    letters = []
    while placed:
        letters.append((placed & -placed).bit_length() - 1)
        placed &= placed - 1
    return (_MINUS_ONE if flips % 2 else _ONE), tuple(letters)


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


def pi_commute(
    i: int, word: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], GaussianInteger, GaussianInteger], ...]:
    """Normal-ordered expansion ``pi_i c_D = sum c_E (gamma_E + delta_E pi_i)``
    for ``D`` given as a strictly increasing tuple of generator indices.

    Returns ``(E, gamma_E, delta_E)`` triples sorted by ``E``.  For ``i = 0``
    the expansion follows the graded convention from the module docstring:
    the letter 1 is anticommuted to the right end and absorbed, with the
    sign :func:`clifford_normalize` counts for that move.  Not cached:
    :func:`clifford_tables` reads the ``n * 2**n`` expansions of rank ``n``
    once and is cached itself.

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
        sign, _ = clifford_normalize((*word[1:], 1))
        return ((word[1:], _ZERO, _SQRT * sign),)
    # pi_i passes D letter by letter: ``carried`` terms still hold it, ``terms`` not
    terms, carried = [], [((), _ZERO, _ONE)]
    for position, letter in enumerate(word):
        rest, passed = word[position + 1:], []
        for prefix, _, coefficient in carried:
            for letters, const, with_pi in _single_rules(i, letter):
                if not const.is_zero():
                    terms.append((prefix + letters + rest, coefficient * const, _ZERO))
                if not with_pi.is_zero():
                    passed.append((prefix + letters, _ZERO, coefficient * with_pi))
        carried = passed
    combined: dict[tuple[int, ...], list[GaussianInteger]] = {}
    for raw_word, const, with_pi in terms + carried:
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


CliffordTables = namedtuple("CliffordTables", "basis index gamma delta c parity")


@lru_cache(maxsize=None)
def clifford_tables(n: int) -> CliffordTables:
    """The shared record of rank ``n``: the Clifford index sets in basis
    order, the map ``D -> index(D)`` (never mutate it), ``Gamma_i`` and
    ``Delta_i`` from :func:`pi_commute`, ``C_j`` sending ``D`` to ``sign * E``
    for ``c_j c_D = sign * c_E`` (at ``j - 1``), and the parity signs.

    >>> clifford_tables(2)[:2]
    (((), (1,), (2,), (1, 2)), {(): 0, (1,): 1, (2,): 2, (1, 2): 3})
    """
    basis = subsets(range(1, n + 1))
    index = {subset: d for d, subset in enumerate(basis)}
    gamma, delta, c = ([{} for _ in range(n)] for _ in range(3))
    for d, subset in enumerate(basis):
        for i in range(n):
            for e, *coefficients in pi_commute(i, subset):
                for part, value in zip((gamma, delta), coefficients):
                    if not value.is_zero():
                        part[i][(index[e], d)] = value
            sign, product = clifford_normalize((i + 1, *subset))
            c[i][(index[product], d)] = sign
    parity = {(d, d): _MINUS_ONE if len(D) % 2 else _ONE for d, D in enumerate(basis)}

    def table(entries) -> SparseMatrix:
        # nonzero coefficients and units, at basis positions
        return SparseMatrix._trusted(len(basis), len(basis), entries)

    gamma, delta, c = (tuple(map(table, part)) for part in (gamma, delta, c))
    return CliffordTables(basis, index, gamma, delta, c, table(parity))


def induce_labeled_basis(base: OperatorFamily) -> OperatorFamily:
    """Adjoin a free Clifford factor to an operator family: the labels are
    the pairs ``(D, y)``, and ``pi_i`` is the Kronecker form of the module
    docstring with the tables of :func:`clifford_tables`."""
    tables = clifford_tables(base.rank)
    labels = tuple((subset, label) for label in base.labels for subset in tables.basis)
    identity = SparseMatrix.identity(len(base.labels))
    return OperatorFamily(labels, [
        identity.kron(gamma) + matrix.kron(delta)
        for matrix, gamma, delta in zip(base.matrices, tables.gamma, tables.delta)
    ])


def clifford_matrices(module: OperatorFamily) -> dict[int, SparseMatrix]:
    """The Clifford generators ``c_1..c_rank`` of an induced module: ``c_j``
    is ``identity(m).kron(C_j)``."""
    identity = SparseMatrix.identity(len(module.labels) >> module.rank)
    tables = clifford_tables(module.rank).c
    return {j: identity.kron(table) for j, table in enumerate(tables, 1)}


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


def ribbon_table_matrix(i: int, index_set, n: int) -> SparseMatrix:
    """Matrix of ``pi_i`` on ``build_MI(index_set, n)`` per the case table.

    Rows and columns follow the module's basis order.

    >>> table = ribbon_table_matrix(0, {0}, 1)
    >>> {key: str(value) for key, value in table.entries.items()}
    {(0, 0): '-1', (0, 1): '-1*i'}
    """
    index_set = checked_index_set(index_set, n)
    _checked_generator(i, n)
    basis, index = clifford_tables(n)[:2]
    entries = {
        (index[target], d): coefficient
        for d, subset in enumerate(basis)
        for target, coefficient in _ribbon_table_column(i, index_set, subset)
    }
    return SparseMatrix(len(basis), len(basis), entries)


def build_MI(index_set, n: int) -> OperatorFamily:
    """Induced module of a subset's one-dimensional module, built anew."""
    index_set = checked_index_set(index_set, n)
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
    minus_identity = identity.scale(_MINUS_ONE)
    pi = module.matrices
    cg = clifford_matrices(module)
    for j in range(1, n + 1):
        if cg[j] @ cg[j] != minus_identity:
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
        shifted = pi[i] + identity
        if shifted @ cg[i] != cg[i + 1] @ shifted:
            return {"failed": {"kind": "mixed-shift", "i": i}}
    if n >= 1:
        # the graded pi_0 c_1 rule: parity negates odd Clifford index sets
        parity = SparseMatrix.identity(len(module.labels) >> n).kron(
            clifford_tables(n).parity
        )
        if pi[0] @ cg[1] != (parity @ pi[0]).scale(_SQRT):
            return {"failed": {"kind": "mixed-zero", "j": 1}}
    return {"relations": "ok"}


# ---------------------------------------------------------------------------
# diagonal eigenvalues and descent-set factors


def k_set(index_set, subset, n: int) -> frozenset[int]:
    """Indices acting by ``-1`` on the ``c_D`` column, in closed form; the
    diagonal of every other ``pi_i`` there is ``0``.

    >>> sorted(k_set({0, 3, 4, 6}, {1, 2, 5}, 7))
    [1, 2, 3, 5, 6]
    """
    index_set = checked_index_set(index_set, n)
    barred = checked_index_set(subset, n, 1)
    shifted_down = {d - 1 for d in barred}
    return frozenset(
        ((barred - index_set) | (index_set - shifted_down)) & set(range(n))
    )


def cover_lower_targets(
    i: int, index_set, subset, n: int
) -> frozenset[tuple[int, ...]]:
    """Strictly smaller neighbors of the ``c_D`` column under index ``i``.

    These are the only rows where ``pi_i`` may have off-diagonal support.
    """
    index_set = checked_index_set(index_set, n)
    barred = checked_index_set(subset, n, 1)
    out = []
    if _checked_generator(i, n) == 0:
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


def _index_set_args(index_set, n: int) -> tuple[frozenset[int], int]:
    return checked_index_set(index_set, n), n


@_cached_on(_index_set_args)
def restriction_characteristic(index_set, n: int) -> QSymElement:
    """Composition-series characteristic of ``build_MI(index_set, n)``
    restricted to the casewise operators, once per ``(I, n)``."""
    return characteristic_by_composition_series(build_MI(index_set, n))[0]


RES_FORMS = ("proof_penultimate", "theorem_literal", "theorem_complemented")


def res_MI_formula(index_set, n: int, form: str) -> QSymElement:
    """Candidate closed forms for the restriction characteristic.

    ``proof_penultimate`` scales by two to the number of valleys of the
    complement and sums fundamentals over index sets whose shifted symmetric
    difference contains the complement's peaks, excluding 0 whenever the
    selecting subset omits 0.  The ``theorem_*`` forms evaluate the two
    readings of the peak-function characteristic of the complement.
    """
    index_set = checked_index_set(index_set, n)
    complement = frozenset(range(n)) - index_set
    if form == "theorem_literal":
        return peak_characteristic(complement, n, "literal")
    if form == "theorem_complemented":
        return peak_characteristic(complement, n, "complemented")
    if form != "proof_penultimate":
        raise ValueError(f"unknown form {form!r}")
    data = peak_data(complement, n)
    coefficient = 1 << len(data.valley)
    # subsets are sorted tuples, each listed once
    return QSymElement(
        n,
        _collect(
            (candidate, coefficient)
            for candidate in subsets(range(n))
            if (0 in index_set or 0 not in candidate)
            and symmetric_difference_condition(data.peak, candidate)
        ),
    )


# ---------------------------------------------------------------------------
# isomorphism classification, intertwiners, centralizers


def iso_predicate(first, second, n: int) -> bool:
    """Same complement peak sets and agreement at index 0.

    >>> iso_predicate({1}, {1, 2}, 3)
    False
    >>> iso_predicate(set(), {1}, 2)
    True
    """
    first = checked_index_set(first, n)
    second = checked_index_set(second, n)
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
    basis, index = clifford_tables(n)[:2]
    size = len(basis)
    # c_D c_k c_{k+1} = ±c_E with E = D xor {k, k+1} != D, so the -1 of the
    # identity has each diagonal position to itself
    entries = {}
    for col, subset in enumerate(basis):
        sign, product = clifford_normalize((*subset, k, k + 1))
        entries[(index[product], col)] = sign
        entries[(col, col)] = _MINUS_ONE
    matrix = SparseMatrix._trusted(size, size, entries)
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
    complement = frozenset(range(n)) - checked_index_set(index_set, n)
    return peak_data(complement, n).valley


def centralizer_check(index_set, n: int) -> tuple[tuple[int, ...], ...]:
    """Subsets whose right Clifford multiplication is an endomorphism.

    Right multiplication by ``c_D`` is determined by where it sends the
    cyclic generator, so it intertwines the action exactly when the basis
    vector ``c_D e`` transforms under every ``pi_i`` the same way the
    generator does: scaled by -1 when ``i`` is selected, killed otherwise.
    The ``c_D`` column sits at ``index(D)``, as the base is one-dimensional;
    each ``pi_i`` is read once for columns with off-diagonal or wrong entries.
    """
    index_set = frozenset(index_set)
    module = build_MI(index_set, n)
    basis = clifford_tables(n).basis
    moving = set()
    for i, matrix in enumerate(module.matrices):
        moving.update(col for row, col in matrix.entries if row != col)
        expected = _MINUS_ONE if i in index_set else _ZERO
        moving.update(
            col for col in range(len(basis)) if matrix.get(col, col) != expected
        )
    return tuple(subset for col, subset in enumerate(basis) if col not in moving)


# ---------------------------------------------------------------------------
# general induction


def induce_and_restrict(base: OperatorFamily) -> tuple[QSymElement, QSymElement]:
    """Induce an operator family and restrict it to the casewise operators.

    Returns the direct characteristic and the ``proof_penultimate`` closed
    form summed over the labels: once per fundamental of the base's own
    characteristic (a descent label), weighted by its label count.  The base
    operators are the ``D = ()`` blocks of the induced ones, so the base
    series exists whenever the induced one does.
    """
    direct, _ = characteristic_by_composition_series(induce_labeled_basis(base))
    n = base.rank
    base_characteristic, _ = characteristic_by_composition_series(base)
    expected = sum(
        (res_MI_formula(label, n, "proof_penultimate").scale(count)
         for label, count in base_characteristic.coeffs),
        QSymElement.zero(n),
    )
    return direct, expected
