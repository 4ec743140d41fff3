"""Operator families on labeled bases and composition-series characteristics.

A *labeled basis* is a finite set of opaque labels, each carrying a subset of
generator indices (its descent label) and, for each index outside that subset,
an optional transition to another label.  These data induce one square matrix
per generator index:

* column ``y`` is ``-y`` when the index lies in the descent label of ``y``;
* a unit at the transition target when that target is itself a basis label;
* zero otherwise (no transition, or a transition out of the basis).

The same matrix machinery accepts arbitrary exact matrices, so bases whose
operators have richer coefficients (for example Clifford-algebra signs) reuse
the relation checker and the composition-series walk unchanged.

The composition-series walk orders the basis so that every operator maps each
basis vector into the span of itself and *earlier* vectors, reads the diagonal
entry of each operator at each position (always ``0`` or ``-1``), and sums one
fundamental function per position, indexed by the set of generators acting by
``-1`` there.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

from .exact_algebra import GaussianRational, SparseMatrix
from .qsym_typeb import QSymElement
from .signed_permutations import (
    SignedPermutation,
    braid_exponent,
    format_index_set,
    left_descents,
    length,
    simple_reflection,
)

Label = Hashable

_MINUS_ONE = GaussianRational.integer(-1)
_ONE = GaussianRational.integer(1)


@dataclass
class LabeledBasis:
    """Ordered labels with descent labels and partial transitions.

    Generator indices are ``0..rank-1``.  ``transition`` may map to labels
    outside ``elements``; such targets (and absent entries alike) make the
    corresponding operator column zero.

    >>> basis = LabeledBasis(("a", "b"), {"a": frozenset(), "b": frozenset({0})},
    ...                      {(0, "a"): "b"}, rank=1)
    >>> basis.position["b"]
    1
    """

    elements: tuple[Label, ...]
    descent_label: Mapping[Label, frozenset[int]]
    transition: Mapping[tuple[int, Label], Label]
    rank: int
    position: dict[Label, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.elements = tuple(self.elements)
        self.position = {label: k for k, label in enumerate(self.elements)}
        if len(self.position) != len(self.elements):
            raise ValueError("duplicate basis labels")
        valid = range(self.rank)
        for label in self.elements:
            if label not in self.descent_label:
                raise ValueError(f"missing descent label for {label!r}")
            bad = set(self.descent_label[label]) - set(valid)
            if bad:
                raise ValueError(f"descent label of {label!r} out of range: {bad}")
        for (i, label), _target in self.transition.items():
            if i not in valid:
                raise ValueError(f"transition index {i} out of range")
            if label not in self.position:
                raise ValueError(f"transition source {label!r} not in basis")
            if i in self.descent_label[label]:
                raise ValueError(
                    f"transition at {i} conflicts with descent label of {label!r}"
                )


@dataclass
class OperatorFamily:
    """One exact matrix per generator index over a labeled basis."""

    basis: LabeledBasis
    matrices: dict[int, SparseMatrix]

    def __post_init__(self) -> None:
        size = len(self.basis.elements)
        if set(self.matrices) != set(range(self.basis.rank)):
            raise ValueError("matrix indices do not match the basis rank")
        for matrix in self.matrices.values():
            if matrix.nrows != size or matrix.ncols != size:
                raise ValueError("operator matrices must be square of basis size")


@dataclass(frozen=True)
class CompositionSeries:
    """A basis order with invariant prefix spans, and the per-step factors."""

    order: tuple[Label, ...]
    factors: tuple[frozenset[int], ...]

    def to_json(self) -> dict:
        return {"factors": [format_index_set(k) for k in self.factors]}


def build_from_labeled_basis(basis: LabeledBasis) -> OperatorFamily:
    """Materialize the casewise operators of a labeled basis as matrices.

    >>> from tbhl.signed_permutations import all_elements
    >>> fam = build_from_labeled_basis(basis_from_elements(all_elements(1)))
    >>> sorted(fam.matrices[0].entries.items())
    [((1, 0), GaussianRational(re=1, im=0)), ((1, 1), GaussianRational(re=-1, im=0))]
    """
    size = len(basis.elements)
    matrices = {}
    for i in range(basis.rank):
        entries = {}
        for col, label in enumerate(basis.elements):
            if i in basis.descent_label[label]:
                entries[(col, col)] = _MINUS_ONE
            else:
                target = basis.transition.get((i, label))
                row = basis.position.get(target) if target is not None else None
                if row is not None:
                    entries[(row, col)] = _ONE
        matrices[i] = SparseMatrix.from_entries(size, size, entries)
    return OperatorFamily(basis, matrices)


def basis_from_elements(elements: Iterable[SignedPermutation]) -> LabeledBasis:
    """Labeled basis for a set of signed permutations under left generator action.

    The descent label is the left descent set; the transition at a non-descent
    index is left multiplication by that simple reflection (kept only when the
    product stays inside the set).  Elements are ordered by length, then
    window, so shorter elements come first.
    """
    distinct = set(elements)
    if not distinct:
        raise ValueError("empty element set")
    ordered = tuple(sorted(distinct, key=lambda x: (length(x), x.window)))
    n = len(ordered[0].window)
    inside = set(ordered)
    descent_label = {x: left_descents(x) for x in ordered}
    transition = {}
    for x in ordered:
        for i in range(n):
            if i not in descent_label[x]:
                product = simple_reflection(i, n) * x
                if product in inside:
                    transition[(i, x)] = product
    return LabeledBasis(ordered, descent_label, transition, rank=n)


def family_from_elements(elements: Iterable[SignedPermutation]) -> OperatorFamily:
    """Operator family of a signed-permutation set under the casewise action."""
    return build_from_labeled_basis(basis_from_elements(elements))


def family_from_matrices(
    labels: Sequence[Label],
    matrices: Mapping[int, SparseMatrix],
    rank: int,
) -> OperatorFamily:
    """Wrap precomputed matrices, one per index ``0..rank-1`` (descent labels
    read off the diagonals)."""
    descent_label = {}
    for k, label in enumerate(labels):
        descent_label[label] = frozenset(
            i for i in range(rank) if matrices[i].get(k, k) == _MINUS_ONE
        )
    basis = LabeledBasis(tuple(labels), descent_label, {}, rank=rank)
    return OperatorFamily(basis, dict(matrices))


def alternating_product(
    left: SparseMatrix, right: SparseMatrix, count: int
) -> SparseMatrix:
    """Product of ``count`` alternating factors ending in ``right``.

    ``alternating_product(A, B, 4)`` is ``A @ B @ A @ B``;
    ``alternating_product(A, B, 3)`` is ``B @ A @ B``.
    """
    if count < 1:
        raise ValueError("count must be positive")
    result = None
    for back in range(count):
        factor = right if back % 2 == 0 else left
        result = factor if result is None else factor @ result
    return result


def verify_relations(fam: OperatorFamily) -> dict:
    """Check idempotent-like and braid relations by exact matrix arithmetic.

    Returns ``{"relations": "ok"}`` or
    ``{"failed": {"kind": "quadratic", "i": i}}`` /
    ``{"failed": {"kind": "braid", "i": i, "j": j}}`` for the first failure.
    """
    rank = fam.basis.rank
    for i in range(rank):
        matrix = fam.matrices[i]
        if matrix @ matrix != matrix.scale(_MINUS_ONE):
            return {"failed": {"kind": "quadratic", "i": i}}
    for i in range(rank):
        for j in range(i + 1, rank):
            m = braid_exponent(i, j)
            lhs = alternating_product(fam.matrices[i], fam.matrices[j], m)
            rhs = alternating_product(fam.matrices[j], fam.matrices[i], m)
            if lhs != rhs:
                return {"failed": {"kind": "braid", "i": i, "j": j}}
    return {"relations": "ok"}


def characteristic_by_descent_sum(
    elements: Iterable[SignedPermutation],
) -> QSymElement:
    """Sum of fundamental functions over the left descent sets of a set.

    >>> from tbhl.signed_permutations import all_elements
    >>> print(characteristic_by_descent_sum(all_elements(1)))
    1*FB{} + 1*FB{0}
    """
    elements = list(elements)
    if not elements:
        raise ValueError("empty element set")
    n = len(elements[0].window)
    return QSymElement.from_descent_sets((left_descents(x) for x in elements), n)


def characteristic_by_composition_series(
    fam: OperatorFamily,
) -> tuple[QSymElement, CompositionSeries]:
    """Order the basis triangularly and read factors off the diagonals.

    The support digraph has an edge from each basis label to every *other*
    label appearing in its image under some operator; the order puts image
    supports first, so every prefix span is operator-invariant.  Ties between
    simultaneously ready labels go to the earlier basis position.  Raises
    ``ValueError`` if that digraph has a cycle or a diagonal entry is neither
    ``0`` nor ``-1``.

    >>> from tbhl.signed_permutations import all_elements
    >>> char, series = characteristic_by_composition_series(
    ...     family_from_elements(all_elements(1)))
    >>> print(char)
    1*FB{} + 1*FB{0}
    >>> series.to_json()
    {'factors': ['{0}', '{}']}
    """
    labels = fam.basis.elements
    size = len(labels)
    successors: dict[int, set[int]] = {k: set() for k in range(size)}
    indegree = [0] * size
    for matrix in fam.matrices.values():
        for (r, c) in matrix.entries:
            if r != c and c not in successors[r]:
                successors[r].add(c)
                indegree[c] += 1
    ready = [k for k in range(size) if indegree[k] == 0]
    heapq.heapify(ready)
    order_positions: list[int] = []
    while ready:
        k = heapq.heappop(ready)
        order_positions.append(k)
        for c in sorted(successors[k]):
            indegree[c] -= 1
            if indegree[c] == 0:
                heapq.heappush(ready, c)
    if len(order_positions) != size:
        raise ValueError(
            "support digraph is cyclic; no triangular basis order exists"
        )
    placed = {k: rank for rank, k in enumerate(order_positions)}
    for matrix in fam.matrices.values():
        for (r, c) in matrix.entries:
            if r != c and placed[r] >= placed[c]:
                raise ValueError("prefix spans are not invariant")
    zero = GaussianRational.integer(0)
    factors = []
    for k in order_positions:
        subset = set()
        for i, matrix in fam.matrices.items():
            diagonal = matrix.get(k, k)
            if diagonal == _MINUS_ONE:
                subset.add(i)
            elif diagonal != zero:
                raise ValueError(
                    f"diagonal entry of operator {i} at {labels[k]!r} "
                    f"is neither 0 nor -1"
                )
        factors.append(frozenset(subset))
    char = QSymElement.from_descent_sets(factors, fam.basis.rank)
    series = CompositionSeries(
        tuple(labels[k] for k in order_positions), tuple(factors)
    )
    return char, series
