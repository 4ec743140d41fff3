"""Operator families, the casewise rule that builds them, and composition series.

Every module here is an *operator family*: ordered labels with one exact
square matrix per generator index ``0..rank-1``.  The relation checker reads
the matrices and the composition-series walk a block stream, which induced
Clifford modules (``hecke_clifford``) give from their factors, unbuilt.

``family_from_action`` is the casewise rule.  It takes labels, a descent
label per label (a subset of the generator indices) and a partial action
``move(y, i)``.  Column ``y`` of the operator at index ``i`` is

* ``-y`` when ``i`` lies in the descent label of ``y``;
* the label ``move(y, i)`` otherwise, when that move lands on a label;
* zero otherwise.

The composition-series walk finds an order of the basis in which every
operator maps each basis vector into the span of itself and *earlier*
vectors, and sums one fundamental function per position, indexed by the
generators acting there by ``-1`` (each diagonal entry is ``0`` or ``-1``).
By Jordan–Hölder the sum is the same for every such order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator

from .exact_algebra import SparseMatrix, _MINUS_ONE, _ONE
from .qsym_typeb import QSymElement
from .signed_permutations import (
    SignedPermutation,
    _rank_table,
    _same_rank,
    braid_exponent,
    checked_index_set,
)

Label = Hashable


@dataclass(frozen=True)
class OperatorFamily:
    """Ordered labels and one exact square matrix per generator index.

    ``matrices[i]`` is the operator of index ``i``, so the rank is
    ``len(matrices)``; label ``k`` is row and column ``k``.  No cache keeps
    a family: each builder returns a new one.
    """

    labels: tuple[Label, ...]
    matrices: tuple[SparseMatrix, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "matrices", tuple(self.matrices))
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels")
        size = len(self.labels)
        for matrix in self.matrices:
            if matrix.nrows != size or matrix.ncols != size:
                raise ValueError("operator matrices must be square of label count")

    @property
    def rank(self) -> int:
        return len(self.matrices)

    @property
    def size(self) -> int:
        return len(self.labels)

    def blocks(self) -> Iterator[tuple[int, int, int, Iterable]]:
        """``(operator, row offset, col offset, ((row, col), value) pairs)``."""
        for i, matrix in enumerate(self.matrices):
            yield i, 0, 0, matrix.entries.items()


def family_from_action(
    labels: Iterable[Label],
    descent_label: Callable[[Label], Iterable[int]],
    move: Callable[[Label, int], Label | None],
    rank: int,
) -> OperatorFamily:
    """Casewise operators of ``labels`` under a partial action.

    At each index ``i`` in ``descent_label(y)`` column ``y`` is ``-y``; at
    every other index it is ``move(y, i)`` when that is one of ``labels``
    (``None`` or an outside value gives a zero column).

    >>> fam = family_from_action((1, 2), lambda y: {0} if y == 2 else (),
    ...                          lambda y, i: y + 1, rank=1)
    >>> sorted((key, value.re) for key, value in fam.matrices[0].entries.items())
    [((1, 0), 1), ((1, 1), -1)]
    """
    labels = tuple(labels)
    position = {label: k for k, label in enumerate(labels)}
    descents = [frozenset(descent_label(y)) for y in labels]
    checked_index_set(frozenset().union(*descents), rank)
    size = len(labels)
    matrices = []
    for i in range(rank):
        entries = {}
        for col, y in enumerate(labels):
            if i in descents[col]:
                entries[(col, col)] = _MINUS_ONE
            else:
                row = position.get(move(y, i))
                if row is not None:
                    entries[(row, col)] = _ONE
        # every position is a label's and every value a unit
        matrices.append(SparseMatrix._trusted(size, size, entries))
    return OperatorFamily(labels, matrices)


def family_from_elements(elements: Iterable[SignedPermutation]) -> OperatorFamily:
    """Operator family of a signed-permutation set under left generator action.

    The descent label is the left descent set; the move at a non-descent
    index is left multiplication by that simple reflection.  Elements are
    ordered by length, then window, so shorter elements come first.  The
    operators are built on the ids of the rank's table, with its descent
    sets and left action, and then labelled by the elements.

    >>> from tbhl.signed_permutations import all_elements
    >>> fam = family_from_elements(all_elements(1))
    >>> sorted(fam.matrices[0].entries.items())
    [((1, 0), GaussianInteger(re=1, im=0)), ((1, 1), GaussianInteger(re=-1, im=0))]
    """
    elements = list(elements)
    if not elements:
        raise ValueError("empty element set")
    table = _rank_table(_same_rank(*elements))
    # ids follow window order, so a stable sort by length gives (length, window)
    ids = sorted({table.ids[x.window] for x in elements})
    ordered = sorted(ids, key=table.lengths.__getitem__)
    descents, index_sets, left = table.descents, table.index_sets, table.left
    matrices = family_from_action(
        ordered, lambda k: index_sets[descents[k]], lambda k, i: left[i][k], table.n
    ).matrices
    return OperatorFamily(tuple(map(table.elements.__getitem__, ordered)), matrices)


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
    rank = fam.rank
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
    table = _rank_table(_same_rank(*elements))
    ids, descents, index_sets = table.ids, table.descents, table.index_sets
    return QSymElement.from_descent_sets(
        (index_sets[descents[ids[x.window]]] for x in elements), table.n
    )


class NoCompositionSeries(ValueError):
    """An operator family with no triangular basis order of 0/-1 diagonals."""


def characteristic_by_composition_series(
    fam: OperatorFamily,
) -> tuple[QSymElement, tuple[int, ...]]:
    """Order the basis triangularly and read factors off the diagonals.

    The support digraph has an edge from each basis position to every
    *other* position appearing in its image under some operator; a walk of
    that digraph puts image supports first, so every prefix span is
    operator-invariant.  One pass over ``fam.blocks()`` (an induced module
    streams them from its factors) reads the edges and, per position, the
    bitmask of the operators acting by ``-1``.  Returns the characteristic
    and the positions in the order the walk took them: one valid order,
    with no promise of which.  Raises :class:`NoCompositionSeries` if that
    digraph has a cycle or a diagonal entry is neither ``0`` nor ``-1``.

    >>> from tbhl.signed_permutations import all_elements
    >>> char, order = characteristic_by_composition_series(
    ...     family_from_elements(all_elements(1)))
    >>> print(char)
    1*FB{} + 1*FB{0}
    >>> sorted(order)
    [0, 1]
    """
    size = fam.size
    # an edge is listed once per operator having it, and counted as often
    successors: list[list[int]] = [[] for _ in range(size)]
    indegree = [0] * size
    masks = [0] * size
    for i, row, col, pairs in fam.blocks():
        for (s, t), value in pairs:
            r, c = row + s, col + t
            if r != c:
                successors[r].append(c)
                indegree[c] += 1
            elif value.re == -1 and not value.im:
                masks[c] |= 1 << i
            else:
                raise NoCompositionSeries(
                    f"diagonal entry of operator {i} at {fam.labels[c]!r} "
                    f"is neither 0 nor -1"
                )
    order = [k for k in range(size) if not indegree[k]]
    # the list is its own queue: positions made ready are walked in turn
    for k in order:
        for c in successors[k]:
            indegree[c] -= 1
            if not indegree[c]:
                order.append(c)
    if len(order) != size:
        raise NoCompositionSeries(
            "support digraph is cyclic; no triangular basis order exists"
        )
    char = QSymElement.make(fam.rank, {
        frozenset(i for i in range(fam.rank) if mask >> i & 1): count
        for mask, count in Counter(masks).items()
    })
    return char, tuple(order)
