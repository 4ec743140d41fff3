"""Distinguished subsets of the signed permutation groups.

Four families are constructed by exhaustive filtering:

* ``dclass``: all elements with a prescribed left descent set.
* ``luni``: elements whose inverse window decreases down to position ``i``
  and increases afterwards ("left-unimodal" elements).
* ``luni_union``: the union of the ``luni`` families over all ``i``.
* ``arc``: elements whose window is a shuffle of a cyclically consecutive
  positive word and a cyclically consecutive negative word whose starting
  letters are cyclically adjacent.

Each family can be inverted element-wise.  ``family_report`` bundles the
ascent-compatibility scan with the two natural quasisymmetric sums (over
inverse descent sets, and over descent sets) and, for compatible sets, the
verified module characteristic.

The weak-order interval description of the inverted ``luni`` family uses a
top element whose published bottom companion is off by one position: the
stated bottom reverses only the first ``i - 1`` values and so describes the
family at ``i - 1``.  Both readings are exposed via a ``variant`` flag, with
``corrected`` (reverse the first ``i`` values) as the default.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .hecke_engine import (
    OperatorFamily,
    characteristic_by_composition_series,
    characteristic_by_descent_sum,
    family_from_elements,
    qx,
    verify_relations,
)
from .qsym_typeb import QSymElement
from .signed_permutations import (
    SignedPermutation,
    all_elements,
    ascent_compatibility_report,
    convexity_witness,
    format_index_set,
    left_descents,
    parse_index_set,
    weak_order_interval,
)

FAMILY_KINDS = ("dclass", "luni", "luni_union", "arc")


@dataclass(frozen=True)
class PermutationFamily:
    """A named subset of the degree-``n`` signed permutation group."""

    kind: str
    params: tuple
    n: int
    members: tuple[SignedPermutation, ...]
    inverted: bool = False

    @property
    def name(self) -> str:
        if self.kind == "dclass":
            middle = f":{format_index_set(self.params[0])}"
        elif self.kind == "luni":
            middle = f":{self.params[0]}"
        else:
            middle = ""
        suffix = ":inv" if self.inverted else ""
        return f"{self.kind}{middle}:{self.n}{suffix}"

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, element: SignedPermutation) -> bool:
        return element in set(self.members)


def is_left_unimodal(x: SignedPermutation, i: int) -> bool:
    """Whether the inverse window decreases to position ``i`` then increases."""
    positions = x.inverse().window
    n = len(positions)
    if not 1 <= i <= n:
        raise ValueError(f"unimodal position {i} outside 1..{n}")
    down = all(positions[j - 1] > positions[j] for j in range(1, i))
    up = all(positions[j - 1] < positions[j] for j in range(i, n))
    return down and up


def is_signed_arc(x: SignedPermutation) -> bool:
    """Whether the window splits into two cyclically consecutive words.

    The positive letters must increase by one cyclically, the negative
    letters likewise, and when both words are nonempty their starting
    letters must satisfy ``a_1 = -b_1 + 1`` cyclically.

    >>> is_signed_arc(SignedPermutation((2, -3, 4, -1)))
    False
    >>> is_signed_arc(SignedPermutation((2, 3, -1)))
    True
    """
    n = x.n
    positives = [v for v in x.window if v > 0]
    negatives = [v for v in x.window if v < 0]
    for word in (positives, negatives):
        for earlier, later in zip(word, word[1:]):
            if (later - earlier - 1) % n != 0:
                return False
    if positives and negatives:
        if (positives[0] + negatives[0] - 1) % n != 0:
            return False
    return True


def build_family(name: str, params: tuple, n: int) -> PermutationFamily:
    """Materialize a family by filtering the whole degree-``n`` group.

    >>> len(build_family("arc", (), 2))
    8
    >>> [x.window for x in build_family("dclass", (frozenset(),), 2)]
    [(1, 2)]
    """
    if n < 1:
        raise ValueError("the degree must be at least 1")
    if name == "dclass":
        (index_set,) = params
        index_set = frozenset(index_set)
        if not index_set <= set(range(n)):
            raise ValueError(
                f"descent set {sorted(index_set)} out of range for degree {n}"
            )
        predicate = lambda x: left_descents(x, "B") == index_set
    elif name == "luni":
        (position,) = params
        if not 1 <= position <= n:
            raise ValueError(f"unimodal position {position} outside 1..{n}")
        predicate = lambda x: is_left_unimodal(x, position)
    elif name == "luni_union":
        if params:
            raise ValueError("the unimodal union takes no parameters")
        predicate = lambda x: any(
            is_left_unimodal(x, i) for i in range(1, n + 1)
        )
    elif name == "arc":
        if params:
            raise ValueError("the arc family takes no parameters")
        predicate = is_signed_arc
    else:
        raise ValueError(f"unknown family kind {name!r}")
    members = tuple(x for x in all_elements(n, "B") if predicate(x))
    return PermutationFamily(name, params, n, members)


def invert_family(fam: PermutationFamily) -> PermutationFamily:
    """The same family with every member replaced by its inverse."""
    members = tuple(sorted((x.inverse() for x in fam.members), key=lambda x: x.window))
    return PermutationFamily(
        fam.kind, fam.params, fam.n, members, inverted=not fam.inverted
    )


def parse_family_spec(text: str) -> PermutationFamily:
    """Build a family from a compact string.

    Formats: ``arc:3``, ``dclass:{0,1}:3``, ``luni:2:4``; an optional
    ``:inv`` suffix inverts the members.

    >>> parse_family_spec("arc:3").name
    'arc:3'
    >>> parse_family_spec("luni:1:2:inv").name
    'luni:1:2:inv'
    """
    pieces = text.strip().split(":")
    inverted = False
    if pieces and pieces[-1] == "inv":
        inverted = True
        pieces = pieces[:-1]
    if len(pieces) < 2:
        raise ValueError(f"family spec {text!r} is too short")
    kind = pieces[0]
    try:
        n = int(pieces[-1])
    except ValueError as exc:
        raise ValueError(f"family spec {text!r} must end with a degree") from exc
    middle = pieces[1:-1]
    if kind == "arc":
        if middle:
            raise ValueError(f"family spec {text!r} has extra parameters")
        fam = build_family("arc", (), n)
    elif kind == "dclass":
        if len(middle) != 1:
            raise ValueError(f"family spec {text!r} needs one index set")
        fam = build_family("dclass", (parse_index_set(middle[0]),), n)
    elif kind == "luni":
        if len(middle) != 1:
            raise ValueError(f"family spec {text!r} needs one position")
        fam = build_family("luni", (int(middle[0]),), n)
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    return invert_family(fam) if inverted else fam


# ---------------------------------------------------------------------------
# shuffles


def shuffles(
    first: tuple[int, ...], second: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """All interleavings of two words over disjoint letter sets.

    >>> shuffles((1,), (2,))
    ((1, 2), (2, 1))
    >>> shuffles((1, 2), ())
    ((1, 2),)
    """
    first = tuple(first)
    second = tuple(second)
    if set(first) & set(second):
        raise ValueError("shuffled words must use disjoint letters")
    out = []
    for positions in itertools.combinations(range(len(first) + len(second)), len(first)):
        chosen = set(positions)
        word = []
        a = b = 0
        for k in range(len(first) + len(second)):
            if k in chosen:
                word.append(first[a])
                a += 1
            else:
                word.append(second[b])
                b += 1
        out.append(tuple(word))
    return tuple(sorted(set(out)))


# ---------------------------------------------------------------------------
# interval endpoints for the inverted unimodal family

ENDPOINT_VARIANTS = ("corrected", "literal")


def unimodal_interval_endpoints(
    i: int, n: int, variant: str = "corrected"
) -> tuple[SignedPermutation, SignedPermutation]:
    """Top and bottom of the weak-order interval of the inverted family.

    Returns ``(top, bottom)``.  The top negates everything: the first
    ``i - 1`` positions in place and the rest shifted below them.  The
    ``corrected`` bottom reverses the first ``i`` values; the ``literal``
    bottom reverses only the first ``i - 1`` and coincides with the
    corrected bottom at ``i - 1``.

    >>> unimodal_interval_endpoints(1, 2)[0].window
    (-2, -1)
    >>> unimodal_interval_endpoints(1, 2)[1].window
    (1, 2)
    """
    if not 1 <= i <= n:
        raise ValueError(f"unimodal position {i} outside 1..{n}")
    if variant not in ENDPOINT_VARIANTS:
        raise ValueError(f"unknown endpoint variant {variant!r}")
    top = SignedPermutation(
        tuple(-j for j in range(1, i)) + tuple(k - i - n for k in range(i, n + 1))
    )
    if variant == "corrected":
        bottom = SignedPermutation(
            tuple(i + 1 - j for j in range(1, i + 1))
            + tuple(range(i + 1, n + 1))
        )
    else:
        bottom = SignedPermutation(
            tuple(i - j for j in range(1, i)) + tuple(range(i, n + 1))
        )
    return top, bottom


def unimodal_interval(
    i: int, n: int, variant: str = "corrected"
) -> tuple[SignedPermutation, ...]:
    """The weak-order interval between the two endpoints."""
    top, bottom = unimodal_interval_endpoints(i, n, variant)
    return weak_order_interval(bottom, top)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class FamilyReport:
    """Ascent-compatibility scan plus the associated quasisymmetric sums.

    ``q_function`` sums fundamentals over inverse descent sets of the
    members; ``descent_sum`` sums them over the descent sets themselves.
    When the family is ascent-compatible, ``characteristic`` holds the
    composition-series characteristic of its module (and equals
    ``descent_sum``); when the inverted family is ascent-compatible,
    ``ch_of_inverse_set`` holds that module's characteristic (and equals
    ``q_function``).
    """

    ascent_compatible: bool
    inverse_ascent_compatible: bool
    q_function: QSymElement
    descent_sum: QSymElement
    characteristic: QSymElement | None
    ch_of_inverse_set: QSymElement | None
    relations_ok: bool | None


def _verified_characteristic(
    members: tuple[SignedPermutation, ...],
) -> tuple[QSymElement, bool]:
    fam: OperatorFamily = family_from_elements(members)
    relations = verify_relations(fam)
    characteristic, _series = characteristic_by_composition_series(fam)
    return characteristic, relations == {"relations": "ok"}


def family_report(fam: PermutationFamily) -> FamilyReport:
    """Scan a family and compute its quasisymmetric invariants.

    >>> report = family_report(build_family("arc", (), 2))
    >>> report.ascent_compatible
    True
    >>> report.characteristic == report.descent_sum
    True
    """
    members = fam.members
    inverses = tuple(x.inverse() for x in members)
    forward = ascent_compatibility_report(members)
    backward = ascent_compatibility_report(inverses)
    q_function = qx(members, "B")
    descent_sum = characteristic_by_descent_sum(members, "B")
    characteristic = None
    relations_ok = None
    if forward.compatible and members:
        characteristic, relations_ok = _verified_characteristic(members)
    ch_of_inverse_set = None
    if backward.compatible and inverses:
        ch_of_inverse_set, inverse_ok = _verified_characteristic(inverses)
        relations_ok = (
            inverse_ok if relations_ok is None else (relations_ok and inverse_ok)
        )
    return FamilyReport(
        forward.compatible,
        backward.compatible,
        q_function,
        descent_sum,
        characteristic,
        ch_of_inverse_set,
        relations_ok,
    )


# ---------------------------------------------------------------------------
# convexity search


def smallest_non_convex_arc_degree(
    max_n: int,
) -> tuple[int, tuple[SignedPermutation, SignedPermutation, SignedPermutation]] | None:
    """Smallest degree whose arc family is not weak-order convex."""
    for n in range(1, max_n + 1):
        fam = build_family("arc", (), n)
        witness = convexity_witness(fam.members)
        if witness is not None:
            return n, witness
    return None


if __name__ == "__main__":
    import doctest

    doctest.testmod()
