"""Distinguished subsets of the signed permutation groups.

Three families are constructed by exhaustive filtering:

* ``dclass``: all elements with a prescribed left descent set.
* ``luni``: elements whose inverse window decreases down to position ``i``
  and increases afterwards ("left-unimodal" elements).
* ``arc``: elements whose window is a shuffle of a cyclically consecutive
  positive word and a cyclically consecutive negative word whose starting
  letters are cyclically adjacent.

Each family can be inverted element-wise.  The audit checks each family's
relations and characteristic through ``hecke_engine`` and its
ascent-compatibility through ``signed_permutations``.

The weak-order interval description of the inverted ``luni`` family uses a
top element whose published bottom companion is off by one position: the
stated bottom reverses only the first ``i - 1`` values and so describes the
family at ``i - 1``.  Both readings are exposed via a ``variant`` flag, with
``corrected`` (reverse the first ``i`` values) as the default.
"""

from __future__ import annotations

from dataclasses import dataclass

from .signed_permutations import (
    MAX_RANK,
    SignedPermutation,
    _rank_table,
    all_elements,
    checked_index_set,
    convexity_witness,
    format_index_set,
    parse_index_set,
    weak_order_interval,
)


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


def is_left_unimodal(x: SignedPermutation, i: int) -> bool:
    """Whether the inverse window decreases to position ``i`` then increases.

    Read from the inverse window; :func:`build_family` filters by the
    equivalent descent condition instead, and this is its oracle.
    """
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

    ``dclass`` and ``luni`` filter the table's left descent sets: the inverse
    window decreases to position i and increases after it exactly when the
    descents other than 0 are ``1..i-1``.

    >>> len(build_family("arc", (), 2))
    8
    >>> [x.window for x in build_family("dclass", (frozenset(),), 2).members]
    [(1, 2)]
    """
    if not 1 <= n <= MAX_RANK:
        raise ValueError(f"the degree {n} is outside 1..{MAX_RANK}")
    if name == "dclass":
        (index_set,) = params
        index_set = checked_index_set(index_set, n)
        wanted, free = sum(1 << i for i in index_set), 0
    elif name == "luni":
        (position,) = params
        if not 1 <= position <= n:
            raise ValueError(f"unimodal position {position} outside 1..{n}")
        # the descents 1..position-1, whatever 0 is
        wanted, free = (1 << position) - 2, 1
    elif name == "arc":
        if params:
            raise ValueError("the arc family takes no parameters")
        members = tuple(filter(is_signed_arc, all_elements(n)))
        return PermutationFamily(name, params, n, members)
    else:
        raise ValueError(f"unknown family kind {name!r}")
    table = _rank_table(n)
    members = tuple(
        x
        for x, descents in zip(table.elements, table.descents)
        if descents & ~free == wanted
    )
    return PermutationFamily(name, params, n, members)


def invert_family(fam: PermutationFamily) -> PermutationFamily:
    """The same family with every member replaced by its inverse."""
    members = tuple(sorted((x.inverse() for x in fam.members), key=lambda x: x.window))
    return PermutationFamily(
        fam.kind, fam.params, fam.n, members, inverted=not fam.inverted
    )


# Per family kind, the readers of the parameters between kind and degree.
_SPEC_READERS = {"arc": (), "dclass": (parse_index_set,), "luni": (int,)}


def parse_family_spec(text: str) -> PermutationFamily:
    """Build a family from a compact string.

    Formats: ``arc:3``, ``dclass:{0,1}:3``, ``luni:2:4``; an optional
    ``:inv`` suffix inverts the members.  A malformed spec raises
    ``ValueError``.

    >>> parse_family_spec("arc:3").name
    'arc:3'
    >>> parse_family_spec("luni:1:2:inv").name
    'luni:1:2:inv'
    """
    pieces = text.strip().split(":")
    inverted = pieces[-1] == "inv"
    if inverted:
        pieces = pieces[:-1]
    if len(pieces) < 2:
        raise ValueError(f"family spec {text!r} is too short")
    kind, *middle, degree = pieces
    readers = _SPEC_READERS.get(kind)
    if readers is None:
        raise ValueError(f"unknown family kind {kind!r}")
    if len(middle) != len(readers):
        raise ValueError(
            f"family spec {text!r} needs {len(readers)} parameter(s) before the degree"
        )
    try:
        n = int(degree)
    except ValueError as exc:
        raise ValueError(f"family spec {text!r} must end with a degree") from exc
    params = tuple(read(piece) for read, piece in zip(readers, middle))
    fam = build_family(kind, params, n)
    return invert_family(fam) if inverted else fam


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
