"""Signed permutations, weak order, and ascent-compatibility scanning.

A signed permutation on ``{1, ..., n}`` is stored by its window
``(sigma(1), ..., sigma(n))``, a tuple of nonzero integers whose absolute
values are a permutation of ``1..n``; it acts on negative arguments by
``sigma(-k) = -sigma(k)``.  The full group (kind ``"B"``) is generated by
``s_0`` (negate the value 1) and ``s_i`` (swap the values i and i+1); kind
``"A"`` restricts to positive windows and the generators ``s_1, ...,
s_{n-1}``.

Products compose as functions: ``(sigma * tau)(j) = sigma(tau(j))``, so
``simple_reflection(i, n) * sigma`` applies the generator on the left, which
acts on the *values* in the window.

>>> s0 = simple_reflection(0, 2)
>>> s1 = simple_reflection(1, 2)
>>> (s1 * s0 * s1).window
(1, -2)
>>> length(s1 * s0 * s1)
3
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

__all__ = [
    "SignedPermutation",
    "Reflection",
    "AlignedWitness",
    "AscentCompatibilityReport",
    "simple_reflection",
    "identity",
    "generator_indices",
    "braid_exponent",
    "all_elements",
    "length",
    "bfs_word_lengths",
    "left_descents",
    "reflections",
    "right_inversions",
    "leq_left_weak",
    "weak_order_interval",
    "convexity_witness",
    "is_convex_left_weak",
    "unique_maximal",
    "is_aligned",
    "ascent_compatibility_report",
    "parse_window",
    "format_window",
    "parse_index_set",
    "format_index_set",
]

BARRED = "̄"  # combining macron, renders 3 as 3̄


@dataclass(frozen=True, order=True)
class SignedPermutation:
    """A signed permutation stored by its window ``(sigma(1), ..., sigma(n))``."""

    window: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.window)
        if sorted(abs(v) for v in self.window) != list(range(1, n + 1)) or 0 in self.window:
            raise ValueError(f"invalid signed permutation window {self.window}")

    @property
    def n(self) -> int:
        return len(self.window)

    def value(self, j: int) -> int:
        """Image of ``j`` for ``j`` in ``{-n..-1, 1..n}``.

        >>> SignedPermutation((2, -1)).value(-2)
        1
        """
        if j > 0:
            return self.window[j - 1]
        return -self.window[-j - 1]

    def is_positive(self) -> bool:
        return all(v > 0 for v in self.window)

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        if self.n != other.n:
            raise ValueError("ranks differ")
        return SignedPermutation(tuple(self.value(v) for v in other.window))

    def inverse(self) -> "SignedPermutation":
        """Group inverse.

        >>> x = SignedPermutation((2, -3, 1))
        >>> (x * x.inverse()).window
        (1, 2, 3)
        """
        inv = [0] * self.n
        for j, v in enumerate(self.window, start=1):
            if v > 0:
                inv[v - 1] = j
            else:
                inv[-v - 1] = -j
        return SignedPermutation(tuple(inv))


def identity(n: int) -> SignedPermutation:
    return SignedPermutation(tuple(range(1, n + 1)))


def simple_reflection(i: int, n: int) -> SignedPermutation:
    """The generator ``s_i``: ``s_0`` negates 1; ``s_i`` swaps i and i+1.

    >>> simple_reflection(0, 3).window
    (-1, 2, 3)
    >>> simple_reflection(2, 3).window
    (1, 3, 2)
    """
    if i == 0:
        return SignedPermutation((-1, *range(2, n + 1)))
    if not 1 <= i <= n - 1:
        raise IndexError(f"generator index {i} outside rank {n}")
    window = list(range(1, n + 1))
    window[i - 1], window[i] = window[i], window[i - 1]
    return SignedPermutation(tuple(window))


def generator_indices(n: int, kind: str = "B") -> tuple[int, ...]:
    """Generator indices: ``0..n-1`` for kind B, ``1..n-1`` for kind A."""
    if kind == "B":
        return tuple(range(n))
    if kind == "A":
        return tuple(range(1, n))
    raise ValueError(f"unknown kind {kind!r}")


def braid_exponent(i: int, j: int, kind: str = "B") -> int:
    """Order of ``s_i s_j``: 4 for {0,1} in kind B, 3 for adjacent, else 2.

    >>> [braid_exponent(0, 1), braid_exponent(1, 2), braid_exponent(0, 2)]
    [4, 3, 2]
    """
    if i == j:
        raise ValueError("distinct indices required")
    a, b = min(i, j), max(i, j)
    if kind == "B" and (a, b) == (0, 1):
        return 4
    if b - a == 1:
        return 3
    return 2


@dataclass(frozen=True)
class CoxeterDescriptor:
    """Identifies a family of simple generators and their pairwise orders.

    ``rank`` counts the generators.  For kind "B" they are indexed
    ``0..rank-1`` (the group is the signed permutations of ``rank`` letters);
    for kind "A" they are indexed ``1..rank`` (the symmetric group on
    ``rank + 1`` letters).

    >>> d = CoxeterDescriptor.for_group(3, "B")
    >>> d.indices, d.degree, d.m(0, 1), d.m(1, 2), d.m(0, 2)
    ((0, 1, 2), 3, 4, 3, 2)
    >>> CoxeterDescriptor.for_group(3, "A").indices
    (1, 2)
    """

    kind: str
    rank: int

    def __post_init__(self) -> None:
        if self.kind not in ("A", "B"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")

    @staticmethod
    def for_group(n: int, kind: str = "B") -> "CoxeterDescriptor":
        """Descriptor for the degree-``n`` group of the given kind."""
        return CoxeterDescriptor(kind, len(generator_indices(n, kind)))

    @property
    def indices(self) -> tuple[int, ...]:
        if self.kind == "B":
            return tuple(range(self.rank))
        return tuple(range(1, self.rank + 1))

    @property
    def degree(self) -> int:
        """Degree of the underlying group (window length / qsym degree)."""
        return self.rank if self.kind == "B" else self.rank + 1

    def m(self, i: int, j: int) -> int:
        return braid_exponent(i, j, self.kind)


@lru_cache(maxsize=None)
def all_elements(n: int, kind: str = "B") -> tuple[SignedPermutation, ...]:
    """All group elements in a fixed deterministic order.

    >>> len(all_elements(2, "B")), len(all_elements(3, "A"))
    (8, 6)
    """
    result = []
    for positions in itertools.permutations(range(1, n + 1)):
        if kind == "A":
            result.append(SignedPermutation(positions))
            continue
        for signs in itertools.product((1, -1), repeat=n):
            result.append(
                SignedPermutation(tuple(s * p for s, p in zip(signs, positions)))
            )
    return tuple(sorted(result))


def length(x: SignedPermutation, kind: str = "B") -> int:
    """Coxeter length: window inversions, plus the negated values for kind B.

    >>> [length(SignedPermutation(w)) for w in [(-1, 2), (2, -1), (-2, 1), (-2, -1), (-1, -2)]]
    [1, 2, 2, 3, 4]
    """
    window = x.window
    inversions = sum(
        1
        for j in range(len(window))
        for k in range(j + 1, len(window))
        if window[j] > window[k]
    )
    if kind == "A":
        if not x.is_positive():
            raise ValueError("kind A requires a positive window")
        return inversions
    return inversions + sum(-v for v in window if v < 0)


@lru_cache(maxsize=None)
def bfs_word_lengths(n: int, kind: str = "B") -> dict[SignedPermutation, int]:
    """Word lengths from breadth-first search over the Cayley graph.

    Independent oracle for :func:`length`; normative at small rank.

    >>> lengths = bfs_word_lengths(2)
    >>> lengths[SignedPermutation((-1, -2))]
    4
    """
    gens = [simple_reflection(i, n) for i in generator_indices(n, kind)]
    start = identity(n)
    distances = {start: 0}
    frontier = [start]
    while frontier:
        next_frontier = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in distances:
                    distances[y] = distances[x] + 1
                    next_frontier.append(y)
        frontier = next_frontier
    return distances


def left_descents(x: SignedPermutation, kind: str = "B") -> frozenset[int]:
    """Indices i with ``length(s_i * x) < length(x)``.

    >>> sorted(left_descents(SignedPermutation((2, -1))))
    [0]
    >>> sorted(left_descents(SignedPermutation((-1, -2))))
    [0, 1]
    """
    n = x.n
    base = length(x, kind)
    return frozenset(
        i
        for i in generator_indices(n, kind)
        if length(simple_reflection(i, n) * x, kind) < base
    )


@lru_cache(maxsize=None)
def reflections(n: int, kind: str = "B") -> tuple[SignedPermutation, ...]:
    """All reflections (conjugates of generators), as group elements.

    >>> len(reflections(2)), len(reflections(3)), len(reflections(3, "A"))
    (4, 9, 3)
    """
    result: list[SignedPermutation] = []
    if kind == "B":
        for k in range(1, n + 1):
            window = list(range(1, n + 1))
            window[k - 1] = -k
            result.append(SignedPermutation(tuple(window)))
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            window = list(range(1, n + 1))
            window[a - 1], window[b - 1] = b, a
            result.append(SignedPermutation(tuple(window)))
            if kind == "B":
                window = list(range(1, n + 1))
                window[a - 1], window[b - 1] = -b, -a
                result.append(SignedPermutation(tuple(window)))
    return tuple(sorted(result))


@dataclass(frozen=True)
class Reflection:
    """A classified reflection: ``("negation", k)`` or ``("swap", a, b)``.

    For swaps, ``a`` is positive, ``|b| > a``, and the sign of ``b`` records
    whether the pair of values is exchanged with (+) or without (-) a sign
    flip; kind A transpositions are the positive swaps.
    """

    element: SignedPermutation

    @property
    def descriptor(self) -> tuple:
        """
        >>> Reflection(SignedPermutation((-1, 2))).descriptor
        ('negation', 1)
        >>> Reflection(SignedPermutation((-2, -1))).descriptor
        ('swap', 1, -2)
        """
        window = self.element.window
        moved = [j for j, v in enumerate(window, start=1) if v != j]
        if len(moved) == 1 and window[moved[0] - 1] == -moved[0]:
            return ("negation", moved[0])
        if len(moved) == 2:
            a, b = moved
            if window[a - 1] == b and window[b - 1] == a:
                return ("swap", a, b)
            if window[a - 1] == -b and window[b - 1] == -a:
                return ("swap", a, -b)
        raise ValueError(f"{self.element} is not a reflection")


def right_inversions(
    x: SignedPermutation, kind: str = "B"
) -> frozenset[SignedPermutation]:
    """Reflections r with ``length(x * r) < length(x)``.

    >>> len(right_inversions(SignedPermutation((-2, -1)))) == length(SignedPermutation((-2, -1)))
    True
    """
    base = length(x, kind)
    return frozenset(
        r for r in reflections(x.n, kind) if length(x * r, kind) < base
    )


def leq_left_weak(x: SignedPermutation, y: SignedPermutation, kind: str = "B") -> bool:
    """Left weak order: containment of right-inversion sets."""
    return right_inversions(x, kind) <= right_inversions(y, kind)


def weak_order_interval(
    x: SignedPermutation, y: SignedPermutation, kind: str = "B"
) -> tuple[SignedPermutation, ...]:
    """All z with ``x <= z <= y`` in left weak order (sorted; empty if x > y).

    >>> top = SignedPermutation((-1, -2))
    >>> len(weak_order_interval(simple_reflection(1, 2), top))
    4
    """
    inv_x = right_inversions(x, kind)
    inv_y = right_inversions(y, kind)
    if not inv_x <= inv_y:
        return ()
    return tuple(
        z
        for z in all_elements(x.n, kind)
        if inv_x <= right_inversions(z, kind) <= inv_y
    )


def convexity_witness(
    elements: Iterable[SignedPermutation], kind: str = "B"
) -> tuple[SignedPermutation, SignedPermutation, SignedPermutation] | None:
    """A triple ``(x, y, z)`` with ``x <= z <= y``, endpoints inside the set
    and ``z`` outside, or None when the set is convex.

    Pairs are scanned in window order, so the witness is deterministic.
    """
    inside = set(elements)
    ordered = sorted(inside, key=lambda m: m.window)
    for x in ordered:
        for y in ordered:
            if not leq_left_weak(x, y, kind):
                continue
            for z in weak_order_interval(x, y, kind):
                if z not in inside:
                    return x, y, z
    return None


def is_convex_left_weak(
    elements: Iterable[SignedPermutation], kind: str = "B"
) -> bool:
    """Whether every weak-order interval between members stays inside the set.

    >>> is_convex_left_weak([identity(2), simple_reflection(0, 2)])
    True
    """
    return convexity_witness(elements, kind) is None


def unique_maximal(
    elements: Iterable[SignedPermutation], kind: str = "B"
) -> SignedPermutation | None:
    """The unique weak-order-maximal member, or None if there are several.

    >>> unique_maximal([identity(2), simple_reflection(0, 2)]).window
    (-1, 2)
    """
    members = list(set(elements))
    maximal = [
        x
        for x in members
        if not any(y != x and leq_left_weak(x, y, kind) for y in members)
    ]
    return maximal[0] if len(maximal) == 1 else None


def is_aligned(
    u: SignedPermutation,
    v: SignedPermutation,
    s: int,
    t: int,
    kind: str = "B",
) -> bool:
    """Whether (u, v, s, t) is aligned: s, t are ascents and the conjugated
    reflections agree.

    >>> e = identity(2)
    >>> is_aligned(e, SignedPermutation((1, -2)), 0, 0)
    True
    """
    if s in left_descents(u, kind) or t in left_descents(v, kind):
        return False
    n = u.n
    left = u.inverse() * simple_reflection(s, n) * u
    right = v.inverse() * simple_reflection(t, n) * v
    return left == right


@dataclass(frozen=True)
class AlignedWitness:
    """An aligned quadruple on which membership of s*u and t*v disagrees."""

    u: SignedPermutation
    v: SignedPermutation
    s: int
    t: int


@dataclass(frozen=True)
class AscentCompatibilityReport:
    compatible: bool
    witness: AlignedWitness | None


def ascent_compatibility_report(
    elements: Iterable[SignedPermutation], kind: str = "B"
) -> AscentCompatibilityReport:
    """Scan all aligned quadruples inside the set for membership consistency.

    The set is ascent-compatible when every aligned quadruple (u, v, s, t)
    with u, v in the set satisfies: s*u in the set iff t*v in the set.

    >>> ascent_compatibility_report(all_elements(2)).compatible
    True
    """
    members = list(set(elements))
    if not members:
        return AscentCompatibilityReport(True, None)
    n = members[0].n
    member_set = set(members)
    # Group (element, ascent) pairs by the conjugated reflection; alignment
    # is exactly "same group", so consistency is checked within groups.
    by_reflection: dict[SignedPermutation, list[tuple[SignedPermutation, int, bool]]] = {}
    for u in members:
        descents = left_descents(u, kind)
        for s in generator_indices(n, kind):
            if s in descents:
                continue
            conjugated = u.inverse() * simple_reflection(s, n) * u
            inside = (simple_reflection(s, n) * u) in member_set
            by_reflection.setdefault(conjugated, []).append((u, s, inside))
    for group in by_reflection.values():
        for (u, s, in_u), (v, t, in_v) in itertools.combinations(group, 2):
            if in_u != in_v:
                return AscentCompatibilityReport(False, AlignedWitness(u, v, s, t))
    return AscentCompatibilityReport(True, None)


def parse_window(text: str) -> SignedPermutation:
    """Parse ``"2,-3,1"`` (or with barred digits) into a signed permutation.

    >>> parse_window("2,-3,1").window
    (2, -3, 1)
    """
    entries = []
    for piece in text.strip().split(","):
        piece = piece.strip()
        if BARRED in piece:
            entries.append(-int(piece.replace(BARRED, "")))
        else:
            entries.append(int(piece))
    return SignedPermutation(tuple(entries))


def format_window(x: SignedPermutation, barred: bool = False) -> str:
    """Render a window as ``"2,-3,1"`` or with barred digits.

    >>> format_window(SignedPermutation((2, -3, 1)))
    '2,-3,1'
    >>> format_window(SignedPermutation((2, -3, 1)), barred=True)
    '2,3̄,1'
    """
    if barred:
        return ",".join(
            f"{abs(v)}{BARRED}" if v < 0 else str(v) for v in x.window
        )
    return ",".join(str(v) for v in x.window)


def parse_index_set(text: str) -> frozenset[int]:
    """Parse ``"{0,3}"`` (or ``"{}"``) into a set of indices.

    >>> sorted(parse_index_set("{0,3}"))
    [0, 3]
    >>> parse_index_set("{}")
    frozenset()
    """
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"index set {text!r} must be brace-delimited")
    body = body[1:-1].strip()
    if not body:
        return frozenset()
    return frozenset(int(piece.strip()) for piece in body.split(","))


def format_index_set(indices: Iterable[int]) -> str:
    """Render a set of indices as ``"{0,3}"``.

    >>> format_index_set([3, 0])
    '{0,3}'
    """
    return "{" + ",".join(str(i) for i in sorted(indices)) + "}"


if __name__ == "__main__":
    import doctest

    doctest.testmod()
