"""Signed permutations, weak order, and ascent-compatibility scanning.

A signed permutation on ``{1, ..., n}`` is stored by its window
``(sigma(1), ..., sigma(n))``, a tuple of nonzero integers whose absolute
values are a permutation of ``1..n``; it acts on negative arguments by
``sigma(-k) = -sigma(k)``.  The group is generated by ``s_0`` (negate the
value 1) and ``s_i`` (swap the values i and i+1) for ``1 <= i <= n-1``.

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
from typing import Iterable

__all__ = [
    "SignedPermutation",
    "Reflection",
    "AlignedWitness",
    "AscentCompatibilityReport",
    "simple_reflection",
    "identity",
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
    "is_aligned",
    "ascent_compatibility_report",
    "format_window",
    "parse_index_set",
    "format_index_set",
    "subsets",
]

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


def braid_exponent(i: int, j: int) -> int:
    """Order of ``s_i s_j``: 4 for {0,1}, 3 for other adjacent, else 2.

    >>> [braid_exponent(0, 1), braid_exponent(1, 2), braid_exponent(0, 2)]
    [4, 3, 2]
    """
    if i == j:
        raise ValueError("distinct indices required")
    a, b = min(i, j), max(i, j)
    if (a, b) == (0, 1):
        return 4
    if b - a == 1:
        return 3
    return 2


@lru_cache(maxsize=None)
def all_elements(n: int) -> tuple[SignedPermutation, ...]:
    """All group elements in a fixed deterministic order.

    >>> len(all_elements(2)), len(all_elements(3))
    (8, 48)
    """
    result = []
    for positions in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            result.append(
                SignedPermutation(tuple(s * p for s, p in zip(signs, positions)))
            )
    return tuple(sorted(result))


def length(x: SignedPermutation) -> int:
    """Coxeter length: window inversions plus the negated values.

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
    return inversions + sum(-v for v in window if v < 0)


@lru_cache(maxsize=None)
def bfs_word_lengths(n: int) -> dict[SignedPermutation, int]:
    """Word lengths from breadth-first search over the Cayley graph.

    Independent oracle for :func:`length`; normative at small rank.

    >>> lengths = bfs_word_lengths(2)
    >>> lengths[SignedPermutation((-1, -2))]
    4
    """
    gens = [simple_reflection(i, n) for i in range(n)]
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


def left_descents(x: SignedPermutation) -> frozenset[int]:
    """Indices i with ``length(s_i * x) < length(x)``, read from the inverse
    window: with ``x^-1(0) = 0``, i is a descent iff ``x^-1(i) > x^-1(i+1)``.

    >>> sorted(left_descents(SignedPermutation((2, -1))))
    [0]
    >>> sorted(left_descents(SignedPermutation((-1, -2))))
    [0, 1]
    """
    position = (0, *x.inverse().window)
    return frozenset(i for i in range(x.n) if position[i] > position[i + 1])


@lru_cache(maxsize=None)
def reflections(n: int) -> tuple[SignedPermutation, ...]:
    """All reflections (conjugates of generators), as group elements.

    >>> len(reflections(2)), len(reflections(3))
    (4, 9)
    """
    result: list[SignedPermutation] = []
    for k in range(1, n + 1):
        window = list(range(1, n + 1))
        window[k - 1] = -k
        result.append(SignedPermutation(tuple(window)))
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            for left, right in ((b, a), (-b, -a)):
                window = list(range(1, n + 1))
                window[a - 1], window[b - 1] = left, right
                result.append(SignedPermutation(tuple(window)))
    return tuple(sorted(result))


@dataclass(frozen=True)
class Reflection:
    """A classified reflection: ``("negation", k)`` or ``("swap", a, b)``.

    For swaps, ``a`` is positive, ``|b| > a``, and the sign of ``b`` records
    whether the pair of values is exchanged without (+) or with (-) a sign
    flip.
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


@lru_cache(maxsize=None)
def _inversion_masks(n: int) -> dict[SignedPermutation, int]:
    """Right-inversion set of every element of B_n, in ``all_elements(n)``
    order, as an int whose bit k stands for ``reflections(n)[k]``.

    Read from the window (Björner–Brenti, *Combinatorics of Coxeter
    Groups*, GTM 231, §8.1): the negation of position k is an inversion iff
    ``w(k) < 0``, the swap of positions a < b iff ``w(a) > w(b)``, and the
    signed swap iff ``w(a) + w(b) < 0``.  Left weak order is containment of
    these sets (cf. Prop. 3.1.3).
    """
    negations, swaps, signed_swaps = [], [], []
    for k, r in enumerate(reflections(n)):
        kind, *moved = Reflection(r).descriptor
        if kind == "negation":
            negations.append((moved[0] - 1, 1 << k))
        elif moved[1] > 0:
            swaps.append((moved[0] - 1, moved[1] - 1, 1 << k))
        else:
            signed_swaps.append((moved[0] - 1, -moved[1] - 1, 1 << k))
    masks = {}
    for x in all_elements(n):
        w = x.window
        mask = 0
        for k, bit in negations:
            if w[k] < 0:
                mask |= bit
        for a, b, bit in swaps:
            if w[a] > w[b]:
                mask |= bit
        for a, b, bit in signed_swaps:
            if w[a] + w[b] < 0:
                mask |= bit
        masks[x] = mask
    return masks


def _same_rank(*elements: SignedPermutation) -> int:
    """The rank shared by ``elements``; mixed ranks raise, as in products."""
    ranks = {x.n for x in elements}
    if len(ranks) > 1:
        raise ValueError("ranks differ")
    return ranks.pop()


def right_inversions(x: SignedPermutation) -> frozenset[SignedPermutation]:
    """Reflections r with ``length(x * r) < length(x)``.

    >>> len(right_inversions(SignedPermutation((-2, -1)))) == length(SignedPermutation((-2, -1)))
    True
    """
    mask = _inversion_masks(x.n)[x]
    return frozenset(
        r for k, r in enumerate(reflections(x.n)) if mask >> k & 1
    )


def leq_left_weak(x: SignedPermutation, y: SignedPermutation) -> bool:
    """Left weak order: containment of right-inversion sets."""
    masks = _inversion_masks(_same_rank(x, y))
    return masks[x] & ~masks[y] == 0


def weak_order_interval(
    x: SignedPermutation, y: SignedPermutation
) -> tuple[SignedPermutation, ...]:
    """All z with ``x <= z <= y`` in left weak order (sorted; empty if x > y).

    >>> top = SignedPermutation((-1, -2))
    >>> len(weak_order_interval(simple_reflection(1, 2), top))
    4
    """
    masks = _inversion_masks(_same_rank(x, y))
    low, high = masks[x], masks[y]
    if low & ~high:
        return ()
    return tuple(
        z for z, mask in masks.items() if low & ~mask == 0 and mask & ~high == 0
    )


def convexity_witness(
    elements: Iterable[SignedPermutation],
) -> tuple[SignedPermutation, SignedPermutation, SignedPermutation] | None:
    """A triple ``(x, y, z)`` with ``x <= z <= y``, endpoints inside the set
    and ``z`` outside, or None when the set is convex.

    Pairs are scanned in window order and each interval in
    ``all_elements`` order, so the witness is deterministic.
    """
    inside = set(elements)
    if not inside:
        return None
    masks = _inversion_masks(_same_rank(*inside))
    outside = [(z, mask) for z, mask in masks.items() if z not in inside]
    ordered = sorted(inside, key=lambda m: m.window)
    for x in ordered:
        low = masks[x]
        above = [(z, mask) for z, mask in outside if low & ~mask == 0]
        for y in ordered:
            high = masks[y]
            if low & ~high:
                continue
            for z, mask in above:
                if mask & ~high == 0:
                    return x, y, z
    return None


def is_convex_left_weak(elements: Iterable[SignedPermutation]) -> bool:
    """Whether every weak-order interval between members stays inside the set.

    >>> is_convex_left_weak([identity(2), simple_reflection(0, 2)])
    True
    """
    return convexity_witness(elements) is None


def is_aligned(
    u: SignedPermutation,
    v: SignedPermutation,
    s: int,
    t: int,
) -> bool:
    """Whether (u, v, s, t) is aligned: s, t are ascents and the conjugated
    reflections agree.

    >>> e = identity(2)
    >>> is_aligned(e, SignedPermutation((1, -2)), 0, 0)
    True
    """
    if s in left_descents(u) or t in left_descents(v):
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
    elements: Iterable[SignedPermutation],
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
        descents = left_descents(u)
        for s in range(n):
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


def format_window(x: SignedPermutation) -> str:
    """Render a window as ``"2,-3,1"``.

    >>> format_window(SignedPermutation((2, -3, 1)))
    '2,-3,1'
    """
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


def subsets(items: Iterable) -> tuple[tuple, ...]:
    """All subsets of ``items`` as tuples, by size then lexicographically.

    >>> subsets(range(3))
    ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))
    >>> subsets(())
    ((),)
    """
    items = tuple(items)
    return tuple(
        itertools.chain.from_iterable(
            itertools.combinations(items, size) for size in range(len(items) + 1)
        )
    )


if __name__ == "__main__":
    import doctest

    doctest.testmod()
