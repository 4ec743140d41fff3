"""Signed permutations, weak order, and ascent-compatibility scanning.

A signed permutation on ``{1, ..., n}`` is stored by its window
``(sigma(1), ..., sigma(n))``, a tuple of nonzero integers whose absolute
values are a permutation of ``1..n``; it acts on negative arguments by
``sigma(-k) = -sigma(k)``.  The group is generated by ``s_0`` (negate the
value 1) and ``s_i`` (swap the values i and i+1) for ``1 <= i <= n-1``.

Products compose as functions: ``(sigma * tau)(j) = sigma(tau(j))``, so
``simple_reflection(i, n) * sigma`` applies the generator on the left, which
acts on the *values* in the window.

The weak-order, descent and ascent-compatibility readers work on one integer
table per rank, built on first use and cached.  Elements get integer ids in
``all_elements(n)`` order (window order), and per id the table holds

* the right-inversion set, as an int whose bit k stands for
  ``reflections(n)[k]``, and the Coxeter length, its popcount;
* the left descent set, as an int whose bit i stands for ``s_i``, computed in
  one pass over the inverse windows;
* the id of ``s_i * x`` for every i.

Each column is built only when a reader first asks for it, so filtering by
descents builds neither the window index nor the masks.  No reader of the
table multiplies or inverts group elements: if s is a left ascent of u then
``N(s*u) = N(u) + {u^-1 s u}`` (Björner–Brenti, *Combinatorics of Coxeter
Groups*, GTM 231, §1.4), so the reflection an ascent conjugates to is the one
bit in which the two masks differ.  ``SignedPermutation(...)`` validates its
window, and the elements of :func:`all_elements` and inverses are built
without the check; :func:`is_aligned` (by products), :func:`bfs_word_lengths`
and :func:`right_inversions` stay as independent oracles for the table.

>>> s0 = simple_reflection(0, 2)
>>> s1 = simple_reflection(1, 2)
>>> (s1 * s0 * s1).window
(1, -2)
>>> length(s1 * s0 * s1)
3
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from typing import Iterable


@dataclass(frozen=True, order=True, slots=True)
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
        return SignedPermutation._trusted(_inverse_window(self.window))

    @staticmethod
    def _trusted(window: tuple[int, ...]) -> "SignedPermutation":
        """Wrap a window known to be valid, without the check."""
        x = object.__new__(SignedPermutation)
        object.__setattr__(x, "window", window)
        return x


def _inverse_window(window: tuple[int, ...]) -> tuple[int, ...]:
    """The window of the inverse: value v at position j puts sign(v)*j at
    position |v|."""
    inv = [0] * len(window)
    for j, v in enumerate(window, start=1):
        if v > 0:
            inv[v - 1] = j
        else:
            inv[-v - 1] = -j
    return tuple(inv)


def identity(n: int) -> SignedPermutation:
    return SignedPermutation(tuple(range(1, n + 1)))


def simple_reflection(i: int, n: int) -> SignedPermutation:
    """The generator ``s_i``: ``s_0`` negates 1; ``s_i`` swaps i and i+1.

    >>> simple_reflection(0, 3).window
    (-1, 2, 3)
    >>> simple_reflection(2, 3).window
    (1, 3, 2)
    """
    if _checked_generator(i, n) == 0:
        return SignedPermutation((-1, *range(2, n + 1)))
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
    _checked_generator(a, b + 1)
    if (a, b) == (0, 1):
        return 4
    if b - a == 1:
        return 3
    return 2


# Largest rank a table is built for, and so the largest rank of the readers
# that use one, the largest degree of a family and the largest ``--max-n`` of
# the audit: B_6 has 46,080 elements, B_7 645,120 and B_8 ten million.
MAX_RANK = 6


@lru_cache(maxsize=None)
def all_elements(n: int) -> tuple[SignedPermutation, ...]:
    """All group elements in a fixed deterministic order (by window).

    >>> len(all_elements(2)), len(all_elements(3))
    (8, 48)
    """
    windows = sorted(
        tuple(s * p for s, p in zip(signs, positions))
        for positions in itertools.permutations(range(1, n + 1))
        for signs in itertools.product((1, -1), repeat=n)
    )
    return tuple(map(SignedPermutation._trusted, windows))


class _RankTable:
    """Integer columns of B_n, indexed by position in ``all_elements(n)``.

    Each column is a ``cached_property``, built on first read.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.elements = all_elements(n)

    @cached_property
    def ids(self) -> dict[tuple[int, ...], int]:
        """Window -> id."""
        return {x.window: k for k, x in enumerate(self.elements)}

    @cached_property
    def masks(self) -> list[int]:
        """Right-inversion sets, bit k for ``reflections(n)[k]``.

        Read from the window (Björner–Brenti, §8.1): the negation of
        position k is an inversion iff ``w(k) < 0``, the swap of positions
        a < b iff ``w(a) > w(b)``, and the signed swap iff
        ``w(a) + w(b) < 0``.  Left weak order is containment of these sets
        (cf. Prop. 3.1.3).
        """
        negations, swaps, signed_swaps = [], [], []
        for k, r in enumerate(reflections(self.n)):
            # a reflection negates one position or swaps a pair a < b,
            # with signs when it sends position a to -b
            moved = [j for j, v in enumerate(r.window) if v != j + 1]
            if len(moved) == 1:
                negations.append((moved[0], 1 << k))
            elif r.window[moved[0]] > 0:
                swaps.append((*moved, 1 << k))
            else:
                signed_swaps.append((*moved, 1 << k))
        masks = []
        for x in self.elements:
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
            masks.append(mask)
        return masks

    @cached_property
    def lengths(self) -> list[int]:
        """Coxeter lengths: the number of right inversions."""
        return [mask.bit_count() for mask in self.masks]

    @cached_property
    def descents(self) -> list[int]:
        """Left descent sets, bit i for ``s_i``.  With ``x^-1(0) = 0``, i is
        a descent iff ``x^-1(i) > x^-1(i+1)``."""
        pairs = range(self.n)
        result = []
        for x in self.elements:
            position = (0, *_inverse_window(x.window))
            mask = 0
            for i in pairs:
                if position[i] > position[i + 1]:
                    mask |= 1 << i
            result.append(mask)
        return result

    @cached_property
    def index_sets(self) -> tuple[frozenset[int], ...]:
        """The subset of ``range(n)`` with bitmask m, at index m: one shared
        frozenset per descent set."""
        return tuple(
            frozenset(i for i in range(self.n) if m >> i & 1)
            for m in range(1 << self.n)
        )

    @cached_property
    def left(self) -> tuple[list[int], ...]:
        """``left[i][k]`` is the id of ``s_i * x`` for x of id k: s_0 negates
        the value 1, s_i swaps the values i and i+1."""
        ids = self.ids
        columns = []
        for i in range(self.n):
            if i == 0:
                swap = {1: -1, -1: 1}
            else:
                swap = {i: i + 1, i + 1: i, -i: -i - 1, -i - 1: -i}
            columns.append(
                [ids[tuple(map(swap.get, x.window, x.window))] for x in self.elements]
            )
        return tuple(columns)


@lru_cache(maxsize=None)
def _rank_table(n: int) -> _RankTable:
    if not 0 <= n <= MAX_RANK:
        raise ValueError(f"rank {n} is outside 0..{MAX_RANK}")
    return _RankTable(n)


def _same_rank(*elements: SignedPermutation) -> int:
    """The rank shared by ``elements``; mixed ranks raise, as in products."""
    ranks = {x.n for x in elements}
    if len(ranks) > 1:
        raise ValueError("ranks differ")
    return ranks.pop()


def length(x: SignedPermutation) -> int:
    """Coxeter length, the size of the right-inversion set.

    >>> [length(SignedPermutation(w)) for w in [(-1, 2), (2, -1), (-2, 1), (-2, -1), (-1, -2)]]
    [1, 2, 2, 3, 4]
    """
    table = _rank_table(x.n)
    return table.lengths[table.ids[x.window]]


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
    """Indices i with ``length(s_i * x) < length(x)``: with ``x^-1(0) = 0``,
    i is a descent iff ``x^-1(i) > x^-1(i+1)``.

    >>> sorted(left_descents(SignedPermutation((2, -1))))
    [0]
    >>> sorted(left_descents(SignedPermutation((-1, -2))))
    [0, 1]
    """
    table = _rank_table(x.n)
    return table.index_sets[table.descents[table.ids[x.window]]]


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


def right_inversions(x: SignedPermutation) -> frozenset[SignedPermutation]:
    """Reflections r with ``length(x * r) < length(x)``, by products.

    Independent oracle for the inversion masks of the table.

    >>> len(right_inversions(SignedPermutation((-2, -1)))) == length(SignedPermutation((-2, -1)))
    True
    """
    base = length(x)
    return frozenset(r for r in reflections(x.n) if length(x * r) < base)


def leq_left_weak(x: SignedPermutation, y: SignedPermutation) -> bool:
    """Left weak order: containment of right-inversion sets."""
    table = _rank_table(_same_rank(x, y))
    masks, ids = table.masks, table.ids
    return masks[ids[x.window]] & ~masks[ids[y.window]] == 0


def weak_order_interval(
    x: SignedPermutation, y: SignedPermutation
) -> tuple[SignedPermutation, ...]:
    """All z with ``x <= z <= y`` in left weak order (sorted; empty if x > y).

    >>> top = SignedPermutation((-1, -2))
    >>> len(weak_order_interval(simple_reflection(1, 2), top))
    4
    """
    table = _rank_table(_same_rank(x, y))
    masks, ids = table.masks, table.ids
    low, high = masks[ids[x.window]], masks[ids[y.window]]
    if low & ~high:
        return ()
    return tuple(
        z
        for z, mask in zip(table.elements, masks)
        if low & ~mask == 0 and mask & ~high == 0
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
    table = _rank_table(_same_rank(*inside))
    masks, ids = table.masks, table.ids
    # ids follow window order
    ordered = sorted(ids[x.window] for x in inside)
    members = set(ordered)
    outside = [(z, mask) for z, mask in enumerate(masks) if z not in members]
    for x in ordered:
        low = masks[x]
        above = [(z, mask) for z, mask in outside if low & ~mask == 0]
        for y in ordered:
            high = masks[y]
            if low & ~high:
                continue
            for z, mask in above:
                if mask & ~high == 0:
                    return tuple(table.elements[k] for k in (x, y, z))
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
    reflections agree.  Computed by products: the independent oracle for
    :func:`ascent_compatibility_report`.

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
    table = _rank_table(_same_rank(*members))
    ids, masks, descents, left = table.ids, table.masks, table.descents, table.left
    member_ids = [ids[u.window] for u in members]
    inside = set(member_ids)
    # Group (element, ascent) pairs by the conjugated reflection u^-1 s u,
    # the one bit of N(s*u) outside N(u); alignment is exactly "same group",
    # so consistency is checked within groups.
    by_reflection: dict[int, list[tuple[SignedPermutation, int, bool]]] = {}
    for u, k in zip(members, member_ids):
        descent = descents[k]
        for s, column in enumerate(left):
            if descent >> s & 1:
                continue
            up = column[k]
            by_reflection.setdefault(masks[up] ^ masks[k], []).append(
                (u, s, up in inside)
            )
    # a group is consistent when every member agrees with the first, and the
    # first disagreeing pair in pairwise order is the first member and the
    # first member that differs from it
    for (u, s, in_u), *rest in by_reflection.values():
        for v, t, in_v in rest:
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


def checked_index_set(subset: Iterable[int], n: int, start: int = 0) -> frozenset[int]:
    """``subset`` as a frozenset, checked to lie in ``start..start+n-1``.

    This is the one range check of an index set: fundamentals, descent
    labels and the index sets of induced modules lie in ``0..n-1``, peak sets
    in ``1..n-1``, Clifford index sets and primed entries in ``1..n``.  Each
    element is read through ``operator.index``, so a float raises
    ``TypeError``.  A negative ``n`` is a negative degree and raises.

    >>> sorted(checked_index_set((3, 0), 4))
    [0, 3]
    >>> checked_index_set({0, 4}, 4, start=1)
    Traceback (most recent call last):
    ...
    ValueError: index set {0,4} is outside 1..4
    """
    if n < 0:
        raise ValueError(f"degree {n} is negative")
    index_set = frozenset(map(operator.index, subset))
    for i in index_set:
        if not start <= i < start + n:
            raise ValueError(
                f"index set {format_index_set(index_set)} is outside "
                f"{start}..{start + n - 1}"
            )
    return index_set


def _checked_generator(i: int, n: int) -> int:
    """``i`` checked to index one of the generators ``0..n-1`` of rank ``n``."""
    if not 0 <= i < n:
        raise ValueError(f"generator index {i} out of range for n={n}")
    return i


def _cached_on(canonical):
    """Cache a function on the positional tuple ``canonical(*args, **kwargs)``
    that checks its arguments: equal inputs of any spelling share one entry,
    and a rejected input never reaches the cache.  The wrapper keeps
    ``cache_info`` and ``cache_clear``."""

    def decorate(func):
        cached = lru_cache(maxsize=None)(func)

        @wraps(func)
        def wrapper(*args, **kwargs):
            return cached(*canonical(*args, **kwargs))

        wrapper.cache_info = cached.cache_info
        wrapper.cache_clear = cached.cache_clear
        return wrapper

    return decorate


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
