"""Exact arithmetic on permutations of the 2r index slots of an r-party density matrix.

A density matrix on r subsystems carries 2r tensor indices: slot 2k-1 is the
row (ket) index of party k and slot 2k its column (bra) index.  Permutations
are stored in one-line word notation ``[s(1) s(2) ... s(2r)]`` with 1-based
slots, and may be displayed in disjoint-cycle notation.

The composition convention is fixed so that permuting matrix entries twice
composes the words: ``compose(a, b)`` applies ``a`` first and ``b`` second,
and the induced entry maps satisfy ``L_b(L_a(M)) == L_compose(a,b)(M)``
(see :func:`permsep.states.apply_criterion`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class Permutation:
    """A bijection of the slots {1, ..., 2r} in one-line word notation."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if n == 0 or n % 2 != 0:
            raise ValueError(f"need an even, positive number of slots, got {n}")
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"images {self.images} are not a bijection of 1..{n}")

    @property
    def parties(self) -> int:
        return len(self.images) // 2

    def __call__(self, slot: int) -> int:
        """Image of a 1-based slot.

        >>> Permutation((2, 1, 4, 3))(3)
        4
        """
        if not 1 <= slot <= len(self.images):
            raise ValueError(f"slot {slot} out of range 1..{len(self.images)}")
        return self.images[slot - 1]

    def __str__(self):
        return cycle_string(self)


def identity(parties: int) -> Permutation:
    """The identity permutation on 2*parties slots.

    >>> identity(2).images
    (1, 2, 3, 4)
    """
    if parties < 1:
        raise ValueError(f"parties must be >= 1, got {parties}")
    return Permutation(tuple(range(1, 2 * parties + 1)))


def global_transpose(parties: int) -> Permutation:
    """The involution (1,2)(3,4)...(2r-1,2r) swapping each party's row and
    column slot; the induced entry map is the full matrix transpose.

    >>> global_transpose(2).images
    (2, 1, 4, 3)
    """
    if parties < 1:
        raise ValueError(f"parties must be >= 1, got {parties}")
    images = []
    for k in range(1, parties + 1):
        images += [2 * k, 2 * k - 1]
    return Permutation(tuple(images))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """The composite applying ``a`` first, then ``b``: result(k) = b(a(k)).

    >>> compose(Permutation((1, 2, 4, 3)), Permutation((1, 3, 2, 4))).images
    (1, 3, 4, 2)
    """
    if len(a.images) != len(b.images):
        raise ValueError(
            f"cannot compose permutations on {len(a.images)} and {len(b.images)} slots"
        )
    return Permutation(tuple(b.images[i - 1] for i in a.images))


def inverse(p: Permutation) -> Permutation:
    """The inverse word: inverse(p)(p(k)) = k.

    >>> inverse(Permutation((2, 3, 1, 4))).images
    (3, 1, 2, 4)
    """
    inv = [0] * len(p.images)
    for slot, image in enumerate(p.images, start=1):
        inv[image - 1] = slot
    return Permutation(tuple(inv))


def from_transpositions(pairs: Iterable[tuple[int, int]], parties: int) -> Permutation:
    """Product of pairwise-disjoint transpositions on 2*parties slots.

    >>> from_transpositions([(3, 4)], parties=2).images
    (1, 2, 4, 3)
    >>> from_transpositions([(2, 3)], parties=2).images
    (1, 3, 2, 4)
    """
    n = 2 * parties
    images = list(range(1, n + 1))
    used: set[int] = set()
    for a, b in pairs:
        for slot in (a, b):
            if not 1 <= slot <= n:
                raise ValueError(f"slot {slot} out of range 1..{n}")
            if slot in used:
                raise ValueError(f"transpositions overlap on slot {slot}")
            used.add(slot)
        images[a - 1], images[b - 1] = images[b - 1], images[a - 1]
    return Permutation(tuple(images))


def to_cycles(p: Permutation) -> tuple[tuple[int, ...], ...]:
    """Disjoint-cycle decomposition, fixed points omitted.  Each cycle starts
    at its smallest slot; cycles are ordered by that slot.

    >>> to_cycles(Permutation((2, 1, 4, 3)))
    ((1, 2), (3, 4))
    >>> to_cycles(Permutation((1, 2, 3, 4)))
    ()
    """
    seen = [False] * len(p.images)
    cycles = []
    for start in range(1, len(p.images) + 1):
        if seen[start - 1] or p(start) == start:
            continue
        cycle = []
        slot = start
        while not seen[slot - 1]:
            seen[slot - 1] = True
            cycle.append(slot)
            slot = p(slot)
        cycles.append(tuple(cycle))
    return tuple(cycles)


def cycle_string(p: Permutation) -> str:
    """Human-readable cycle notation, ``"id"`` for the identity."""
    cycles = to_cycles(p)
    if not cycles:
        return "id"
    return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)


def is_norm_preserving(p: Permutation) -> bool:
    """Whether the induced entry map leaves every operator's trace norm fixed.

    These permutations form the group generated by swaps of two row slots,
    swaps of two column slots, and the global transpose: exactly the words
    that either preserve slot parity everywhere or flip it everywhere.
    Parity-preserving words act as row/column relabelings (unitary left and
    right factors), and the global transpose converts a parity-flipping word
    into a parity-preserving one.

    >>> is_norm_preserving(global_transpose(3))
    True
    >>> is_norm_preserving(Permutation((1, 3, 2, 4)))
    False
    """
    same = [image % 2 == slot % 2 for slot, image in enumerate(p.images, start=1)]
    return all(same) or not any(same)


def norm_group(parties: int) -> list[Permutation]:
    """All norm-preserving permutations on 2*parties slots, built by closing
    the generator set under composition (no parity shortcut).  Size is
    2*(r!)^2; intended for cross-checks and small-r brute force, so the
    closure is deliberately independent of :func:`is_norm_preserving`.
    """
    gens = [global_transpose(parties)]
    for k in range(1, parties + 1):
        for l in range(k + 1, parties + 1):
            gens.append(from_transpositions([(2 * k, 2 * l)], parties))
            gens.append(from_transpositions([(2 * k - 1, 2 * l - 1)], parties))
    seen = {identity(parties).images}
    frontier = [identity(parties)]
    while frontier:
        new: list[Permutation] = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q.images not in seen:
                    seen.add(q.images)
                    new.append(q)
        frontier = new
    return [Permutation(images) for images in sorted(seen)]


def random_norm_preserving(parties: int, rng) -> Permutation:
    """Draw a uniform element of the norm-preserving group: independent
    uniform relabelings of the row and column slots, plus a fair coin for
    the global-transpose factor."""
    odd = rng.permutation(parties)
    even = rng.permutation(parties)
    images = [0] * (2 * parties)
    for k in range(parties):
        images[2 * k] = 2 * int(odd[k]) + 1
        images[2 * k + 1] = 2 * int(even[k]) + 2
    if rng.integers(0, 2):
        images = [i + 1 if i % 2 == 1 else i - 1 for i in images]
    return Permutation(tuple(images))


def dependent(sigma: Permutation, mu: Permutation) -> bool:
    """Whether two permutation criteria give equal trace norms on every state.

    Criteria related by a norm-preserving post-map are equal on all operators
    (``L_mu = L_nu . L_sigma`` with nu = mu . sigma^-1 norm preserving), and
    Hermitian symmetry further identifies sigma with sigma-after-transpose,
    so the test is: mu . sigma^-1 or mu . tau . sigma^-1 norm preserving,
    where tau is the global transpose and "." is apply-right-first.  The
    classes are double cosets, hence a genuine equivalence relation.

    >>> dependent(Permutation((4, 2, 3, 1)), Permutation((1, 3, 2, 4)))
    True
    >>> dependent(Permutation((1, 2, 4, 3)), Permutation((1, 3, 2, 4)))
    False
    """
    if sigma.parties != mu.parties:
        raise ValueError(
            f"party counts differ: {sigma.parties} vs {mu.parties}"
        )
    inv = inverse(sigma)
    if is_norm_preserving(compose(inv, mu)):
        return True
    tau = global_transpose(sigma.parties)
    return is_norm_preserving(compose(inv, compose(tau, mu)))
