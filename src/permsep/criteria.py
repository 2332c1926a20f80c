"""Canonical classification of independent permutation criteria.

Every coset of the norm-preserving group has a representative built from
disjoint elementary pieces, one per subsystem: an arrow between two
subsystems (reshuffling), a loop on one subsystem (partial transpose), or
nothing.  A criterion class is therefore a word over four per-subsystem
roles -- Free, Loop, Head, Tail -- with equally many heads and tails.

Two words describe the same class exactly when they are related by
reversing every arrow (Head <-> Tail), by trading loops for free
subsystems (Loop <-> Free), or by both at once.  The canonical form is the
lexicographic minimum of that four-element orbit under the fixed role
order Free < Loop < Head < Tail.  The two swaps change disjoint subsystems,
so the minimum is found without forming the orbit: the first subsystem
with a Free or Loop role is Free, and the first with a Head or Tail role
is Head.  Whichever of the two comes first decides the comparison and is
set by its own swap; the other swap then decides the first place where
the two remaining images differ.  The number of classes is

    (C(2r, r) + 2^r + C(r, r/2) * [r even]) / 4,

counting the trivial (all-Free) class; the division is always exact.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Sequence

from .perms import Permutation, dependent, from_transpositions

MAX_PARTIES = 8


class Role(enum.IntEnum):
    """Per-subsystem role; the integer values fix the canonical order."""

    FREE = 0
    LOOP = 1
    HEAD = 2
    TAIL = 3

    @property
    def char(self) -> str:
        return "FLHT"[self]


_ROLE_FROM_CHAR = {r.char: r for r in Role}

RoleWord = tuple[Role, ...]


@dataclass(frozen=True)
class CriterionClass:
    """One independent criterion: canonical role word, enumeration index,
    display label."""

    roles: RoleWord
    class_id: int
    label: str

    @property
    def parties(self) -> int:
        return len(self.roles)

    def __str__(self):
        return f"{self.class_id}:{roles_to_string(self.roles)} ({self.label})"


def validate_roles(roles: Sequence[Role]) -> RoleWord:
    roles = tuple(Role(x) for x in roles)
    if not roles:
        raise ValueError("role word must cover at least one subsystem")
    heads = sum(x == Role.HEAD for x in roles)
    tails = sum(x == Role.TAIL for x in roles)
    if heads != tails:
        raise ValueError(f"unbalanced arrows: {heads} heads vs {tails} tails")
    return roles


def roles_to_string(roles: Sequence[Role]) -> str:
    """Compact FLHT encoding, e.g. (HEAD, TAIL, FREE) -> 'HTF'."""
    return "".join(r.char for r in roles)


def roles_from_string(text: str) -> RoleWord:
    """Inverse of :func:`roles_to_string`."""
    try:
        return validate_roles(tuple(_ROLE_FROM_CHAR[c] for c in text.upper()))
    except KeyError as exc:
        raise ValueError(f"unknown role character {exc.args[0]!r}") from None


_SWAP_HT = {Role.HEAD: Role.TAIL, Role.TAIL: Role.HEAD}
_SWAP_LF = {Role.LOOP: Role.FREE, Role.FREE: Role.LOOP}


def swap_heads_tails(roles: RoleWord) -> RoleWord:
    return tuple(_SWAP_HT.get(x, x) for x in roles)


def swap_loops_free(roles: RoleWord) -> RoleWord:
    return tuple(_SWAP_LF.get(x, x) for x in roles)


def canonical_roles(roles: Sequence[Role]) -> RoleWord:
    """Lexicographic minimum over the four symmetry images of a role word.

    It is the image whose first Head-or-Tail role is Head and whose first
    Free-or-Loop role is Free: each swap fixes the other's subsystems, so
    the word is swapped Head <-> Tail when its first arrow role is Tail and
    Loop <-> Free when its first such role is Loop.
    """
    roles = validate_roles(roles)
    if next((x for x in roles if x >= Role.HEAD), Role.HEAD) == Role.TAIL:
        roles = swap_heads_tails(roles)
    if next((x for x in roles if x <= Role.LOOP), Role.FREE) == Role.LOOP:
        roles = swap_loops_free(roles)
    return roles


def arrows_and_loops(
    roles: Sequence[Role],
) -> tuple[list[tuple[int, int]], list[int]]:
    """Arrow list [(head, tail), ...] and loop list, 1-based subsystems.

    The i-th smallest head is paired with the i-th smallest tail; any other
    pairing lands in the same class, so the sorted one is used throughout.
    """
    heads = [k for k, x in enumerate(roles, start=1) if x == Role.HEAD]
    tails = [k for k, x in enumerate(roles, start=1) if x == Role.TAIL]
    loops = [k for k, x in enumerate(roles, start=1) if x == Role.LOOP]
    return list(zip(heads, tails)), loops


def _roles_of(roles_or_class: Sequence[Role] | CriterionClass) -> RoleWord:
    if isinstance(roles_or_class, CriterionClass):
        return roles_or_class.roles
    return validate_roles(roles_or_class)


def to_permutation(roles_or_class: Sequence[Role] | CriterionClass) -> Permutation:
    """Representative permutation of a role word: each arrow head->tail
    contributes the transposition (2*head, 2*tail - 1), each loop on m the
    transposition (2m - 1, 2m); all pieces are disjoint.

    >>> to_permutation(roles_from_string("HT")).images
    (1, 3, 2, 4)
    >>> to_permutation(roles_from_string("FL")).images
    (1, 2, 4, 3)
    """
    roles = _roles_of(roles_or_class)
    arrows, loops = arrows_and_loops(roles)
    pairs = [(2 * h, 2 * t - 1) for h, t in arrows]
    pairs += [(2 * m - 1, 2 * m) for m in loops]
    return from_transpositions(pairs, parties=len(roles))


def label_for(roles: RoleWord) -> str:
    """Display label in the row-naming scheme: QT for a partial transpose,
    R for a reshuffle (primed when the canonical arrow runs backwards),
    with multiplicities, e.g. 'R+QT', '2R', "R+R'".  The loop count is
    taken from whichever of the word and its Loop<->Free image has fewer
    loops, so e.g. FLL at r=3 reads as the single partial transpose it is.
    """
    arrows, loops = arrows_and_loops(roles)
    forward = sum(h < t for h, t in arrows)
    backward = len(arrows) - forward
    free = len(roles) - 2 * len(arrows) - len(loops)
    eff_loops = min(len(loops), free)
    parts = []
    if forward:
        parts.append("R" if forward == 1 else f"{forward}R")
    if backward:
        parts.append("R'" if backward == 1 else f"{backward}R'")
    if eff_loops:
        parts.append("QT" if eff_loops == 1 else f"{eff_loops}QT")
    return "+".join(parts) if parts else "identity"


def describe(roles_or_class: Sequence[Role] | CriterionClass) -> str:
    """Per-arrow detail, e.g. 'R[1->2] R'[4->3] QT[5]'; 'identity' if empty."""
    arrows, loops = arrows_and_loops(_roles_of(roles_or_class))
    parts = [
        ("R" if h < t else "R'") + f"[{h}->{t}]" for h, t in arrows
    ]
    parts += [f"QT[{m}]" for m in loops]
    return " ".join(parts) if parts else "identity"


def count_classes(parties: int) -> int:
    """Closed-form class count, exact integer arithmetic.

    >>> [count_classes(r) for r in range(1, 9)]
    [1, 3, 7, 23, 71, 252, 890, 3299]
    """
    if parties < 1:
        raise ValueError(f"parties must be >= 1, got {parties}")
    r = parties
    total = comb(2 * r, r) + 2**r + (comb(r, r // 2) if r % 2 == 0 else 0)
    quotient, remainder = divmod(total, 4)
    if remainder:
        raise ArithmeticError(f"class-count formula not divisible by 4 at r={r}")
    return quotient


@lru_cache(maxsize=None)
def enumerate_classes(parties: int) -> tuple[CriterionClass, ...]:
    """Every criterion class exactly once, ordered by canonical role word.

    The canonical words are generated directly, in sorted order: a word is
    canonical when it is balanced, its first Free-or-Loop role is Free and
    its first Head-or-Tail role is Head (see :func:`canonical_roles`).
    Class ids are positions in that order, so the all-Free (trivial) class
    is always id 0.
    """
    if not 1 <= parties <= MAX_PARTIES:
        raise ValueError(f"parties must be in 1..{MAX_PARTIES}, got {parties}")
    return tuple(
        CriterionClass(roles=roles, class_id=i, label=label_for(roles))
        for i, roles in enumerate(_canonical_words((), 0, parties))
    )


def _canonical_words(word: RoleWord, balance: int, left: int) -> Iterator[RoleWord]:
    """The canonical words that extend ``word`` by ``left`` roles, sorted.

    Depth first, trying roles in the order Free < Loop < Head < Tail, so
    the words come out in lexicographic order.  ``balance`` is the prefix's
    heads minus tails; a role goes next only if the |balance| it leaves can
    still close over the remaining subsystems.  Loop goes only after a
    Free and Tail only after a Head, which keeps every word canonical.
    """
    if not left:
        yield word
        return
    left -= 1
    if abs(balance) <= left:
        yield from _canonical_words(word + (Role.FREE,), balance, left)
        if Role.FREE in word:
            yield from _canonical_words(word + (Role.LOOP,), balance, left)
    if abs(balance + 1) <= left:
        yield from _canonical_words(word + (Role.HEAD,), balance + 1, left)
    if Role.HEAD in word and abs(balance - 1) <= left:
        yield from _canonical_words(word + (Role.TAIL,), balance - 1, left)


@lru_cache(maxsize=None)
def _classes_by_roles(parties: int) -> dict[RoleWord, CriterionClass]:
    return {cls.roles: cls for cls in enumerate_classes(parties)}


def canonicalize(roles: Sequence[Role]) -> CriterionClass:
    """The class of a role word: its canonical form, looked up in a table
    from canonical word to class built once per r from the enumeration."""
    canon = canonical_roles(roles)
    return _classes_by_roles(len(canon))[canon]


def class_of(sigma: Permutation) -> CriterionClass:
    """The unique class whose representative is dependent with ``sigma``.

    Existence is guaranteed by the coset classification, so a miss is an
    internal error, not bad input.
    """
    for cls in enumerate_classes(sigma.parties):
        if dependent(sigma, to_permutation(cls)):
            return cls
    raise AssertionError(
        f"no class matches {sigma.images}; the classification is broken"
    )


def class_to_dict(cls: CriterionClass) -> dict:
    """JSON form: {"roles": "FLHT-word", "label": ..., "permutation": [...]}"""
    return {
        "roles": roles_to_string(cls.roles),
        "label": cls.label,
        "permutation": list(to_permutation(cls).images),
    }


def classes_by_label(parties: int) -> dict[str, list[CriterionClass]]:
    """Classes grouped into display rows."""
    rows: dict[str, list[CriterionClass]] = {}
    for cls in enumerate_classes(parties):
        rows.setdefault(cls.label, []).append(cls)
    return rows


def balanced_role_words(parties: int) -> Iterable[RoleWord]:
    """All role words with equally many heads and tails (C(2r, r) of them)."""
    for word in itertools.product(tuple(Role), repeat=parties):
        if word.count(Role.HEAD) == word.count(Role.TAIL):
            yield word
