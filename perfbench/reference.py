"""Independent reference computations the benchmark checks permsep against.

Nothing here calls the permsep function whose output it checks: role words,
representatives, the slot-permutation entry map and the class count are
written out again from their definitions (see the permsep README), and trace
norms come straight from ``numpy.linalg.svd``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

import numpy as np

ROLE_ORDER = "FLHT"  # canonical order Free < Loop < Head < Tail
_SWAP_HT = str.maketrans("HT", "TH")
_SWAP_LF = str.maketrans("LF", "FL")


def class_count(parties: int) -> int:
    """(C(2r, r) + 2^r + C(r, r/2)·[r even]) / 4."""
    r = parties
    total = comb(2 * r, r) + 2**r + (comb(r, r // 2) if r % 2 == 0 else 0)
    return total // 4


def word_key(word: str) -> tuple[int, ...]:
    return tuple(ROLE_ORDER.index(c) for c in word)


def canonical_word(word: str) -> str:
    """Least of the four images of a role word under Head<->Tail and Loop<->Free."""
    flipped = word.translate(_SWAP_HT)
    images = (word, flipped, word.translate(_SWAP_LF), flipped.translate(_SWAP_LF))
    return min(images, key=word_key)


@lru_cache(maxsize=None)
def canonical_words(parties: int) -> tuple[str, ...]:
    """Every class as its canonical balanced role word, in class-id order."""
    words = {
        canonical_word("".join(w))
        for w in itertools.product(ROLE_ORDER, repeat=parties)
        if w.count("H") == w.count("T")
    }
    return tuple(sorted(words, key=word_key))


def representative(word: str) -> tuple[int, ...]:
    """One-line images of a role word's representative permutation.

    The i-th head is paired with the i-th tail; an arrow h->t swaps slots
    2h and 2t-1 and a loop on m swaps slots 2m-1 and 2m (1-based slots).
    """
    images = list(range(1, 2 * len(word) + 1))
    heads = [k for k, c in enumerate(word, start=1) if c == "H"]
    tails = [k for k, c in enumerate(word, start=1) if c == "T"]
    swaps = [(2 * h, 2 * t - 1) for h, t in zip(heads, tails)]
    swaps += [(2 * m - 1, 2 * m) for m, c in enumerate(word, start=1) if c == "L"]
    for a, b in swaps:
        images[a - 1], images[b - 1] = images[b - 1], images[a - 1]
    return tuple(images)


def gather_index(images: tuple[int, ...], dim: int) -> np.ndarray:
    """Flat source index of every entry of the permuted image.

    Entry (row, col) of the image has slot digits i_1..i_2r, odd slots from
    the row and even slots from the column, party 1 most significant; it is
    read from the input entry whose slot k holds digit i_images[k].
    """
    parties = len(images) // 2
    n = dim**parties
    rows = np.arange(n).reshape(n, 1)
    cols = np.arange(n).reshape(1, n)
    digit = {}
    for m in range(1, parties + 1):
        place = dim ** (parties - m)
        digit[2 * m - 1] = rows // place % dim
        digit[2 * m] = cols // place % dim
    src_row = sum(digit[images[2 * m - 2]] * dim ** (parties - m) for m in range(1, parties + 1))
    src_col = sum(digit[images[2 * m - 1]] * dim ** (parties - m) for m in range(1, parties + 1))
    return src_row * n + src_col


def permuted(matrix: np.ndarray, images: tuple[int, ...], dim: int) -> np.ndarray:
    return matrix.ravel()[gather_index(images, dim)]


def trace_norm(matrix: np.ndarray) -> float:
    return float(np.linalg.svd(matrix, compute_uv=False).sum())


def class_norms(matrix: np.ndarray, dim: int, words: list[str]) -> list[float]:
    return [trace_norm(permuted(matrix, representative(w), dim)) for w in words]


def noise_threshold(
    low: np.ndarray, high: np.ndarray, tolerance: float, iters: int = 60
) -> float:
    """Largest beta in [0, 1] with ||(1-beta)·low + beta·high||_1 > 1 + tolerance.

    The norm is convex in beta and at most 1 at beta = 1 for a separable
    ``high``, so the violating betas form an interval [0, beta*); plain
    bisection finds its end.  0 when beta = 0 does not violate.
    """

    def violated(beta: float) -> bool:
        return trace_norm((1 - beta) * low + beta * high) > 1 + tolerance

    if not violated(0.0):
        return 0.0
    if violated(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if violated(mid):
            lo = mid
        else:
            hi = mid
    return lo
