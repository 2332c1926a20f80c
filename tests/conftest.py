"""Shared test helpers: independent brute-force oracles.

The entry-map oracle below walks every multi-index explicitly and never
touches the reshape/transpose fast path it is used to check.
"""

import itertools
import os
import re
from pathlib import Path

import numpy as np


def flatten_row(digits, dim, parties):
    """Row index of the 2r-digit tuple (odd slots), party 1 most significant."""
    value = 0
    for k in range(parties):
        value = value * dim + digits[2 * k]
    return value


def flatten_col(digits, dim, parties):
    """Column index (even slots)."""
    value = 0
    for k in range(parties):
        value = value * dim + digits[2 * k + 1]
    return value


def apply_reference(matrix, images, dim):
    """Entry map by explicit index bookkeeping: B[i...] = A[i_sigma(...)]."""
    parties = len(images) // 2
    out = np.zeros_like(np.asarray(matrix, dtype=complex))
    for digits in itertools.product(range(dim), repeat=2 * parties):
        src = tuple(digits[images[s] - 1] for s in range(2 * parties))
        out[flatten_row(digits, dim, parties), flatten_col(digits, dim, parties)] = (
            matrix[flatten_row(src, dim, parties), flatten_col(src, dim, parties)]
        )
    return out


def random_complex(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(n, rng):
    a = random_complex(n, rng)
    return (a + a.conj().T) / 2


def src_env():
    """The environment with this checkout's src first on PYTHONPATH, for a
    fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def os_threads() -> int:
    """This process's OS threads, from /proc/self/status."""
    return int(re.search(r"Threads:\s*(\d+)", Path("/proc/self/status").read_text())[1])
