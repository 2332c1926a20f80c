"""States stored as blocks with party structure, and the slot-permutation map.

Index layout (fixed once, everything else depends on it): a matrix on r
subsystems of local dimension d is indexed by 2r digits i_1 .. i_2r, each in
0..d-1.  Odd slots i_1, i_3, ... form the row multi-index and even slots the
column multi-index, party 1 most significant in both.  The entry map of a
slot permutation s is

    B[i_1, ..., i_2r] = A[i_s(1), ..., i_s(2r)],

a pure rearrangement of entries.  A state is entangled whenever the trace
norm of some permuted image exceeds 1.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import math
import numbers
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .perms import Permutation

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
# Largest n in the table in BENCH_2.json at which a complex n x n SVD was
# no slower on one OpenBLAS thread than at the default count; at n >= 343
# the default was as fast or faster.
SINGLE_THREAD_SVD_MAX_N = 256


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A quantum state on r parties of local dimension d, stored as its blocks.

    ``blocks`` holds (positions, matrix) pairs, one per tensor factor: party
    k of a block's matrix (1-based) is party positions[k-1] of the state,
    and the state is the product of the blocks.  :func:`density_matrix`
    validates each block; :func:`tensor_product` and :func:`reorder_parties`
    only concatenate and relabel blocks, so a product keeps its blocks.
    """

    dim: int
    blocks: tuple[tuple[tuple[int, ...], np.ndarray], ...]

    @property
    def parties(self) -> int:
        return sum(len(pos) for pos, _ in self.blocks)  # the positions are 1..r, once each

    @property
    def size(self) -> int:
        return self.dim**self.parties

    @property
    def matrix(self) -> np.ndarray:
        """Kronecker product of the blocks in block order, each party then moved
        to its position; one block on parties 1..r in order is its own array."""
        dense = functools.reduce(np.kron, [m for _, m in self.blocks])
        flat = [p for pos, _ in self.blocks for p in pos]
        if flat == list(range(1, self.parties + 1)):
            return dense
        return apply_criterion(dense, [s for p in flat for s in (2 * p - 1, 2 * p)], self.dim)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, parties={self.parties})"


def _is_power(n: int, dim: int, parties: int) -> bool:
    """n == dim**parties, in at most log_dim(n) + 1 divisions."""
    for _ in range(parties):
        if n % dim:
            return False
        n //= dim
    return n == 1


def density_matrix(matrix: np.ndarray, dim: int, parties: int) -> DensityMatrix:
    """Validate a raw matrix as a state's one block, naming any broken invariant.

    The block is a private read-only copy: float64 when no entry has a
    nonzero imaginary part, so its images run real SVDs, else complex128.
    """
    if dim < 2:
        raise ValueError(f"local dimension must be >= 2, got {dim}")
    if parties < 1:
        raise ValueError(f"parties must be >= 1, got {parties}")
    matrix = np.asarray(matrix)
    if np.iscomplexobj(matrix) and matrix.imag.any():
        matrix = np.array(matrix, dtype=complex, order="C")
    else:
        matrix = np.array(matrix.real, dtype=float, order="C")
    square = matrix.ndim == 2 and matrix.shape[0] == matrix.shape[1]
    if not (square and _is_power(matrix.shape[0], dim, parties)):
        # d^r is printed only while it is short; building a huge power
        # would take unbounded time before the message is ready
        side = dim**parties if parties * math.log10(dim) < 16 else f"{dim}^{parties}"
        raise ValueError(
            f"shape: expected {side}x{side} for d={dim}, r={parties}, got {matrix.shape}"
        )
    # entries and the trace print as complex numbers, so the messages read
    # the same whether the state is stored real or complex
    bad = np.argwhere(~np.isfinite(matrix))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"finiteness: entry ({i}, {j}) is {np.complex128(matrix[i, j])}")
    dev = np.abs(matrix - matrix.conj().T).max()
    if dev > HERMITICITY_TOL:
        raise ValueError(f"hermiticity: max |A - A^dagger| = {dev:.3e}")
    tr = np.trace(matrix)
    if abs(tr - 1) > TRACE_TOL:
        raise ValueError(f"trace: expected 1, got {np.complex128(tr):.15g}")
    lo = eigenvalues(matrix).min()
    if lo < EIGENVALUE_FLOOR:
        raise ValueError(f"positivity: minimum eigenvalue {lo:.3e}")
    matrix.setflags(write=False)
    return DensityMatrix(dim, ((tuple(range(1, parties + 1)), matrix),))


def apply_criterion(
    matrix: np.ndarray, sigma: Permutation | tuple[int, ...], dim: int
) -> np.ndarray:
    """Entry map of a slot permutation: B[i_1..i_2r] = A[i_sigma(1)..i_sigma(2r)].

    ``sigma`` is a :class:`Permutation` or, for one block on p parties, the
    images of a permutation that the block's 2p slots reach: slot k
    (1-based) goes to position sigma[k-1].  The image's rows are indexed by
    the odd positions and its columns by the even ones, each in ascending
    order, so a block's share is d^#odd x d^#even, and the image of a
    product is the Kronecker product of its blocks' shares up to a
    reordering of rows and of columns.  The identity returns the input
    unchanged and the global transpose returns the matrix transpose; every
    image has the same entry multiset as A.
    """
    positions = sigma.images if isinstance(sigma, Permutation) else sigma
    slots = len(positions)
    n = dim ** (slots // 2)
    matrix = np.asarray(matrix)
    if matrix.shape != (n, n):
        raise ValueError(
            f"matrix is {matrix.shape}, expected {n}x{n} for d={dim}, r={slots // 2}"
        )
    # axis k // 2 + slots // 2 * (k % 2) of the reshaped matrix holds 0-based
    # slot k; the output axes are the odd positions, then the even ones
    order, odd = _layout(positions)
    axes = [k // 2 + slots // 2 * (k % 2) for k in order]
    rows = dim**odd
    tensor = matrix.reshape((dim,) * slots).transpose(axes)
    return np.ascontiguousarray(tensor.reshape(rows, -1))


def _layout(positions) -> tuple[tuple[int, ...], int]:
    """The slots in the order of the image's axes, odd positions first, and
    the count of odd positions: all that ``apply_criterion`` reads of them."""
    order = sorted(range(len(positions)), key=lambda k: (1 - positions[k] % 2, positions[k]))
    return tuple(order), sum(p % 2 for p in positions)


class _PinnedOpenBlas:
    """OpenBLAS pinned to one thread for the whole process, with no helper
    thread left running; inside the context it runs on its start count.

    Pinning sets one thread and then, where OpenBLAS exports
    ``blas_thread_shutdown_`` (the function its own fork handler runs) and
    no other Python thread could be inside OpenBLAS, stops the helper
    threads: an idle helper spins for about 0.1 s of CPU before it sleeps.
    Setting any count re-creates stopped helpers, so after the pin only
    this context sets it.  The count is process-wide, so concurrent
    entrants share one lift: the first lifts and the last pins again.
    """

    def __init__(self, get, set_, shutdown):
        self.get = get
        self._set = set_
        self._shutdown = shutdown
        self.start = get()
        self._lock = threading.Lock()
        self._depth = 0
        self._pin()

    def _pin(self):
        self._set(1)
        if self._shutdown is not None and threading.active_count() == 1:
            self._shutdown()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._set(self.start)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                self._pin()


def _probe_openblas() -> _PinnedOpenBlas | None:
    """The OpenBLAS that numpy's SVD calls, found through numpy's linalg
    extension and the libraries it links, so that another copy (scipy's,
    say) is never taken, and pinned; None where there is none (MKL,
    Accelerate), where nothing is set."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            shutdown = getattr(lib, "blas_thread_shutdown_", None)
            if shutdown is not None:
                shutdown.argtypes, shutdown.restype = [], ctypes.c_int
            return _PinnedOpenBlas(get, set_, shutdown)
    return None


# probed and pinned once, at import, so every caller shares one lift and its depth count
_OPENBLAS = _probe_openblas()


def _blas_threads(n: int) -> _PinnedOpenBlas | None:
    """The lift a solve of at most n rows and columns runs in: OpenBLAS on
    its start count above SINGLE_THREAD_SVD_MAX_N; None up to it, where the
    solve runs on the pinned thread, which is faster, and with no OpenBLAS."""
    return _OPENBLAS if n > SINGLE_THREAD_SVD_MAX_N else None


def _pinned(n: int) -> bool:
    """Whether a solve of at most n rows and columns runs on OpenBLAS's one
    pinned thread, as it does in a forked worker."""
    return _OPENBLAS is not None and _blas_threads(n) is None


def eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, in ``_blas_threads``:
    every eigensolve in permsep runs here."""
    with _blas_threads(len(matrix)) or contextlib.nullcontext():
        return np.linalg.eigvalsh(matrix)


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of singular values of an m x n matrix, from a values-only SVD.

    A stack of shape (..., m, n) stands for the block-diagonal matrix of its
    m x n blocks: its trace norm is the sum of every block's singular
    values, from one SVD call over the stack.  Every SVD in permsep runs
    here, in ``_blas_threads`` of the longer side of a block.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim < 2:
        raise ValueError(
            f"trace norm needs a 2-D matrix or a stack of them, got shape {matrix.shape}"
        )
    with _blas_threads(max(matrix.shape[-2:])) or contextlib.nullcontext():
        return float(np.linalg.svd(matrix, compute_uv=False).sum())


_CHESSBOARD = np.array(
    [
        [1, 0, 1, 0, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0, -1, 0, -1, 0],
        [1, 0, 2, 0, -1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, -1, 0, 1, 0],
        [0, 0, -1, 0, 1, 0, 1, 0, 0],
        [0, -1, 0, -1, 0, 2, 0, 0, 0],
        [1, 0, 0, 0, 1, 0, 2, 0, 0],
        [0, -1, 0, 1, 0, 0, 0, 2, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0],
    ],
    dtype=float,
)


def chessboard_state() -> DensityMatrix:
    """A two-qutrit bound entangled state: positive under partial transpose
    yet realigning it gives trace norm 7/6, so only the reshuffling
    criterion detects it."""
    return density_matrix(_CHESSBOARD / 12.0, dim=3, parties=2)


def bell_state() -> DensityMatrix:
    """The maximally entangled two-qubit state (|00> + |11>)/sqrt(2) as a
    density matrix; both partial transpose and realignment give norm 2."""
    ket = np.zeros(4)
    ket[0] = ket[3] = 1 / np.sqrt(2)
    return density_matrix(np.outer(ket, ket), dim=2, parties=2)


def _drawing():
    """The context of the BLAS work in a random draw: OpenBLAS on its start
    count at every size, where the draws have always run, so that a seed
    gives the same state whatever sizes OpenBLAS threads at (n >= 125 with
    OpenBLAS 0.3.31 on 2 cores)."""
    return _OPENBLAS or contextlib.nullcontext()


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary: QR of a complex Ginibre matrix with
    the R-diagonal phases absorbed so the distribution is exactly invariant."""
    ginibre = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    with _drawing():
        q, r = np.linalg.qr(ginibre)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def simplex_weights(n: int, rng: np.random.Generator) -> np.ndarray:
    """A uniform point on the probability simplex (normalized exponentials)."""
    w = rng.exponential(size=n)
    return w / w.sum()


def random_density_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random n x n state: Haar unitary rotation of a uniform spectrum,
    U diag(lambda) U^dagger.  Deterministic for a fixed generator state."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    with _drawing():  # one lift for the QR and the product
        u = random_unitary(n, rng)
        lam = simplex_weights(n, rng)
        return (u * lam) @ u.conj().T


def random_state(dim: int, parties: int, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank state with party structure attached."""
    return density_matrix(random_density_matrix(dim**parties, rng), dim, parties)


def random_pure_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def product_state(vectors: list[np.ndarray]) -> np.ndarray:
    """Projector onto the tensor product of single-party unit vectors."""
    ket = functools.reduce(np.kron, vectors)
    return np.outer(ket, ket.conj())


def random_separable(
    dim: int, parties: int, terms: int, rng: np.random.Generator
) -> DensityMatrix:
    """Convex mixture of ``terms`` random pure product states.  By
    construction no permutation criterion can exceed trace norm 1 on the
    result (up to rounding)."""
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    weights = simplex_weights(terms, rng)
    acc = np.zeros((dim**parties, dim**parties), dtype=complex)
    for w in weights:
        factors = [random_pure_vector(dim, rng) for _ in range(parties)]
        acc += w * product_state(factors)
    return density_matrix(acc, dim, parties)


def tensor_product(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """The product state a (x) b on a's parties then b's (equal local dims).

    Its blocks are a's, then b's with their positions shifted by a's party
    count, with nothing multiplied out or validated again; class norms and
    noise images take one share of each block in place of the whole image.
    """
    if a.dim != b.dim:
        raise ValueError(f"local dimensions differ: {a.dim} vs {b.dim}")
    shifted = tuple((tuple(p + a.parties for p in pos), m) for pos, m in b.blocks)
    return DensityMatrix(a.dim, a.blocks + shifted)


def maximally_mixed(dim: int, parties: int = 1) -> DensityMatrix:
    """The state I/n on the given party structure."""
    n = dim**parties
    return density_matrix(np.eye(n) / n, dim, parties)


def mix_with_noise(rho: DensityMatrix, beta: float) -> DensityMatrix:
    """(1 - beta) * rho + beta * I/n."""
    if not 0 <= beta <= 1:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    noisy = (1 - beta) * rho.matrix + beta * np.eye(rho.size) / rho.size
    return density_matrix(noisy, rho.dim, rho.parties)


def reorder_parties(rho: DensityMatrix, order: list[int]) -> DensityMatrix:
    """Relabel subsystems: party j of the result is party order[j-1] of the
    input (1-based).  Only the blocks' positions are mapped, so a relabeled
    product keeps its blocks; :attr:`DensityMatrix.matrix` moves each
    party's row and column slot together, a norm-preserving relabeling."""
    r = rho.parties
    if sorted(order) != list(range(1, r + 1)):
        raise ValueError(f"order {order} is not a permutation of 1..{r}")
    where = {src: j for j, src in enumerate(order, start=1)}
    blocks = tuple((tuple(where[p] for p in pos), m) for pos, m in rho.blocks)
    return DensityMatrix(rho.dim, blocks)


BUILTIN_STATES = {"chessboard": chessboard_state, "bell": bell_state}


def _float_array(data: dict, key: str) -> np.ndarray:
    try:
        return np.asarray(data[key], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"key {key!r} must be an array of numbers: {exc}") from None


def _integer(data: dict, key: str) -> int:
    value = data[key]
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"key {key!r} must be an integer, got {value!r}")
    return int(value)


def state_from_dict(data: object) -> DensityMatrix:
    """Parse the state wire format.

    Either {"builtin": "chessboard" | "bell"}, where a "d" or "r" given
    beside it must be the built-in's, or an explicit matrix
    {"d": int, "r": int, "re": [[...]], "im": [[...]]} with row-major
    d^r x d^r arrays; "im" may be missing or null for a real matrix.
    Validation failures name the violated invariant or key.
    """
    if not isinstance(data, dict):
        raise ValueError(f"state must be a JSON object, got {type(data).__name__}")
    if "builtin" in data:
        name = data["builtin"]
        if not isinstance(name, str):
            raise ValueError(f"key 'builtin' must be a string, got {name!r}")
        if name not in BUILTIN_STATES:
            raise ValueError(
                f"unknown builtin {name!r}; have {sorted(BUILTIN_STATES)}"
            )
        rho = BUILTIN_STATES[name]()
        for key, value in (("d", rho.dim), ("r", rho.parties)):
            if key in data and _integer(data, key) != value:
                raise ValueError(f"key {key!r} is {data[key]}, builtin {name!r} has {value}")
        return rho
    for key in ("d", "r", "re"):
        if key not in data:
            raise ValueError(f"state object is missing key {key!r}")
    dim, parties = _integer(data, "d"), _integer(data, "r")
    re = _float_array(data, "re")
    im = np.zeros_like(re) if data.get("im") is None else _float_array(data, "im")
    if re.shape != im.shape:
        raise ValueError(f"re/im shapes differ: {re.shape} vs {im.shape}")
    return density_matrix(re + 1j * im, dim, parties)


def load_state(path: str | Path) -> DensityMatrix:
    """Read a state file (JSON, see :func:`state_from_dict`)."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("JSON nests too deeply to parse") from None
    return state_from_dict(data)


def state_to_dict(rho: DensityMatrix) -> dict:
    """Explicit-matrix wire format of a state."""
    matrix = rho.matrix  # derived from the blocks on each read
    return {"d": rho.dim, "r": rho.parties,
            "re": matrix.real.tolist(), "im": matrix.imag.tolist()}
