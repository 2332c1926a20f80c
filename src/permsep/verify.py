"""Verification suites, brute-force oracles, and criterion evaluation reports.

Everything here is deterministic for a fixed seed: states are drawn from a
single generator stream in a fixed order, and criterion evaluation follows
the enumeration order.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .criteria import (
    CriterionClass,
    Role,
    classes_by_label,
    count_classes,
    enumerate_classes,
    roles_to_string,
    to_permutation,
)
from .perms import global_transpose, norm_group
from .states import (
    SINGLE_THREAD_SVD_MAX_N,
    DensityMatrix,
    apply_criterion,
    chessboard_state,
    density_matrix,
    random_state,
    tensor_product,
    trace_norm,
)

LARGE_PARTIES = 7  # randomized suites above this need an explicit opt-in
BISECT_ITERS = 44  # noise thresholds are located to 2^-BISECT_ITERS
SECANT_STEPS = 8  # probe and secant steps per threshold before plain bisection
PROBE_BETA = 2.0**-10  # the first beta a threshold search evaluates after 0
# class_norms counts the work of one image as n^3 for its n x n SVD.  At or
# below POOL_MIN_WORK a call stays in one process: a worker takes about
# 0.4 s to boot, and a call that boots it breaks even near 4e8 (measured in
# BENCH_11.json).  A pooled call ships rho once per chunk of at most
# CHUNK_WORK: 33 images at n = 128, 4 at n = 243 or 256.
POOL_MIN_WORK = 4e8
CHUNK_WORK = 7e7

_pool = None  # (executor, workers): one per process, started on first use
_pool_lock = threading.Lock()


def _check_positive_finite(name: str, value: float) -> None:
    """Reject a tolerance or threshold that is not a positive finite number:
    a NaN compares false with every norm and would silently decide nothing."""
    if not (0 < value < np.inf):
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class VerificationConfig:
    parties: int
    dim: int
    samples: int
    seed: int
    equality_threshold: float = 1e-10
    distinctness_threshold: float = 1e-6

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"local dimension must be >= 2, got {self.dim}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        for name in ("equality_threshold", "distinctness_threshold"):
            _check_positive_finite(name, getattr(self, name))


@dataclass(frozen=True)
class ClassResult:
    class_id: int
    roles: str
    label: str
    trace_norm: float
    violated: bool


@dataclass(frozen=True)
class EvaluationReport:
    dim: int
    parties: int
    source: str
    tolerance: float
    results: tuple[ClassResult, ...]

    @property
    def violations(self) -> tuple[ClassResult, ...]:
        return tuple(res for res in self.results if res.violated)

    def to_dict(self) -> dict:
        return {
            "d": self.dim,
            "r": self.parties,
            "source": self.source,
            "tolerance": self.tolerance,
            "entangled": bool(self.violations),
            "results": [
                {
                    "class_id": res.class_id,
                    "roles": res.roles,
                    "label": res.label,
                    "trace_norm": res.trace_norm,
                    "violated": res.violated,
                }
                for res in self.results
            ],
        }


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _shares(rho: DensityMatrix, sigma):
    """(positions, slots, share) of each block of rho under sigma, in block
    order: a block on parties p takes the images of slots 2p - 1 and 2p, and
    the image of rho is, up to a reordering of rows and of columns, the
    Kronecker product of the shares (see ``apply_criterion``)."""
    for positions, matrix in rho.blocks:
        slots = tuple(q for p in positions for q in sigma.images[2 * p - 2:2 * p])
        yield positions, slots, apply_criterion(matrix, slots, rho.dim)


def _norm_chunk(rho: DensityMatrix, perms: list) -> list[float]:
    """Trace norms of the images of rho under a run of permutations.

    Each image's trace norm is the product of its ``_shares``' norms, taken
    in block order from 1.  Both the calling process and the pool's workers
    run this, so a norm has the same bits whichever process computed it.
    """
    return [math.prod(trace_norm(share) for *_, share in _shares(rho, sigma))
            for sigma in perms]


def _noise_images(rho: DensityMatrix, cls: CriterionClass):
    """The images (low, high) of rho and of I/n under a class, as stacks.

    A block whose parties all have role F or L keeps each on its own two
    slots, so its share is a partial transpose H, and its share of I/n is
    I/m.  Up to a reordering of rows and of columns, (1 - beta) * rho +
    beta * I/n then maps to (1 - beta) * H (x) A + beta * I/M (x) N, for H
    the Kronecker product of such shares, M its size, and A and N the other
    ``_shares`` of rho and of I/m_k.  H is Hermitian, and in its eigenbasis
    this is block-diagonal, block j being (1 - beta) * h_j * A +
    (beta / M) * N, so the stacks are (h_j * A for every j, N / M), which
    ``trace_norm`` reads as block-diagonal; with no such block, h = (1,).
    """
    h, low, high = np.ones(1), np.ones((1, 1)), np.ones((1, 1))
    for positions, slots, share in _shares(rho, to_permutation(cls)):
        if all(cls.roles[p - 1] in (Role.FREE, Role.LOOP) for p in positions):
            h = np.kron(h, np.linalg.eigvalsh(share))
        else:
            m = rho.dim ** len(positions)
            low = np.kron(low, share)
            high = np.kron(high, apply_criterion(np.eye(m) / m, slots, rho.dim))
    return h[:, None, None] * low, (high / len(h))[None]


def _start_pool(images: int, n: int):
    """The process's pool and its worker count, started if need be, or None
    where a call of ``images`` SVDs of n x n should stay in this process:
    one usable core, n large enough that BLAS threads already use the
    cores, too little work to repay a worker's boot, or this process is
    itself a worker."""
    global _pool
    if n > SINGLE_THREAD_SVD_MAX_N or images * n**3 <= POOL_MIN_WORK:
        return None
    cores = _usable_cores()
    if cores < 2:
        return None
    # imported here, so that importing permsep stays as fast as before
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import resource_tracker
    from multiprocessing.util import Finalize

    if multiprocessing.parent_process() is not None:
        return None
    with _pool_lock:
        if _pool is None:
            # the executor joins its workers at interpreter exit
            executor = ProcessPoolExecutor(
                cores - 1, mp_context=multiprocessing.get_context("spawn")
            )
            _pool = (executor, cores - 1)
            # stop and reap the executor's resource tracker at exit, after every
            # other finalizer (the lowest is -5): it would outlive this process,
            # and an unregister after the stop would start another
            Finalize(None, resource_tracker._resource_tracker._stop, exitpriority=-100)
        return _pool


def _drop_pool(executor) -> None:
    """Forget a pool that lost a worker and join what is left of it."""
    global _pool
    with _pool_lock:
        if _pool is not None and _pool[0] is executor:
            _pool = None
    executor.shutdown()


def _pooled_norms(executor, workers: int, rho: DensityMatrix, perms: list) -> list[float]:
    """``_norm_chunk`` of rho over ``perms``, shared with the pool's workers.

    The workers take chunks from the front, at most two waiting or running
    per worker, while this process computes one image at a time from the
    back; once the two ends meet it reads the workers' results.  A chunk
    is about CHUNK_WORK, and at most a 2 * (workers + 1)-th of what is left,
    so the ends meet with little left to wait for.  Nothing is cancelled:
    on Python 3.10 and 3.11 a pool that breaks while it holds a cancelled
    future fails in its own thread and leaves the other futures unresolved.
    If a worker dies, this process computes what it lost and drops the pool.
    """
    from concurrent.futures.process import BrokenProcessPool

    size = max(1, int(CHUNK_WORK / rho.size**3))
    norms: list = [None] * len(perms)
    sent = []  # (start, stop, future) of each chunk sent
    broken = False
    lo, hi = 0, len(perms)  # perms[lo:hi] are neither sent nor computed
    while lo < hi:
        if not broken and sum(not f.done() for *_, f in sent) < 2 * workers:
            stop = lo + max(1, min(size, (hi - lo) // (2 * (workers + 1))))
            try:
                future = executor.submit(_norm_chunk, rho, perms[lo:stop])
            except BrokenProcessPool:
                broken = True
            else:
                sent.append((lo, stop, future))
                lo = stop
        else:
            hi -= 1
            norms[hi:hi + 1] = _norm_chunk(rho, perms[hi:hi + 1])
    for start, stop, future in sent:
        try:
            norms[start:stop] = future.result()
        except BrokenProcessPool:
            broken = True
            norms[start:stop] = _norm_chunk(rho, perms[start:stop])
    if broken:
        _drop_pool(executor)
    return norms


def class_norms(
    rho: DensityMatrix, classes: tuple[CriterionClass, ...] | None = None
) -> list[tuple[CriterionClass, float]]:
    """Trace norm of every permuted image of a state, in enumeration order.

    Each norm is the product of the norms of the blocks' shares
    (``_norm_chunk``), so a product of several blocks, from
    ``tensor_product`` and kept by ``reorder_parties``, takes one small SVD
    per block in place of one of the whole image.  It runs in this process;
    for a state of one block, a call with enough SVDs of at most
    SINGLE_THREAD_SVD_MAX_N shares them with a process pool of one worker
    per usable core but one (see ``POOL_MIN_WORK``); the norms are the same
    bits either way.  Workers start with ``spawn``, which imports the
    caller's main module again, so a script that gets here at r >= 7 needs
    an ``if __name__ == "__main__":`` guard.
    """
    if classes is None:
        classes = enumerate_classes(rho.parties)
    perms = [to_permutation(cls) for cls in classes]
    pool = None if len(rho.blocks) > 1 else _start_pool(len(perms), rho.size)
    if pool is None:
        norms = _norm_chunk(rho, perms)
    else:
        norms = _pooled_norms(*pool, rho, perms)
    return list(zip(classes, norms))


def evaluate_state(
    rho: DensityMatrix,
    tolerance: float = 1e-9,
    source: str = "state",
    class_ids: list[int] | None = None,
) -> EvaluationReport:
    """Evaluate every criterion class (or a subset) on one state."""
    _check_positive_finite("tolerance", tolerance)
    classes = enumerate_classes(rho.parties)
    if class_ids is not None:
        # a class id is the class's position in the enumeration
        seen = set()
        for i in class_ids:
            if not 0 <= i < len(classes):
                raise ValueError(f"class id {i} out of range for r={rho.parties}")
            if i in seen:
                raise ValueError(f"class id {i} given twice")
            seen.add(i)
        classes = tuple(classes[i] for i in class_ids)
    results = tuple(
        ClassResult(
            class_id=cls.class_id,
            roles=roles_to_string(cls.roles),
            label=cls.label,
            trace_norm=norm,
            violated=norm > 1 + tolerance,
        )
        for cls, norm in class_norms(rho, classes)
    )
    return EvaluationReport(
        dim=rho.dim,
        parties=rho.parties,
        source=source,
        tolerance=tolerance,
        results=results,
    )


def brute_force_class_count(parties: int) -> int:
    """Count dependence classes straight from S_{2r}: sweep all (2r)! words
    in lexicographic order and, for each unseen one, mark its whole class
    {t . sigma, t . sigma . tau : t norm preserving} as seen.  The group is
    built by generator closure, independent of the role-word enumeration.

    Refuses parties > 4; (2r)! grows too fast beyond that and the closed
    formula takes over.
    """
    if parties < 1:
        raise ValueError(f"parties must be >= 1, got {parties}")
    if parties > 4:
        raise ValueError(
            f"brute force over (2r)! permutations is limited to r <= 4, got r={parties}"
        )
    group = [p.images for p in norm_group(parties)]
    tau = global_transpose(parties).images
    seen: set[tuple[int, ...]] = set()
    count = 0
    for word in itertools.permutations(range(1, 2 * parties + 1)):
        if word in seen:
            continue
        count += 1
        word_tau = tuple(word[s - 1] for s in tau)  # sigma . tau, tau applied first
        for t in group:
            seen.add(tuple(t[s - 1] for s in word))
            seen.add(tuple(t[s - 1] for s in word_tau))
    return count


def _suite_header(suite: str, config: VerificationConfig, threshold: float) -> dict:
    return {"suite": suite, "r": config.parties, "d": config.dim,
            "samples": config.samples, "seed": config.seed, "threshold": threshold}


@dataclass(frozen=True)
class Rule5Report:
    config: VerificationConfig
    max_deviation: float
    failures: tuple[tuple[int, int, float], ...]  # (class_id, sample, deviation)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            **_suite_header("rule5", self.config, self.config.equality_threshold),
            "max_deviation": self.max_deviation,
            "failures": [list(f) for f in self.failures],
            "passed": self.passed,
        }


def verify_rule5(config: VerificationConfig) -> Rule5Report:
    """Check that ||L_sigma(rho)||_1 = ||L_sigma(rho^T)||_1 for every class
    on random states: composing sigma with the global transpose (transpose
    applied first) moves it to another coset of the norm-preserving group,
    yet on Hermitian input, where rho^T = conj(rho), it detects the same states."""
    rng = np.random.default_rng(config.seed)
    classes = enumerate_classes(config.parties)
    max_dev = 0.0
    failures = []
    for sample in range(config.samples):
        rho = random_state(config.dim, config.parties, rng)
        rho_t = density_matrix(rho.matrix.T, rho.dim, rho.parties)
        for (cls, a), (_, b) in zip(class_norms(rho, classes), class_norms(rho_t, classes)):
            dev = abs(a - b)
            max_dev = max(max_dev, dev)
            if dev >= config.equality_threshold:
                failures.append((cls.class_id, sample, dev))
    return Rule5Report(
        config=config, max_deviation=max_dev, failures=tuple(failures)
    )


@dataclass(frozen=True)
class DistinctnessReport:
    config: VerificationConfig
    min_gap: float
    closest_pair: tuple[int, int]
    sample_gaps: tuple[float, ...]
    warnings: tuple[str, ...] = field(default_factory=tuple)

    @property
    def all_distinct(self) -> bool:
        return not self.warnings

    def to_dict(self) -> dict:
        return {
            **_suite_header("distinctness", self.config, self.config.distinctness_threshold),
            "min_gap": self.min_gap,
            "closest_pair": list(self.closest_pair),
            "sample_gaps": list(self.sample_gaps),
            "all_distinct": self.all_distinct,
            "warnings": list(self.warnings),
        }


def verify_distinctness(config: VerificationConfig) -> DistinctnessReport:
    """Check that all class norms are pairwise distinct on random states.

    A sample's closest pair is the first smallest gap between neighbours
    in stable norm order, and the report keeps the first sample's on a tie.
    A gap within the threshold (measure zero for generic input) is a
    warning, not a failure.  r = 1 has one class and is rejected up front.
    """
    classes = enumerate_classes(config.parties)
    if len(classes) < 2:
        raise ValueError("distinctness needs at least two classes; r=1 has one")
    rng = np.random.default_rng(config.seed)
    gaps, pairs, warnings = [], [], []
    for sample in range(config.samples):
        rho = random_state(config.dim, config.parties, rng)
        norms = np.array([norm for _, norm in class_norms(rho, classes)])
        order = np.argsort(norms, kind="stable")
        k = int(np.argmin(np.diff(norms[order])))
        gap = float(norms[order[k + 1]] - norms[order[k]])
        pair = (classes[order[k]].class_id, classes[order[k + 1]].class_id)
        gaps.append(gap)
        pairs.append(pair)
        if gap <= config.distinctness_threshold:
            warnings.append(
                f"sample {sample}: classes {pair[0]} and {pair[1]} within {gap:.3e}"
            )
    first = int(np.argmin(gaps))
    return DistinctnessReport(
        config=config,
        min_gap=gaps[first],
        closest_pair=pairs[first],
        sample_gaps=tuple(gaps),
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class BetaSweepReport:
    steps: int
    tolerance: float
    class_thresholds: tuple[tuple[int, str, float], ...]  # (class_id, label, beta)

    def row_thresholds(self) -> dict[str, float]:
        rows: dict[str, float] = {}
        for _, label, beta in self.class_thresholds:
            rows[label] = max(rows.get(label, 0.0), beta)
        return rows

    def to_dict(self) -> dict:
        return {
            "suite": "beta-sweep",
            "steps": self.steps,
            "tolerance": self.tolerance,
            "classes": [
                {"class_id": cid, "label": label, "threshold": beta}
                for cid, label, beta in self.class_thresholds
            ],
            "rows": self.row_thresholds(),
        }


def _noise_threshold(
    low: np.ndarray, high: np.ndarray, norm: float, bound: float
) -> float:
    """Largest grid point beta = k * 2^-BISECT_ITERS at which
    f(beta) = ||(1 - beta) * low + beta * high||_1 exceeds ``bound``.

    Called only when f(0) = ``norm`` > bound >= 1 >= f(1).  The bracket
    [lo, hi] of grid indices starts at [0, 2^BISECT_ITERS] and keeps
    f(lo) > bound >= f(hi) by evaluation, so convexity only makes the
    search fast.  The first step probes beta = PROBE_BETA; each later step
    takes the grid point at or below the root of the secant through the
    two latest points that fire, clamped into (lo, hi).  f is convex, so
    beyond those points the secant lies below f and its root does not pass
    beta*; where f is linear past the probe the bracket closes in two more
    steps.  After SECANT_STEPS steps, or at a secant slope that is not
    negative, the remaining steps are midpoints.  Each decision reads the
    values-only SVD that a 44-step bisection reads, so both end at the same
    grid point unless rounding makes f cross ``bound`` more than once.
    """
    grid = 2**BISECT_ITERS
    lo, hi = 0, grid
    slope = np.nan  # per grid step, through the two latest firing points
    steps = 0
    while hi - lo > 1:
        if steps < SECANT_STEPS and (steps == 0 or slope < 0):
            root = lo + (bound - norm) / slope if steps else PROBE_BETA * grid
        else:
            steps, root = SECANT_STEPS, (lo + hi) // 2  # midpoints from here on
        steps += 1
        k = int(min(max(root, lo + 1), hi - 1))
        beta = k / grid
        value = trace_norm((1 - beta) * low + beta * high)
        if value > bound:
            lo, norm, slope = k, value, (value - norm) / (k - lo)
        else:
            hi = k
    return lo / grid


def noise_thresholds(
    rho: DensityMatrix, tolerance: float
) -> list[tuple[CriterionClass, float]]:
    """Noise threshold of every class, in enumeration order.

    On the family (1 - beta) * rho + beta * I/n the threshold beta* of a
    class is the largest beta on the grid of 2^-BISECT_ITERS whose image
    still has trace norm > 1 + tolerance, and 0 when beta = 0 does not.
    The beta = 0 norms come from :func:`class_norms`, which settles each
    class that does not fire; a class that fires hands its beta = 0 norm to
    a secant search that finds, in a few SVDs, the threshold a 44-step
    bisection on the same norms finds, on the stacks of ``_noise_images``:
    a class in which every party of some block has role F or L (on any
    state, a class of roles F and L only) searches on blocks the size of
    the other blocks' shares, with the dense image's norms to rounding, and
    any other class on a stack of one block, the dense image.  Every SVD is
    values-only.  The noise image has norm d^-#arrows <= 1, so beta = 1
    never fires, and the norm is convex in beta, so the betas that fire
    form one interval starting at 0.
    """
    _check_positive_finite("tolerance", tolerance)
    bound = 1 + tolerance
    return [
        (cls, _noise_threshold(*_noise_images(rho, cls), norm, bound)
         if norm > bound else 0.0)
        for cls, norm in class_norms(rho)
    ]


def beta_sweep(steps: int = 12, tolerance: float = 1e-9) -> BetaSweepReport:
    """Detection thresholds on the two-copy chessboard family.

    The family is (1 - beta) * rho_c (x) rho_c + beta * I/81 on four
    qutrits, and each class's threshold comes from :func:`noise_thresholds`:
    safeguarded secant steps on the convex norm, snapped to the grid of
    2^-BISECT_ITERS, equal to the 44-step bisection's thresholds on the same
    norms.  The state is the tensor product of one chessboard with itself,
    two blocks that share one matrix, so each class's beta = 0 norm takes
    two SVDs of at most 81 entries.  Of the 6 classes that fire, the four R
    and R+QT classes keep one copy on its own slots and search on stacks
    of nine 9 x 9 blocks, 12 SVD calls in all, and 2R and R+R' take 6 SVDs
    on stacks of one 81 x 81 block, against 287 for bisection on dense
    images; every SVD is values-only.  Partial-transpose classes never
    fire: the PPT chessboard stays PPT under tensor products and noise.
    ``steps`` is validated and reported but does not change a threshold.
    """
    if steps < 10:
        raise ValueError(f"steps must be >= 10, got {steps}")
    chessboard = chessboard_state()
    base = tensor_product(chessboard, chessboard)
    thresholds = tuple(
        (cls.class_id, cls.label, beta)
        for cls, beta in noise_thresholds(base, tolerance)
    )
    return BetaSweepReport(
        steps=steps, tolerance=tolerance, class_thresholds=thresholds
    )


def census(parties: int, with_oracle: bool = False) -> dict:
    """Class-count cross-check: formula vs enumeration (vs brute force)."""
    classes = enumerate_classes(parties)
    rows = {label: len(cs) for label, cs in classes_by_label(parties).items()}
    out = {
        "r": parties,
        "formula": count_classes(parties),
        "enumerated": len(classes),
        "rows": rows,
    }
    if with_oracle:
        out["oracle"] = brute_force_class_count(parties)
    return out
