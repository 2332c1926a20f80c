"""Verification suites, brute-force oracles, and criterion evaluation reports.

Everything here is deterministic for a fixed seed: states are drawn from a
single generator stream in a fixed order, criterion evaluation follows the
enumeration order, and every solve runs on OpenBLAS's one pinned thread,
in this process or a forked worker, so the bits do not depend on the core
count.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import mmap
import os
import sys
import threading
from dataclasses import asdict, dataclass, field

import numpy as np

from . import states
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
    DensityMatrix,
    _layout,
    apply_criterion,
    chessboard_state,
    random_state,
    tensor_product,
    trace_norm,
)

LARGE_PARTIES = 7  # randomized suites above this need an explicit opt-in
BISECT_ITERS = 44  # noise thresholds are located to 2^-BISECT_ITERS
SECANT_STEPS = 8  # probe and secant steps per threshold before plain bisection
PROBE_BETA = 2.0**-10  # the first beta a threshold search evaluates after 0
# class_norms counts the work of one image as m^3 for each m x m block.  At
# or below POOL_MIN_WORK a call stays in one process, and each further
# worker needs POOL_MIN_WORK more.  A worker forks in about 1 ms, in the
# caller, and computes about 2 ms after its fork began.  With one worker on
# 2 cores (BENCH_26.json) a call at (2,5), work 2.3e6, took 9-11 ms here
# against 8-10 ms pooled, and one at (3,4), 1.2e7, 19 against 13 ms.
POOL_MIN_WORK = 1e7


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
            "results": [asdict(res) for res in self.results],  # the fields are the keys
        }


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0))  # a pool runs only on Linux, which has it


def _block_slots(rho: DensityMatrix, sigma):
    """(positions, matrix, slots) of each block of rho under sigma, in block
    order: a block on parties p takes the images of slots 2p - 1 and 2p, and
    the image of rho is, up to a reordering of rows and of columns, the
    Kronecker product of the shares ``apply_criterion(matrix, slots, dim)``."""
    for positions, matrix in rho.blocks:
        yield positions, matrix, tuple(q for p in positions for q in sigma.images[2 * p - 2:2 * p])


def _norm_chunk(rho: DensityMatrix, perms: list) -> list[float]:
    """Trace norms of the images of rho under a run of permutations.

    Each image's trace norm is the product of its shares' norms, taken in
    block order from 1; a share is fixed by its block's matrix and the
    ``_layout`` of its slots, so the call takes one SVD per distinct pair.
    The calling process and its forked workers run this, each with its own
    memo, so a norm has the same bits whichever process computed it.
    """
    memo = {}  # share norms, by the block's matrix and the layout of its slots

    def share_norm(matrix, slots):
        key = id(matrix), _layout(slots)  # rho keeps each matrix, and so its id, alive
        if key not in memo:
            memo[key] = trace_norm(apply_criterion(matrix, slots, rho.dim))
        return memo[key]

    return [math.prod(share_norm(matrix, slots) for _, matrix, slots in _block_slots(rho, sigma))
            for sigma in perms]


def _noise_parts(rho: DensityMatrix, cls: CriterionClass):
    """(kept, others) under a class, each in block order: the share's
    eigenvalues of each block whose parties all have role F or L, and
    (matrix, slots) of every other block; all ``_noise_images`` reads."""
    kept, others = [], []
    for positions, matrix, slots in _block_slots(rho, to_permutation(cls)):
        if all(cls.roles[p - 1] in (Role.FREE, Role.LOOP) for p in positions):
            kept.append(np.linalg.eigvalsh(apply_criterion(matrix, slots, rho.dim)))
        else:
            others.append((matrix, slots))
    return kept, others


def _noise_images(rho: DensityMatrix, kept: list, others: list):
    """The images (low, high) of rho and of I/n under a class, as stacks,
    from its ``_noise_parts``.

    A block whose parties all have role F or L keeps each on its own two
    slots, so its share is a partial transpose H, and its share of I/n is
    I/m.  Up to a reordering of rows and of columns, (1 - beta) * rho +
    beta * I/n then maps to (1 - beta) * H (x) A + beta * I/M (x) N, for H
    the Kronecker product of such shares, M its size, and A and N the other
    blocks' shares of rho and of I/m_k.  H is Hermitian, and in its eigenbasis
    this is block-diagonal, block j being (1 - beta) * h_j * A +
    (beta / M) * N, so the stacks are (h_j * A for every j, N / M), which
    ``trace_norm`` reads as block-diagonal; with no such block, h = (1,).
    """
    h, low, high = np.ones(1), np.ones((1, 1)), np.ones((1, 1))
    for values in kept:
        h = np.kron(h, values)
    for matrix, slots in others:
        m = len(matrix)
        low = np.kron(low, apply_criterion(matrix, slots, rho.dim))
        high = np.kron(high, apply_criterion(np.eye(m) / m, slots, rho.dim))
    return h[:, None, None] * low, (high / len(h))[None]


def _pool_workers(work: float) -> int:
    """Workers to fork for a call whose images' blocks add up to ``work``
    (m^3 for each m x m), a j-th above j * POOL_MIN_WORK, up to one per spare
    core; 0 where it stays in this process: too little work to repay a fork,
    no OpenBLAS pinned to one thread (``states._OPENBLAS``, read at each
    call), not Linux, another live thread that a fork would not copy, or a
    ``multiprocessing`` child."""
    if (work <= POOL_MIN_WORK or states._OPENBLAS is None or sys.platform != "linux"
            or threading.active_count() > 1):
        return 0
    mp = sys.modules.get("multiprocessing")  # loaded in every multiprocessing child
    spare = 0 if mp is not None and mp.parent_process() is not None else _usable_cores() - 1
    return sum(j * POOL_MIN_WORK < work for j in range(1, spare + 1))


def class_norms(
    rho: DensityMatrix, classes: tuple[CriterionClass, ...] | None = None
) -> list[tuple[CriterionClass, float]]:
    """Trace norm of every permuted image of a state, in enumeration order.

    Each norm is the product of the norms of the blocks' shares
    (``_norm_chunk``), so a product of several blocks, from
    ``tensor_product`` and kept by ``reorder_parties``, takes one small SVD
    per distinct share in place of one of the whole image.  A call with
    enough work (see ``_pool_workers``), at any size, forks k workers.
    Worker j inherits rho, the permutations and one float64 array in shared
    memory, fills in the norms of every (k + 1)-th image from j, and exits
    with status 0, or 1 on any error.  This process computes the stride
    from 0, reaps every worker, and then computes itself the stride of each
    worker whose status is not 0.  OpenBLAS is pinned to one thread in
    every process, so the norms are the same bits in any process and on
    any core count.
    """
    if classes is None:
        classes = enumerate_classes(rho.parties)
    for cls in classes:
        if cls.parties != rho.parties:
            raise ValueError(f"a class on {cls.parties} parties given for a state "
                             f"on {rho.parties} parties")
    perms = [to_permutation(cls) for cls in classes]
    work = sum(len(m) ** 3 for _, m in rho.blocks)  # of one image
    k = _pool_workers(len(perms) * work)
    if not k:
        return list(zip(classes, _norm_chunk(rho, perms)))
    norms = np.ndarray(len(perms), buffer=mmap.mmap(-1, 8 * len(perms)))  # shared float64
    status = {}  # each worker's wait status, by its first image
    with contextlib.ExitStack() as stack:
        for j in range(1, k + 1):
            pid = os.fork()
            if pid == 0:  # worker j: never returns
                code = 1
                try:
                    norms[j::k + 1] = _norm_chunk(rho, perms[j::k + 1])
                    code = 0
                finally:
                    os._exit(code)
            stack.callback(lambda j, pid: status.update({j: os.waitpid(pid, 0)[1]}), j, pid)
        norms[0::k + 1] = _norm_chunk(rho, perms[0::k + 1])
    for j, code in status.items():
        if code:  # the worker died before it filled its stride
            norms[j::k + 1] = _norm_chunk(rho, perms[j::k + 1])
    return list(zip(classes, norms.tolist()))


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
    yet on Hermitian input, where rho^T = conj(rho), it detects the same
    states.  rho^T keeps rho's blocks, each transposed, so each sample is
    validated once, when it is drawn."""
    rng = np.random.default_rng(config.seed)
    classes = enumerate_classes(config.parties)
    max_dev = 0.0
    failures = []
    for sample in range(config.samples):
        rho = random_state(config.dim, config.parties, rng)
        rho_t = DensityMatrix(rho.dim, tuple((p, m.T) for p, m in rho.blocks))
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
    A gap within the threshold warns and does not fail: each positive
    semidefinite image has norm 1, its trace, so ties are common.  r = 1,
    one class, is rejected up front.
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
    any other class on a stack of one block, the dense image.  Classes of
    equal ``_noise_parts`` (the other blocks by matrix and slot layout) and
    beta = 0 norm share one search.  Every SVD is values-only.  The noise
    image has norm d^-#arrows <= 1, so beta = 1 never fires, and the norm
    is convex in beta, so the betas that fire form one interval from 0.
    """
    _check_positive_finite("tolerance", tolerance)
    bound = 1 + tolerance
    memo = {}  # thresholds, by all that fixes the stacks; no key holds an image

    def threshold(cls, norm):
        kept, others = _noise_parts(rho, cls)
        key = tuple(h.tobytes() for h in kept), tuple((id(m), _layout(s)) for m, s in others), norm
        if key not in memo:
            memo[key] = _noise_threshold(*_noise_images(rho, kept, others), norm, bound)
        return memo[key]

    return [(cls, threshold(cls, norm) if norm > bound else 0.0)
            for cls, norm in class_norms(rho)]


def beta_sweep(steps: int = 12, tolerance: float = 1e-9) -> BetaSweepReport:
    """Detection thresholds on the two-copy chessboard family.

    The family is (1 - beta) * rho_c (x) rho_c + beta * I/81 on four
    qutrits, and each class's threshold comes from :func:`noise_thresholds`:
    safeguarded secant steps on the convex norm, snapped to the grid of
    2^-BISECT_ITERS, equal to the 44-step bisection's thresholds on the same
    norms.  The state is the tensor product of one chessboard with itself,
    two blocks that share one matrix, so the 46 shares of the 23 classes'
    beta = 0 norms reach 14 slot layouts, one SVD of at most 81 entries
    each.  Of the 6 classes that fire, the four R and R+QT classes keep one
    copy on its own slots and share one search on stacks of nine 9 x 9
    blocks, 3 SVD calls, and 2R and R+R' take 6 SVDs on stacks of one 81 x 81
    block: 23 in all, against 287 for bisection on dense images.  Partial-transpose classes never
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
