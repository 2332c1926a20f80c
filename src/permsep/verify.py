"""Verification suites, brute-force oracles, and criterion evaluation reports.

Everything here is deterministic for a fixed seed: states are drawn from a
single generator stream in a fixed order, and criterion evaluation follows
the enumeration order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .criteria import (
    CriterionClass,
    classes_by_label,
    count_classes,
    enumerate_classes,
    roles_to_string,
    to_permutation,
)
from .perms import compose, global_transpose, norm_group
from .states import (
    DensityMatrix,
    apply_criterion,
    chessboard_state,
    maximally_mixed,
    random_state,
    tensor_product,
    trace_norm,
)

LARGE_PARTIES = 7  # randomized suites above this need an explicit opt-in
BISECT_ITERS = 44  # beta-sweep thresholds are located to 2^-BISECT_ITERS


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
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
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


def class_norms(
    rho: DensityMatrix, classes: tuple[CriterionClass, ...] | None = None
) -> list[tuple[CriterionClass, float]]:
    """Trace norm of every permuted image of a state, in enumeration order."""
    if classes is None:
        classes = enumerate_classes(rho.parties)
    return [
        (cls, trace_norm(apply_criterion(rho.matrix, to_permutation(cls), rho.dim)))
        for cls in classes
    ]


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
        index = {cls.class_id: cls for cls in classes}
        try:
            classes = tuple(index[i] for i in class_ids)
        except KeyError as exc:
            raise ValueError(
                f"class id {exc.args[0]} out of range for r={rho.parties}"
            ) from None
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
            "suite": "rule5",
            "r": self.config.parties,
            "d": self.config.dim,
            "samples": self.config.samples,
            "seed": self.config.seed,
            "threshold": self.config.equality_threshold,
            "max_deviation": self.max_deviation,
            "failures": [list(f) for f in self.failures],
            "passed": self.passed,
        }


def verify_rule5(config: VerificationConfig) -> Rule5Report:
    """Check that composing any class representative with the global
    transpose (transpose applied first) never changes the trace norm on
    states: the pair detects exactly the same states even though the two
    words sit in different cosets of the norm-preserving group."""
    rng = np.random.default_rng(config.seed)
    classes = enumerate_classes(config.parties)
    tau = global_transpose(config.parties)
    pairs = [
        (cls, to_permutation(cls), compose(tau, to_permutation(cls)))
        for cls in classes
    ]
    max_dev = 0.0
    failures = []
    for sample in range(config.samples):
        rho = random_state(config.dim, config.parties, rng)
        for cls, sigma, sigma_tau in pairs:
            a = trace_norm(apply_criterion(rho.matrix, sigma, config.dim))
            b = trace_norm(apply_criterion(rho.matrix, sigma_tau, config.dim))
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
            "suite": "distinctness",
            "r": self.config.parties,
            "d": self.config.dim,
            "samples": self.config.samples,
            "seed": self.config.seed,
            "threshold": self.config.distinctness_threshold,
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


def beta_sweep(steps: int = 12, tolerance: float = 1e-9) -> BetaSweepReport:
    """Detection thresholds on the two-copy chessboard family.

    The family is (1 - beta) * rho_c (x) rho_c + beta * I/81 on four
    qutrits; for each criterion class the threshold is the largest beta in
    [0, 1] still violating the criterion.  The norm is convex in beta and
    d^-#arrows <= 1 at beta = 1, so the violating betas form an interval
    [0, beta*).  One bisection loop finds beta* to 2^-BISECT_ITERS in the
    bracket [0, 1] if the class fires at beta = 0, else in [0, 0] (one
    SVD, threshold 0).  Partial-transpose classes never fire: the PPT
    chessboard stays PPT under tensor products and noise.  ``steps`` is
    validated and reported but no longer changes a threshold.
    """
    if steps < 10:
        raise ValueError(f"steps must be >= 10, got {steps}")
    _check_positive_finite("tolerance", tolerance)
    base = tensor_product(chessboard_state(), chessboard_state())
    noise = maximally_mixed(base.dim, base.parties)
    thresholds = []
    for cls in enumerate_classes(base.parties):
        sigma = to_permutation(cls)
        low = apply_criterion(base.matrix, sigma, base.dim)
        high = apply_criterion(noise.matrix, sigma, base.dim)

        def violated(beta: float) -> bool:
            return trace_norm((1 - beta) * low + beta * high) > 1 + tolerance

        lo, hi = 0.0, 1.0 if violated(0.0) else 0.0
        while hi - lo > 2.0**-BISECT_ITERS:
            mid = 0.5 * (lo + hi)
            if violated(mid):
                lo = mid
            else:
                hi = mid
        thresholds.append((cls.class_id, cls.label, lo))
    return BetaSweepReport(
        steps=steps, tolerance=tolerance, class_thresholds=tuple(thresholds)
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
