"""The four benchmark workloads: seeded inputs, one pass each, result checks.

A pass is the work one fresh ``permsep`` process does.  ``setup`` writes the
inputs a seed determines and returns the pass spec: CLI argv lists for
``permsep.cli.main`` plus, for ``classify``, the permutations and role words
handed to ``class_of`` and ``canonicalize``.  ``check`` compares one pass's
outputs with references from ``reference.py`` after timing has ended and
returns how many of the pass's results failed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

import reference as ref
from tracing import LAYERS

# Near-equal class norms of a random state are genericity warnings in
# permsep, not failures.  At its default --gap of 1e-6, distinctness at r=6
# flags 147 of 150 seeds with 4 samples, the smallest gap seen on those
# 600 states being 5.5e-10.  A broken class map would show as two equal
# norms, within the ~1e-14 rounding of a 64 x 64 SVD, so this bound catches it.
COINCIDENCE_GAP = 1e-12


def _loads(run: list) -> object:
    code, stdout, stderr = run
    if code != 0:
        raise ValueError(f"exit code {code}: {stderr.strip()[-200:]}")
    return json.loads(stdout)


class Workload:
    """``check`` may raise KeyError, IndexError, TypeError or ValueError on
    malformed output; the caller then counts every result of the pass failed."""

    name = ""
    layers: tuple[str, ...] = tuple(LAYERS)  # layers a traced pass must reach
    norm_results = 0  # norms or thresholds one pass delivers

    def setup(self, seed: int, workdir: Path) -> dict:
        raise NotImplementedError

    def attempted(self, spec: dict) -> int:
        raise NotImplementedError

    def check(self, spec: dict, out: dict) -> int:
        raise NotImplementedError


class EvaluateLarge(Workload):
    """evaluate --state F on random full-rank states at (d, r) = (2,6), (2,7), (3,5)."""

    name = "evaluate-large"
    SHAPES = ((2, 6), (2, 7), (3, 5))
    norm_results = sum(ref.class_count(r) for _, r in SHAPES)

    def setup(self, seed, workdir):
        self.states = []
        argvs = []
        for d, r in self.SHAPES:
            matrix = random_state(d**r, np.random.default_rng([seed, d, r]))
            path = workdir / f"state_d{d}_r{r}.json"
            path.write_text(json.dumps(
                {"d": d, "r": r, "re": matrix.real.tolist(), "im": matrix.imag.tolist()}
            ))
            self.states.append((d, r, matrix))
            argvs.append(["evaluate", "--state", str(path), "--format", "json"])
        self.expected = None
        return {"cli": argvs}

    def attempted(self, spec):
        return self.norm_results

    def check(self, spec, out):
        if self.expected is None:
            self.expected = [
                ref.class_norms(matrix, d, list(ref.canonical_words(r)))
                for d, r, matrix in self.states
            ]
        failed = 0
        for (d, r, _), norms, run in zip(self.states, self.expected, out["cli"]):
            report = _loads(run)
            rows = report["results"]
            if (report["d"], report["r"], len(rows)) != (d, r, len(norms)):
                failed += len(norms)
                continue
            words = ref.canonical_words(r)
            failed += sum(
                not (row["class_id"] == i and row["roles"] == words[i]
                     and abs(row["trace_norm"] - norm) <= 1e-12)
                for i, (row, norm) in enumerate(zip(rows, norms))
            )
        return failed


class BetaSweep(Workload):
    """beta-sweep (12 steps) on the real 81 x 81 two-copy chessboard family."""

    name = "beta-sweep"
    PARTIES, DIM = 4, 3
    norm_results = ref.class_count(PARTIES)

    def setup(self, seed, workdir):
        # the family is fixed; the seed has no input to vary here
        self.expected = None
        return {"cli": [["beta-sweep", "--format", "json"]]}

    def attempted(self, spec):
        return self.norm_results

    def check(self, spec, out):
        report = _loads(out["cli"][0])
        rows = report["classes"]
        if self.expected is None:
            import permsep

            chessboard = permsep.chessboard_state().matrix.real
            base = np.kron(chessboard, chessboard)
            noise = np.eye(base.shape[0]) / base.shape[0]
            self.expected = [
                ref.noise_threshold(ref.permuted(base, images, self.DIM),
                                    ref.permuted(noise, images, self.DIM),
                                    report["tolerance"])
                for images in map(ref.representative, ref.canonical_words(self.PARTIES))
            ]
        if len(rows) != len(self.expected):
            return len(self.expected)
        return sum(
            not (row["class_id"] == i and abs(row["threshold"] - beta) <= 1e-9)
            for i, (row, beta) in enumerate(zip(rows, self.expected))
        )


class Classify(Workload):
    """count and enumerate at r=8, class_of at r=6/7/8, canonicalize at r=8."""

    name = "classify"
    layers = ("classify", "report")
    PARTIES = 8
    CLASS_OF = ((6, 40), (7, 20), (8, 10))  # (r, random permutations)
    CANONICALIZE = 10  # random balanced role words at r=8

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        # class_of scans the classes in id order, so its cost follows the
        # class id: one random permutation from each of `count` equal id
        # strata keeps the work the same from seed to seed
        perms = []
        for r, count in self.CLASS_OF:
            words = ref.canonical_words(r)
            for stratum in range(count):
                lo, hi = stratum * len(words) // count, (stratum + 1) * len(words) // count
                perms.append(random_member(words[rng.randrange(lo, hi)], rng))
        role_words = []  # Role values 0..3 = F, L, H, T
        while len(role_words) < self.CANONICALIZE:
            word = [rng.randrange(4) for _ in range(self.PARTIES)]
            if word.count(2) == word.count(3):  # as many heads as tails
                role_words.append(word)
        r = str(self.PARTIES)
        return {
            "cli": [["count", "--parties", r],
                    ["enumerate", "--parties", r, "--format", "json"]],
            "class_of": perms,
            "canonicalize": role_words,
        }

    def attempted(self, spec):
        # count line, enumerated rows, class_of and canonicalize results
        return 1 + ref.class_count(self.PARTIES) + len(spec["class_of"]) + len(spec["canonicalize"])

    def check(self, spec, out):
        from permsep.perms import Permutation, dependent

        total = ref.class_count(self.PARTIES)
        words = ref.canonical_words(self.PARTIES)
        count_line = f"r={self.PARTIES}: formula={total} enumerated={total}\n"
        failed = out["cli"][0][:2] != [0, count_line]
        rows = _loads(out["cli"][1])
        if len(rows) != len(words):
            failed += len(words)
        else:
            failed += sum(
                not (row["roles"] == w and tuple(row["permutation"]) == ref.representative(w))
                for row, w in zip(rows, words)
            )
        for sigma, (class_id, roles) in zip(spec["class_of"], out["class_of"], strict=True):
            failed += not (
                roles == ref.canonical_words(len(sigma) // 2)[class_id]
                and dependent(Permutation(tuple(sigma)), Permutation(ref.representative(roles)))
            )
        for word, (class_id, roles) in zip(spec["canonicalize"], out["canonicalize"], strict=True):
            canon = ref.canonical_word("".join(ref.ROLE_ORDER[x] for x in word))
            failed += not (roles == canon and words[class_id] == canon)
        return failed


class VerifySmall(Workload):
    """verify rule5 at r=5 (40 samples) and distinctness at r=6 (4 samples), d=2."""

    name = "verify-small"
    RULE5 = (5, 40)  # (parties, samples)
    DISTINCT = (6, 4)
    # per (class, sample): one rule-5 deviation or one distinctness norm
    norm_results = (ref.class_count(RULE5[0]) * RULE5[1]
                    + ref.class_count(DISTINCT[0]) * DISTINCT[1])

    def setup(self, seed, workdir):
        argvs = [
            ["verify", suite, "--parties", str(r), "--dim", "2", "--samples", str(n),
             "--seed", str(seed), "--format", "json"]
            for suite, (r, n) in (("rule5", self.RULE5), ("distinctness", self.DISTINCT))
        ]
        return {"cli": argvs}

    def attempted(self, spec):
        return 2  # one verdict per suite

    def check(self, spec, out):
        rule5 = _loads(out["cli"][0])
        distinct = _loads(out["cli"][1])
        gaps = distinct["sample_gaps"]
        return (
            (not (rule5["passed"] and not rule5["failures"]
                  and rule5["max_deviation"] < rule5["threshold"]
                  and rule5["samples"] == self.RULE5[1]))
            + (not (len(gaps) == self.DISTINCT[1]
                    and distinct["min_gap"] == min(gaps)
                    and distinct["min_gap"] > COINCIDENCE_GAP))
        )


def random_member(word: str, rng: random.Random) -> list[int]:
    """A random permutation in the class of a role word: nu . rep . tau^c,
    with nu a random slot relabeling that keeps (or, by a coin, flips) every
    slot's parity, and tau the global transpose applied first by a coin."""
    r = len(word)
    odd, even = rng.sample(range(1, 2 * r, 2), r), rng.sample(range(2, 2 * r + 1, 2), r)
    nu = [odd[k // 2] if k % 2 == 0 else even[k // 2] for k in range(2 * r)]
    if rng.randrange(2):
        nu = [nu[k + 1] if k % 2 == 0 else nu[k - 1] for k in range(2 * r)]
    images = [nu[i - 1] for i in ref.representative(word)]
    if rng.randrange(2):
        images = [images[k + 1] if k % 2 == 0 else images[k - 1] for k in range(2 * r)]
    return images


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank n x n density matrix: Haar unitary times a uniform point
    of the simplex, made exactly Hermitian and of unit trace."""
    ginibre = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(ginibre)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    weights = rng.exponential(size=n)
    rho = (q * (weights / weights.sum())) @ q.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


WORKLOADS = {w.name: w for w in (EvaluateLarge(), BetaSweep(), Classify(), VerifySmall())}
