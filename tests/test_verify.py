"""Harness: brute-force oracle, verification suites, evaluation reports."""

import functools
import itertools
import json
import math
import mmap
import multiprocessing
import os
import re
import signal
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from permsep import states, verify
from permsep.criteria import (
    Role,
    arrows_and_loops,
    canonical_roles,
    enumerate_classes,
    roles_to_string,
    to_permutation,
)
from permsep.perms import compose, global_transpose
from permsep.states import (
    SINGLE_THREAD_SVD_MAX_N,
    apply_criterion,
    bell_state,
    chessboard_state,
    density_matrix,
    maximally_mixed,
    mix_with_noise,
    random_pure_vector,
    random_state,
    reorder_parties,
    tensor_product,
    trace_norm,
)
from permsep.verify import (
    VerificationConfig,
    beta_sweep,
    brute_force_class_count,
    census,
    class_norms,
    evaluate_state,
    noise_thresholds,
    verify_distinctness,
    verify_rule5,
)


def config(**kw):
    base = dict(parties=2, dim=2, samples=3, seed=0)
    base.update(kw)
    return VerificationConfig(**base)


# --- config -----------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        config(samples=0)
    with pytest.raises(ValueError):
        config(equality_threshold=0)
    with pytest.raises(ValueError):
        config(distinctness_threshold=-1)
    for dim in (1, -2):
        with pytest.raises(ValueError, match=f"local dimension must be >= 2, got {dim}"):
            config(dim=dim)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
        config(seed=-1)


# --- brute-force oracle -------------------------------------------------------

@pytest.mark.parametrize("r,expected", [(2, 3), (3, 7)])
def test_brute_force_counts(r, expected):
    assert brute_force_class_count(r) == expected


def test_brute_force_refuses_large_r():
    with pytest.raises(ValueError, match="r <= 4"):
        brute_force_class_count(5)
    with pytest.raises(ValueError):
        brute_force_class_count(0)


def test_census_chain():
    info = census(3, with_oracle=True)
    assert info["formula"] == info["enumerated"] == info["oracle"] == 7
    assert info["rows"] == {"identity": 1, "QT": 3, "R": 3}


# --- rule 5 -------------------------------------------------------------------

@pytest.mark.parametrize("r,samples", [(2, 100), (3, 20), (4, 5)])
def test_rule5_passes_on_random_states(r, samples):
    report = verify_rule5(config(parties=r, dim=2, samples=samples, seed=1))
    assert report.passed
    assert report.max_deviation < 1e-10


def test_rule5_fails_with_impossible_threshold():
    cfg = config(parties=2, dim=2, samples=2, seed=1, equality_threshold=1e-300)
    report = verify_rule5(cfg)
    assert not report.passed
    assert report.failures


def composite_word_rule5(cfg):
    # each class's word against the word composed with the global transpose
    # (transpose first), both applied to the same state
    rng = np.random.default_rng(cfg.seed)
    tau = global_transpose(cfg.parties)
    max_dev, failures = 0.0, []
    for sample in range(cfg.samples):
        rho = random_state(cfg.dim, cfg.parties, rng)
        for cls in enumerate_classes(cfg.parties):
            sigma = to_permutation(cls)
            a = trace_norm(apply_criterion(rho.matrix, sigma, cfg.dim))
            b = trace_norm(apply_criterion(rho.matrix, compose(tau, sigma), cfg.dim))
            max_dev = max(max_dev, abs(a - b))
            if abs(a - b) >= cfg.equality_threshold:
                failures.append((cls.class_id, sample, abs(a - b)))
    return max_dev, tuple(failures)


@pytest.mark.parametrize("threshold", [1e-10, 1e-300])
@pytest.mark.parametrize("r,samples", [(2, 6), (3, 3), (4, 1)])
def test_rule5_equals_the_composite_word_loop(r, samples, threshold):
    # L_sigma(rho^T) is L_{compose(tau, sigma)}(rho) entry for entry, so
    # the deviations are the same floats
    cfg = config(parties=r, dim=2, samples=samples, seed=5, equality_threshold=threshold)
    report = verify_rule5(cfg)
    assert (report.max_deviation, report.failures) == composite_word_rule5(cfg)
    if threshold == 1e-300:
        assert report.failures


def test_rule5_report_is_deterministic():
    cfg = config(parties=2, dim=2, samples=4, seed=7)
    a = json.dumps(verify_rule5(cfg).to_dict(), sort_keys=True)
    b = json.dumps(verify_rule5(cfg).to_dict(), sort_keys=True)
    assert a == b


def test_rule5_validates_each_sample_once(monkeypatch):
    # rho^T is built from the transposed blocks, so only drawing a sample
    # runs the positivity check's eigvalsh
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert verify_rule5(config(parties=3, dim=2, samples=4, seed=1)).passed
    assert calls == [(8, 8)] * 4


# --- distinctness ----------------------------------------------------------------

def test_distinctness_on_random_state_r3():
    report = verify_distinctness(config(parties=3, dim=2, samples=1, seed=0))
    assert report.all_distinct
    assert report.min_gap > 1e-6


def test_distinctness_r5_all_71_norms_distinct():
    report = verify_distinctness(config(parties=5, dim=2, samples=1, seed=141))
    assert report.all_distinct
    assert len(report.sample_gaps) == 1


def test_distinctness_warns_on_every_sample_within_threshold():
    # a threshold above every gap makes each sample warn; replay the same
    # draws and find each sample's closest pair over all pairs of classes
    cfg = config(parties=3, dim=2, samples=3, seed=5, distinctness_threshold=10.0)
    report = verify_distinctness(cfg)
    rng = np.random.default_rng(cfg.seed)
    expected = []
    for _ in range(cfg.samples):
        norms = class_norms(random_state(cfg.dim, cfg.parties, rng))
        expected.append(min(
            (b[1] - a[1], (a[0].class_id, b[0].class_id))
            for a, b in itertools.permutations(norms, 2)
            if b[1] >= a[1]
        ))
    assert not report.all_distinct
    assert report.sample_gaps == tuple(gap for gap, _ in expected)
    assert report.warnings == tuple(
        f"sample {i}: classes {a} and {b} within {gap:.3e}"
        for i, (gap, (a, b)) in enumerate(expected)
    )
    assert (report.min_gap, report.closest_pair) == min(expected)


def test_distinctness_warns_where_the_partial_transpose_is_positive():
    # a positive semidefinite image has trace norm equal to its trace, 1,
    # as the identity's image does, so FF and FL tie to rounding on a random
    # state whose FL image is PSD (seed 0), and do not where it is not (seed 1)
    fl = enumerate_classes(2)[1]
    assert roles_to_string(fl.roles) == "FL"
    for seed, positive in [(0, True), (1, False)]:
        report = verify_distinctness(config(parties=2, dim=2, samples=1, seed=seed))
        rho = random_state(2, 2, np.random.default_rng(seed))
        lowest = np.linalg.eigvalsh(apply_criterion(rho.matrix, to_permutation(fl), 2))[0]
        assert (lowest >= 0) == positive == (not report.all_distinct)
        if positive:
            assert report.closest_pair == (0, 1) and report.min_gap <= 1e-15


def test_chessboard_norms_coincide():
    # the chessboard state is PPT, so its partial transpose is positive
    # semidefinite and sits at norm 1 with the trivial class
    norms = dict(
        (cls.label, value) for cls, value in class_norms(chessboard_state())
    )
    assert abs(norms["R"] - 7 / 6) < 1e-9
    assert abs(norms["QT"] - 1) < 1e-9
    assert abs(norms["identity"] - 1) < 1e-12


def test_distinctness_report_is_deterministic():
    cfg = config(parties=2, dim=2, samples=3, seed=11)
    a = json.dumps(verify_distinctness(cfg).to_dict(), sort_keys=True)
    b = json.dumps(verify_distinctness(cfg).to_dict(), sort_keys=True)
    assert a == b


# --- evaluation ------------------------------------------------------------------

def test_evaluate_chessboard():
    report = evaluate_state(chessboard_state(), source="chessboard")
    by_label = {res.label: res for res in report.results}
    assert by_label["R"].violated
    assert abs(by_label["R"].trace_norm - 7 / 6) < 1e-9
    assert not by_label["QT"].violated
    assert not by_label["identity"].violated
    assert len(report.violations) == 1


def test_evaluate_bell():
    from permsep.states import bell_state

    report = evaluate_state(bell_state(), source="bell")
    by_label = {res.label: res for res in report.results}
    assert abs(by_label["QT"].trace_norm - 2) < 1e-9
    assert abs(by_label["R"].trace_norm - 2) < 1e-9
    assert by_label["QT"].violated and by_label["R"].violated


def test_evaluate_maximally_mixed_has_no_violations():
    report = evaluate_state(maximally_mixed(2, 3), source="mixed")
    assert not report.violations
    assert all(res.trace_norm <= 1 + 1e-9 for res in report.results)


def test_evaluate_subset_and_bad_ids():
    report = evaluate_state(chessboard_state(), class_ids=[2, 0])
    assert [res.class_id for res in report.results] == [2, 0]
    with pytest.raises(ValueError):
        evaluate_state(chessboard_state(), class_ids=[99])
    # ids are enumeration positions, so a negative one is not an index from the end
    for ids, bad in (([-1], -1), ([0, 3, -4], 3)):
        with pytest.raises(ValueError, match=f"^class id {bad} out of range for r=2$"):
            evaluate_state(chessboard_state(), class_ids=ids)
    # a repeated id would be counted twice in the verdict
    for ids in ([1, 1], [2, 0, 1, 0]):
        with pytest.raises(ValueError, match=f"^class id {ids[-1]} given twice$"):
            evaluate_state(chessboard_state(), class_ids=ids)


def test_evaluate_report_json_keys():
    data = evaluate_state(chessboard_state(), source="x").to_dict()
    assert set(data) == {
        "d", "r", "source", "tolerance", "entangled", "results",
    }
    assert set(data["results"][0]) == {
        "class_id", "roles", "label", "trace_norm", "violated",
    }
    assert data["entangled"] is True


# --- product states ------------------------------------------------------------------

def _random_real_state(d, r, rng):
    a = rng.standard_normal((d**r, d**r))
    return density_matrix(a @ a.T / np.trace(a @ a.T), d, r)


def _counting_norms(monkeypatch):
    """Count the calls of trace_norm that verify makes, each still made."""
    calls = []
    monkeypatch.setattr(verify, "trace_norm", lambda m: calls.append(np.shape(m)) or trace_norm(m))
    return calls


def _shares(rho, cls):
    """The share of each block of rho under a class, in block order."""
    return [apply_criterion(matrix, slots, rho.dim)
            for _, matrix, slots in verify._block_slots(rho, to_permutation(cls))]


def _noise_images(rho, cls):
    return verify._noise_images(rho, *verify._noise_parts(rho, cls))


def _distinct_shares(rho):
    """The distinct share arrays of rho's images under every class, by shape,
    dtype and bytes: a lower bound on the SVDs that its norms need."""
    return {(share.shape, share.dtype.str, share.tobytes())
            for cls in enumerate_classes(rho.parties) for share in _shares(rho, cls)}


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("d,splits", [
    (2, (1, 2)), (2, (2, 2)), (2, (3, 2)), (2, (1, 1, 2)),
    (3, (1, 2)), (3, (2, 2)), (3, (1, 1, 2)),
])
def test_product_norms_equal_the_dense_ones(monkeypatch, d, splits, real):
    rng = np.random.default_rng([d, *splits, real])
    make = _random_real_state if real else random_state
    factors = [make(d, parties, rng) for parties in splits]
    rho = functools.reduce(tensor_product, factors)
    dense = density_matrix(functools.reduce(np.kron, [f.matrix for f in factors]),
                           d, sum(splits))
    assert all(m is f.matrix for (_, m), f in zip(rho.blocks, factors, strict=True))
    assert len(dense.blocks) == 1
    expected = class_norms(dense)
    shapes = _counting_norms(monkeypatch)  # SVDs of the product state's norms
    norms = class_norms(rho)
    assert [cls for cls, _ in norms] == [cls for cls, _ in expected]
    assert max(abs(a - b) for (_, a), (_, b) in zip(norms, expected)) <= 1e-13
    # one SVD per distinct share, none of the whole image; a real symmetric
    # factor's share, its transpose and its flattenings repeat under other
    # layouts, a complex factor's do not
    distinct = _distinct_shares(rho)
    assert len(distinct) <= len(shapes) <= len(factors) * len(norms)
    assert real or len(shapes) == len(distinct)
    assert dense.matrix.shape not in shapes


@pytest.mark.parametrize("d,r_a,r_b", [(2, 2, 1), (2, 2, 2), (3, 1, 2), (2, 3, 2)])
def test_reordered_product_norms_equal_the_dense_ones(monkeypatch, d, r_a, r_b):
    # a relabeled product keeps its two blocks at the parties they moved
    # to, and takes its norms block by block, never from the whole image
    rng = np.random.default_rng([d, r_a, r_b, 17])
    a, b = random_state(d, r_a, rng), random_state(d, r_b, rng)
    r = r_a + r_b
    for _ in range(3):
        order = [int(p) + 1 for p in rng.permutation(r)]
        rho = reorder_parties(tensor_product(a, b), order)
        # party j of rho is party order[j - 1] of a (x) b
        moved = tuple(order.index(p) + 1 for p in range(1, r + 1))
        assert [pos for pos, _ in rho.blocks] == [moved[:r_a], moved[r_a:]]
        assert all(m is x.matrix for (_, m), x in zip(rho.blocks, (a, b)))
        dense = density_matrix(rho.matrix, d, r)
        expected = class_norms(dense)
        shapes = _counting_norms(monkeypatch)
        norms = class_norms(rho)
        monkeypatch.undo()
        assert [cls for cls, _ in norms] == [cls for cls, _ in expected]
        assert max(abs(x - y) for (_, x), (_, y) in zip(norms, expected)) <= 1e-12
        assert len(shapes) == len(_distinct_shares(rho)) < 2 * len(norms)
        assert dense.matrix.shape not in shapes


def _ghz(r):
    ket = np.zeros(2**r)
    ket[[0, -1]] = 2**-0.5
    return _pure(ket, 2, r)


def _witness():
    # GHZ_3 (x) GHZ_2 (x) |0> (x) |0> (x) |0>, relabeled: a class detects it
    # when one of its cuts splits a GHZ block, and its |0> blocks hold one matrix
    zero = density_matrix(np.diag([1.0, 0.0]), 2, 1)
    rho = functools.reduce(tensor_product, [_ghz(3), _ghz(2), zero, zero, zero])
    return reorder_parties(rho, [1, 4, 2, 6, 3, 5, 7, 8])


def _ghz_zero_ghz():
    # GHZ_2 (x) |0> (x) GHZ_2, relabeled: the two GHZ blocks hold one matrix
    ghz = _ghz(2)
    zero = density_matrix(np.diag([1.0, 0.0]), 2, 1)
    return reorder_parties(functools.reduce(tensor_product, [ghz, zero, ghz]), [1, 3, 5, 2, 4])


def _self_product(seed):
    a = random_state(2, 2, np.random.default_rng(seed))
    return tensor_product(a, a)


def _shared_of_three(seed):
    # a (x) b (x) a, relabeled: the first and last block hold one matrix
    rng = np.random.default_rng(seed)
    a, b = random_state(2, 2, rng), random_state(2, 1, rng)
    return reorder_parties(functools.reduce(tensor_product, [a, b, a]), [3, 1, 5, 2, 4])


@pytest.mark.parametrize("make", [
    lambda: tensor_product(chessboard_state(), chessboard_state()),
    lambda: _self_product(127),
    lambda: _shared_of_three(131),
    _witness,
], ids=["chessboard2", "a2", "a-b-a-moved", "witness-r8"])
def test_repeated_shares_take_one_svd_and_keep_every_norm(monkeypatch, make):
    # a share is built and takes its SVD once per distinct block matrix and
    # slot layout, and each norm is still the product of its shares' norms
    # in block order, to the bit
    rho = make()
    classes = enumerate_classes(rho.parties)
    expected = [math.prod(trace_norm(share) for share in _shares(rho, cls)) for cls in classes]
    calls = _counting_norms(monkeypatch)
    norms = class_norms(rho)
    assert [norm for _, norm in norms] == expected
    assert len(_distinct_shares(rho)) <= len(calls) < len(rho.blocks) * len(classes)


@pytest.mark.parametrize("make", [
    lambda: random_state(2, 3, np.random.default_rng(137)),
    lambda: random_state(3, 3, np.random.default_rng(139)),
    lambda: _random_real_state(2, 4, np.random.default_rng(149)),
    lambda: mix_with_noise(tensor_product(bell_state(), bell_state()), 0.1),
], ids=["complex-d2", "complex-d3", "real-d2", "real-bell2"])
def test_a_state_of_one_block_takes_one_svd_per_class(monkeypatch, make):
    # each class's permutation is its block's slot layout, so no share repeats
    rho = make()
    calls = _counting_norms(monkeypatch)
    assert len(class_norms(rho)) == len(calls)


@pytest.mark.parametrize("make", [
    lambda: tensor_product(chessboard_state(), chessboard_state()),
    lambda: tensor_product(bell_state(), bell_state()),
    _ghz_zero_ghz,
], ids=["chessboard2", "bell2", "ghz-0-ghz-moved"])
def test_equal_noise_families_share_one_search(monkeypatch, make):
    # classes that fire on equal stacks from equal beta = 0 norms take one
    # search, and every threshold is the one its own search finds
    rho, bound = make(), 1 + 1e-9
    expected = [(cls, verify._noise_threshold(*_noise_images(rho, cls), norm, bound)
                 if norm > bound else 0.0) for cls, norm in class_norms(rho)]
    searches = []
    search = verify._noise_threshold
    monkeypatch.setattr(verify, "_noise_threshold",
                        lambda *args: searches.append(args[2]) or search(*args))
    assert noise_thresholds(rho, 1e-9) == expected
    assert 0 < len(searches) < sum(beta > 0 for _, beta in expected)


def test_a_state_of_one_block_keeps_no_image_per_firing_class():
    # the search memo is keyed on the kept blocks' eigenvalues and the other
    # blocks' layouts, never on a stack, so the call's traced peak stays a
    # few images although 58 of the 71 classes fire, each on its own image
    rho = random_state(2, 5, np.random.default_rng(151))
    image = 16 * 32 * 32  # bytes of one complex image
    tracemalloc.start()
    try:
        thresholds = noise_thresholds(rho, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(beta > 0 for _, beta in thresholds) == 58
    assert peak < 16 * image


def _lift(rho, pure, k):
    """rho with a one-party state inserted as party k."""
    r = rho.parties + 1
    if k == 1:
        return tensor_product(pure, rho)
    if k == r:
        return tensor_product(rho, pure)
    # party j of the result is party order[j - 1] of rho (x) pure
    return reorder_parties(tensor_product(rho, pure), [*range(1, k), r, *range(k, r)])


@pytest.mark.parametrize("d,r", [(2, 2), (2, 3), (2, 4), (3, 3)])
def test_a_pure_party_lifts_every_free_or_loop_class(d, r):
    # a class that is Free or Loop at party k has, on rho (x) (a pure state
    # at k), the norm of its restriction to the other parties on rho: the
    # pure state and its transpose both have trace norm 1
    rng = np.random.default_rng([d, r, 5])
    rho = random_state(d, r - 1, rng)
    ket = random_pure_vector(d, rng)
    pure = density_matrix(np.outer(ket, ket.conj()), d, 1)
    restricted = {cls.roles: norm for cls, norm in class_norms(rho)}
    lifted = 0
    for k in range(1, r + 1):
        for cls, norm in class_norms(_lift(rho, pure, k)):
            if cls.roles[k - 1] in (Role.FREE, Role.LOOP):
                rest = canonical_roles(cls.roles[:k - 1] + cls.roles[k:])
                assert abs(norm - restricted[rest]) <= 1e-13
                lifted += 1
    assert lifted >= r * len(restricted)


# --- beta sweep ---------------------------------------------------------------------

def test_two_copy_chessboard_norms_at_zero_noise():
    # reshuffling both copies squares the single-copy value, 49/36 > 1;
    # partial-transpose rows stay at exactly 1 (the family is PPT)
    state = tensor_product(chessboard_state(), chessboard_state())
    norms = {}
    for cls, value in class_norms(state):
        norms.setdefault(cls.label, []).append(value)
    assert max(norms["2R"]) == pytest.approx(49 / 36, abs=1e-9)
    assert max(norms["R+R'"]) == pytest.approx(49 / 36, abs=1e-9)
    assert max(norms["R"]) == pytest.approx(7 / 6, abs=1e-9)
    for label in ("identity", "QT", "2QT"):
        assert np.allclose(norms[label], 1, atol=1e-10)


def test_two_copy_chessboard_stays_ppt_under_noise():
    state = mix_with_noise(
        tensor_product(chessboard_state(), chessboard_state()), 0.3
    )
    for cls, value in class_norms(state):
        if set(cls.label.replace("2", "").split("+")) <= {"QT", "identity"}:
            assert value <= 1 + 1e-10


def test_beta_sweep_validates_steps():
    with pytest.raises(ValueError):
        beta_sweep(steps=5)


def _sweep_family():
    # (low, high) images of rho_c (x) rho_c and I/81 for every class at r = 4
    base = tensor_product(chessboard_state(), chessboard_state()).matrix
    noise = maximally_mixed(3, 4).matrix
    for cls in enumerate_classes(4):
        sigma = to_permutation(cls)
        yield apply_criterion(base, sigma, 3), apply_criterion(noise, sigma, 3)


def _violated(low, high, beta, tolerance=1e-9):
    return trace_norm((1 - beta) * low + beta * high) > 1 + tolerance


def _grid_scan_threshold(low, high, steps=12, bisect_iters=40):
    """The sweep as first written: a coarse grid scan for the last violating
    grid point, then bisection between it and the next one."""
    grid = np.linspace(0.0, 1.0, steps)
    hits = [i for i, beta in enumerate(grid) if _violated(low, high, beta)]
    if not hits:
        return 0.0
    if hits[-1] == len(grid) - 1:
        return 1.0
    lo, hi = grid[hits[-1]], grid[hits[-1] + 1]
    for _ in range(bisect_iters):
        mid = 0.5 * (lo + hi)
        if _violated(low, high, mid):
            lo = mid
        else:
            hi = mid
    return float(lo)


def test_beta_sweep_matches_the_grid_scan():
    report = beta_sweep(steps=12, tolerance=1e-9)
    family = list(_sweep_family())
    assert len(report.class_thresholds) == len(family) == 23
    fired = 0
    for (_, _, beta), (low, high) in zip(report.class_thresholds, family):
        assert abs(beta - _grid_scan_threshold(low, high)) <= 1e-12
        if beta > 0:
            fired += 1
            assert _violated(low, high, beta)
            assert not _violated(low, high, beta + 1e-12)
    assert fired == 6


def _counting_svd(monkeypatch):
    """Route numpy's SVDs through a recorder of (with vectors?, dtype, shape)."""
    calls = []
    svd = np.linalg.svd

    def counting(a, full_matrices=True, compute_uv=True, **kwargs):
        calls.append((compute_uv, a.dtype, a.shape))
        return svd(a, full_matrices, compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def test_beta_sweep_needs_one_svd_per_silent_class(monkeypatch):
    calls = _counting_svd(monkeypatch)
    beta_sweep()
    # at beta = 0 the 23 classes' 46 chessboard shares, of at most 81 entries,
    # reach 14 slot layouts of the one matrix, one SVD each; each of the 6
    # classes that fire adds a probe and secant steps.  The four R and R+QT
    # classes keep one copy on its own slots and have one noise family, on
    # stacks of nine 9 x 9 blocks, 3 SVDs; 2R and R+R' keep neither copy and
    # take 6 SVDs on stacks of one 81 x 81 block; beta = 1 needs none
    shapes = [shape for _, _, shape in calls]
    assert shapes.count((1, 81, 81)) == 6
    assert shapes.count((9, 9, 9)) == 3
    factor = [shape for shape in shapes if shape not in ((1, 81, 81), (9, 9, 9))]
    assert len(factor) == 14
    assert all(m * n <= 81 for m, n in factor)
    assert not any(vectors for vectors, _, _ in calls)
    assert {dtype for _, dtype, _ in calls} == {np.dtype(np.float64)}


def _bisection_threshold(low, high, tolerance):
    """The sweep's 44-step bisection before secant steps replaced it."""
    lo, hi = 0.0, 1.0 if _violated(low, high, 0.0, tolerance) else 0.0
    while hi - lo > 2.0**-44:
        mid = 0.5 * (lo + hi)
        if _violated(low, high, mid, tolerance):
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("tolerance", [1e-9, 1e-7, 1e-5, 1e-3])
def test_beta_sweep_equals_bisection(tolerance):
    report = beta_sweep(tolerance=tolerance)
    expected = [_bisection_threshold(low, high, tolerance) for low, high in _sweep_family()]
    assert [beta for _, _, beta in report.class_thresholds] == expected


def _noisy_pure_family(d, r, seed):
    rng = np.random.default_rng([seed, d, r])
    ket = random_pure_vector(d**r, rng)
    return density_matrix(np.outer(ket, ket.conj()), d, r)


def _firing_images(rho, tolerance=1e-9):
    """(class, low, high, norm at beta = 0) of each class that fires at beta = 0."""
    noise = maximally_mixed(rho.dim, rho.parties).matrix
    for cls in enumerate_classes(rho.parties):
        sigma = to_permutation(cls)
        low = apply_criterion(rho.matrix, sigma, rho.dim)
        norm = trace_norm(low)
        if norm > 1 + tolerance:
            yield cls, low, apply_criterion(noise, sigma, rho.dim), norm


def _bisection_thresholds(rho, tolerance=1e-9):
    """Each class's threshold by the 44-step bisection, in enumeration order."""
    noise = maximally_mixed(rho.dim, rho.parties).matrix
    thresholds = []
    for cls in enumerate_classes(rho.parties):
        sigma = to_permutation(cls)
        low = apply_criterion(rho.matrix, sigma, rho.dim)
        high = apply_criterion(noise, sigma, rho.dim)
        thresholds.append((cls, _bisection_threshold(low, high, tolerance)))
    return thresholds


@pytest.mark.parametrize("d,r", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_noise_thresholds_match_bisection_on_curved_families(monkeypatch, d, r):
    # pure states plus white noise: the norm curves in beta, unlike the
    # chessboard family, so the secant needs more than two steps; at most
    # one SVD per probe or secant step and per midpoint
    svd_bound = verify.SECANT_STEPS + verify.BISECT_ITERS
    fired = 0
    for seed in range(6):
        rho = _noisy_pure_family(d, r, seed)
        thresholds = noise_thresholds(rho, 1e-9)
        assert thresholds == _bisection_thresholds(rho)
        by_class = dict(thresholds)
        for cls, low, high, norm in _firing_images(rho):
            calls = _counting_svd(monkeypatch)
            assert verify._noise_threshold(low, high, norm, 1 + 1e-9) == by_class[cls]
            assert len(calls) <= svd_bound
            monkeypatch.undo()
            fired += 1
    assert fired >= 6


def _block_family(d, splits):
    """A product of a pure state and noisy pure states on the given splits."""
    rng = np.random.default_rng([d, *splits, 13])
    factors = [_noisy_pure_family(d, splits[0], rng.integers(100))]
    factors += [mix_with_noise(_noisy_pure_family(d, parties, rng.integers(100)), 0.1)
                for parties in splits[1:]]
    return functools.reduce(tensor_product, factors)


@pytest.mark.parametrize("make", [
    lambda: tensor_product(bell_state(), bell_state()),
    lambda: tensor_product(chessboard_state(), chessboard_state()),
    lambda: _block_family(2, (1, 2)),
    lambda: _block_family(2, (2, 2)),
    lambda: _block_family(2, (1, 1, 2)),
    lambda: _block_family(3, (1, 2)),
    lambda: _block_family(3, (2, 1)),
    lambda: reorder_parties(_block_family(2, (2, 2)), [1, 3, 2, 4]),
    lambda: reorder_parties(_block_family(3, (2, 1)), [1, 3, 2]),
    lambda: _noisy_pure_family(2, 3, 0),
    lambda: _noisy_pure_family(3, 2, 1),
], ids=["bell2", "chessboard2", "d2-1+2", "d2-2+2", "d2-1+1+2", "d3-1+2", "d3-2+1",
        "d2-2+2-moved", "d3-2+1-moved", "d2-3", "d3-2"])
def test_block_thresholds_equal_the_dense_bisection(monkeypatch, make):
    # a class that keeps every party of some block on its own two slots
    # searches on block-diagonal images; its norms are the dense images'
    # to rounding, and its thresholds the dense bisection's.  On a state of
    # one block, the classes of roles F and L only search on n blocks of 1 x 1
    rho = make()
    noise = maximally_mixed(rho.dim, rho.parties).matrix
    blocked = 0
    for cls, norm in class_norms(rho):
        sigma = to_permutation(cls)
        images = _noise_images(rho, cls)
        # the stack is taken exactly when some block's parties are all F or L
        kept = any(all(cls.roles[p - 1] in (Role.FREE, Role.LOOP) for p in pos)
                   for pos, _ in rho.blocks)
        assert (len(images[0]) > 1) == kept
        if not kept:
            continue
        low = apply_criterion(rho.matrix, sigma, rho.dim)
        high = apply_criterion(noise, sigma, rho.dim)
        for beta in (0.0, 2.0**-10, 0.3, 1.0):
            block = trace_norm((1 - beta) * images[0] + beta * images[1])
            assert abs(block - trace_norm((1 - beta) * low + beta * high)) <= 1e-13
        blocked += norm > 1 + 1e-9
    assert blocked >= 1
    shapes = _counting_norms(monkeypatch)
    thresholds = noise_thresholds(rho, 1e-9)
    monkeypatch.undo()
    assert any(len(shape) == 3 for shape in shapes)
    if len(rho.blocks) == 1:
        assert (rho.size, 1, 1) in shapes
    assert thresholds == _bisection_thresholds(rho)


def test_noise_threshold_below_the_probe_is_the_bisection_one():
    # a state just inside the entangled region has thresholds below the
    # first probe, so the probe does not fire and midpoints finish
    rho = _noisy_pure_family(2, 2, 0)
    top = max(beta for _, beta in noise_thresholds(rho, 1e-9))
    edge = mix_with_noise(rho, top - 1e-4)
    fired = 0
    for _, low, high, norm in _firing_images(edge):
        expected = _bisection_threshold(low, high, 1e-9)
        assert 0 < expected < verify.PROBE_BETA
        assert verify._noise_threshold(low, high, norm, 1 + 1e-9) == expected
        fired += 1
    assert fired >= 1


@pytest.mark.parametrize("secant_steps", [0, 1])
def test_bisection_finishes_what_newton_leaves(monkeypatch, secant_steps):
    # with few or no probe and secant steps the bisection fallback sets
    # every threshold
    monkeypatch.setattr(verify, "SECANT_STEPS", secant_steps)
    rho = _noisy_pure_family(2, 3, 0)
    calls = _counting_svd(monkeypatch)
    thresholds = noise_thresholds(rho, 1e-9)
    assert len(calls) <= len(thresholds) * (1 + secant_steps + verify.BISECT_ITERS)
    assert thresholds == _bisection_thresholds(rho)


def test_noise_thresholds_cover_every_class():
    rho = _noisy_pure_family(3, 2, 1)
    thresholds = noise_thresholds(rho, 1e-9)
    assert [cls for cls, _ in thresholds] == list(enumerate_classes(2))
    assert all(0.0 <= beta < 1.0 for _, beta in thresholds)
    with pytest.raises(ValueError, match="tolerance"):
        noise_thresholds(rho, 0.0)


def _pure(ket, d, r):
    return density_matrix(np.outer(ket, ket.conj()), d, r)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_isotropic_thresholds_are_the_closed_form(d):
    # on (1 - beta) |Phi_d><Phi_d| + beta I/d^2 the partial transpose and the
    # realignment both have norm d (1 - beta) + beta / d (M. & P. Horodecki,
    # PRA 59, 4206 (1999)), which falls to 1 + tol at x
    tol = 1e-9
    x = d * (1 - tol / (d - 1)) / (d + 1)
    phi = _pure(np.eye(d).ravel() / np.sqrt(d), d, 2)
    thresholds = {roles_to_string(cls.roles): beta
                  for cls, beta in noise_thresholds(phi, tol)}
    assert set(thresholds) == {"FF", "FL", "HT"}
    for roles in ("FL", "HT"):
        assert x - 2.0**-verify.BISECT_ITERS <= thresholds[roles] <= x, roles


@pytest.mark.parametrize("r", [3, 4, 5])
def test_ghz_partial_transpose_thresholds_are_the_closed_form(r):
    # every partial transpose of GHZ_r has eigenvalues 1/2, 1/2, 1/2, -1/2 and
    # 0, so with noise its norm is 1 + (1 - beta) - beta / 2^(r-1) (Dur,
    # Cirac & Tarrach, PRL 83, 3562 (1999)), which falls to 1 + tol at y
    tol = 1e-9
    y = (1 - tol) * 2 ** (r - 1) / (1 + 2 ** (r - 1))
    ket = np.zeros(2**r)
    ket[0] = ket[-1] = 1 / np.sqrt(2)
    cuts = [beta for cls, beta in noise_thresholds(_pure(ket, 2, r), tol)
            if set(cls.roles) == {Role.FREE, Role.LOOP}]
    assert len(cuts) == 2 ** (r - 1) - 1  # one class per bipartition
    for beta in cuts:
        assert y - 2.0**-verify.BISECT_ITERS <= beta <= y


@pytest.mark.parametrize("r, arrow_classes", [(3, 3), (4, 15), (5, 55)])
def test_ghz_arrow_thresholds_are_the_closed_form(r, arrow_classes):
    # measured, not derived: on GHZ_r with noise, a class with a >= 1 arrows
    # gives 2 (1 - beta) + beta 2^-a, the sum of the norms of its images of
    # GHZ_r (2) and of I/2^r (2^-a), which falls to 1 + tol at y; as tol
    # -> 0, y is 2/3 for one arrow and 4/7 for two
    tol = 1e-9
    ket = np.zeros(2**r)
    ket[0] = ket[-1] = 1 / np.sqrt(2)
    ghz = _pure(ket, 2, r)
    arrows = {cls: len(arrows_and_loops(cls.roles)[0]) for cls in enumerate_classes(r)}
    assert sum(a >= 1 for a in arrows.values()) == arrow_classes
    for beta in np.linspace(0, 1, 11):
        for cls, norm in class_norms(mix_with_noise(ghz, beta)):
            a = arrows[cls]
            if a:
                assert abs(norm - (2 * (1 - beta) + beta * 2.0**-a)) <= 1e-12
    for cls, beta in noise_thresholds(ghz, tol):
        a = arrows[cls]
        if a:
            y = (1 - tol) / (2 - 2.0**-a)
            assert y - 2.0**-verify.BISECT_ITERS <= beta <= y, roles_to_string(cls.roles)


def test_shifts_upb_state_is_detected_by_the_realignments_only():
    # the Shifts UPB state (Bennett et al., PRL 82, 5385 (1999)) is PPT, so
    # every partial transpose keeps norm 1, yet it is bound entangled and
    # every realignment of one pair of parties detects it
    k0, k1 = np.eye(2)
    plus, minus = (k0 + k1) / np.sqrt(2), (k0 - k1) / np.sqrt(2)
    upb = [functools.reduce(np.kron, kets) for kets in
           ((k0, k1, plus), (k1, plus, k0), (plus, k0, k1), (minus, minus, minus))]
    projector = sum(np.outer(ket, ket) for ket in upb)
    shifts = density_matrix((np.eye(8) - projector) / 4, 2, 3)
    norms = {roles_to_string(cls.roles): norm for cls, norm in class_norms(shifts)}
    expected = {"FFF": 1.0, "FFL": 1.0, "FLF": 1.0, "FLL": 1.0,
                "FHT": 1.086490823927, "HFT": 1.086490823927, "HTF": 1.086490823927}
    assert norms.keys() == expected.keys()
    for roles, norm in norms.items():
        assert abs(norm - expected[roles]) <= 1e-12, roles


def test_smolin_state_norms_are_the_known_ones():
    # the Smolin state (PRA 63, 032306 (2001)) is separable across every
    # 2|2 cut, so 2QT, 2R and R+R' give 1, while every QT, R and R+QT class
    # gives 2
    x, y, z = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])
    paulis = sum(functools.reduce(np.kron, [p] * 4) for p in (x, y, z))
    smolin = density_matrix((np.eye(16) + paulis) / 16, 2, 4)
    labels = set()
    for cls, norm in class_norms(smolin):
        labels.add(cls.label)
        expected = 2.0 if cls.label in ("QT", "R", "R+QT") else 1.0
        assert abs(norm - expected) <= 1e-12, roles_to_string(cls.roles)
    assert labels == {"identity", "QT", "R", "R+QT", "2QT", "2R", "R+R'"}


def test_noise_images_have_norm_d_to_minus_arrows():
    # the premise that lets the sweep skip beta = 1: every class maps I/81
    # to norm 3^-#arrows <= 1, so no class violates there
    noise = maximally_mixed(3, 4).matrix
    for cls in enumerate_classes(4):
        arrows, _ = arrows_and_loops(cls.roles)
        norm = trace_norm(apply_criterion(noise, to_permutation(cls), 3))
        assert abs(norm - 3.0 ** -len(arrows)) < 1e-12


@pytest.mark.parametrize("tolerance", [1e-9, 1e-7, 1e-5])
def test_beta_sweep_exact_thresholds(tolerance):
    # the four R and R+QT classes that fire cross 1 + tol at 1/5 - 6 tol/5,
    # the 2R and R+R' classes at 13/45 - 4 tol/5; bisection stops within
    # 2^-44 below; the other 17 classes never fire
    reshuffle, double = 1 / 5 - 6 * tolerance / 5, 13 / 45 - 4 * tolerance / 5
    exact = {
        4: ("R", reshuffle), 9: ("R+QT", reshuffle), 19: ("R", reshuffle),
        20: ("R+QT", reshuffle), 21: ("2R", double), 22: ("R+R'", double),
    }
    report = beta_sweep(tolerance=tolerance)
    assert len(report.class_thresholds) == 23
    for class_id, label, beta in report.class_thresholds:
        if class_id in exact:
            assert label == exact[class_id][0]
            assert 0 <= exact[class_id][1] - beta < 2.0**-44
        else:
            assert beta == 0.0


def test_beta_sweep_ignores_steps():
    assert beta_sweep(steps=10).class_thresholds == beta_sweep(steps=40).class_thresholds


@pytest.mark.parametrize("tolerance", [-1.0, 0.0, float("nan"), float("inf")])
def test_tolerance_must_be_positive_and_finite(tolerance):
    with pytest.raises(ValueError, match="tolerance"):
        beta_sweep(tolerance=tolerance)
    with pytest.raises(ValueError, match="tolerance"):
        evaluate_state(chessboard_state(), tolerance=tolerance)
    with pytest.raises(ValueError, match="equality_threshold"):
        config(equality_threshold=tolerance)


@pytest.mark.parametrize("parties", [4, 2])
def test_classes_on_another_party_count_are_refused(monkeypatch, parties):
    # an 8-slot class on a 3-party state would read its first 6 images
    # and give wrong norms; the refusal comes before any worker is forked
    monkeypatch.setattr(verify, "_usable_cores", lambda: 2)
    monkeypatch.setattr(verify, "POOL_MIN_WORK", 0)
    forks = _counting_forks(monkeypatch)
    rho = random_state(2, 3, np.random.default_rng(101))
    with pytest.raises(ValueError, match=rf"class on {parties} parties .* state on 3 parties"):
        class_norms(rho, enumerate_classes(parties))
    assert forks == []


# --- process pool -------------------------------------------------------------------

def _out_of_time(signum, frame):
    raise TimeoutError("a pooled test ran for 120 s")


@pytest.fixture
def pool_on_two_cores(monkeypatch):
    """Any call of class_norms forks one worker; a call that waits on a
    worker that never exits fails the test after 120 s."""
    if sys.platform != "linux" or states._ONE_BLAS_THREAD is None:
        pytest.skip("a pool forks only on Linux, under the OpenBLAS thread limit")
    monkeypatch.setattr(verify, "_usable_cores", lambda: 2)
    monkeypatch.setattr(verify, "POOL_MIN_WORK", 0)
    handler = signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert _no_child_left()  # the call reaped its workers


def _no_child_left() -> bool:
    """Whether this process has no child, alive or unreaped; unlike
    ``multiprocessing.active_children``, this sees a plain ``os.fork``."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _in_a_worker(monkeypatch, act):
    """Wrap ``_norm_chunk`` so that a forked worker, which inherits the
    wrapper, calls ``act(norms)`` on the norms of its stride."""
    norm_chunk = verify._norm_chunk
    caller = os.getpid()

    def chunk(rho, perms):
        norms = norm_chunk(rho, perms)
        if os.getpid() != caller:
            act(norms)
        return norms

    monkeypatch.setattr(verify, "_norm_chunk", chunk)


def _counting_forks(monkeypatch):
    """Count calls of ``os.fork``, each still made."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    return forks


def _lifted_and_relabeled():
    # a (2,4) state (x) a pure qubit, the qubit moved to party 2: two blocks
    rng = np.random.default_rng(113)
    qubit = _pure(random_pure_vector(2, rng), 2, 1)
    return reorder_parties(tensor_product(random_state(2, 4, rng), qubit), [1, 5, 2, 3, 4])


@pytest.mark.parametrize("make", [
    lambda: random_state(2, 4, np.random.default_rng(83)),
    # real, one block
    lambda: mix_with_noise(tensor_product(chessboard_state(), chessboard_state()), 0.1),
    _lifted_and_relabeled,
], ids=["complex-d2", "real-d3", "product-d2"])
def test_pooled_norms_equal_the_serial_ones(pool_on_two_cores, monkeypatch, make):
    rho = make()
    chunks = []  # the runs of images whose norms this process computed
    norm_chunk = verify._norm_chunk
    caller = os.getpid()

    def chunk(rho, perms):
        if os.getpid() == caller:
            chunks.append(perms)
        return norm_chunk(rho, perms)

    monkeypatch.setattr(verify, "_norm_chunk", chunk)
    pooled = class_norms(rho)
    every = [to_permutation(cls) for cls, _ in pooled]
    assert chunks == [every[0::2]]  # the worker computed the rest
    monkeypatch.setattr(verify, "POOL_MIN_WORK", float("inf"))
    assert pooled == class_norms(rho)
    assert [cls.class_id for cls, _ in pooled] == list(range(len(pooled)))


def test_a_killed_worker_loses_no_norm(pool_on_two_cores, monkeypatch, tmp_path):
    rho = random_state(2, 5, np.random.default_rng(89))

    def die(norms):
        (tmp_path / "died").touch()
        os._exit(1)

    _in_a_worker(monkeypatch, die)
    pooled = class_norms(rho)
    assert (tmp_path / "died").exists()
    assert _no_child_left()
    monkeypatch.setattr(verify, "POOL_MIN_WORK", float("inf"))
    assert pooled == class_norms(rho)


def test_a_worker_that_raises_loses_no_norm(pool_on_two_cores, monkeypatch, tmp_path):
    rho = random_state(2, 5, np.random.default_rng(89))

    def fail(norms):
        (tmp_path / "raised").touch()
        raise RuntimeError("a worker's error")

    _in_a_worker(monkeypatch, fail)
    pooled = class_norms(rho)
    assert (tmp_path / "raised").exists()
    monkeypatch.setattr(verify, "POOL_MIN_WORK", float("inf"))
    assert pooled == class_norms(rho)


def test_a_worker_that_writes_part_of_its_stride_loses_no_norm(pool_on_two_cores, monkeypatch):
    # the worker fills the first half of its stride in the shared array and
    # exits with status 1: the status alone tells the caller to compute it all
    rho = random_state(2, 5, np.random.default_rng(89))
    maps = []
    mapping = mmap.mmap
    monkeypatch.setattr(mmap, "mmap", lambda *args: maps.append(mapping(*args)) or maps[-1])

    def half(norms):
        stride = np.ndarray(len(maps[-1]) // 8, buffer=maps[-1])[1::2]  # worker 1 of 1
        stride[:len(norms) // 2] = norms[:len(norms) // 2]
        os._exit(1)

    _in_a_worker(monkeypatch, half)
    calls = _counting_svd(monkeypatch)
    pooled = class_norms(rho)
    assert len(maps) == 1 and len(calls) == len(pooled)  # this process computed all
    monkeypatch.setattr(verify, "POOL_MIN_WORK", float("inf"))
    assert pooled == class_norms(rho)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open files in /proc")
def test_an_error_in_the_callers_stride_leaves_no_child_or_pipe(pool_on_two_cores, monkeypatch):
    # the worker fills its stride in shared memory, with no pipe to block
    # on, and the caller reaps it before the error leaves class_norms
    rho = random_state(2, 5, np.random.default_rng(89))
    norm_chunk = verify._norm_chunk
    caller = os.getpid()

    def chunk(rho, perms):
        if os.getpid() == caller:
            raise RuntimeError("the caller's error")
        return norm_chunk(rho, perms)

    forks = _counting_forks(monkeypatch)
    fds = sorted(os.listdir("/proc/self/fd"))
    with monkeypatch.context() as patched:
        patched.setattr(verify, "_norm_chunk", chunk)
        with pytest.raises(RuntimeError, match="the caller's error"):
            class_norms(rho)
    assert forks == [caller] and _no_child_left()
    assert sorted(os.listdir("/proc/self/fd")) == fds
    pooled = class_norms(rho)
    monkeypatch.setattr(verify, "POOL_MIN_WORK", float("inf"))
    assert pooled == class_norms(rho)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads the thread count in /proc")
def test_a_worker_never_re_creates_blas_threads(pool_on_two_cores, monkeypatch, tmp_path):
    # OpenBLAS stops its threads at fork, and the worker inherits the limit
    # of one thread, so after its SVDs it still runs on its own thread alone
    def report(norms):
        status = Path("/proc/self/status").read_text()
        (tmp_path / str(os.getpid())).write_text(re.search(r"Threads:\s*(\d+)", status)[1])

    _in_a_worker(monkeypatch, report)
    class_norms(random_state(2, 5, np.random.default_rng(89)))
    threads = [path.read_text() for path in tmp_path.iterdir()]
    assert threads == ["1"]


def test_the_caller_and_each_worker_compute_one_stride(pool_on_two_cores, monkeypatch,
                                                       tmp_path):
    # on 3 cores two workers fork; each process records the images it took
    monkeypatch.setattr(verify, "_usable_cores", lambda: 3)
    norm_chunk = verify._norm_chunk
    caller = os.getpid()

    def chunk(rho, perms):
        path = tmp_path / ("caller" if os.getpid() == caller else str(os.getpid()))
        path.write_text(json.dumps([sigma.images for sigma in perms]))
        return norm_chunk(rho, perms)

    monkeypatch.setattr(verify, "_norm_chunk", chunk)
    rho = random_state(2, 5, np.random.default_rng(89))
    pooled = class_norms(rho)
    taken = {path.name: [tuple(images) for images in json.loads(path.read_text())]
             for path in tmp_path.iterdir()}
    every = [to_permutation(cls).images for cls in enumerate_classes(5)]
    assert taken.pop("caller") == every[0::3]
    assert sorted(taken.values()) == [every[1::3], every[2::3]]
    assert [len(every[j::3]) for j in range(3)] == [24, 24, 23]
    monkeypatch.setattr(verify, "POOL_MIN_WORK", float("inf"))
    assert pooled == class_norms(rho)


def test_a_second_thread_keeps_the_call_in_this_process(pool_on_two_cores, monkeypatch):
    # a fork copies only the calling thread, so beside another thread
    # class_norms computes every image here
    rho = random_state(2, 5, np.random.default_rng(89))
    calls = _counting_svd(monkeypatch)
    forks = _counting_forks(monkeypatch)
    done = threading.Event()
    thread = threading.Thread(target=done.wait, args=(120,))
    thread.start()
    try:
        norms = class_norms(rho)
    finally:
        done.set()
        thread.join(timeout=120)
    assert not thread.is_alive()
    assert forks == [] and len(calls) == len(norms)
    monkeypatch.setattr(verify, "POOL_MIN_WORK", float("inf"))
    assert norms == class_norms(rho)


def test_without_the_thread_limit_nothing_forks(pool_on_two_cores, monkeypatch):
    # the pool asks states' _blas_threads, so with no OpenBLAS limit every
    # norm is computed here, on the caller's thread count
    rho = random_state(2, 5, np.random.default_rng(89))
    pooled = [norm for _, norm in class_norms(rho)]
    monkeypatch.setattr(states, "_ONE_BLAS_THREAD", None)
    forks = _counting_forks(monkeypatch)
    assert np.allclose([norm for _, norm in class_norms(rho)], pooled, rtol=1e-12, atol=0)
    assert forks == []


def test_no_pool_below_the_break_even(monkeypatch):
    monkeypatch.setattr(verify, "_usable_cores", lambda: 4)
    workers = []
    pool_workers = verify._pool_workers
    monkeypatch.setattr(verify, "_pool_workers",
                        lambda *args: workers.append(pool_workers(*args)) or workers[-1])
    rng = np.random.default_rng(97)
    for r in range(1, 6):
        evaluate_state(random_state(2, r, rng))
    evaluate_state(random_state(3, 3, rng))
    beta_sweep()
    assert len(workers) == 7 and not any(workers)
    assert _no_child_left()
    # the limit falls between (2,5), which stays here, and (3,4), which pools
    assert len(enumerate_classes(5)) * 32**3 <= verify.POOL_MIN_WORK < len(enumerate_classes(4)) * 81**3


def test_each_worker_forks_for_a_limits_worth_of_work(monkeypatch):
    # forks run one after another in the caller, so on 64 cores a j-th
    # worker forks only above j times the limit: (3,4) forks one, (2,6) six
    if sys.platform != "linux" or states._ONE_BLAS_THREAD is None:
        pytest.skip("a pool forks only on Linux, under the OpenBLAS thread limit")
    monkeypatch.setattr(verify, "_usable_cores", lambda: 64)
    limit, step = states._blas_threads(128), verify.POOL_MIN_WORK
    works = [step, 1.5 * step, 2 * step, 2.5 * step, 1e3 * step,
             len(enumerate_classes(4)) * 81**3, len(enumerate_classes(6)) * 64**3]
    assert [verify._pool_workers(work, limit) for work in works] == [0, 1, 1, 2, 63, 1, 6]
    forks = _counting_forks(monkeypatch)
    rho = random_state(3, 4, np.random.default_rng(157))
    pooled = class_norms(rho)
    assert len(forks) == 1 and _no_child_left()
    monkeypatch.setattr(verify, "POOL_MIN_WORK", float("inf"))
    assert pooled == class_norms(rho)


def test_one_core_a_large_matrix_or_a_worker_runs_serially(pool_on_two_cores, monkeypatch):
    assert verify._pool_workers(10**6, states._blas_threads(128)) == 1
    # above it the serial path's SVDs run on BLAS threads, and a worker's
    # on one thread would round otherwise
    large = states._blas_threads(SINGLE_THREAD_SVD_MAX_N + 1)
    assert verify._pool_workers(10**6, large) == 0
    assert verify._pool_workers(0, states._blas_threads(128)) == 0  # no more than POOL_MIN_WORK
    for patch in [
        (verify, "_usable_cores", lambda: 1),
        # fork safety rests on Linux and on OpenBLAS's one-thread limit
        (verify.sys, "platform", "darwin"),
        (states, "_ONE_BLAS_THREAD", None),
        # a worker never starts a pool of its own
        (multiprocessing, "parent_process", lambda: object()),
    ]:
        with monkeypatch.context() as patched:
            patched.setattr(*patch)
            assert verify._pool_workers(10**6, states._blas_threads(128)) == 0, patch

