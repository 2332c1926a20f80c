"""Harness: brute-force oracle, verification suites, evaluation reports."""

import functools
import itertools
import json
import multiprocessing

import numpy as np
import pytest

from permsep import verify
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


def test_chessboard_norms_coincide():
    # on the chessboard state the trivial class and the partial transpose
    # both sit at norm 1, a coincidence a generic state does not show
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
    shapes = []  # SVDs of the product state's norms

    def counted(matrix):
        shapes.append(matrix.shape)
        return trace_norm(matrix)

    monkeypatch.setattr(verify, "trace_norm", counted)
    norms = class_norms(rho)
    assert [cls for cls, _ in norms] == [cls for cls, _ in expected]
    assert max(abs(a - b) for (_, a), (_, b) in zip(norms, expected)) <= 1e-13
    # one SVD per factor and class, none of the whole image
    assert len(shapes) == len(factors) * len(norms)
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
        shapes = []

        def counted(matrix):
            shapes.append(matrix.shape)
            return trace_norm(matrix)

        monkeypatch.setattr(verify, "trace_norm", counted)
        norms = class_norms(rho)
        monkeypatch.undo()
        assert [cls for cls, _ in norms] == [cls for cls, _ in expected]
        assert max(abs(x - y) for (_, x), (_, y) in zip(norms, expected)) <= 1e-12
        assert len(shapes) == 2 * len(norms)
        assert dense.matrix.shape not in shapes


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
    # at beta = 0 each of the 23 classes takes one SVD per chessboard
    # factor, of at most 81 entries; each of the 6 that fire adds a probe and
    # secant steps.  The four R and R+QT classes keep one copy on its own
    # slots, so theirs run on stacks of nine 9 x 9 blocks, 12 in all; 2R and
    # R+R' keep neither copy and take 6 SVDs on stacks of one 81 x 81 block;
    # beta = 1 needs none
    shapes = [shape for _, _, shape in calls]
    assert shapes.count((1, 81, 81)) == 6
    assert shapes.count((9, 9, 9)) == 12
    factor = [shape for shape in shapes if shape not in ((1, 81, 81), (9, 9, 9))]
    assert len(factor) == 2 * 23
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
        images = verify._noise_images(rho, cls)
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
    shapes = []

    def counted(matrix):
        shapes.append(np.shape(matrix))
        return trace_norm(matrix)

    monkeypatch.setattr(verify, "trace_norm", counted)
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


# --- process pool -------------------------------------------------------------------

@pytest.fixture
def pool_on_two_cores(monkeypatch):
    """Any call of class_norms runs pooled, with one worker; the pool is
    joined after the test."""
    assert verify._pool is None
    monkeypatch.setattr(verify, "_usable_cores", lambda: 2)
    monkeypatch.setattr(verify, "POOL_MIN_WORK", 0)
    yield
    if verify._pool is not None:
        verify._drop_pool(verify._pool[0])


@pytest.mark.parametrize("make", [
    lambda: random_state(2, 4, np.random.default_rng(83)),
    # real, and not a product: a product's norms never reach the pool
    lambda: mix_with_noise(tensor_product(chessboard_state(), chessboard_state()), 0.1),
], ids=["complex-d2", "real-d3"])
def test_pooled_norms_equal_the_serial_ones(pool_on_two_cores, monkeypatch, make):
    rho = make()
    calls = []  # SVDs run in this process

    def counted(matrix):
        calls.append(matrix.shape)
        return trace_norm(matrix)

    monkeypatch.setattr(verify, "trace_norm", counted)
    pooled = class_norms(rho)
    assert verify._pool is not None
    assert 0 < len(calls) < len(pooled)  # the worker computed the rest
    monkeypatch.setattr(verify, "POOL_MIN_WORK", float("inf"))
    assert pooled == class_norms(rho)
    assert [cls.class_id for cls, _ in pooled] == list(range(len(pooled)))


def test_a_product_state_never_starts_the_pool(pool_on_two_cores):
    rng = np.random.default_rng(113)
    class_norms(tensor_product(random_state(2, 2, rng), random_state(2, 3, rng)))
    assert verify._pool is None


def test_a_killed_worker_loses_no_norm(pool_on_two_cores, monkeypatch):
    rho = random_state(2, 5, np.random.default_rng(89))
    executor, _ = verify._start_pool(1, 2)
    submit = executor.submit
    killed = []

    def submit_and_kill(*args):
        future = submit(*args)
        if not killed:  # the executor reaps what it lost
            killed.extend(multiprocessing.active_children())
            for worker in killed:
                worker.kill()
        return future

    monkeypatch.setattr(executor, "submit", submit_and_kill)
    pooled = class_norms(rho)
    assert len(killed) == 1
    assert verify._pool is None  # the broken pool was dropped
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(verify, "POOL_MIN_WORK", float("inf"))
    assert pooled == class_norms(rho)
    # the next call starts a new pool
    monkeypatch.setattr(verify, "POOL_MIN_WORK", 0)
    assert class_norms(rho) == pooled
    assert verify._pool is not None and verify._pool[0] is not executor


def test_no_pool_below_the_break_even(monkeypatch):
    monkeypatch.setattr(verify, "_usable_cores", lambda: 4)
    rng = np.random.default_rng(97)
    for r in range(1, 7):
        evaluate_state(random_state(2, r, rng))
    evaluate_state(random_state(3, 4, rng))
    beta_sweep()
    assert verify._pool is None
    assert multiprocessing.active_children() == []


def test_one_core_a_large_matrix_or_a_worker_runs_serially(monkeypatch):
    monkeypatch.setattr(verify, "POOL_MIN_WORK", 0)
    monkeypatch.setattr(verify, "_usable_cores", lambda: 1)
    assert verify._start_pool(10**6, 128) is None
    monkeypatch.setattr(verify, "_usable_cores", lambda: 4)
    # above it BLAS threads already share the cores
    assert verify._start_pool(10**6, verify.SINGLE_THREAD_SVD_MAX_N + 1) is None
    # a worker never starts a pool of its own
    monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
    assert verify._start_pool(10**6, 128) is None
    assert verify._pool is None
