"""Harness: brute-force oracle, verification suites, evaluation reports."""

import itertools
import json

import numpy as np
import pytest

from permsep import verify
from permsep.criteria import arrows_and_loops, enumerate_classes, to_permutation
from permsep.states import (
    apply_criterion,
    chessboard_state,
    maximally_mixed,
    mix_with_noise,
    random_state,
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


def test_evaluate_report_json_keys():
    data = evaluate_state(chessboard_state(), source="x").to_dict()
    assert set(data) == {
        "d", "r", "source", "tolerance", "entangled", "results",
    }
    assert set(data["results"][0]) == {
        "class_id", "roles", "label", "trace_norm", "violated",
    }
    assert data["entangled"] is True


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


def test_beta_sweep_needs_one_svd_per_silent_class(monkeypatch):
    calls = []

    def counting(matrix):
        calls.append(matrix.dtype)
        return trace_norm(matrix)

    monkeypatch.setattr(verify, "trace_norm", counting)
    beta_sweep()
    # beta = 0 for all 23 classes, then 44 bisection steps for each of the
    # 6 that fire; beta = 1 needs no SVD
    assert len(calls) == 23 + 6 * 44
    assert set(calls) == {np.dtype(np.float64)}


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
