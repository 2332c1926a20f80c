"""Numerics: the entry map, trace norms, state constructors, file format."""

import dataclasses
import itertools
import json
import os
import pickle
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permsep import states
from permsep.criteria import enumerate_classes, roles_from_string, to_permutation
from permsep.perms import (
    Permutation,
    compose,
    global_transpose,
    identity,
)
from permsep.states import (
    SINGLE_THREAD_SVD_MAX_N,
    DensityMatrix,
    apply_criterion,
    bell_state,
    chessboard_state,
    density_matrix,
    load_state,
    maximally_mixed,
    mix_with_noise,
    product_state,
    random_density_matrix,
    random_separable,
    random_state,
    random_unitary,
    reorder_parties,
    simplex_weights,
    state_from_dict,
    state_to_dict,
    tensor_product,
    trace_norm,
)
from permsep.verify import class_norms, noise_thresholds

from conftest import apply_reference, os_threads, random_complex, random_hermitian, src_env

REALIGN_2 = Permutation((1, 3, 2, 4))
PT_2 = Permutation((1, 2, 4, 3))


# --- entry map -----------------------------------------------------------------

@pytest.mark.parametrize("d,r", [(2, 2), (3, 2), (2, 3), (2, 4)])
def test_apply_matches_reference_oracle(d, r):
    rng = np.random.default_rng(101)
    for _ in range(15):
        a = random_complex(d**r, rng)
        sigma = Permutation(tuple(rng.permutation(2 * r) + 1))
        fast = apply_criterion(a, sigma, d)
        slow = apply_reference(a, sigma.images, d)
        assert np.array_equal(fast, slow)
        # real states are stored as float64, and their images must stay real
        fast = apply_criterion(a.real, sigma, d)
        assert fast.dtype == np.float64
        assert np.array_equal(fast, slow.real)


@st.composite
def _entry_map_cases(draw):
    d = draw(st.sampled_from([2, 3]))
    r = draw(st.integers(1, 3))
    sigma = Permutation(tuple(draw(st.permutations(range(1, 2 * r + 1)))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = random_complex(d**r, rng)
    return (a if draw(st.booleans()) else a.real), sigma, d


@settings(max_examples=100, deadline=None)
@given(_entry_map_cases())
def test_apply_matches_reference_oracle_on_any_permutation(case):
    a, sigma, d = case
    fast = apply_criterion(a, sigma, d)
    assert fast.dtype == a.dtype
    assert np.array_equal(fast, apply_reference(a, sigma.images, d))


@pytest.mark.parametrize("d,r", [(2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (3, 4)])
def test_class_images_keep_the_frobenius_norm(d, r):
    # an image is a rearrangement of entries, so its squared singular
    # values sum to the state's squared Frobenius norm, tr(rho^2)
    rho = random_state(d, r, np.random.default_rng([d, r]))
    purity = np.linalg.norm(rho.matrix) ** 2
    for cls in enumerate_classes(r):
        image = apply_criterion(rho.matrix, to_permutation(cls), d)
        sigmas = np.linalg.svd(image, compute_uv=False)
        assert abs((sigmas**2).sum() - purity) <= 1e-12


def test_apply_identity_and_transpose():
    rng = np.random.default_rng(7)
    for d, r in [(2, 2), (3, 2), (2, 3)]:
        a = random_complex(d**r, rng)
        assert np.array_equal(apply_criterion(a, identity(r), d), a)
        assert np.array_equal(apply_criterion(a, global_transpose(r), d), a.T)


def test_realigned_bell_is_half_identity():
    # expected value from explicit index bookkeeping over all 16 entries
    bell = bell_state().matrix
    realigned = apply_criterion(bell, REALIGN_2, 2)
    assert np.allclose(realigned, np.eye(4) / 2, atol=0)


def test_apply_preserves_entry_multiset():
    rng = np.random.default_rng(13)
    for d, r in [(2, 2), (3, 2), (2, 3)]:
        a = random_complex(d**r, rng)
        sigma = Permutation(tuple(rng.permutation(2 * r) + 1))
        b = apply_criterion(a, sigma, d)
        assert np.array_equal(
            np.sort_complex(a.ravel()), np.sort_complex(b.ravel())
        )


def test_apply_rejects_size_mismatch():
    with pytest.raises(ValueError):
        apply_criterion(np.eye(3), identity(2), 2)
    # a run of four positions covers the slots of a two-party factor
    with pytest.raises(ValueError, match=r"expected 4x4 for d=2, r=2"):
        apply_criterion(np.eye(8) / 8, (2, 7, 4, 1), 2)


def test_hermitian_conjugation_identity():
    # composing with the global transpose, transpose first, conjugates the
    # image of a Hermitian matrix entry-wise (hence norms are equal);
    # (a + a^dagger)/2 is Hermitian to the last bit, so equality is exact
    rng = np.random.default_rng(19)
    for d, r in [(2, 2), (3, 2), (2, 3)]:
        rho = random_hermitian(d**r, rng)
        tau = global_transpose(r)
        for _ in range(10):
            sigma = Permutation(tuple(rng.permutation(2 * r) + 1))
            image = apply_criterion(rho, sigma, d)
            pre = apply_criterion(rho, compose(tau, sigma), d)
            assert np.array_equal(pre, image.conj())
            # transpose applied second gives the transposed image instead
            post = apply_criterion(rho, compose(sigma, tau), d)
            assert np.array_equal(post, image.T)
            assert abs(trace_norm(pre) - trace_norm(image)) < 1e-10
            assert abs(trace_norm(post) - trace_norm(image)) < 1e-10


# --- trace norm ------------------------------------------------------------------

def test_trace_norm_simple_values():
    assert abs(trace_norm(np.eye(5) / 5) - 1) < 1e-12
    assert abs(trace_norm(np.diag([0.5, -0.5])) - 1) < 1e-12


def test_trace_norm_of_a_rectangular_matrix():
    for bad in (np.ones(3), np.float64(1.0)):
        with pytest.raises(ValueError, match="2-D"):
            trace_norm(bad)
    # rank one: the only singular value is the Frobenius norm
    assert abs(trace_norm(np.ones((2, 3))) - np.sqrt(6)) < 1e-15
    assert abs(trace_norm(np.ones((3, 2))) - np.sqrt(6)) < 1e-15
    # a stack is the block-diagonal matrix of its blocks: rank-one blocks
    # of norms 2 and 6
    stack = np.ones((2, 2, 2)) * np.array([1.0, -3.0])[:, None, None]
    assert abs(trace_norm(stack) - 8) < 1e-14
    blocks = np.random.default_rng(3).standard_normal((2, 3, 2, 3))
    dense = np.zeros((12, 18))
    for j, block in enumerate(blocks.reshape(-1, 2, 3)):
        dense[2 * j:2 * j + 2, 3 * j:3 * j + 3] = block
    assert abs(trace_norm(blocks) - trace_norm(dense)) < 1e-13


def test_partially_transposed_bell_norm_two():
    # eigenvalues of the partial transpose are {1/2, 1/2, 1/2, -1/2}
    pt = apply_criterion(bell_state().matrix, PT_2, 2)
    eigs = np.sort(np.linalg.eigvalsh(pt))
    assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert abs(trace_norm(pt) - 2) < 1e-10
    assert abs(trace_norm(apply_criterion(bell_state().matrix, REALIGN_2, 2)) - 2) < 1e-10


def test_trace_norm_matches_eigenvalues_on_hermitian():
    rng = np.random.default_rng(23)
    for n in (4, 9, 16):
        h = random_hermitian(n, rng)
        expected = np.abs(np.linalg.eigvalsh(h)).sum()
        assert abs(trace_norm(h) - expected) < 1e-10 * max(1.0, expected)


def test_trace_norm_invariances_and_multiplicativity():
    rng = np.random.default_rng(29)
    a = random_complex(4, rng)
    b = random_complex(9, rng)
    assert abs(trace_norm(a) - trace_norm(a.conj().T)) < 1e-10
    assert abs(trace_norm(a) - trace_norm(a.conj())) < 1e-10
    assert abs(trace_norm(a) - trace_norm(a.T)) < 1e-10
    assert abs(trace_norm(np.kron(a, b)) - trace_norm(a) * trace_norm(b)) < 1e-9


def _realigned_random_state(d, r, seed):
    rho = random_state(d, r, np.random.default_rng(seed))
    realign = Permutation((1, 3, 2, 4) + tuple(range(5, 2 * r + 1)))
    return apply_criterion(rho.matrix, realign, d)


@pytest.fixture
def openblas():
    """numpy's OpenBLAS, pinned to one thread when permsep was imported."""
    pinned = states._OPENBLAS
    if pinned is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread control here")
    return pinned


@pytest.fixture
def counts_seen(openblas, monkeypatch):
    """Wrap numpy's SVD and eigensolver to record the OpenBLAS count that
    each call ran on."""
    seen = []

    def spying(solve):
        def spy(*args, **kwargs):
            seen.append(openblas.get())
            return solve(*args, **kwargs)
        return spy

    for name in ("svd", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spying(getattr(np.linalg, name)))
    return seen


def _no_blas_helper() -> bool:
    """Whether OpenBLAS runs no helper thread: this process has no OS thread
    beyond its Python threads (always true where /proc is missing)."""
    return not os.path.isdir("/proc/self") or os_threads() == threading.active_count()


@pytest.mark.parametrize("d,r", [(2, 6), (7, 3)])
def test_trace_norm_matches_plain_svd_on_both_sides_of_crossover(d, r):
    image = _realigned_random_state(d, r, 61)
    assert (d**r <= SINGLE_THREAD_SVD_MAX_N) == (d == 2)
    expected = np.linalg.svd(image, compute_uv=False).sum()
    assert abs(trace_norm(image) - expected) < 1e-12


# OpenBLAS's count and this process's OS threads, read in a fresh process
# right after the import
_FRESH_IMPORT = """
import re
import permsep
from permsep import states
status = open("/proc/self/status").read()
print(states._OPENBLAS.get(), re.search(r"Threads:\\s*(\\d+)", status)[1])
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads the thread count in /proc")
def test_importing_permsep_pins_openblas_and_stops_its_helper(openblas):
    proc = subprocess.run([sys.executable, "-c", _FRESH_IMPORT], env=src_env(),
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1 1\n", "")


def test_trace_norms_above_256_run_lifted_then_pin_again(openblas, counts_seen):
    n, start = SINGLE_THREAD_SVD_MAX_N, openblas.start
    trace_norm(np.eye(n) / n)
    trace_norm(np.eye(n + 1) / (n + 1))
    # a rectangular matrix counts its longer side
    trace_norm(np.ones((n, 2)))
    trace_norm(np.ones((2, n + 1)))
    trace_norm(np.ones((n + 1, 2)))
    assert counts_seen == [1, start, 1, start, start]
    assert openblas.get() == 1 and _no_blas_helper()
    with pytest.raises(np.linalg.LinAlgError):
        trace_norm(np.full((n + 1, n + 1), np.nan))
    assert openblas.get() == 1 and _no_blas_helper()
    # lifts nest: only the outermost exit pins again
    with openblas:
        with openblas:
            pass
        assert openblas.get() == start
    assert openblas.get() == 1 and _no_blas_helper()


def test_eigensolves_above_256_run_lifted_then_pin_again(openblas, counts_seen):
    bell = bell_state()
    maximally_mixed(2, 8)  # n = 256
    maximally_mixed(17, 2)  # n = 289
    with pytest.raises(ValueError, match="positivity"):
        density_matrix(np.diag([1.5, -0.5]), 2, 1)
    # the noise images of the one class of roles F and L that fires, QT,
    # split by one eigensolve, then the SVDs of the other classes' searches
    noise_thresholds(bell, 1e-9)
    assert counts_seen[:4] == [1, 1, openblas.start, 1] and set(counts_seen[4:]) == {1}
    assert openblas.get() == 1 and _no_blas_helper()


def test_trace_norm_without_thread_control_is_the_plain_svd(monkeypatch):
    monkeypatch.setattr(states, "_OPENBLAS", None)
    for d, r in [(2, 2), (2, 6), (3, 5)]:
        image = _realigned_random_state(d, r, 67)
        assert trace_norm(image) == float(np.linalg.svd(image, compute_uv=False).sum())


def test_concurrent_small_trace_norms_never_set_the_count(openblas, monkeypatch):
    image = _realigned_random_state(2, 4, 73)
    expected = trace_norm(image)
    set_count = openblas._set
    counts_set = []
    monkeypatch.setattr(openblas, "_set", lambda k: counts_set.append(k) or set_count(k))
    results = []

    def work():
        for _ in range(200):
            results.append(trace_norm(image))

    workers = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(results) == 800 and set(results) == {expected}
    assert counts_set == [] and openblas.get() == 1


def test_seeded_states_are_drawn_on_the_start_count(openblas):
    # at n = 128 the QR and the product round otherwise on one thread than
    # on two, so a seeded state keeps its bits only if both run lifted
    n = 2**7
    rng = np.random.default_rng(19)
    with openblas:
        ginibre = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(ginibre)
        phases = np.diagonal(r).copy()
        phases /= np.abs(phases)
        u = q * phases
        expected = (u * simplex_weights(n, rng)) @ u.conj().T
    drawn = random_state(2, 7, np.random.default_rng(19))
    assert np.array_equal(drawn.blocks[0][1], expected)
    assert openblas.get() == 1 and _no_blas_helper()


def test_seeded_class_norms_repeat_bit_for_bit():
    runs = [
        [norm for _, norm in class_norms(random_state(2, 6, np.random.default_rng(71)))]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


# --- explicit states --------------------------------------------------------------

def test_chessboard_invariants_and_norms():
    rho = chessboard_state()
    assert rho.dim == 3 and rho.parties == 2
    assert abs(np.trace(rho.matrix) - 1) < 1e-12
    realigned = trace_norm(apply_criterion(rho.matrix, REALIGN_2, 3))
    assert abs(realigned - 7 / 6) < 1e-9
    transposed = trace_norm(apply_criterion(rho.matrix, PT_2, 3))
    assert abs(transposed - 1) < 1e-9


def test_chessboard_is_ppt_both_sides():
    rho = chessboard_state().matrix
    for sigma in (PT_2, Permutation((2, 1, 3, 4))):
        eigs = np.linalg.eigvalsh(apply_criterion(rho, sigma, 3))
        assert eigs.min() > -1e-12


# --- random states -----------------------------------------------------------------

def test_random_state_invariants_and_determinism():
    rng1 = np.random.default_rng(77)
    rng2 = np.random.default_rng(77)
    a = random_state(2, 2, rng1)
    b = random_state(2, 2, rng2)
    assert np.array_equal(a.matrix, b.matrix)
    assert abs(trace_norm(a.matrix) - 1) < 1e-10
    c = random_state(2, 2, rng1)
    assert not np.array_equal(a.matrix, c.matrix)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(31)
    for n in (2, 5, 9):
        u = random_unitary(n, rng)
        assert np.allclose(u @ u.conj().T, np.eye(n), atol=1e-12)


def test_random_density_matrix_validates():
    rng = np.random.default_rng(37)
    mat = random_density_matrix(6, rng)
    assert abs(np.trace(mat) - 1) < 1e-12
    assert np.abs(mat - mat.conj().T).max() < 1e-14
    assert np.linalg.eigvalsh(mat).min() > -1e-12
    with pytest.raises(ValueError):
        random_density_matrix(1, rng)


def test_simplex_weights_uniformity_smoke():
    # coordinate means of a flat-simplex sample sit at 1/n
    rng = np.random.default_rng(41)
    n, draws = 8, 10_000
    samples = np.array([simplex_weights(n, rng) for _ in range(draws)])
    means = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(draws)
    assert np.all(np.abs(means - 1 / n) < 5 * stderr)
    assert np.allclose(samples.sum(axis=1), 1, atol=1e-12)


def test_product_state_basis_case():
    e0 = np.array([1.0, 0.0])
    rho = product_state([e0, e0])
    expected = np.zeros((4, 4))
    expected[0, 0] = 1
    assert np.array_equal(rho, expected)


def test_random_separable_invariants_and_soundness():
    rng = np.random.default_rng(43)
    for d, r in [(2, 2), (2, 3), (3, 2)]:
        rho = random_separable(d, r, terms=4, rng=rng)
        for cls in enumerate_classes(r):
            norm = trace_norm(apply_criterion(rho.matrix, to_permutation(cls), d))
            assert norm <= 1 + 1e-9
    with pytest.raises(ValueError):
        random_separable(2, 2, terms=0, rng=rng)


def test_random_separable_determinism():
    a = random_separable(2, 2, 3, np.random.default_rng(9))
    b = random_separable(2, 2, 3, np.random.default_rng(9))
    assert np.array_equal(a.matrix, b.matrix)


# --- combinators -------------------------------------------------------------------

def test_tensor_product_structure():
    prod = tensor_product(chessboard_state(), maximally_mixed(3))
    assert prod.dim == 3 and prod.parties == 3
    assert prod.size == 27
    with pytest.raises(ValueError):
        tensor_product(chessboard_state(), maximally_mixed(2))


def test_a_state_is_its_dimension_and_blocks():
    # the party count is read from the blocks' positions, so no state can
    # carry a count that disagrees with them
    assert [f.name for f in dataclasses.fields(DensityMatrix)] == ["dim", "blocks"]
    rho = reorder_parties(tensor_product(bell_state(), maximally_mixed(2, 3)), [3, 1, 5, 2, 4])
    assert (rho.parties, rho.size) == (5, 32)
    assert DensityMatrix(2, (((2, 1), bell_state().matrix),)).parties == 2


def test_tensor_product_concatenates_shifted_blocks():
    rng = np.random.default_rng(101)
    a, b, c = (random_state(2, r, rng) for r in (1, 2, 1))

    def layout(rho):
        # each block's positions, and which of a, b, c holds its matrix
        return [(pos, next(k for k, x in zip("abc", (a, b, c)) if m is x.matrix))
                for pos, m in rho.blocks]

    ab = tensor_product(a, b)
    assert layout(ab) == [((1,), "a"), ((2, 3), "b")]
    assert layout(tensor_product(ab, c)) == [((1,), "a"), ((2, 3), "b"), ((4,), "c")]
    assert layout(tensor_product(c, ab)) == [((1,), "c"), ((2,), "a"), ((3, 4), "b")]
    assert layout(tensor_product(ab, ab)) == [
        ((1,), "a"), ((2, 3), "b"), ((4,), "a"), ((5, 6), "b")
    ]
    assert np.array_equal(tensor_product(ab, c).matrix, np.kron(ab.matrix, c.matrix))


def test_other_states_have_one_block(tmp_path):
    ab = tensor_product(bell_state(), bell_state())
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_dict(ab)))
    for rho in (
        density_matrix(ab.matrix, 2, 4),
        mix_with_noise(ab, 0.0),
        load_state(path),
        chessboard_state(),
        random_state(2, 2, np.random.default_rng(103)),
    ):
        [(positions, matrix)] = rho.blocks
        assert positions == tuple(range(1, rho.parties + 1))
        assert matrix is rho.matrix


def test_a_factor_share_keeps_the_positions_it_is_given():
    # one party's two slots sent to positions 3 and 5 (both rows): the
    # share is a d^2 x 1 column holding the factor's entries in row-major order
    factor = random_state(3, 1, np.random.default_rng(107)).matrix
    share = apply_criterion(factor, (3, 5), 3)
    assert share.shape == (9, 1)
    assert np.array_equal(share[:, 0], factor.ravel())
    # to positions 6 and 1: the row slot lands on a column and vice versa
    assert np.array_equal(apply_criterion(factor, (6, 1), 3), factor.T)
    # a two-party factor with slots 1..4 sent to positions 2, 7, 4, 1: rows
    # are positions 1, 7 (slots 4, 2), columns positions 2, 4 (slots 1, 3)
    pair = random_state(2, 2, np.random.default_rng(109)).matrix
    share = apply_criterion(pair, (2, 7, 4, 1), 2)
    tensor = pair.reshape(2, 2, 2, 2)  # axes hold slots 1, 3, 2, 4
    for i1, i2, i3, i4 in itertools.product(range(2), repeat=4):  # slot digits
        assert share[2 * i4 + i2, 2 * i1 + i3] == tensor[i1, i3, i2, i4]


def test_ancilla_keeps_realignment_norm():
    extended = tensor_product(chessboard_state(), maximally_mixed(3))
    sigma = to_permutation(roles_from_string("HTF"))
    assert abs(trace_norm(apply_criterion(extended.matrix, sigma, 3)) - 7 / 6) < 1e-9


def test_mix_with_noise_endpoints():
    rho = bell_state()
    assert np.array_equal(mix_with_noise(rho, 0.0).matrix, rho.matrix)
    assert np.allclose(mix_with_noise(rho, 1.0).matrix, np.eye(4) / 4, atol=0)
    with pytest.raises(ValueError):
        mix_with_noise(rho, 1.5)


def test_maximally_mixed_values():
    rho = maximally_mixed(2, 3)
    assert rho.size == 8
    assert np.array_equal(rho.matrix, np.eye(8) / 8)


def test_reorder_identity_and_swap():
    rng = np.random.default_rng(47)
    a = random_state(2, 1, rng)
    b = random_state(2, 1, rng)
    ab = tensor_product(a, b)
    assert np.array_equal(reorder_parties(ab, [1, 2]).matrix, ab.matrix)
    ba = reorder_parties(ab, [2, 1])
    assert np.allclose(ba.matrix, np.kron(b.matrix, a.matrix), atol=1e-14)
    with pytest.raises(ValueError):
        reorder_parties(ab, [1, 1])


@pytest.mark.parametrize("r,order", [(3, [2, 3, 1]), (4, [4, 2, 1, 3])])
def test_reorder_maps_classes_onto_relabeled_classes(r, order):
    # evaluating a word on the relabeled state equals evaluating the
    # correspondingly relabeled word on the original state
    rng = np.random.default_rng(53)
    rho = random_state(2, r, rng)
    moved = reorder_parties(rho, order)
    for cls in enumerate_classes(r):
        relabeled = [None] * r
        for j, src in enumerate(order, start=1):
            relabeled[src - 1] = cls.roles[j - 1]
        n_moved = trace_norm(apply_criterion(moved.matrix, to_permutation(cls), 2))
        n_orig = trace_norm(
            apply_criterion(rho.matrix, to_permutation(tuple(relabeled)), 2)
        )
        assert abs(n_moved - n_orig) < 1e-10



def _moved(matrix, order, dim):
    """A relabeling as one dense entry map: party j of the result is party
    order[j-1] of ``matrix``."""
    images = [0] * (2 * len(order))
    for j, src in enumerate(order, start=1):
        images[2 * src - 2], images[2 * src - 1] = 2 * j - 1, 2 * j
    return apply_criterion(matrix, Permutation(tuple(images)), dim)


def test_products_and_relabels_keep_blocks_without_validating(monkeypatch):
    rng = np.random.default_rng(113)
    a, b, c = random_state(2, 2, rng), maximally_mixed(2), random_state(2, 2, rng)
    dense = np.kron(np.kron(a.matrix, b.matrix), c.matrix)

    def refuse(*args, **kwargs):
        raise AssertionError("a product or relabel validated a dense matrix")

    monkeypatch.setattr(states, "density_matrix", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    abc = tensor_product(tensor_product(a, b), c)
    once = reorder_parties(abc, np.array([3, 5, 1, 2, 4]))
    twice = reorder_parties(once, [2, 1, 5, 3, 4])
    moved_once = _moved(dense, [3, 5, 1, 2, 4], 2)
    expected = (dense, moved_once, _moved(moved_once, [2, 1, 5, 3, 4], 2))
    for rho, want in zip((abc, once, twice), expected, strict=True):
        assert len(rho.blocks) == 3
        # bit for bit what multiplying out and moving the dense matrix gives
        assert rho.matrix.dtype == want.dtype
        assert rho.matrix.tobytes() == want.tobytes()


def test_a_relabeled_state_pickles_one_matrix():
    rho = random_state(3, 5, np.random.default_rng(127))
    moved = reorder_parties(rho, [2, 1, 3, 4, 5])
    assert abs(len(pickle.dumps(moved)) - len(pickle.dumps(rho))) <= 100


# --- validation and file format ------------------------------------------------------

def test_density_matrix_diagnostics_name_the_invariant():
    good = np.eye(4) / 4
    with pytest.raises(ValueError, match="shape"):
        density_matrix(np.eye(5) / 5, 2, 2)
    bad_herm = good.astype(complex).copy()
    bad_herm[0, 1] = 1j * 1e-6
    with pytest.raises(ValueError, match="hermiticity"):
        density_matrix(bad_herm, 2, 2)
    not_finite = good.copy()
    not_finite[0, 1] = not_finite[1, 0] = np.inf
    not_finite[2, 2] = np.nan
    with pytest.raises(ValueError, match=r"finiteness: entry \(0, 1\) is \(inf\+0j\)"):
        density_matrix(not_finite, 2, 2)
    with pytest.raises(ValueError, match="trace"):
        density_matrix(np.eye(4) / 2, 2, 2)
    with pytest.raises(ValueError, match="positivity"):
        density_matrix(np.diag([1.5, -0.5, 0, 0]), 2, 2)
    with pytest.raises(ValueError, match="dimension"):
        density_matrix(good, 1, 2)
    with pytest.raises(ValueError, match="parties must be >= 1, got 0"):
        density_matrix(good, 2, 0)
    with pytest.raises(ValueError, match=r"shape: expected 4x4 .* got \(4,\)"):
        density_matrix(np.ones(4) / 4, 2, 2)
    with pytest.raises(ValueError, match=r"shape: expected 4x4 .* got \(4, 2\)"):
        density_matrix(np.ones((4, 2)), 2, 2)
    with pytest.raises(ValueError, match=r"shape: expected 9x9 .* got \(3, 3\)"):
        density_matrix(np.eye(3) / 3, 3, 2)


def test_state_dict_round_trip():
    rho = random_state(2, 2, np.random.default_rng(59))
    again = state_from_dict(state_to_dict(rho))
    assert np.allclose(again.matrix, rho.matrix, atol=0)
    assert (again.dim, again.parties) == (2, 2)


def test_state_to_dict_derives_the_matrix_once(monkeypatch):
    # a relabeled product multiplies out its blocks and moves its parties
    # on every read of matrix
    rng = np.random.default_rng(67)
    rho = reorder_parties(tensor_product(random_state(2, 2, rng), random_state(2, 1, rng)),
                          [3, 1, 2])
    dense = rho.matrix
    reads = []
    matrix = DensityMatrix.matrix
    monkeypatch.setattr(DensityMatrix, "matrix",
                        property(lambda self: reads.append(self) or matrix.fget(self)))
    data = state_to_dict(rho)
    assert reads == [rho]
    assert data == {"d": 2, "r": 3, "re": dense.real.tolist(), "im": dense.imag.tolist()}


def test_state_file_round_trip(tmp_path):
    rho = chessboard_state()
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_dict(rho)))
    loaded = load_state(path)
    assert np.array_equal(loaded.matrix, rho.matrix)


def test_state_dict_builtins_and_errors():
    assert state_from_dict({"builtin": "bell"}).parties == 2
    assert state_from_dict({"builtin": "chessboard"}).dim == 3
    with pytest.raises(ValueError, match="builtin"):
        state_from_dict({"builtin": "ghz"})
    with pytest.raises(ValueError, match="missing key"):
        state_from_dict({"d": 2, "r": 2})
    with pytest.raises(ValueError, match="re/im"):
        state_from_dict(
            {"d": 2, "r": 1, "re": [[1, 0], [0, 0]], "im": [[0, 0]]}
        )


def test_a_builtin_beside_a_d_or_r_must_match_it():
    assert state_from_dict({"builtin": "bell", "d": 2, "r": 2}).parties == 2
    assert state_from_dict({"builtin": "chessboard", "d": 3}).dim == 3
    with pytest.raises(ValueError, match="^key 'd' is 3, builtin 'bell' has 2$"):
        state_from_dict({"builtin": "bell", "d": 3, "r": 4})
    with pytest.raises(ValueError, match="^key 'r' is 4, builtin 'chessboard' has 2$"):
        state_from_dict({"builtin": "chessboard", "r": 4})
    with pytest.raises(ValueError, match="key 'r' must be an integer"):
        state_from_dict({"builtin": "bell", "r": 2.0})


def test_real_only_state_file():
    data = {"d": 2, "r": 1, "re": [[0.5, 0], [0, 0.5]]}
    for state in (data, dict(data, im=None)):
        assert np.array_equal(state_from_dict(state).matrix, np.eye(2) / 2)


def test_real_states_are_stored_real():
    chess = chessboard_state()
    real = [
        chess,
        bell_state(),
        tensor_product(chess, chess),
        mix_with_noise(bell_state(), 0.3),
        maximally_mixed(3, 2),
        state_from_dict({"d": 2, "r": 1, "re": [[0.5, 0], [0, 0.5]]}),
        state_from_dict(state_to_dict(chess)),
        density_matrix(np.eye(4, dtype=complex) / 4, 2, 2),
    ]
    for rho in real:
        assert rho.matrix.dtype == np.float64
    assert random_state(2, 2, np.random.default_rng(61)).matrix.dtype == np.complex128


def test_real_states_write_a_zero_imaginary_part():
    data = state_to_dict(chessboard_state())
    assert np.array_equal(data["im"], np.zeros((9, 9)))
    assert np.array_equal(data["re"], chessboard_state().matrix)


@pytest.mark.parametrize("make", [
    chessboard_state,
    lambda: mix_with_noise(tensor_product(chessboard_state(), chessboard_state()), 0.1),
])
def test_real_class_norms_match_the_complex_path(make):
    rho = make()
    assert rho.matrix.dtype == np.float64
    as_complex = rho.matrix.astype(complex)
    for cls, norm in class_norms(rho):
        image = apply_criterion(as_complex, to_permutation(cls), rho.dim)
        assert image.dtype == np.complex128
        assert abs(norm - trace_norm(image)) <= 1e-12


@pytest.mark.parametrize("dtype", [float, complex])
def test_density_matrix_keeps_a_private_copy(dtype):
    raw = np.eye(4, dtype=dtype) / 4
    if dtype is complex:
        raw[0, 1], raw[1, 0] = 0.1j, -0.1j
    rho = density_matrix(raw, 2, 2)
    kept = rho.matrix.copy()
    assert raw.flags.writeable
    raw[2, 2] = 9.0
    assert np.array_equal(rho.matrix, kept)
    assert not rho.matrix.flags.writeable


def test_finiteness_names_a_complex_entry():
    bad = np.eye(2, dtype=complex) / 2
    bad[0, 1] = complex(0, np.nan)
    with pytest.raises(ValueError, match=r"finiteness: entry \(0, 1\) is nanj"):
        density_matrix(bad, 2, 1)


def test_density_matrices_are_frozen():
    rho = bell_state()
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0
