"""Permutation algebra: group laws, the norm-preserving group, dependence."""

import itertools
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permsep.perms import (
    Permutation,
    compose,
    cycle_string,
    dependent,
    from_transpositions,
    global_transpose,
    identity,
    inverse,
    is_norm_preserving,
    norm_group,
    random_norm_preserving,
    to_cycles,
)
from permsep.states import apply_criterion, random_state, trace_norm

from conftest import random_complex


def perm(*images):
    return Permutation(tuple(images))


def perms_strategy(max_parties=8):
    return st.integers(1, max_parties).flatmap(
        lambda r: st.permutations(list(range(1, 2 * r + 1)))
    ).map(lambda images: Permutation(tuple(images)))


@st.composite
def perm_tuples(draw, count, max_parties=6):
    r = draw(st.integers(1, max_parties))
    base = list(range(1, 2 * r + 1))
    return tuple(
        Permutation(tuple(draw(st.permutations(base)))) for _ in range(count)
    )


# --- construction -----------------------------------------------------------

def test_identity_examples():
    assert identity(2).images == (1, 2, 3, 4)
    assert identity(1).images == (1, 2)
    assert identity(3).images == (1, 2, 3, 4, 5, 6)


def test_global_transpose_examples():
    assert global_transpose(2).images == (2, 1, 4, 3)
    assert global_transpose(1).images == (2, 1)
    assert global_transpose(3).images == (2, 1, 4, 3, 6, 5)


@pytest.mark.parametrize("bad", [0, -1])
def test_party_count_validation(bad):
    with pytest.raises(ValueError):
        identity(bad)
    with pytest.raises(ValueError):
        global_transpose(bad)


def test_invalid_words_rejected():
    with pytest.raises(ValueError):
        perm(1, 1, 2, 3)
    with pytest.raises(ValueError):
        perm(1, 2, 3)  # odd length
    with pytest.raises(ValueError):
        Permutation(())


def test_from_transpositions_examples():
    assert from_transpositions([(3, 4)], parties=2).images == (1, 2, 4, 3)
    assert from_transpositions([(2, 3)], parties=2).images == (1, 3, 2, 4)
    assert from_transpositions([], parties=2) == identity(2)


def test_from_transpositions_rejects_overlap_and_range():
    with pytest.raises(ValueError):
        from_transpositions([(1, 2), (2, 3)], parties=2)
    with pytest.raises(ValueError):
        from_transpositions([(1, 5)], parties=2)


def test_to_cycles_examples():
    assert to_cycles(perm(2, 1, 4, 3)) == ((1, 2), (3, 4))
    assert to_cycles(identity(3)) == ()
    assert cycle_string(perm(2, 1, 4, 3)) == "(1,2)(3,4)"
    assert cycle_string(identity(2)) == "id"


# --- group laws -------------------------------------------------------------

def test_group_laws_exhaustive_r1():
    elements = [perm(1, 2), perm(2, 1)]
    for a in elements:
        assert compose(a, identity(1)) == a
        assert compose(identity(1), a) == a
        assert compose(a, inverse(a)) == identity(1)
        assert compose(inverse(a), a) == identity(1)
        for b in elements:
            for c in elements:
                assert compose(compose(a, b), c) == compose(a, compose(b, c))


@settings(max_examples=200)
@given(perm_tuples(count=3, max_parties=8))
def test_compose_associative(triple):
    a, b, c = triple
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@settings(max_examples=200)
@given(perms_strategy())
def test_identity_neutral_and_inverse(p):
    e = identity(p.parties)
    assert compose(p, e) == p
    assert compose(e, p) == p
    assert compose(p, inverse(p)) == e
    assert compose(inverse(p), p) == e


def test_compose_involution_and_examples():
    tau = global_transpose(2)
    assert compose(tau, tau) == identity(2)
    assert inverse(tau) == tau
    assert inverse(identity(4)) == identity(4)
    assert inverse(perm(2, 3, 1, 4)).images == (3, 1, 2, 4)


def test_compose_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        compose(identity(2), identity(3))


def test_compose_matches_entry_maps():
    # the convention anchor: composing words == chaining entry maps,
    # checked for the specific pair (3,4) then (2,3) and random pairs
    rng = np.random.default_rng(42)
    for d, r in [(2, 2), (2, 3), (3, 2)]:
        pairs = [
            (from_transpositions([(3, 4)], r), from_transpositions([(2, 3)], r))
        ]
        for _ in range(10):
            pairs.append(
                (
                    Permutation(tuple(rng.permutation(2 * r) + 1)),
                    Permutation(tuple(rng.permutation(2 * r) + 1)),
                )
            )
        for sigma, mu in pairs:
            a = random_complex(d**r, rng)
            two_step = apply_criterion(apply_criterion(a, sigma, d), mu, d)
            one_step = apply_criterion(a, compose(sigma, mu), d)
            assert np.array_equal(two_step, one_step)


# --- norm-preserving group ---------------------------------------------------

def test_norm_preserving_examples():
    for r in (1, 2, 3):
        assert is_norm_preserving(global_transpose(r))
        assert is_norm_preserving(identity(r))
    assert not is_norm_preserving(perm(1, 3, 2, 4))  # realignment
    assert is_norm_preserving(perm(3, 2, 1, 4))  # row-slot swap (1,3)
    assert not is_norm_preserving(perm(1, 2, 4, 3))  # partial transpose


@pytest.mark.parametrize("r", [1, 2, 3])
def test_characterization_matches_generator_closure(r):
    closure = {p.images for p in norm_group(r)}
    assert len(closure) == 2 * factorial(r) ** 2
    by_parity = {
        p for p in itertools.permutations(range(1, 2 * r + 1))
        if is_norm_preserving(Permutation(p))
    }
    assert closure == by_parity


def test_random_norm_preserving_members():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = int(rng.integers(1, 6))
        assert is_norm_preserving(random_norm_preserving(r, rng))


@pytest.mark.parametrize("d,r", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_norm_preservation_realized(d, r):
    # every norm-preserving word leaves the trace norm of a state at 1
    rng = np.random.default_rng(11)
    rho = random_state(d, r, rng)
    for _ in range(10):
        nu = random_norm_preserving(r, rng)
        value = trace_norm(apply_criterion(rho.matrix, nu, d))
        assert abs(value - 1) < 1e-10


def test_norm_preservation_realized_exhaustive_r2():
    # all 8 group members at once on a qutrit pair
    rng = np.random.default_rng(12)
    rho = random_state(3, 2, rng)
    for nu in norm_group(2):
        assert abs(trace_norm(apply_criterion(rho.matrix, nu, 3)) - 1) < 1e-10


# --- dependence --------------------------------------------------------------

def test_dependent_examples():
    # the backward reshuffle (1,4) tests the same thing as (2,3)
    assert dependent(perm(4, 2, 3, 1), perm(1, 3, 2, 4))
    # partial transpose and realignment are genuinely different
    assert not dependent(perm(1, 2, 4, 3), perm(1, 3, 2, 4))


def test_dependent_reflexive_random():
    rng = np.random.default_rng(5)
    for _ in range(30):
        r = int(rng.integers(1, 7))
        p = Permutation(tuple(rng.permutation(2 * r) + 1))
        assert dependent(p, p)


def test_dependent_rejects_mismatched_parties():
    with pytest.raises(ValueError):
        dependent(identity(2), identity(3))


def test_transpose_composites_always_dependent():
    rng = np.random.default_rng(8)
    for _ in range(50):
        r = int(rng.integers(1, 7))
        tau = global_transpose(r)
        p = Permutation(tuple(rng.permutation(2 * r) + 1))
        assert dependent(p, compose(p, tau))  # transpose applied second
        assert dependent(p, compose(tau, p))  # transpose applied first


def test_dependent_is_equivalence_relation_exhaustive_r2():
    words = [Permutation(p) for p in itertools.permutations(range(1, 5))]
    related = {
        (a.images, b.images) for a in words for b in words if dependent(a, b)
    }
    for a in words:
        assert (a.images, a.images) in related
    for a, b in related:
        assert (b, a) in related
    for a, b in related:
        for c in words:
            if (b, c.images) in related:
                assert (a, c.images) in related
    # classes: identity + partial transpose + realignment
    class_count = len({frozenset(b for a2, b in related if a2 == a.images)
                       for a in words})
    assert class_count == 3


def test_dependent_partition_sizes_r3():
    # classes are unions of one or two cosets of the norm-preserving group:
    # loop-only classes stay single (72 words), arrow classes pair up (144)
    from permsep.criteria import class_of

    sizes = {}
    for images in itertools.permutations(range(1, 7)):
        cls = class_of(Permutation(images))
        sizes[cls.class_id] = sizes.get(cls.class_id, 0) + 1
    assert len(sizes) == 7
    assert sorted(sizes.values()) == [72, 72, 72, 72, 144, 144, 144]
    assert sum(sizes.values()) == factorial(6)


def test_dependent_matches_norm_equality_on_states():
    # dependent pairs give equal norms on random states; independent class
    # representatives give distinct ones (generic input)
    rng = np.random.default_rng(17)
    d, r = 2, 2
    rho = random_state(d, r, rng)
    words = [Permutation(p) for p in itertools.permutations(range(1, 5))]
    norms = {
        w.images: trace_norm(apply_criterion(rho.matrix, w, d)) for w in words
    }
    for a in words:
        for b in words:
            if dependent(a, b):
                assert abs(norms[a.images] - norms[b.images]) < 1e-10
