"""Classification of criteria: canonical forms, enumeration, counting, labels."""

import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permsep import criteria
from permsep.criteria import (
    CriterionClass,
    Role,
    balanced_role_words,
    canonical_roles,
    canonicalize,
    class_of,
    class_to_dict,
    classes_by_label,
    count_classes,
    describe,
    enumerate_classes,
    label_for,
    roles_from_string,
    roles_to_string,
    swap_heads_tails,
    swap_loops_free,
    to_permutation,
    validate_roles,
)
from permsep.perms import (
    Permutation,
    dependent,
    global_transpose,
    identity,
    random_norm_preserving,
)

CLASS_SEQUENCE = [1, 3, 7, 23, 71, 252, 890, 3299]


def W(text):
    return roles_from_string(text)


# --- roles and canonical forms ------------------------------------------------

def test_role_order_is_fixed():
    assert Role.FREE < Role.LOOP < Role.HEAD < Role.TAIL
    assert [r.char for r in Role] == ["F", "L", "H", "T"]


def test_role_string_round_trip():
    assert roles_to_string(W("HTFL")) == "HTFL"
    with pytest.raises(ValueError):
        roles_from_string("HXF")


def test_validate_rejects_unbalanced():
    with pytest.raises(ValueError):
        validate_roles(W("HT") + (Role.HEAD,))
    with pytest.raises(ValueError, match="at least one subsystem"):
        validate_roles(())
    with pytest.raises(ValueError):
        canonicalize((Role.HEAD, Role.FREE))


def test_canonicalize_examples():
    assert canonical_roles(W("HT")) == W("HT")  # partner TH is larger
    assert canonical_roles(W("LFF")) == W("FLL")  # loop/free image is smaller
    assert canonical_roles(W("HTHT")) == W("HTHT")  # partner THTH is larger


def test_canonicalize_idempotent_and_orbit_constant():
    for r in range(1, 5):
        for word in balanced_role_words(r):
            canon = canonical_roles(word)
            assert canonical_roles(canon) == canon
            for image in (
                swap_heads_tails(word),
                swap_loops_free(word),
                swap_loops_free(swap_heads_tails(word)),
            ):
                assert canonical_roles(image) == canon


def _orbit_minimum(word):
    flipped = swap_heads_tails(word)
    return min(word, flipped, swap_loops_free(word), swap_loops_free(flipped))


def test_canonical_roles_is_the_orbit_minimum_through_r8():
    for r in range(1, 9):
        for word in balanced_role_words(r):
            assert canonical_roles(word) == _orbit_minimum(word), word


def test_canonicalize_returns_class_with_id():
    cls = canonicalize(W("LFF"))
    assert cls.roles == W("FLL")
    assert cls.label == "QT"
    assert enumerate_classes(3)[cls.class_id] == cls


def test_canonicalize_matches_a_scan_of_the_enumeration():
    for r in range(1, 7):
        classes = enumerate_classes(r)
        for word in balanced_role_words(r):
            canon = canonical_roles(word)
            assert canonicalize(word) == next(c for c in classes if c.roles == canon)


def test_class_lookups_share_one_enumeration():
    # class_of and canonicalize must reuse the cached enumeration, not
    # build a second one under another cache key
    enumerate_classes.cache_clear()
    classes = enumerate_classes(5)
    assert class_of(to_permutation(classes[40])) == classes[40]
    assert canonicalize(classes[40].roles) == classes[40]
    assert enumerate_classes.cache_info().misses == 1


# --- enumeration and counting ---------------------------------------------------

def test_count_formula_small_values():
    assert count_classes(3) == 7
    assert count_classes(4) == 23
    assert count_classes(8) == 3299


def test_count_matches_enumeration_through_r8():
    for r, expected in enumerate(CLASS_SEQUENCE, start=1):
        assert count_classes(r) == expected
        assert len(enumerate_classes(r)) == expected


def test_count_rejects_bad_parties():
    with pytest.raises(ValueError):
        count_classes(0)
    with pytest.raises(ValueError):
        enumerate_classes(9)
    with pytest.raises(ValueError):
        enumerate_classes(0)


def test_enumeration_r2_contents():
    classes = enumerate_classes(2)
    assert [roles_to_string(c.roles) for c in classes] == ["FF", "FL", "HT"]
    assert [c.label for c in classes] == ["identity", "QT", "R"]
    assert [c.class_id for c in classes] == [0, 1, 2]


def test_enumeration_r3_contents():
    classes = enumerate_classes(3)
    labels = [c.label for c in classes]
    assert labels.count("identity") == 1
    assert labels.count("QT") == 3
    assert labels.count("R") == 3


def test_enumeration_is_deduplicated_and_sorted():
    for r in range(1, 9):
        classes = enumerate_classes(r)
        words = [c.roles for c in classes]
        assert words == sorted(words)
        assert len(set(words)) == len(words)
        assert all(c.roles == canonical_roles(c.roles) for c in classes)


def test_enumeration_equals_the_sorted_orbit_minima_through_r8():
    # the search the generated words replace: every balanced word's orbit
    # minimum, deduplicated, sorted and numbered
    for r in range(1, 9):
        words = sorted({_orbit_minimum(word) for word in balanced_role_words(r)})
        assert enumerate_classes(r) == tuple(
            CriterionClass(roles=roles, class_id=i, label=label_for(roles))
            for i, roles in enumerate(words)
        )


def test_enumeration_canonicalizes_no_word(monkeypatch):
    calls = []

    def counting(roles):
        calls.append(roles)
        return canonical_roles(roles)

    monkeypatch.setattr(criteria, "canonical_roles", counting)
    enumerate_classes.cache_clear()
    assert len(enumerate_classes(8)) == 3299
    assert calls == []


def test_row_census_r4():
    rows = {label: len(cs) for label, cs in classes_by_label(4).items()}
    assert rows == {
        "identity": 1,
        "QT": 4,
        "2QT": 3,
        "R": 6,
        "R+QT": 6,
        "2R": 2,
        "R+R'": 1,
    }


def test_fixed_point_counts():
    for r in range(1, 9):
        words = list(balanced_role_words(r))
        assert len(words) == comb(2 * r, r)
        no_arrows = [w for w in words if swap_heads_tails(w) == w]
        assert len(no_arrows) == 2**r
        all_arrows = [w for w in words if swap_loops_free(w) == w]
        assert len(all_arrows) == (comb(r, r // 2) if r % 2 == 0 else 0)


# --- representatives ------------------------------------------------------------

def test_to_permutation_examples():
    assert to_permutation(W("HT")).images == (1, 3, 2, 4)
    assert to_permutation(W("FL")).images == (1, 2, 4, 3)
    assert to_permutation(W("FF")) == identity(2)


def test_to_permutation_pairs_sorted_heads_and_tails():
    # heads 1,2 and tails 3,4 pair as 1->3, 2->4: (2,5)(4,7)
    assert to_permutation(W("HHTT")).images == (1, 5, 3, 7, 2, 6, 4, 8)


def test_class_of_examples():
    # [2 4 1 3] is the realignment class up to party reordering
    assert class_of(Permutation((2, 4, 1, 3))).label == "R"
    assert class_of(global_transpose(2)).class_id == 0
    assert class_of(global_transpose(4)).class_id == 0
    rng = np.random.default_rng(23)
    for _ in range(20):
        r = int(rng.integers(1, 6))
        assert class_of(random_norm_preserving(r, rng)).class_id == 0


def test_classes_are_pairwise_independent():
    for r in (2, 3, 4):
        classes = enumerate_classes(r)
        for a, b in itertools.combinations(classes, 2):
            assert not dependent(to_permutation(a), to_permutation(b)), (a, b)


def test_every_word_is_dependent_with_its_canonical_form():
    for r in (2, 3, 4):
        for word in balanced_role_words(r):
            assert dependent(
                to_permutation(word), to_permutation(canonical_roles(word))
            )


def test_word_class_consistency_spot_check_r5_r6():
    # beyond the exhaustive range, sample words and class pairs
    rng = np.random.default_rng(29)
    for r in (5, 6):
        words = list(balanced_role_words(r))
        for i in rng.choice(len(words), size=40, replace=False):
            word = words[i]
            assert dependent(
                to_permutation(word), to_permutation(canonical_roles(word))
            )
        classes = enumerate_classes(r)
        for _ in range(60):
            i, j = rng.choice(len(classes), size=2, replace=False)
            assert not dependent(
                to_permutation(classes[i]), to_permutation(classes[j])
            )


def test_every_permutation_classifies_r3():
    ids = set()
    for images in itertools.permutations(range(1, 7)):
        ids.add(class_of(Permutation(images)).class_id)
    assert ids == set(range(7))


def _parity_roles(sigma):
    """Party k's role read from the parities of sigma(2k - 1) and sigma(2k)."""
    role = {(1, 0): Role.FREE, (0, 1): Role.LOOP, (1, 1): Role.HEAD, (0, 0): Role.TAIL}
    im = sigma.images
    return tuple(role[im[2 * k] % 2, im[2 * k + 1] % 2] for k in range(sigma.parties))


def test_parity_roles_classify_every_permutation_r1_to_r3():
    # closed-form classification: the class of a permutation is the
    # canonical form of the role word its images' parities spell
    for r in (1, 2, 3):
        for images in itertools.permutations(range(1, 2 * r + 1)):
            sigma = Permutation(images)
            assert canonicalize(_parity_roles(sigma)) == class_of(sigma)


@settings(max_examples=200)
@given(st.integers(4, 6).flatmap(lambda r: st.permutations(range(1, 2 * r + 1))))
def test_parity_roles_classify_drawn_permutations_r4_to_r6(images):
    sigma = Permutation(tuple(images))
    assert canonicalize(_parity_roles(sigma)) == class_of(sigma)


# --- labels ---------------------------------------------------------------------

def test_label_examples():
    assert label_for(W("FF")) == "identity"
    assert label_for(canonical_roles(W("LFF"))) == "QT"
    assert label_for(W("HTHT")) == "2R"
    assert label_for(W("HTTH")) == "R+R'"
    assert label_for(W("HTFL")) == "R+QT"
    assert label_for(W("FFLL")) == "2QT"


def test_describe_marks_backward_arrows_with_prime():
    assert describe(W("HTTH")) == "R[1->2] R'[4->3]"
    assert describe(W("HTFL")) == "R[1->2] QT[4]"
    assert describe(W("FF")) == "identity"


def test_class_json_shape():
    data = class_to_dict(enumerate_classes(2)[2])
    assert data == {"roles": "HT", "label": "R", "permutation": [1, 3, 2, 4]}
