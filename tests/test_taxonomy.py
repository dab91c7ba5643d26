"""Label taxonomy: orderings, codes, and reduced label spaces."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from profilebench.taxonomy import (
    ALIGNMENTS,
    PROFILES,
    Alignment,
    LabelSpace,
    LabelSpaceKind,
    LawAxis,
    MoralAxis,
    Motivation,
    Profile,
    all_profiles,
    is_neutral_profile,
)


def test_profile_count():
    assert len(all_profiles()) == 36
    assert len({p.index for p in PROFILES}) == 36


def test_canonical_ordering_is_alignment_major():
    # law-axis major, moral-axis minor, motivation fastest
    assert PROFILES[0].code == "LG-Safety"
    assert PROFILES[1].code == "LG-Speed"
    assert PROFILES[4].code == "LN-Safety"
    assert PROFILES[16].code == "TN-Safety"
    assert PROFILES[35].code == "CE-Wealth"


def test_alignment_rank_formula():
    for a in ALIGNMENTS:
        assert a.rank == 3 * a.law_axis.value + a.moral_axis.value


def test_profile_index_formula():
    for p in PROFILES:
        assert p.index == 4 * p.alignment.rank + p.motivation.value
        assert Profile(p.alignment, p.motivation).index == p.index


def test_true_neutral_code():
    tn = Alignment(LawAxis.NEUTRAL, MoralAxis.NEUTRAL)
    assert tn.code == "TN"
    assert Alignment.from_code("TN") == tn
    with pytest.raises(ValueError):
        Alignment.from_code("NN")


@pytest.mark.parametrize("code", ["LG", "NE", "CG", "CE", "LN", "NG"])
def test_alignment_code_roundtrip(code):
    assert Alignment.from_code(code).code == code


def test_profile_code_roundtrip():
    for p in PROFILES:
        assert Profile.from_code(p.code) == p
        assert Profile.from_index(p.index) == p


def test_bad_codes_rejected():
    for bad in ["XX-Safety", "LG-Glory", "LG", "NN-Speed", ""]:
        with pytest.raises(ValueError):
            Profile.from_code(bad)
    with pytest.raises(ValueError):
        Profile.from_index(36)
    with pytest.raises(ValueError):
        Alignment.from_rank(-1)


def test_neutral_partition_counts():
    neutral = [p for p in PROFILES if is_neutral_profile(p)]
    assert len(neutral) == 20
    assert len(PROFILES) - len(neutral) == 16


def test_cardinalities():
    expected = {
        LabelSpaceKind.PROFILE36: 36,
        LabelSpaceKind.ALIGNMENT9: 9,
        LabelSpaceKind.MOTIVATION4: 4,
        LabelSpaceKind.BINARY_LAWFUL2: 2,
        LabelSpaceKind.LAW_AXIS3: 3,
        LabelSpaceKind.NON_NEUTRAL_PROFILE16: 16,
        LabelSpaceKind.NEUTRAL_PROFILE20: 20,
    }
    for kind, k in expected.items():
        space = LabelSpace(kind)
        assert space.cardinality == k
        assert len(space.class_names()) == k


def test_map_label_identity_spaces():
    p = Profile.from_code("CE-Wealth")
    assert LabelSpace(LabelSpaceKind.PROFILE36).labels[p.index] == 35
    assert LabelSpace(LabelSpaceKind.ALIGNMENT9).labels[p.index] == 8
    assert LabelSpace(LabelSpaceKind.MOTIVATION4).labels[p.index] == 3
    assert LabelSpace(LabelSpaceKind.LAW_AXIS3).labels[p.index] == 2


def test_binary_lawful_mapping():
    space = LabelSpace(LabelSpaceKind.BINARY_LAWFUL2)
    for p in PROFILES:
        expected = 0 if p.alignment.law_axis is LawAxis.LAWFUL else 1
        assert space.labels[p.index] == expected
    labels = space.labels.tolist()
    assert labels.count(0) == 12 and labels.count(1) == 24


def test_subset_spaces_are_dense_and_ordered():
    for kind in (LabelSpaceKind.NON_NEUTRAL_PROFILE16, LabelSpaceKind.NEUTRAL_PROFILE20):
        space = LabelSpace(kind)
        admitted = [p for p in PROFILES if space.admits(p)]
        labels = [space.labels[p.index] for p in admitted]
        # dense reindex preserving profile-index order
        assert labels == list(range(space.cardinality))
        assert [p.index for p in admitted] == sorted(p.index for p in admitted)


def test_subset_mismatch_raised():
    # a profile outside a space has no class there: label -1, not admitted
    tn_profile = Profile.from_code("TN-Safety")
    space = LabelSpace(LabelSpaceKind.NON_NEUTRAL_PROFILE16)
    assert space.labels[tn_profile.index] == -1 and not space.admits(tn_profile)
    lg_profile = Profile.from_code("LG-Safety")
    space = LabelSpace(LabelSpaceKind.NEUTRAL_PROFILE20)
    assert space.labels[lg_profile.index] == -1 and not space.admits(lg_profile)


def _oracle_class_names(kind):
    """Each space's classes written out one branch per space, not derived
    from a class rule and first appearance."""
    if kind is LabelSpaceKind.PROFILE36:
        return [p.code for p in PROFILES]
    if kind is LabelSpaceKind.ALIGNMENT9:
        return [a.code for a in ALIGNMENTS]
    if kind is LabelSpaceKind.MOTIVATION4:
        return ["Safety", "Speed", "Wanderlust", "Wealth"]
    if kind is LabelSpaceKind.BINARY_LAWFUL2:
        return ["Lawful", "NonLawful"]
    if kind is LabelSpaceKind.LAW_AXIS3:
        return ["Lawful", "Neutral", "Chaotic"]
    if kind is LabelSpaceKind.NON_NEUTRAL_PROFILE16:
        return [p.code for p in PROFILES if not is_neutral_profile(p)]
    return [p.code for p in PROFILES if is_neutral_profile(p)]


def _oracle_label(p, kind):
    """A profile's class index, -1 outside the space, by the same branches."""
    if kind is LabelSpaceKind.PROFILE36:
        return p.index
    if kind is LabelSpaceKind.ALIGNMENT9:
        return p.alignment.rank
    if kind is LabelSpaceKind.MOTIVATION4:
        return p.motivation.value
    if kind is LabelSpaceKind.BINARY_LAWFUL2:
        return 0 if p.alignment.law_axis is LawAxis.LAWFUL else 1
    if kind is LabelSpaceKind.LAW_AXIS3:
        return p.alignment.law_axis.value
    members = [q for q in PROFILES if is_neutral_profile(q) == (kind is LabelSpaceKind.NEUTRAL_PROFILE20)]
    return members.index(p) if p in members else -1


@pytest.mark.parametrize("kind", list(LabelSpaceKind), ids=lambda kind: kind.value)
def test_table_matches_the_branch_per_space_oracle(kind):
    space = LabelSpace(kind)
    names = _oracle_class_names(kind)
    assert space.class_names() == names
    assert space.cardinality == len(names)
    want = [_oracle_label(p, kind) for p in PROFILES]
    assert space.labels.tolist() == want
    assert space.labels.dtype == np.int64 and not space.labels.flags.writeable
    assert [space.admits(p) for p in PROFILES] == [label >= 0 for label in want]


def test_profile_spaces_are_the_three_whose_classes_are_profiles():
    profile_spaces = {kind for kind in LabelSpaceKind if LabelSpace(kind).is_profile_space}
    assert profile_spaces == {
        LabelSpaceKind.PROFILE36,
        LabelSpaceKind.NON_NEUTRAL_PROFILE16,
        LabelSpaceKind.NEUTRAL_PROFILE20,
    }


def test_admits_matches_map_label():
    for kind in LabelSpaceKind:
        space = LabelSpace(kind)
        for p in PROFILES:
            if space.admits(p):
                assert 0 <= space.labels[p.index] < space.cardinality
            else:
                assert space.labels[p.index] == -1


@given(st.integers(min_value=0, max_value=35))
def test_index_roundtrip_property(idx):
    p = Profile.from_index(idx)
    assert p.index == idx
    assert Profile.from_code(p.code).index == idx


@given(st.sampled_from(list(LawAxis)), st.sampled_from(list(MoralAxis)), st.sampled_from(list(Motivation)))
def test_every_combination_has_unique_index(law, moral, motiv):
    p = Profile(Alignment(law, moral), motiv)
    assert PROFILES[p.index] == p


def test_every_index_round_trips_through_from_index_and_code():
    for i in range(36):
        p = Profile.from_index(i)
        assert p.index == i  # computed on first read
        assert p.index == i  # read back from the instance
        assert PROFILES[i] == p and PROFILES[i].index == i
        assert Profile.from_code(p.code).index == i
        assert Profile(p.alignment, p.motivation).index == i
