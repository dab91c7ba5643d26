"""The 36-profile label space and its reduced mappings.

A profile is an alignment (3x3 law/moral grid) paired with a motivation
(Safety, Speed, Wanderlust, Wealth). Canonical ordering is alignment-major
(law axis major, moral axis minor) and motivation-minor, which fixes the
indices used by every file format and confusion matrix in the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from profilebench.errors import SubsetMismatch


class LawAxis(Enum):
    LAWFUL = 0
    NEUTRAL = 1
    CHAOTIC = 2


class MoralAxis(Enum):
    GOOD = 0
    NEUTRAL = 1
    EVIL = 2


class Motivation(Enum):
    SAFETY = 0
    SPEED = 1
    WANDERLUST = 2
    WEALTH = 3


_LAW_CODE = {LawAxis.LAWFUL: "L", LawAxis.NEUTRAL: "N", LawAxis.CHAOTIC: "C"}
_MORAL_CODE = {MoralAxis.GOOD: "G", MoralAxis.NEUTRAL: "N", MoralAxis.EVIL: "E"}
_MOTIVATION_NAME = {
    Motivation.SAFETY: "Safety",
    Motivation.SPEED: "Speed",
    Motivation.WANDERLUST: "Wanderlust",
    Motivation.WEALTH: "Wealth",
}
_NAME_MOTIVATION = {v: k for k, v in _MOTIVATION_NAME.items()}


@dataclass(frozen=True)
class Alignment:
    law_axis: LawAxis
    moral_axis: MoralAxis

    @property
    def rank(self) -> int:
        return 3 * self.law_axis.value + self.moral_axis.value

    @property
    def code(self) -> str:
        # Neutral-Neutral is traditionally written "TN" (True Neutral).
        if self.law_axis is LawAxis.NEUTRAL and self.moral_axis is MoralAxis.NEUTRAL:
            return "TN"
        return _LAW_CODE[self.law_axis] + _MORAL_CODE[self.moral_axis]

    @classmethod
    def from_rank(cls, rank: int) -> "Alignment":
        if not 0 <= rank < 9:
            raise ValueError(f"alignment rank out of range: {rank}")
        return cls(LawAxis(rank // 3), MoralAxis(rank % 3))

    @classmethod
    def from_code(cls, code: str) -> "Alignment":
        if code == "TN":
            return cls(LawAxis.NEUTRAL, MoralAxis.NEUTRAL)
        law = {v: k for k, v in _LAW_CODE.items()}.get(code[:1])
        moral = {v: k for k, v in _MORAL_CODE.items()}.get(code[1:2])
        if law is None or moral is None or len(code) != 2:
            raise ValueError(f"unknown alignment code: {code!r}")
        if law is LawAxis.NEUTRAL and moral is MoralAxis.NEUTRAL:
            raise ValueError("Neutral-Neutral must be written 'TN'")
        return cls(law, moral)

    def __str__(self) -> str:
        return self.code


@dataclass(frozen=True)
class Profile:
    alignment: Alignment
    motivation: Motivation

    @cached_property
    def index(self) -> int:
        # computed once per instance: scoring reads it once per window
        return 4 * self.alignment.rank + self.motivation.value

    @property
    def code(self) -> str:
        return f"{self.alignment.code}-{_MOTIVATION_NAME[self.motivation]}"

    @classmethod
    def from_index(cls, index: int) -> "Profile":
        if not 0 <= index < 36:
            raise ValueError(f"profile index out of range: {index}")
        return cls(Alignment.from_rank(index // 4), Motivation(index % 4))

    @classmethod
    def from_code(cls, code: str) -> "Profile":
        align_code, sep, motiv_name = code.partition("-")
        if not sep or motiv_name not in _NAME_MOTIVATION:
            raise ValueError(f"unknown profile code: {code!r}")
        return cls(Alignment.from_code(align_code), _NAME_MOTIVATION[motiv_name])

    def __str__(self) -> str:
        return self.code


ALIGNMENTS: tuple[Alignment, ...] = tuple(Alignment.from_rank(r) for r in range(9))
MOTIVATIONS: tuple[Motivation, ...] = tuple(Motivation)
PROFILES: tuple[Profile, ...] = tuple(Profile.from_index(i) for i in range(36))


def all_profiles() -> tuple[Profile, ...]:
    return PROFILES


def profile_index(alignment: Alignment, motivation: Motivation) -> int:
    """Canonical index in [0, 35]; inverse is Profile.from_index."""
    return Profile(alignment, motivation).index


def is_neutral_profile(profile: Profile) -> bool:
    """True when either axis sits at Neutral.

    This rule partitions the 36 profiles into 20 neutral and 16 non-neutral,
    the counts every subset experiment depends on.
    """
    return (
        profile.alignment.law_axis is LawAxis.NEUTRAL
        or profile.alignment.moral_axis is MoralAxis.NEUTRAL
    )


class LabelSpaceKind(Enum):
    PROFILE36 = "profile36"
    ALIGNMENT9 = "alignment9"
    MOTIVATION4 = "motivation4"
    BINARY_LAWFUL2 = "binary_lawful2"
    LAW_AXIS3 = "law_axis3"
    NON_NEUTRAL_PROFILE16 = "non_neutral_profile16"
    NEUTRAL_PROFILE20 = "neutral_profile20"


_CARDINALITY = {
    LabelSpaceKind.PROFILE36: 36,
    LabelSpaceKind.ALIGNMENT9: 9,
    LabelSpaceKind.MOTIVATION4: 4,
    LabelSpaceKind.BINARY_LAWFUL2: 2,
    LabelSpaceKind.LAW_AXIS3: 3,
    LabelSpaceKind.NON_NEUTRAL_PROFILE16: 16,
    LabelSpaceKind.NEUTRAL_PROFILE20: 20,
}

_NON_NEUTRAL = tuple(p for p in PROFILES if not is_neutral_profile(p))
_NEUTRAL = tuple(p for p in PROFILES if is_neutral_profile(p))
_NON_NEUTRAL_INDEX = {p: i for i, p in enumerate(_NON_NEUTRAL)}
_NEUTRAL_INDEX = {p: i for i, p in enumerate(_NEUTRAL)}


@dataclass(frozen=True)
class LabelSpace:
    kind: LabelSpaceKind

    @property
    def cardinality(self) -> int:
        return _CARDINALITY[self.kind]

    @property
    def tag(self) -> str:
        return self.kind.value

    @property
    def is_profile_space(self) -> bool:
        """Spaces whose classes are (subsets of) full profiles."""
        return self.kind in (
            LabelSpaceKind.PROFILE36,
            LabelSpaceKind.NON_NEUTRAL_PROFILE16,
            LabelSpaceKind.NEUTRAL_PROFILE20,
        )

    def admits(self, profile: Profile) -> bool:
        if self.kind is LabelSpaceKind.NON_NEUTRAL_PROFILE16:
            return not is_neutral_profile(profile)
        if self.kind is LabelSpaceKind.NEUTRAL_PROFILE20:
            return is_neutral_profile(profile)
        return True

    def class_names(self) -> list[str]:
        kind = self.kind
        if kind is LabelSpaceKind.PROFILE36:
            return [p.code for p in PROFILES]
        if kind is LabelSpaceKind.ALIGNMENT9:
            return [a.code for a in ALIGNMENTS]
        if kind is LabelSpaceKind.MOTIVATION4:
            return [_MOTIVATION_NAME[m] for m in MOTIVATIONS]
        if kind is LabelSpaceKind.BINARY_LAWFUL2:
            return ["Lawful", "NonLawful"]
        if kind is LabelSpaceKind.LAW_AXIS3:
            return ["Lawful", "Neutral", "Chaotic"]
        if kind is LabelSpaceKind.NON_NEUTRAL_PROFILE16:
            return [p.code for p in _NON_NEUTRAL]
        return [p.code for p in _NEUTRAL]


def map_label(profile: Profile, space: LabelSpace) -> int:
    """Map a profile into a label space; dense 0..K-1, canonical order.

    Raises SubsetMismatch when the profile lies outside a subset space.
    """
    kind = space.kind
    if kind is LabelSpaceKind.PROFILE36:
        return profile.index
    if kind is LabelSpaceKind.ALIGNMENT9:
        return profile.alignment.rank
    if kind is LabelSpaceKind.MOTIVATION4:
        return profile.motivation.value
    if kind is LabelSpaceKind.BINARY_LAWFUL2:
        return 0 if profile.alignment.law_axis is LawAxis.LAWFUL else 1
    if kind is LabelSpaceKind.LAW_AXIS3:
        return profile.alignment.law_axis.value
    if kind is LabelSpaceKind.NON_NEUTRAL_PROFILE16:
        if profile not in _NON_NEUTRAL_INDEX:
            raise SubsetMismatch(f"{profile.code} is neutral; not in {space.tag}")
        return _NON_NEUTRAL_INDEX[profile]
    if kind is LabelSpaceKind.NEUTRAL_PROFILE20:
        if profile not in _NEUTRAL_INDEX:
            raise SubsetMismatch(f"{profile.code} is non-neutral; not in {space.tag}")
        return _NEUTRAL_INDEX[profile]
    raise ValueError(f"unhandled label space {kind}")


def admissible_profiles(space: LabelSpace) -> tuple[Profile, ...]:
    return tuple(p for p in PROFILES if space.admits(p))
