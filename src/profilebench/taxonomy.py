"""The 36-profile label space and its reduced mappings.

A profile is an alignment (3x3 law/moral grid) paired with a motivation
(Safety, Speed, Wanderlust, Wealth). Canonical ordering is alignment-major
(law axis major, moral axis minor) and motivation-minor, which fixes the
indices used by every file format and confusion matrix in the pipeline.

Each label space is defined once, by one class function in `_CLASS_OF`:
a profile's class name, or None where the space does not admit it. The
space's classes are those names in order of first appearance over the
canonical PROFILES, and `LabelSpace.labels` holds the 36 profiles' class
indices (-1 outside the space); cardinality, admission and class names
all read that one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from typing import Callable

import numpy as np



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


# The one rule per space: a profile's class name, None outside the space.
_CLASS_OF: dict[LabelSpaceKind, Callable[[Profile], str | None]] = {
    LabelSpaceKind.PROFILE36: lambda p: p.code,
    LabelSpaceKind.ALIGNMENT9: lambda p: p.alignment.code,
    LabelSpaceKind.MOTIVATION4: lambda p: _MOTIVATION_NAME[p.motivation],
    LabelSpaceKind.BINARY_LAWFUL2: lambda p: (
        "Lawful" if p.alignment.law_axis is LawAxis.LAWFUL else "NonLawful"
    ),
    LabelSpaceKind.LAW_AXIS3: lambda p: p.alignment.law_axis.name.title(),
    LabelSpaceKind.NON_NEUTRAL_PROFILE16: lambda p: None if is_neutral_profile(p) else p.code,
    LabelSpaceKind.NEUTRAL_PROFILE20: lambda p: p.code if is_neutral_profile(p) else None,
}


@cache
def _table(kind: LabelSpaceKind) -> tuple[tuple[str, ...], np.ndarray]:
    """The space's class names, in order of first appearance over PROFILES,
    and each profile's class index (-1 outside the space), read-only."""
    names = [_CLASS_OF[kind](p) for p in PROFILES]
    classes = tuple(dict.fromkeys(n for n in names if n is not None))
    labels = np.array([-1 if n is None else classes.index(n) for n in names], dtype=np.int64)
    labels.flags.writeable = False
    return classes, labels


@dataclass(frozen=True)
class LabelSpace:
    kind: LabelSpaceKind

    @property
    def labels(self) -> np.ndarray:
        """Class index of each of the 36 profile indices, -1 where the space
        does not admit the profile; read-only."""
        return _table(self.kind)[1]

    @property
    def cardinality(self) -> int:
        return len(_table(self.kind)[0])

    @property
    def tag(self) -> str:
        return self.kind.value

    @property
    def is_profile_space(self) -> bool:
        """Spaces whose classes are (subsets of) full profiles: every
        profile the space admits is its own class."""
        return all(_CLASS_OF[self.kind](p) in (None, p.code) for p in PROFILES)

    def admits(self, profile: Profile) -> bool:
        return bool(self.labels[profile.index] >= 0)

    def class_names(self) -> list[str]:
        return list(_table(self.kind)[0])
