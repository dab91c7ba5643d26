"""Grid-dungeon gameplay simulator driven by profile-parameterized agents.

Each game is a pure function of (profile, seed, config): a stochastic agent
walks a small dungeon, choosing among 3-6 offered actions per step. Moral
and order axes of the profile become signed utility weights (Neutral axes
become exactly zero, making neutral behavior ambiguous by construction);
the motivation boosts one affinity channel of every offered action.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from profilebench.errors import ConfigInvalid, IoFailure, SchemaMismatch
from profilebench.hashing import fold_seed, mix_seed
from profilebench.taxonomy import (
    LawAxis,
    MoralAxis,
    Motivation,
    Profile,
    PROFILES,
)
from profilebench.textgen import TEMPLATES, render_text


class ActionCategory(Enum):
    COMBAT = 0
    SOCIAL = 1
    ACQUISITIVE = 2
    EXPLORATORY = 3
    CAUTIOUS = 4


CATEGORIES: tuple[ActionCategory, ...] = tuple(ActionCategory)


class Entity(Enum):
    """What a room can hold; the value indexes the room's entity flags."""

    MONSTER = 0
    MERCHANT = 1
    VILLAGER = 2
    TREASURE = 3
    EXIT_PORTAL = 4


# manifest.json's "format": v2 stores each option as its catalog kind.
SESSIONS_FORMAT = "sessions-jsonl-v2"


class Outcome(Enum):
    EXIT_REACHED = "ExitReached"
    DIED = "Died"
    STEP_LIMIT = "StepLimit"


@dataclass(frozen=True)
class SimConfig:
    width: int = 6
    height: int = 6
    max_steps: int = 40
    moral_gain: float = 2.8
    order_gain: float = 2.2
    motivation_gain: float = 2.4
    consistency_bonus: float = 0.7
    temperature: float = 1.0
    noise_scale: float = 0.8
    fight_death_chance: float = 0.05
    taunt_death_chance: float = 0.09
    monster_rate: float = 0.35
    merchant_rate: float = 0.30
    villager_rate: float = 0.30
    treasure_rate: float = 0.25

    def validate(self) -> None:
        # one room leaves no distance to normalise the movement features by
        if self.width <= 0 or self.height <= 0 or self.width * self.height < 2:
            raise ConfigInvalid(f"dungeon needs two or more rooms: {self.width}x{self.height}")
        if self.max_steps <= 0:
            raise ConfigInvalid(f"max_steps must be positive: {self.max_steps}")
        if self.temperature <= 0:
            raise ConfigInvalid(f"temperature must be positive: {self.temperature}")
        if self.noise_scale < 0:
            raise ConfigInvalid(f"noise_scale must be non-negative: {self.noise_scale}")
        for name in (
            "fight_death_chance",
            "taunt_death_chance",
            "monster_rate",
            "merchant_rate",
            "villager_rate",
            "treasure_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigInvalid(f"{name} must lie in [0, 1]: {value}")


@dataclass(frozen=True)
class Room:
    coords: tuple[int, int]
    entities: tuple[bool, ...]  # one flag per Entity, indexed by its value
    description_seed: int


@dataclass(frozen=True)
class Dungeon:
    width: int
    height: int
    rooms: dict[tuple[int, int], Room]
    start: tuple[int, int]
    exit: tuple[int, int]


@dataclass(frozen=True)
class ActionInstance:
    """An offered action, as `offer` builds it from its catalog kind and flags."""

    category: ActionCategory
    moral_valence: float
    order_score: float
    motivation_affinity: Mapping[Motivation, float]
    move_delta: tuple[int, int] | None = None
    kind: str = ""  # catalog id; drives death/exit semantics and the text template
    target_unvisited: bool = False
    toward_exit: bool = False
    # category.value as a plain int: featurize reads it for every option, and
    # an Enum's .value is a property lookup
    category_id: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "category_id", self.category.value)


@dataclass(frozen=True)
class DecisionPoint:
    step: int
    room: tuple[int, int]
    available: tuple[ActionInstance, ...]
    chosen: int
    room_text: str
    action_text: str


@dataclass(frozen=True)
class Session:
    game_id: int
    profile: Profile
    seed: int
    decisions: tuple[DecisionPoint, ...]
    outcome: Outcome

    @property
    def length(self) -> int:
        return len(self.decisions)


@dataclass(frozen=True)
class AgentParams:
    w_moral: float
    w_order: float
    motivation_weights: dict[Motivation, float]
    temperature: float
    noise_scale: float
    # id(action) -> (action, its base utility under these weights); holding
    # the action keeps its id from being reused while the entry exists
    base_utility: dict[int, tuple[ActionInstance, float]] = field(default_factory=dict, repr=False, compare=False)


_MORAL_SIGN = {MoralAxis.GOOD: 1.0, MoralAxis.NEUTRAL: 0.0, MoralAxis.EVIL: -1.0}
_ORDER_SIGN = {LawAxis.LAWFUL: 1.0, LawAxis.NEUTRAL: 0.0, LawAxis.CHAOTIC: -1.0}


def derive_agent_params(profile: Profile, config: SimConfig) -> AgentParams:
    """Signed utility weights per axis; Neutral axes collapse to zero."""
    if config.moral_gain <= 0 or config.order_gain <= 0 or config.motivation_gain <= 0:
        raise ConfigInvalid("gains must be positive")
    weights = {m: 0.0 for m in Motivation}
    weights[profile.motivation] = config.motivation_gain
    return AgentParams(
        w_moral=_MORAL_SIGN[profile.alignment.moral_axis] * config.moral_gain,
        w_order=_ORDER_SIGN[profile.alignment.law_axis] * config.order_gain,
        motivation_weights=weights,
        temperature=config.temperature,
        noise_scale=config.noise_scale,
    )


@dataclass
class GameState:
    """Mutable per-game state the utility function conditions on."""

    position: tuple[int, int]
    visited: set[tuple[int, int]]
    prev_category: ActionCategory | None
    rng: np.random.Generator
    consistency_bonus: float


def _base_utility(params: AgentParams, act: ActionInstance) -> float:
    """The moral, order and motivation terms of an action's utility, summed in that order."""
    total = params.w_moral * act.moral_valence + params.w_order * act.order_score
    for m, w in params.motivation_weights.items():
        if w != 0.0:
            total += w * act.motivation_affinity[m]
    return total


def action_utilities(
    params: AgentParams, state: GameState, available: list[ActionInstance]
) -> np.ndarray:
    """Utility per offered action: moral + order + motivation + consistency + noise.

    Each action's first three terms are computed once per `params` (offered
    actions are shared instances, so a game meets the same few again and
    again); the bonus is then added to that sum, as one running sum would.
    """
    memo = params.base_utility
    bonus = params.w_order * state.consistency_bonus
    prev = state.prev_category
    sums = []
    for act in available:
        entry = memo.get(id(act))
        if entry is None:
            entry = memo[id(act)] = (act, _base_utility(params, act))
        total = entry[1]
        if prev is not None and act.category is prev:
            total += bonus
        sums.append(total)
    u = np.array(sums, dtype=float)
    if params.noise_scale > 0:
        u += params.noise_scale * state.rng.normal(size=len(u))
    return u


def softmax_policy(utilities: np.ndarray, temperature: float) -> np.ndarray:
    """Boltzmann policy over utilities, max-subtracted for overflow safety."""
    if temperature <= 0:
        raise ConfigInvalid(f"temperature must be positive: {temperature}")
    z = np.asarray(utilities, dtype=float) / temperature
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def build_dungeon(seed: int, config: SimConfig) -> Dungeon:
    """Open W x H grid; exit seeded among far cells, entities seeded per room."""
    config.validate()
    rng = np.random.Generator(np.random.PCG64(mix_seed(seed, "dungeon")))
    w, h = config.width, config.height
    start = (0, 0)
    # Exit sits in the far half of the grid so every game starts with a trek.
    far = [(x, y) for x in range(w) for y in range(h) if x + y >= (w + h) // 2]
    exit_cell = far[int(rng.integers(len(far)))] if far else (w - 1, h - 1)
    if exit_cell == start:
        exit_cell = (w - 1, h - 1)
    # Four draws per room, x-major: the doubles 4 * w * h scalar draws give.
    draws = iter(rng.random(4 * w * h).tolist())
    monster, merchant, villager, treasure = (
        config.monster_rate, config.merchant_rate, config.villager_rate, config.treasure_rate
    )
    room_seed = mix_seed(seed, "room")
    rooms = {}
    for x in range(w):
        column_seed = fold_seed(room_seed, x)  # mix_seed(seed, "room", x)
        for y in range(h):
            # flags in Entity order, the four rates drawn in that order
            entities = (
                next(draws) < monster,
                next(draws) < merchant,
                next(draws) < villager,
                next(draws) < treasure,
                (x, y) == exit_cell,
            )
            rooms[(x, y)] = Room(coords=(x, y), entities=entities, description_seed=fold_seed(column_seed, y))
    return Dungeon(width=w, height=h, rooms=rooms, start=start, exit=exit_cell)


# Static action catalog: (category, valence, order, affinities). A move's
# affinities depend on its target and are computed in `offer`.
def _aff(safety, speed, wanderlust, wealth) -> Mapping[Motivation, float]:
    return MappingProxyType({
        Motivation.SAFETY: safety,
        Motivation.SPEED: speed,
        Motivation.WANDERLUST: wanderlust,
        Motivation.WEALTH: wealth,
    })


_CATALOG = {
    "fight_monster": (ActionCategory.COMBAT, 0.45, 0.10, _aff(0.05, 0.30, 0.20, 0.35)),
    "taunt_monster": (ActionCategory.COMBAT, -0.60, -0.30, _aff(0.02, 0.05, 0.25, 0.15)),
    "help_merchant": (ActionCategory.SOCIAL, 0.80, 0.15, _aff(0.30, 0.05, 0.15, 0.35)),
    "rob_merchant": (ActionCategory.ACQUISITIVE, -0.85, -0.30, _aff(0.05, 0.15, 0.10, 0.95)),
    "trade_merchant": (ActionCategory.ACQUISITIVE, 0.10, 0.60, _aff(0.40, 0.10, 0.10, 0.75)),
    "help_villager": (ActionCategory.SOCIAL, 0.90, 0.10, _aff(0.35, 0.05, 0.20, 0.05)),
    "threaten_villager": (ActionCategory.SOCIAL, -0.80, -0.20, _aff(0.10, 0.20, 0.05, 0.50)),
    "chat_villager": (ActionCategory.SOCIAL, 0.15, -0.10, _aff(0.30, 0.02, 0.50, 0.10)),
    "take_treasure": (ActionCategory.ACQUISITIVE, -0.05, -0.15, _aff(0.15, 0.20, 0.30, 1.00)),
    "rest": (ActionCategory.CAUTIOUS, 0.0, 0.50, _aff(0.90, 0.02, 0.10, 0.05)),
    "scout": (ActionCategory.CAUTIOUS, 0.0, 0.15, _aff(0.70, 0.15, 0.45, 0.20)),
    "search_room": (ActionCategory.CAUTIOUS, 0.0, -0.25, _aff(0.30, 0.02, 0.40, 0.60)),
    "smash": (ActionCategory.COMBAT, -0.25, -0.80, _aff(0.02, 0.05, 0.20, 0.30)),
    "enter_portal": (ActionCategory.EXPLORATORY, 0.0, 0.20, _aff(0.80, 1.00, 0.05, 0.20)),
}

_DIRECTIONS = {
    "north": (0, -1),
    "south": (0, 1),
    "east": (1, 0),
    "west": (-1, 0),
}
_DIRECTION_ORDER = ("north", "east", "south", "west")


@functools.cache
def offer(kind: str, target_unvisited: bool = False, toward_exit: bool = False) -> ActionInstance:
    """The action of catalog `kind`, or of "move_<direction>", whose affinity
    depends on the two flags. An unknown kind raises KeyError.

    Instances are shared: the same arguments return the same object, and its
    `motivation_affinity` is a read-only mapping.
    """
    if not kind.startswith("move_"):
        category, valence, order, affinity = _CATALOG[kind]
        return ActionInstance(category, valence, order, affinity, kind=kind)
    affinity = _aff(
        0.50 if not target_unvisited else 0.20,
        0.85 if toward_exit else 0.10,
        0.90 if target_unvisited else 0.30,
        0.30,
    )
    return ActionInstance(
        ActionCategory.EXPLORATORY, 0.0, 0.0, affinity, move_delta=_DIRECTIONS[kind[5:]], kind=kind,
        target_unvisited=target_unvisited, toward_exit=toward_exit,
    )


def _action_text(action: ActionInstance, text_seed: int, step: int, slot: int) -> str:
    """The sentence of the action offered in menu `slot`; each slot has its
    own seed, mix_seed(game_seed, "text", step, slot) with `text_seed` =
    mix_seed(game_seed, "text")."""
    seed = fold_seed(text_seed, step, slot)
    if action.move_delta is None:
        return render_text(TEMPLATES, action.kind, seed)
    return render_text(TEMPLATES, "move", seed, {"direction": action.kind[5:]})


# The sentence template of each entity, in Entity order.
_ENTITY_TEMPLATES = ("room_monster", "room_merchant", "room_villager", "room_treasure", "room_exit")


def _room_text(room: Room, step: int) -> str:
    """The room's sentences at `step`: its base sentence, then one per entity
    present, in Entity order; sentence k is seeded by
    mix_seed(room.description_seed, step, k)."""
    seed = mix_seed(room.description_seed, step)
    parts = [render_text(TEMPLATES, "room_base", fold_seed(seed, 0))]
    for k, (present, template_id) in enumerate(zip(room.entities, _ENTITY_TEMPLATES), start=1):
        if present:
            parts.append(render_text(TEMPLATES, template_id, fold_seed(seed, k)))
    return " ".join(parts)


@functools.lru_cache(maxsize=4096)
def _moves(width: int, height: int, exit_cell: tuple[int, int], position: tuple[int, int]) -> tuple:
    """The moves from `position` that approach the exit, and the other
    valid moves left after each of them is offered (or, if none approaches,
    all valid moves once), in direction order. A move is its target and its
    two shared instances, for a visited ([False]) and an unvisited ([True])
    target. They depend only on the grid, the exit and the position, so a
    corpus computes each table once.
    """
    x, y = position
    ex, ey = exit_cell
    here = abs(x - ex) + abs(y - ey)
    valid = []
    toward = []
    for name in _DIRECTION_ORDER:
        dx, dy = _DIRECTIONS[name]
        tx, ty = x + dx, y + dy
        if 0 <= tx < width and 0 <= ty < height:
            closer = abs(tx - ex) + abs(ty - ey) < here
            move = ((tx, ty), (offer(f"move_{name}", False, closer), offer(f"move_{name}", True, closer)))
            valid.append(move)
            if closer:
                toward.append(move)
    others = [tuple(m for m in valid if m is not t) for t in toward] or [tuple(valid)]
    return tuple(toward), tuple(others)


def _without(kinds: tuple[str, ...]) -> tuple[tuple[ActionInstance, ...], ...]:
    """The actions of `kinds` with the i-th left out, for each i."""
    return tuple(tuple(offer(k) for j, k in enumerate(kinds) if j != i) for i in range(len(kinds)))


_FIGHT = (offer("fight_monster"), offer("taunt_monster"))
_MERCHANT = _without(("help_merchant", "rob_merchant", "trade_merchant"))
_VILLAGER = _without(("help_villager", "threaten_villager", "chat_villager"))
_TREASURE = (offer("take_treasure"),)
_PORTAL = offer("enter_portal")
_FILLERS = tuple(offer(k) for k in ("rest", "scout", "search_room", "smash"))
# _ROTATIONS[first]: the fillers starting at `first`, wrapping around
_ROTATIONS = tuple(_FILLERS[first:] + _FILLERS[:first] for first in range(len(_FILLERS)))


def _assemble_menu(
    dungeon: Dungeon, room: Room, state: GameState
) -> tuple[list[ActionInstance], list[int]]:
    """Offer 3-6 actions: movement first, then entity actions, then fillers.

    Returns the menu and, beside it, each option's text slot.
    """
    rng = state.rng
    menu: list[ActionInstance] = []
    slots: list[int] = []

    # Movement: always include one exit-approaching direction, plus one other.
    toward, others_after = _moves(dungeon.width, dungeon.height, dungeon.exit, state.position)
    offered_moves = []
    first = 0
    if toward:
        first = int(rng.integers(len(toward)))
        offered_moves.append(toward[first])
    others = others_after[first]
    if others:
        offered_moves.append(others[int(rng.integers(len(others)))])
    for slot, (target, instances) in enumerate(offered_moves):
        menu.append(instances[target not in state.visited])
        slots.append(slot)

    monster, merchant, villager, treasure, portal = room.entities
    if portal:
        menu.append(_PORTAL)
        slots.append(2)

    entity_actions: list[ActionInstance] = []
    if monster:
        entity_actions += _FIGHT
    if merchant:
        entity_actions += _MERCHANT[int(rng.integers(3))]
    if villager:
        entity_actions += _VILLAGER[int(rng.integers(3))]
    if treasure:
        entity_actions += _TREASURE
    for slot, action in enumerate(entity_actions, start=3):
        if len(menu) >= 6:
            break
        menu.append(action)
        slots.append(slot)

    # The loop stops only once the menu holds 3 options; 4 fillers get it there.
    fillers = _ROTATIONS[int(rng.integers(len(_FILLERS)))]
    for slot, action in enumerate(fillers, start=3 + len(entity_actions)):
        if len(menu) >= 6 or (len(menu) >= 3 and len(menu) - len(offered_moves) >= 3):
            break
        menu.append(action)
        slots.append(slot)
    return menu, slots


def play_game(profile: Profile, seed: int, config: SimConfig, game_id: int = 0) -> Session:
    """Deterministic playthrough; see module docstring for agent mechanics."""
    config.validate()
    dungeon = build_dungeon(seed, config)
    params = derive_agent_params(profile, config)
    state = GameState(
        position=dungeon.start,
        visited={dungeon.start},
        prev_category=None,
        rng=np.random.Generator(np.random.PCG64(mix_seed(seed, "play"))),
        consistency_bonus=config.consistency_bonus,
    )
    text_seed = mix_seed(seed, "text")
    decisions: list[DecisionPoint] = []
    outcome = Outcome.STEP_LIMIT
    for step in range(config.max_steps):
        room = dungeon.rooms[state.position]
        menu, slots = _assemble_menu(dungeon, room, state)
        utilities = action_utilities(params, state, menu)
        probs = softmax_policy(utilities, params.temperature)
        # np.searchsorted(np.cumsum(probs), draw) on Python floats: accumulate
        # adds in order as cumsum does, so every partial sum keeps its bits
        pick = bisect.bisect_left(list(itertools.accumulate(probs.tolist())), state.rng.random())
        pick = min(pick, len(menu) - 1)
        chosen = menu[pick]
        decisions.append(
            DecisionPoint(
                step=step,
                room=state.position,
                available=tuple(menu),
                chosen=pick,
                room_text=_room_text(room, step),
                action_text=_action_text(chosen, text_seed, step, slots[pick]),
            )
        )
        state.prev_category = chosen.category
        if chosen.kind == "enter_portal":
            outcome = Outcome.EXIT_REACHED
            break
        if chosen.kind in ("fight_monster", "taunt_monster"):
            p_death = (
                config.fight_death_chance
                if chosen.kind == "fight_monster"
                else config.taunt_death_chance
            )
            if state.rng.random() < p_death:
                outcome = Outcome.DIED
                break
        if chosen.move_delta is not None:
            dx, dy = chosen.move_delta
            state.position = (state.position[0] + dx, state.position[1] + dy)
            state.visited.add(state.position)
    return Session(
        game_id=game_id,
        profile=profile,
        seed=seed,
        decisions=tuple(decisions),
        outcome=outcome,
    )


def game_seed(master_seed: int, profile_idx: int, ordinal: int) -> int:
    """Per-game seed derived from the game's identity alone, so a game replays
    the same whatever the corpus size or the games generated before it."""
    return mix_seed(master_seed, profile_idx, ordinal)


def action_to_json(action: ActionInstance) -> dict:
    """The option as `offer`'s arguments: its kind, plus a move's two flags."""
    d = {"kind": action.kind}
    if action.move_delta is not None:
        d.update(target_unvisited=action.target_unvisited, toward_exit=action.toward_exit)
    return d


# Every option a sessions file can hold: a kind other than a move by its
# kind, a move by its kind and its two flags.
_PLAIN_OPTIONS = {kind: offer(kind) for kind in _CATALOG}
_MOVE_OPTIONS = {
    (f"move_{name}", unvisited, toward): offer(f"move_{name}", unvisited, toward)
    for name in _DIRECTION_ORDER
    for unvisited in (False, True)
    for toward in (False, True)
}


def action_from_json(option: dict) -> ActionInstance:
    """The shared instance `action_to_json` wrote `option` from. A move
    carries exactly its two flags, as JSON booleans, and any other kind no
    flag; anything else raises ValueError."""
    try:
        if len(option) == 1:
            return _PLAIN_OPTIONS[option["kind"]]
        unvisited, toward = option["target_unvisited"], option["toward_exit"]
        # 1 and 1.0 equal true, and would find its entry
        if len(option) == 3 and type(unvisited) is bool and type(toward) is bool:
            return _MOVE_OPTIONS[option["kind"], unvisited, toward]
    except KeyError:
        pass
    raise ValueError(f"not an option: {option!r}")


def session_to_json(session: Session) -> dict:
    return {
        "game_id": session.game_id,
        "profile": session.profile.code,
        "seed": session.seed,
        "outcome": session.outcome.value,
        "decisions": [
            {
                "step": d.step,
                "room": list(d.room),
                "available": [action_to_json(a) for a in d.available],
                "chosen": d.chosen,
                "room_text": d.room_text,
                "action_text": d.action_text,
            }
            for d in session.decisions
        ],
    }


def _decision_from_json(position: int, dec: dict) -> DecisionPoint:
    """The decision at `position` of a session record. Its step is its
    position, its room two ints and its choice an index into its options;
    anything else raises ValueError."""
    available = tuple(map(action_from_json, dec["available"]))
    step, room, chosen = dec["step"], dec["room"], dec["chosen"]
    # true equals 1 and 1.0 equals 1, so each type is checked before the value
    if type(step) is not int or step != position:
        raise ValueError(f"decision {position} has step {step!r}")
    if type(room) is not list or [type(c) for c in room] != [int, int]:
        raise ValueError(f"decision {position} has room {room!r}")
    if type(chosen) is not int or not 0 <= chosen < len(available):
        raise ValueError(f"decision {position} chooses {chosen!r} of {len(available)} options")
    return DecisionPoint(
        step=step,
        room=tuple(room),
        available=available,
        chosen=chosen,
        room_text=dec["room_text"],
        action_text=dec["action_text"],
    )


def session_from_json(d: dict) -> Session:
    game_id = d["game_id"]  # a feature record's u64; true equals 1, so check the type first
    if type(game_id) is not int or not 0 <= game_id < 2**64:
        raise ValueError(f"game_id {game_id!r} is not an int in [0, 2**64)")
    return Session(
        game_id=game_id,
        profile=Profile.from_code(d["profile"]),
        seed=d["seed"],
        outcome=Outcome(d["outcome"]),
        decisions=tuple(_decision_from_json(i, dec) for i, dec in enumerate(d["decisions"])),
    )


def generate_sessions(master_seed: int, games_per_profile: int, config: SimConfig) -> Iterable[Session]:
    """All sessions in canonical (profile, ordinal) order; each game is
    played from its own derived seed, never from a shared stream."""
    if games_per_profile < 1:
        raise ConfigInvalid(f"games_per_profile must be >= 1: {games_per_profile}")
    config.validate()
    for profile in PROFILES:
        for ordinal in range(games_per_profile):
            gid = profile.index * games_per_profile + ordinal
            yield play_game(profile, game_seed(master_seed, profile.index, ordinal), config, gid)


def generate_corpus(
    master_seed: int,
    games_per_profile: int,
    config: SimConfig,
    sessions_path: str | Path,
    manifest_path: str | Path,
) -> dict:
    """Write sessions.jsonl and its manifest; returns the manifest dict."""
    counts = {p.code: 0 for p in PROFILES}
    try:
        with open(sessions_path, "w", encoding="utf-8") as fh:
            for session in generate_sessions(master_seed, games_per_profile, config):
                counts[session.profile.code] += 1
                fh.write(json.dumps(session_to_json(session), separators=(",", ":")))
                fh.write("\n")
        manifest = {
            "format": SESSIONS_FORMAT,
            "master_seed": master_seed,
            "games_per_profile": games_per_profile,
            "counts": counts,
            "sim_config": asdict(config),
        }
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"corpus write failed: {exc}") from exc
    return manifest


def load_sessions(path: str | Path) -> Iterable[Session]:
    """Sessions of a sessions.jsonl file, in file order.

    A line that is not valid JSON or does not decode to a session (a missing
    key, a bad value, an unknown option kind; e.g. a truncated file) raises
    SchemaMismatch naming the file and the line.
    """
    try:
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    session = session_from_json(json.loads(line))
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    raise SchemaMismatch(
                        f"{path} line {lineno}: not a session record ({type(exc).__name__}: {exc})"
                    ) from exc
                yield session
    except OSError as exc:
        raise IoFailure(f"corpus read failed: {exc}") from exc
