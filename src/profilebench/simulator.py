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
import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from profilebench.errors import ConfigInvalid, IoFailure, SchemaMismatch
from profilebench.hashing import FNV64_OFFSET, atomic_output, fold_seed, fold_seed_array, mix_seed, write_text_atomic
from profilebench.taxonomy import (
    LawAxis,
    MoralAxis,
    Motivation,
    Profile,
    PROFILES,
)
# The batch renderer, under the name perfbench traces as `textgen.render_text`
# (one call per game; ROADMAP item 4).
from profilebench.textgen import TEMPLATES, render_texts as render_text


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


# manifest.json's "format": v3 stores each decision as one array and each
# menu as one string of option codes.
SESSIONS_FORMAT = "sessions-jsonl-v3"


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

    def __post_init__(self) -> None:
        # one room leaves no distance to normalise the movement features by
        if self.width <= 0 or self.height <= 0 or self.width * self.height < 2:
            raise ConfigInvalid(f"dungeon needs two or more rooms: {self.width}x{self.height}")
        if self.max_steps <= 0:
            raise ConfigInvalid(f"max_steps must be positive: {self.max_steps}")
        if self.moral_gain <= 0 or self.order_gain <= 0 or self.motivation_gain <= 0:
            raise ConfigInvalid("gains must be positive")
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
    # how a sessions file writes the option: its kind, and a move's two
    # flags as digits ("move_north/10": target unvisited, not toward the exit)
    code: str = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "category_id", self.category.value)
        code = self.kind
        if self.move_delta is not None:
            code += f"/{self.target_unvisited:d}{self.toward_exit:d}"
        object.__setattr__(self, "code", code)


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


# The sentence template of each entity, in Entity order.
_ENTITY_TEMPLATES = ("room_monster", "room_merchant", "room_villager", "room_treasure", "room_exit")


@functools.cache
def _room_sentences(entities: tuple[bool, ...]) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The templates of a room's sentences, and the k that seeds each: the
    base sentence (k = 0), then one per entity present, in Entity order
    (k = its value + 1)."""
    present = [k for k, flag in enumerate(entities, start=1) if flag]
    return ("room_base", *(_ENTITY_TEMPLATES[k - 1] for k in present)), (0, *present)


# A move's sentence names its real direction.
_DIRECTION_OVERRIDES = {f"move_{name}": (("direction", name),) for name in _DIRECTIONS}


def _game_text(
    rooms: list[Room], chosen: list[ActionInstance], slots: list[int], text_seed: int
) -> tuple[list[str], list[str]]:
    """Each decision's room text and chosen action's text, rendered in one
    `render_text` batch.

    At step t, the room text is the room's sentences joined by spaces, and
    sentence k is seeded by mix_seed(room.description_seed, t, k). The action
    offered in menu `slot` is seeded by mix_seed(game_seed, "text", t, slot),
    with `text_seed` = mix_seed(game_seed, "text"); a move renders the "move"
    template with its direction pinned.
    """
    n = len(rooms)
    steps = np.arange(n, dtype=np.uint64)
    template_ids: list[str] = []
    ks: list[int] = []
    counts = []
    for room in rooms:
        ids, room_ks = _room_sentences(room.entities)
        template_ids += ids
        ks += room_ks
        counts.append(len(ids))
    room_seeds = fold_seed_array(  # mix_seed(room.description_seed, t)
        np.full(n, FNV64_OFFSET, dtype=np.uint64),
        np.array([room.description_seed for room in rooms], dtype=np.uint64),
        steps,
    )
    seeds = np.concatenate([
        fold_seed_array(np.repeat(room_seeds, counts), np.array(ks, dtype=np.uint64)),
        fold_seed_array(np.full(n, text_seed, dtype=np.uint64), steps, np.array(slots, dtype=np.uint64)),
    ])
    overrides: list[tuple | None] = [None] * len(template_ids)
    for action in chosen:
        if action.move_delta is None:
            template_ids.append(action.kind)
            overrides.append(None)
        else:
            template_ids.append("move")
            overrides.append(_DIRECTION_OVERRIDES[action.kind])
    texts = render_text(TEMPLATES, template_ids, seeds, overrides)
    room_texts = []
    end = 0
    for count in counts:
        room_texts.append(" ".join(texts[end : end + count]))
        end += count
    return room_texts, texts[end:]


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


def _after(position: tuple[int, int], action: ActionInstance) -> tuple[int, int]:
    """The room an agent is in after choosing `action` in `position`: a
    move's target, or the same room."""
    delta = action.move_delta
    if delta is None:
        return position
    return (position[0] + delta[0], position[1] + delta[1])


def play_game(profile: Profile, seed: int, config: SimConfig, game_id: int = 0) -> Session:
    """Deterministic playthrough; see module docstring for agent mechanics.

    The loop plays the game and records each decision's room, menu, choice
    and the choice's text slot. The room and action text is rendered after
    it, in one batch for the whole game (`_game_text`).
    """
    dungeon = build_dungeon(seed, config)
    params = derive_agent_params(profile, config)
    state = GameState(
        position=dungeon.start,
        visited={dungeon.start},
        prev_category=None,
        rng=np.random.Generator(np.random.PCG64(mix_seed(seed, "play"))),
        consistency_bonus=config.consistency_bonus,
    )
    # per decision: its position, room, menu, choice and the choice's text slot
    positions, rooms, menus, picks, chosen_actions, text_slots = [], [], [], [], [], []
    outcome = Outcome.STEP_LIMIT
    for _ in range(config.max_steps):
        room = dungeon.rooms[state.position]
        menu, slots = _assemble_menu(dungeon, room, state)
        utilities = action_utilities(params, state, menu)
        probs = softmax_policy(utilities, params.temperature)
        # np.searchsorted(np.cumsum(probs), draw) on Python floats: accumulate
        # adds in order as cumsum does, so every partial sum keeps its bits
        pick = bisect.bisect_left(list(itertools.accumulate(probs.tolist())), state.rng.random())
        pick = min(pick, len(menu) - 1)
        chosen = menu[pick]
        positions.append(state.position)
        rooms.append(room)
        menus.append(tuple(menu))
        picks.append(pick)
        chosen_actions.append(chosen)
        text_slots.append(slots[pick])
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
        state.position = _after(state.position, chosen)
        state.visited.add(state.position)
    # The text never feeds back into play and draws from no Generator, so
    # rendering it after the loop leaves the game's stream as it was.
    room_texts, action_texts = _game_text(rooms, chosen_actions, text_slots, mix_seed(seed, "text"))
    decisions = tuple(
        DecisionPoint(step, *fields)
        for step, fields in enumerate(zip(positions, menus, picks, room_texts, action_texts))
    )
    return Session(game_id=game_id, profile=profile, seed=seed, decisions=decisions, outcome=outcome)


def game_seed(master_seed: int, profile_idx: int, ordinal: int) -> int:
    """Per-game seed derived from the game's identity alone, so a game replays
    the same whatever the corpus size or the games generated before it."""
    return mix_seed(master_seed, profile_idx, ordinal)


# Every option a sessions file can hold, by its code.
_OPTIONS = {
    action.code: action
    for action in (
        *(offer(kind) for kind in _CATALOG),
        *(
            offer(f"move_{name}", unvisited, toward)
            for name in _DIRECTION_ORDER
            for unvisited in (False, True)
            for toward in (False, True)
        ),
    )
}

# menu string -> its options. A corpus's menus are few and repeat, so each
# is split and looked up once.
_MENUS: dict[str, tuple[ActionInstance, ...]] = {}


def _menu(menu: str, step: int) -> tuple[ActionInstance, ...]:
    """The options of decision `step`'s menu, cached: its codes joined by
    single spaces. Anything else (not a string, empty, an unknown code)
    raises ValueError."""
    if type(menu) is not str or not menu:
        raise ValueError(f"decision {step} has menu {menu!r}, not a non-empty string")
    try:
        options = _MENUS[menu] = tuple(_OPTIONS[code] for code in menu.split(" "))
    except KeyError as exc:
        raise ValueError(f"decision {step}: not an option code: {exc.args[0]!r}") from None
    return options


def session_to_json(session: Session) -> dict:
    """A sessions-jsonl-v3 record: the first decision's room as `start`, and
    each decision as [menu, chosen, room_text, action_text], its menu the
    options' codes joined by spaces."""
    decisions = session.decisions
    return {
        "game_id": session.game_id,
        "profile": session.profile.code,
        "seed": session.seed,
        "outcome": session.outcome.value,
        "start": list(decisions[0].room),
        "decisions": [
            [" ".join([a.code for a in d.available]), d.chosen, d.room_text, d.action_text]
            for d in decisions
        ],
    }


def _decisions_from_json(start: list, decisions: list) -> tuple[DecisionPoint, ...]:
    """A record's decisions. Each step is its position, and each room
    follows from `start` and the moves chosen before it, as in `play_game`.
    `start` must be two ints, each decision a 4-array of a menu, an index
    into it and two strings, and there must be one decision or more;
    anything else raises ValueError."""
    # true equals 1 and 1.0 equals 1, so each type is checked before the value
    if type(start) is not list or [type(c) for c in start] != [int, int]:
        raise ValueError(f"start {start!r} is not two ints")
    if type(decisions) is not list or not decisions:
        raise ValueError(f"decisions {decisions!r} is not a non-empty list")
    room = tuple(start)
    menus = _MENUS
    out = []
    for step, dec in enumerate(decisions):
        if type(dec) is not list or len(dec) != 4:
            raise ValueError(f"decision {step} is {dec!r}, not a 4-array")
        menu, chosen, room_text, action_text = dec
        available = menus.get(menu) if type(menu) is str else None
        if available is None:
            available = _menu(menu, step)
        if type(chosen) is not int or not 0 <= chosen < len(available):
            raise ValueError(f"decision {step} chooses {chosen!r} of {len(available)} options")
        if type(room_text) is not str or type(action_text) is not str:
            raise ValueError(f"decision {step} has texts {room_text!r}, {action_text!r}")
        out.append(DecisionPoint(step, room, available, chosen, room_text, action_text))
        room = _after(room, available[chosen])
    return tuple(out)


def _u64(d: dict, key: str) -> int:
    """A record's u64 field; true equals 1, so the type is checked first."""
    value = d[key]
    if type(value) is not int or not 0 <= value < 2**64:
        raise ValueError(f"{key} {value!r} is not an int in [0, 2**64)")
    return value


def session_from_json(d: dict) -> Session:
    return Session(
        game_id=_u64(d, "game_id"),  # a feature record stores it as a u64
        profile=Profile.from_code(d["profile"]),
        seed=_u64(d, "seed"),
        outcome=Outcome(d["outcome"]),
        decisions=_decisions_from_json(d["start"], d["decisions"]),
    )


def generate_sessions(master_seed: int, games_per_profile: int, config: SimConfig) -> Iterable[Session]:
    """All sessions in canonical (profile, ordinal) order; each game is
    played from its own derived seed, never from a shared stream."""
    if games_per_profile < 1:
        raise ConfigInvalid(f"games_per_profile must be >= 1: {games_per_profile}")
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
    """Write sessions.jsonl and a manifest holding its sha256; returns the manifest dict."""
    counts = {p.code: 0 for p in PROFILES}
    digest = hashlib.sha256()
    with atomic_output(sessions_path, "corpus") as fh:
        for session in generate_sessions(master_seed, games_per_profile, config):
            counts[session.profile.code] += 1
            line = (json.dumps(session_to_json(session), separators=(",", ":")) + "\n").encode("utf-8")
            digest.update(line)
            fh.write(line)
    manifest = {
        "format": SESSIONS_FORMAT,
        "master_seed": master_seed,
        "games_per_profile": games_per_profile,
        "counts": counts,
        "sessions_sha256": digest.hexdigest(),
        "sim_config": asdict(config),
    }
    write_text_atomic(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n", "corpus")
    return manifest


def load_sessions(path: str | Path) -> Iterable[Session]:
    """Sessions of a sessions.jsonl file, in file order.

    A line that is not valid JSON or does not decode to a session (a missing
    key, a bad value, an unknown option code; e.g. a truncated file) raises
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
