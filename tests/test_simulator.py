"""Simulator: dungeons, menus, the softmax policy, and corpus generation."""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

import test_textgen as textgen_oracles
from test_textgen import _oracle_mix

from profilebench.errors import ConfigInvalid, SchemaMismatch
from profilebench.pipeline import read_config
from profilebench.simulator import (
    ActionCategory,
    ActionInstance,
    Entity,
    action_from_json,
    action_to_json,
    GameState,
    Outcome,
    SimConfig,
    action_utilities,
    build_dungeon,
    derive_agent_params,
    game_seed,
    generate_corpus,
    generate_sessions,
    load_sessions,
    offer,
    play_game,
    session_from_json,
    session_to_json,
    softmax_policy,
)
from profilebench.taxonomy import PROFILES, Motivation, Profile
from profilebench.textgen import TEMPLATES


def _profile(code: str) -> Profile:
    return Profile.from_code(code)


def test_play_game_deterministic():
    cfg = SimConfig()
    a = play_game(_profile("CE-Wealth"), seed=123, config=cfg)
    b = play_game(_profile("CE-Wealth"), seed=123, config=cfg)
    assert session_to_json(a) == session_to_json(b)
    c = play_game(_profile("CE-Wealth"), seed=124, config=cfg)
    assert session_to_json(a) != session_to_json(c)


def test_menu_bounds_and_exploratory_presence():
    cfg = SimConfig()
    for seed in range(5):
        session = play_game(_profile("TN-Wanderlust"), seed=seed, config=cfg)
        for d in session.decisions:
            assert 3 <= len(d.available) <= 6
            cats = [a.category for a in d.available]
            assert ActionCategory.EXPLORATORY in cats
            assert 0 <= d.chosen < len(d.available)


def test_softmax_two_point_example():
    p = softmax_policy(np.array([2.0, 0.0]), temperature=1.0)
    assert p[0] == pytest.approx(0.8808, abs=1e-4)
    assert p[1] == pytest.approx(0.1192, abs=1e-4)
    assert p.sum() == pytest.approx(1.0)


def test_softmax_shift_invariance_and_temperature():
    u = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(softmax_policy(u, 1.0), softmax_policy(u + 100.0, 1.0))
    cold = softmax_policy(u, 0.1)
    hot = softmax_policy(u, 10.0)
    assert cold.max() > hot.max()
    with pytest.raises(ConfigInvalid):
        softmax_policy(u, 0.0)


def _plain_action(valence: float, order: float = 0.0) -> ActionInstance:
    return ActionInstance(
        category=ActionCategory.CAUTIOUS,
        moral_valence=valence,
        order_score=order,
        motivation_affinity={m: 0.0 for m in Motivation},
    )


@pytest.mark.parametrize(
    "args", [("rest",), ("enter_portal",), ("move_north", True, False), ("move_west", False, True)]
)
def test_offer_shares_one_read_only_instance(args):
    action = offer(*args)
    assert offer(*args) is action
    with pytest.raises(TypeError):
        action.motivation_affinity[Motivation.SAFETY] = 1.0
    rebuilt = ActionInstance(
        action.category,
        action.moral_valence,
        action.order_score,
        dict(action.motivation_affinity),
        action.move_delta,
        action.kind,
        action.target_unvisited,
        action.toward_exit,
    )
    assert rebuilt == action


def test_utility_gap_equals_moral_gain():
    cfg = SimConfig(noise_scale=0.0)
    state = GameState(
        position=(0, 0),
        visited={(0, 0)},
        prev_category=None,
        rng=np.random.Generator(np.random.PCG64(0)),
        consistency_bonus=cfg.consistency_bonus,
    )
    actions = [_plain_action(0.5), _plain_action(-0.5)]
    good = action_utilities(derive_agent_params(_profile("LG-Safety"), cfg), state, actions)
    assert good[0] - good[1] == pytest.approx(cfg.moral_gain)
    evil = action_utilities(derive_agent_params(_profile("LE-Safety"), cfg), state, actions)
    assert evil[0] - evil[1] == pytest.approx(-cfg.moral_gain)
    # both moral axes at Neutral: valence is invisible
    tn = action_utilities(derive_agent_params(_profile("TN-Safety"), cfg), state, actions)
    assert tn[0] == pytest.approx(tn[1])


def test_neutral_axes_zero_weights():
    cfg = SimConfig()
    params = derive_agent_params(_profile("TN-Wealth"), cfg)
    assert params.w_moral == 0.0
    assert params.w_order == 0.0
    lawful_good = derive_agent_params(_profile("LG-Wealth"), cfg)
    assert lawful_good.w_moral == cfg.moral_gain
    assert lawful_good.w_order == cfg.order_gain


def test_consistency_bonus_applies_to_repeat_category():
    cfg = SimConfig(noise_scale=0.0)
    state = GameState(
        position=(0, 0),
        visited={(0, 0)},
        prev_category=ActionCategory.CAUTIOUS,
        rng=np.random.Generator(np.random.PCG64(0)),
        consistency_bonus=cfg.consistency_bonus,
    )
    params = derive_agent_params(_profile("LG-Safety"), cfg)
    actions = [_plain_action(0.0)]
    with_bonus = action_utilities(params, state, actions)[0]
    state.prev_category = ActionCategory.COMBAT
    without = action_utilities(params, state, actions)[0]
    assert with_bonus - without == pytest.approx(cfg.order_gain * cfg.consistency_bonus)


def test_max_steps_one():
    cfg = SimConfig(max_steps=1)
    session = play_game(_profile("LG-Safety"), seed=7, config=cfg)
    assert session.length == 1
    assert session.outcome in (Outcome.STEP_LIMIT, Outcome.EXIT_REACHED, Outcome.DIED)


def test_outcomes_trace_back_to_actions():
    cfg = SimConfig()
    seen = set()
    for seed in range(40):
        session = play_game(_profile("CN-Speed"), seed=seed, config=cfg)
        seen.add(session.outcome)
        last = session.decisions[-1]
        chosen = last.available[last.chosen]
        if session.outcome is Outcome.EXIT_REACHED:
            assert chosen.kind == "enter_portal"
        elif session.outcome is Outcome.DIED:
            assert chosen.kind in ("fight_monster", "taunt_monster")
        else:
            assert session.length == cfg.max_steps
    assert Outcome.EXIT_REACHED in seen


def test_build_dungeon_layout():
    cfg = SimConfig()
    d1 = build_dungeon(99, cfg)
    d2 = build_dungeon(99, cfg)
    assert d1.rooms.keys() == d2.rooms.keys()
    assert d1.exit == d2.exit
    assert len(d1.rooms) == 36
    assert d1.start == (0, 0)
    ex, ey = d1.exit
    assert ex + ey >= (cfg.width + cfg.height) // 2
    for room in d1.rooms.values():
        assert room.entities[Entity.EXIT_PORTAL.value] == (room.coords == d1.exit)
        assert room.description_seed == d2.rooms[room.coords].description_seed


def test_entity_actions_require_entity():
    cfg = SimConfig()
    for seed in range(5):
        session = play_game(_profile("NE-Wealth"), seed=seed, config=cfg)
        dungeon = build_dungeon(session.seed, cfg)
        for d in session.decisions:
            entities = {e for e in Entity if dungeon.rooms[d.room].entities[e.value]}
            for a in d.available:
                if a.kind in ("fight_monster", "taunt_monster"):
                    assert Entity.MONSTER in entities
                elif a.kind in ("help_merchant", "rob_merchant", "trade_merchant"):
                    assert Entity.MERCHANT in entities
                elif a.kind in ("help_villager", "threaten_villager", "chat_villager"):
                    assert Entity.VILLAGER in entities
                elif a.kind == "take_treasure":
                    assert Entity.TREASURE in entities
                elif a.kind == "enter_portal":
                    assert Entity.EXIT_PORTAL in entities


def test_moves_stay_on_grid():
    cfg = SimConfig()
    for seed in range(5):
        session = play_game(_profile("CN-Wanderlust"), seed=seed, config=cfg)
        pos = (0, 0)
        for d in session.decisions:
            assert d.room == pos
            chosen = d.available[d.chosen]
            if chosen.move_delta is not None:
                pos = (pos[0] + chosen.move_delta[0], pos[1] + chosen.move_delta[1])
            assert 0 <= pos[0] < cfg.width and 0 <= pos[1] < cfg.height


def test_session_json_roundtrip():
    for code, seed in (("LN-Speed", 5), ("CE-Wealth", 1), ("TN-Wanderlust", 2), ("LG-Safety", 3)):
        session = play_game(_profile(code), seed=seed, config=SimConfig())
        assert session_from_json(json.loads(json.dumps(session_to_json(session)))) == session


def test_texts_match_pinned_digest():
    # sha256 over every decision's texts, computed when each offered option
    # still rendered its own text; rendering only the chosen one must agree.
    h = hashlib.sha256()
    n = 0
    for profile in PROFILES[::7]:
        for seed in range(4):
            for d in play_game(profile, seed, SimConfig()).decisions:
                h.update(f"{d.room_text}\n{d.action_text}\n".encode())
                n += 1
    assert n == 795
    assert h.hexdigest() == "875a0591d85a9513fbc86ba70f42b136d129f28b371338311f72c5f42caf4fd9"


# --- each game's text against the per-sentence path it replaced -------------

_ENTITY_TEMPLATES = ("room_monster", "room_merchant", "room_villager", "room_treasure", "room_exit")
_FILLER_KINDS = ("rest", "scout", "search_room", "smash")
# entity actions a room offers before the menu is cut at six, in Entity order
_ENTITY_ACTION_COUNTS = (2, 2, 2, 1)


def _oracle_room_text(room, step):
    """The room's base sentence, then one per entity present, in Entity
    order; sentence k is seeded by mix_seed(room.description_seed, step, k)."""
    parts = [textgen_oracles._oracle_render(TEMPLATES, "room_base", _oracle_mix(room.description_seed, step, 0))]
    for k, (present, template_id) in enumerate(zip(room.entities, _ENTITY_TEMPLATES), start=1):
        if present:
            seed = _oracle_mix(room.description_seed, step, k)
            parts.append(textgen_oracles._oracle_render(TEMPLATES, template_id, seed))
    return " ".join(parts)


def _oracle_action_text(action, game_seed_, step, slot):
    """The sentence of the action offered in menu `slot`, seeded by
    mix_seed(game_seed, "text", step, slot); a move pins its direction."""
    seed = _oracle_mix(game_seed_, "text", step, slot)
    if action.move_delta is None:
        return textgen_oracles._oracle_render(TEMPLATES, action.kind, seed)
    return textgen_oracles._oracle_render(TEMPLATES, "move", seed, {"direction": action.kind[5:]})


def _text_slot(decision, room):
    """The chosen option's text slot, numbered as the menu numbers them:
    moves 0 and 1, the portal 2, the room's entity actions from 3, and the
    fillers after every entity action the room has, offered or cut."""
    kinds = [a.kind for a in decision.available]
    kind = kinds[decision.chosen]
    if kind.startswith("move_"):
        return decision.chosen
    if kind == "enter_portal":
        return 2
    n_fixed = sum(k.startswith("move_") or k == "enter_portal" for k in kinds)
    if kind not in _FILLER_KINDS:
        return 3 + decision.chosen - n_fixed
    n_entity = sum(n for n, present in zip(_ENTITY_ACTION_COUNTS, room.entities) if present)
    first_filler = next(i for i, k in enumerate(kinds) if k in _FILLER_KINDS)
    return 3 + n_entity + decision.chosen - first_filler


@pytest.mark.parametrize(
    "config",
    [
        SimConfig(),
        SimConfig(width=9, height=2, monster_rate=1.0, merchant_rate=1.0, villager_rate=1.0, treasure_rate=1.0),
        SimConfig(width=3, height=2, monster_rate=0.0, merchant_rate=0.0, villager_rate=0.0, treasure_rate=0.0),
    ],
    ids=["default", "every_entity", "no_entity"],
)
def test_every_decision_text_matches_the_per_sentence_path(config):
    n = 0
    for session in generate_sessions(23, 1, config):
        dungeon = build_dungeon(session.seed, config)
        for d in session.decisions:
            room = dungeon.rooms[d.room]
            assert d.room_text == _oracle_room_text(room, d.step)
            slot = _text_slot(d, room)
            assert d.action_text == _oracle_action_text(d.available[d.chosen], session.seed, d.step, slot)
            n += 1
    assert n > 36


def test_unknown_option_kind_names_the_line(tmp_path):
    lines = [session_to_json(s) for s in generate_sessions(3, 1, SimConfig(max_steps=5))][:2]
    lines[1]["decisions"][0]["available"][0] = {"kind": "juggle"}
    path = tmp_path / "sessions.jsonl"
    path.write_text("".join(json.dumps(doc) + "\n" for doc in lines), encoding="utf-8")
    with pytest.raises(SchemaMismatch, match="sessions.jsonl line 2"):
        list(load_sessions(path))


# Decision fields a sessions file must not hold: the field each case
# replaces in the first decision, the option position it replaces (menus
# list their moves first) and the new value. Every option case but
# "move_extra_key" loaded before options were decoded through one table;
# every step, room and chosen case loaded before decisions were checked.
_MALFORMED_DECISIONS = {
    "move_string_flag": ("available", 0, {"kind": "move_north", "target_unvisited": "yes", "toward_exit": 0}),
    "move_int_flags": ("available", 0, {"kind": "move_north", "target_unvisited": 1, "toward_exit": 0}),
    "move_null_flag": ("available", 0, {"kind": "move_north", "target_unvisited": None, "toward_exit": False}),
    "move_no_flags": ("available", 0, {"kind": "move_north"}),
    "move_one_flag": ("available", 0, {"kind": "move_north", "target_unvisited": True}),
    "move_extra_key": (
        "available", 0, {"kind": "move_north", "target_unvisited": True, "toward_exit": False, "x": 1}
    ),
    "rest_one_flag": ("available", -1, {"kind": "rest", "toward_exit": True}),
    "rest_both_flags": ("available", -1, {"kind": "rest", "target_unvisited": False, "toward_exit": False}),
    "chosen_past_the_menu": ("chosen", None, 99),
    "chosen_negative": ("chosen", None, -1),
    "chosen_true": ("chosen", None, True),
    "chosen_float": ("chosen", None, 0.0),
    "step_not_its_position": ("step", None, 1),
    "step_string": ("step", None, "0"),
    "room_three_coords": ("room", None, [0, 0, 0]),
    "room_float_coord": ("room", None, [0.0, 0]),
    "room_bool_coord": ("room", None, [False, 0]),
    "room_not_a_list": ("room", None, "00"),
    # each text loaded before texts were checked; featurize then crashed
    # on the int and the null
    "room_text_int": ("room_text", None, 5),
    "action_text_int": ("action_text", None, 5),
    "action_text_null": ("action_text", None, None),
    "room_text_list": ("room_text", None, ["You enter a dim cell."]),
}


# Record fields a sessions file must not hold: a feature record stores the
# game id as a u64, and a game's seed is a u64. Each loaded before these
# fields were checked.
_MALFORMED_RECORDS = {
    "game_id_string": ("game_id", "abc"),
    "game_id_negative": ("game_id", -1),
    "game_id_past_u64": ("game_id", 2**64),
    "game_id_true": ("game_id", True),
    "game_id_float": ("game_id", 1.0),
    "seed_string": ("seed", "abc"),
    "seed_negative": ("seed", -1),
    "seed_past_u64": ("seed", 2**64),
    "seed_true": ("seed", True),
    "seed_float": ("seed", 3.0),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_DECISIONS) + sorted(_MALFORMED_RECORDS))
def test_malformed_option_names_the_line(tmp_path, case):
    lines = [session_to_json(s) for s in generate_sessions(3, 1, SimConfig(max_steps=5))][:2]
    if case in _MALFORMED_RECORDS:
        field, value = _MALFORMED_RECORDS[case]
        lines[1][field] = value
    else:
        field, position, value = _MALFORMED_DECISIONS[case]
        decision = lines[1]["decisions"][0]
        if position is None:
            decision[field] = value
        else:
            decision[field][position] = value
    path = tmp_path / "sessions.jsonl"
    path.write_text("".join(json.dumps(doc) + "\n" for doc in lines), encoding="utf-8")
    want = r"sessions.jsonl line 2: .*ValueError: (not an option|decision 0 |game_id |seed )"
    with pytest.raises(SchemaMismatch, match=want):
        list(load_sessions(path))


def test_option_decode_returns_the_shared_instance():
    actions = [offer(k) for k in ("fight_monster", "rest", "enter_portal", "take_treasure")]
    for direction in ("north", "west"):
        actions += [offer(f"move_{direction}", u, t) for u in (False, True) for t in (False, True)]
    for action in actions:
        option = action_to_json(action)
        assert action_from_json(json.loads(json.dumps(option))) is action
        # JSON objects are unordered
        assert action_from_json(dict(reversed(option.items()))) is action


def test_generate_sessions_order_and_ids():
    sessions = list(generate_sessions(3, 2, SimConfig(max_steps=5)))
    assert len(sessions) == 72
    for k, s in enumerate(sessions):
        assert s.profile == PROFILES[k // 2]
        assert s.game_id == s.profile.index * 2 + (k % 2)
        assert s.seed == game_seed(3, s.profile.index, k % 2)


def test_generate_corpus_is_repeatable(tmp_path):
    cfg = SimConfig(max_steps=6)
    p1, m1 = tmp_path / "a.jsonl", tmp_path / "a.json"
    p2, m2 = tmp_path / "b.jsonl", tmp_path / "b.json"
    generate_corpus(17, 2, cfg, p1, m1)
    generate_corpus(17, 2, cfg, p2, m2)
    assert p1.read_bytes() == p2.read_bytes()
    assert m1.read_bytes() == m2.read_bytes()
    manifest = json.loads(m1.read_text())
    assert manifest["format"] == "sessions-jsonl-v2"
    assert sum(manifest["counts"].values()) == 72


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigInvalid):
        read_config(SimConfig, {"width": 6, "bogus": 1})
    with pytest.raises(ConfigInvalid):
        read_config(SimConfig, {"width": "6"})
    with pytest.raises(ConfigInvalid):
        SimConfig(width=0).validate()
    with pytest.raises(ConfigInvalid):
        SimConfig(width=1, height=1).validate()  # no distance to normalise by
    SimConfig(width=1, height=2).validate()
    with pytest.raises(ConfigInvalid):
        SimConfig(temperature=0.0).validate()
    with pytest.raises(ConfigInvalid):
        SimConfig(fight_death_chance=1.5).validate()
    roundtrip = read_config(SimConfig, asdict(SimConfig()))
    assert roundtrip == SimConfig()


def _corpus_stats(games_per_profile=6):
    sessions = list(generate_sessions(2026, games_per_profile, SimConfig()))
    by_profile = {}
    for s in sessions:
        by_profile.setdefault(s.profile, []).append(s)
    return by_profile


def _positive_valence_rate(sessions) -> float:
    chosen = [d.available[d.chosen] for s in sessions for d in s.decisions]
    return sum(1 for a in chosen if a.moral_valence > 0) / len(chosen)


def test_moral_axis_orders_positive_valence_rate():
    from profilebench.taxonomy import MoralAxis

    by_profile = _corpus_stats()
    groups = {m: [] for m in MoralAxis}
    for p, sessions in by_profile.items():
        groups[p.alignment.moral_axis].extend(sessions)
    good = _positive_valence_rate(groups[MoralAxis.GOOD])
    neutral = _positive_valence_rate(groups[MoralAxis.NEUTRAL])
    evil = _positive_valence_rate(groups[MoralAxis.EVIL])
    assert good > neutral > evil


def test_speed_reaches_exit_faster():
    by_profile = _corpus_stats()
    lengths = {m: [] for m in Motivation}
    for p, sessions in by_profile.items():
        lengths[p.motivation].extend(s.length for s in sessions)
    mean = {m: float(np.mean(v)) for m, v in lengths.items()}
    assert mean[Motivation.SPEED] < mean[Motivation.WANDERLUST]
    assert mean[Motivation.SPEED] < mean[Motivation.SAFETY]


def test_lawful_repeats_categories_more():
    from profilebench.taxonomy import LawAxis

    by_profile = _corpus_stats()
    groups = {law: [] for law in LawAxis}
    for p, sessions in by_profile.items():
        groups[p.alignment.law_axis].extend(sessions)

    def repeat_rate(sessions):
        reps = total = 0
        for s in sessions:
            cats = [d.available[d.chosen].category for d in s.decisions]
            reps += sum(1 for a, b in zip(cats, cats[1:]) if a is b)
            total += max(0, len(cats) - 1)
        return reps / total

    assert repeat_rate(groups[LawAxis.LAWFUL]) > repeat_rate(groups[LawAxis.NEUTRAL])
    assert repeat_rate(groups[LawAxis.NEUTRAL]) > repeat_rate(groups[LawAxis.CHAOTIC])
