"""Template rendering and seed mixing.

`render_text` is checked for coverage and uniformity of its draws, for
determinism and for a few pinned outputs, so that any change to the draw
stream is deliberate. `mix_seed` and `fold_seed` are checked against a
test-local FNV-1a + SplitMix64 oracle that shares no code (and no cache)
with the package. The batch renderer is checked string for string against
the per-sentence renderer it replaced, run on that oracle, and its array
round and exact pick against the scalar `splitmix64`, `fold_seed` and
(x * n) >> 64.
"""

import math
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from profilebench.errors import UnknownTemplate
from profilebench.hashing import fnv1a64, fold_seed, fold_seed_array, mix_seed, splitmix64, splitmix64_array
from profilebench.textgen import SLOT_POOLS, TEMPLATES, pick_index, render_text, render_texts

N_SEEDS = 4000
# A frequency passes when it is within this many binomial standard
# deviations of uniform: |c/N - 1/n| <= 5 * sqrt((1/n)(1 - 1/n)/N).
SIGMAS = 5.0

# Overriding every slot with its own "{slot}" text leaves the variant as it
# is written in the bank, which identifies the variant draw exactly.
_IDENTITY = {slot: "{" + slot + "}" for slot in SLOT_POOLS}


def _assert_uniform(counts: list[int], total: int) -> None:
    n = len(counts)
    p = 1.0 / n
    bound = SIGMAS * math.sqrt(p * (1.0 - p) / total)
    assert min(counts) > 0, counts
    for c in counts:
        assert abs(c / total - p) <= bound, (counts, bound)


@pytest.mark.parametrize("template_id", sorted(TEMPLATES))
def test_every_variant_reached_near_uniformly(template_id):
    variants = TEMPLATES[template_id]
    counts = [0] * len(variants)
    for seed in range(N_SEEDS):
        counts[variants.index(render_text(TEMPLATES, template_id, seed, _IDENTITY))] += 1
    _assert_uniform(counts, N_SEEDS)


@pytest.mark.parametrize("slot", sorted(SLOT_POOLS))
def test_every_pool_entry_reached_near_uniformly(slot):
    # A one-variant template made of the slot alone renders the pool entry.
    bank = {"only": ["{" + slot + "}"]}
    pool = SLOT_POOLS[slot]
    counts = [0] * len(pool)
    for seed in range(N_SEEDS):
        counts[pool.index(render_text(bank, "only", seed))] += 1
    _assert_uniform(counts, N_SEEDS)


def test_no_braces_survive():
    for template_id in TEMPLATES:
        for seed in range(200):
            text = render_text(TEMPLATES, template_id, seed)
            assert "{" not in text and "}" not in text, text


def test_override_pins_its_slot():
    for seed in range(300):
        text = render_text(TEMPLATES, "move", seed, {"direction": "north"})
        assert " north" in text and "onward" not in text, text


def test_override_takes_no_draw():
    # With {smash_verb} pinned, "smash" spends its first slot draw on
    # {furniture}, as a "smash" template holding only {furniture} does.
    furniture_only = {"smash": ["{furniture}"]}
    for seed in range(100):
        pinned = render_text(TEMPLATES, "smash", seed, {"smash_verb": "VERB"})
        furniture = render_text(furniture_only, "smash", seed)
        expected = [v.format(smash_verb="VERB", furniture=furniture) for v in TEMPLATES["smash"]]
        assert pinned in expected


def test_unknown_template_raises():
    with pytest.raises(UnknownTemplate):
        render_text(TEMPLATES, "no_such_template", 1)


def test_unknown_slot_raises_key_error():
    with pytest.raises(KeyError):
        render_text({"t": ["a {no_such_slot} b"]}, "t", 1)


def test_same_template_and_seed_give_same_text():
    for template_id in TEMPLATES:
        first = [render_text(TEMPLATES, template_id, seed) for seed in range(20)]
        render_text(TEMPLATES, "room_base", 99)  # no state carries between calls
        assert first == [render_text(TEMPLATES, template_id, seed) for seed in range(20)]


@pytest.mark.parametrize(
    "template_id, seed, overrides, text",
    [
        ("room_base", 0, None, "You step into a ruined chamber."),
        ("chat_villager", 12345, None, "The lost villager shares strange noises while you talk."),
        ("move", 7, {"direction": "east"}, "You move east through the narrow tunnel."),
        ("trade_merchant", 2**63 + 5, None, "You haggle with the merchant over trinkets."),
        ("help_merchant", 987654321, None, "You help the merchant repack the scattered wares."),
    ],
)
def test_golden_renders(template_id, seed, overrides, text):
    assert render_text(TEMPLATES, template_id, seed, overrides) == text


# --- mix_seed against an uncached oracle -------------------------------------

_M64 = (1 << 64) - 1


def _oracle_fnv(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & _M64
    return h


def _oracle_splitmix(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _oracle_mix(*parts) -> int:
    h = 0xCBF29CE484222325
    for part in parts:
        h ^= _oracle_fnv(part.encode("utf-8")) if isinstance(part, str) else part & _M64
        h = _oracle_splitmix(h)
    return h


@pytest.mark.parametrize(
    "parts, expected",
    [
        ((0,), 0xC3817C016BA4FF30),
        ((11,), 0xC440647D8D4BB8A1),
        (("tmpl",), 0x92778FC1C20BA9E1),
        (("été",), 0xA34B4BC3CA1E67D5),
        (("dungeon-ü", 3), 0xABE50AF940844D0B),
        ((11, "tmpl", "move"), 0x33E8FE8970CBD02C),
        ((-1, "x"), 0x23C972AF48175067),
        ((2**70, "room", 3, 4), 0x4CB6DCB3DB73FBEF),
    ],
)
def test_mix_seed_pinned_values(parts, expected):
    assert _oracle_mix(*parts) == expected
    # The second call reads the string-hash cache the first one filled.
    assert mix_seed(*parts) == expected
    assert mix_seed(*parts) == expected


# negative ints, ints wider than 64 bits, and strings (non-ASCII included)
_PARTS = st.lists(st.one_of(st.integers(-(2**80), 2**80), st.text(max_size=6)), max_size=4)


@settings(max_examples=300, deadline=None)
@given(_PARTS, _PARTS)
def test_fold_seed_continues_mix_seed(a, b):
    want = _oracle_mix(*a, *b)
    assert mix_seed(*a, *b) == want
    assert fold_seed(mix_seed(*a), *b) == want


# --- the batch renderer against the per-sentence oracle ----------------------

_SLOT_RE = re.compile(r"\{([^}]*)\}")


def _oracle_render(bank, template_id, seed, overrides=None):
    """The per-sentence renderer the batch replaced, on the oracle chain:
    draw 0 picks the variant, each slot without an override takes the next
    draw, and a draw x picks index (x * n) >> 64 of an n-entry list."""
    variants = bank[template_id]
    x = _oracle_splitmix(_oracle_mix(seed, "tmpl", template_id))
    pieces = _SLOT_RE.split(variants[(x * len(variants)) >> 64])
    out = [pieces[0]]
    for i in range(1, len(pieces), 2):
        slot = pieces[i]
        if overrides and slot in overrides:
            out.append(overrides[slot])
        else:
            pool = SLOT_POOLS[slot]
            x = _oracle_splitmix(x)
            out.append(pool[(x * len(pool)) >> 64])
        out.append(pieces[i + 1])
    return "".join(out)


# small seeds, seeds past 2**63 and seeds just under 2**64
_ORACLE_SEEDS = [*range(150), *(2**63 + k * 7919 for k in range(50)), *(2**64 - 1 - k for k in range(50))]


def _override_sets(template_id):
    """No override, each slot of the template pinned alone, and every slot pinned."""
    slots = sorted({s for v in TEMPLATES[template_id] for s in _SLOT_RE.findall(v)})
    return [None, *({s: f"<{s}>"} for s in slots), {s: s.upper() for s in slots}]


@pytest.mark.parametrize("template_id", sorted(TEMPLATES))
def test_batch_matches_the_per_slot_oracle(template_id):
    for overrides in _override_sets(template_id):
        want = [_oracle_render(TEMPLATES, template_id, seed, overrides) for seed in _ORACLE_SEEDS]
        seeds = np.array(_ORACLE_SEEDS, dtype=np.uint64)
        pinned = None if overrides is None else tuple(overrides.items())
        got = render_texts(TEMPLATES, [template_id] * len(seeds), seeds, [pinned] * len(seeds))
        assert got == want
        assert [render_text(TEMPLATES, template_id, s, overrides) for s in _ORACLE_SEEDS[::10]] == want[::10]


def test_mixed_batch_matches_the_oracle_sentence_for_sentence():
    # every template and override set in one shuffled batch: a sentence does
    # not depend on the others in its batch
    rng = random.Random(19)
    cases = [
        (template_id, rng.randrange(2**64), overrides)
        for template_id in sorted(TEMPLATES)
        for overrides in _override_sets(template_id)
        for _ in range(5)
    ]
    rng.shuffle(cases)
    got = render_texts(
        TEMPLATES,
        [t for t, _, _ in cases],
        np.array([s for _, s, _ in cases], dtype=np.uint64),
        [None if o is None else tuple(o.items()) for _, _, o in cases],
    )
    assert got == [_oracle_render(TEMPLATES, t, s, o) for t, s, o in cases]
    assert render_texts(TEMPLATES, [], np.array([], dtype=np.uint64)) == []


_U64 = st.one_of(
    st.integers(0, 2**64 - 1),
    st.integers(2**63, 2**64 - 1),
    st.integers(2**64 - 2**20, 2**64 - 1),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_U64, st.integers(1, 8)), min_size=1, max_size=16), _U64, st.text(max_size=4))
@example([(2**64 - 1, 8), (2**63, 1), (0, 8), (2**63 - 1, 7)], 2**64 - 1, "tmpl")
def test_array_round_and_pick_match_the_scalar_path(pairs, part, tag):
    xs = [x for x, _ in pairs]
    ns = [n for _, n in pairs]
    x = np.array(xs, dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rounds = splitmix64_array(x)
        folded = fold_seed_array(x, np.uint64(part), np.uint64(fnv1a64(tag.encode("utf-8"))), x)
        picks = pick_index(x, np.array(ns, dtype=np.uint64))
    assert rounds.dtype == folded.dtype == picks.dtype == np.uint64
    assert rounds.tolist() == [splitmix64(v) for v in xs]
    assert folded.tolist() == [fold_seed(v, part, tag, v) for v in xs]
    assert picks.tolist() == [(v * n) >> 64 for v, n in zip(xs, ns)]


def test_pick_at_every_boundary_between_indices():
    # x = ceil(j * 2**64 / n) is the first draw that picks j: there the low
    # half's carry decides the index, which random draws almost never reach
    xs, ns, want = [], [], []
    for n in range(1, 9):
        for j in range(1, n):
            first = -(-(j << 64) // n)
            xs += [first - 1, first]
            ns += [n, n]
            want += [j - 1, j]
    assert [(x * n) >> 64 for x, n in zip(xs, ns)] == want
    got = pick_index(np.array(xs, dtype=np.uint64), np.array(ns, dtype=np.uint64))
    assert got.tolist() == want
