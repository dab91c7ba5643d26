"""Seeded surface-text generation for rooms and actions.

Every template carries synonym slots so the same event is described several
different ways across games; classifiers therefore cannot key on one fixed
string per action. Rendering is a pure function of (template_id, seed).

The variant and slot choices come from a SplitMix64 chain started at
`mix_seed(seed, "tmpl", template_id)`, not from a numpy Generator (building
a `Generator(PCG64(seed))` per sentence ran numpy's `SeedSequence` every
time). Draw 0 picks the variant; each slot without an override then takes
the next draw, in template order; a draw x picks index (x * n) >> 64 of an
n-entry list.

`render_texts` runs the chains of a whole batch of sentences (a game's
text) as `np.uint64` array ops: the three `mix_seed` rounds, the variant
draw and as many slot draws as the batch's longest template needs, each
one array round for every sentence at once. Run one sentence at a time,
those 5-7 rounds were Python big-int arithmetic and the largest cost of
generating a corpus. A game's few hundred sentences are only a few dozen
distinct strings, so each is assembled once, from a cache keyed by its
form (template and overrides), variant and picks. `render_text` renders one
sentence through the same path.
"""

from __future__ import annotations

import re

import numpy as np

from profilebench.errors import UnknownTemplate
from profilebench.hashing import FNV64_OFFSET, fnv1a64, fold_seed_array, splitmix64_array
# perfbench patches `textgen.mix_seed` by name; it goes when the benchmark's
# patch table is checked against the program (ROADMAP item 4)
from profilebench.hashing import mix_seed  # noqa: F401

# Each entry: list of alternative phrasings; "{slot}" pulls from SLOT_POOLS.
TEMPLATES: dict[str, list[str]] = {
    "room_base": [
        "You enter a {adj} {room_noun}.",
        "A {adj} {room_noun} opens before you.",
        "You step into a {adj} {room_noun}.",
    ],
    "room_monster": [
        "A {monster} {lurks} in the shadows.",
        "You hear a {monster} {lurks} nearby.",
    ],
    "room_merchant": [
        "A travelling merchant has set out {wares} here.",
        "A merchant beckons, gesturing at {wares}.",
    ],
    "room_villager": [
        "A {villager} huddles by the wall.",
        "You notice a {villager} sheltering here.",
    ],
    "room_treasure": [
        "Something {glints} beneath the rubble.",
        "An unguarded cache {glints} in the corner.",
    ],
    "room_exit": [
        "A {portal_adj} portal hums at the room's center.",
        "The way out: a {portal_adj} portal, crackling softly.",
    ],
    "move": [
        "You {walk} {direction} through the {passage}.",
        "Heading {direction}, you {walk} down the {passage}.",
    ],
    "enter_portal": [
        "You {stride} into the portal and leave the dungeon behind.",
        "Without looking back you {stride} through the shimmering gate.",
    ],
    "fight_monster": [
        "You {attack} the {monster}, driving it from the chamber.",
        "Steel rings out as you {attack} the {monster}.",
    ],
    "taunt_monster": [
        "You {torment} the cornered {monster} for sport.",
        "Laughing, you {torment} the wounded {monster}.",
    ],
    "help_merchant": [
        "You help the merchant {merchant_task}.",
        "You stop to help the merchant {merchant_task}.",
    ],
    "rob_merchant": [
        "You {rob} the merchant and pocket the takings.",
        "At knifepoint you {rob} the terrified merchant.",
    ],
    "trade_merchant": [
        "You {haggle} with the merchant over {wares}.",
        "Coins change hands as you {haggle} for {wares}.",
    ],
    "help_villager": [
        "You {comfort} the {villager} and share your rations.",
        "Kneeling down, you {comfort} the frightened {villager}.",
    ],
    "threaten_villager": [
        "You {menace} the {villager} until they hand over their valuables.",
        "You {menace} the cowering {villager}.",
    ],
    "chat_villager": [
        "You {chat} with the {villager} about the dungeon's {lore}.",
        "The {villager} shares {lore} while you {chat}.",
    ],
    "take_treasure": [
        "You {pry} the {treasure} loose and stow it in your pack.",
        "You {pry} free the {treasure}; it is heavier than it looks.",
    ],
    "rest": [
        "You {rest_verb} in a defensible corner and tend your gear.",
        "You take a moment to {rest_verb} and bind your scrapes.",
    ],
    "scout": [
        "You {scout_verb} the exits before committing to a path.",
        "Carefully, you {scout_verb} the passages ahead.",
    ],
    "search_room": [
        "You {search_verb} the room for hidden caches.",
        "You {search_verb} behind the rubble for anything of value.",
    ],
    "smash": [
        "You {smash_verb} the old {furniture} just to watch it break.",
        "Splinters fly as you {smash_verb} the {furniture}.",
    ],
}

SLOT_POOLS: dict[str, list[str]] = {
    "adj": ["dim", "mossy", "drafty", "vaulted", "torchlit", "ruined"],
    "room_noun": ["chamber", "hall", "gallery", "cell", "antechamber", "vault"],
    "monster": ["ghoul", "dire rat", "skeleton", "cave troll", "giant spider"],
    "lurks": ["lurks", "prowls", "skulks", "paces"],
    "wares": ["bolts of cloth", "a crate of tonics", "trinkets", "salted provisions"],
    "villager": ["lost villager", "weary pilgrim", "injured miner", "young runaway"],
    "glints": ["glints", "gleams", "sparkles", "shines"],
    "portal_adj": ["pale", "silver", "humming", "rune-carved"],
    "walk": ["press", "move", "pick your way", "advance"],
    "direction": ["onward"],  # replaced per action with the real direction
    "passage": ["archway", "corridor", "crumbling doorway", "narrow tunnel"],
    "stride": ["step", "stride", "slip"],
    "attack": ["charge", "strike at", "engage", "cut down"],
    "torment": ["taunt", "torment", "toy with"],
    "merchant_task": [
        "repack the scattered wares",
        "mend a broken cart wheel",
        "fend off a cutpurse",
        "haul crates to safety",
    ],
    "rob": ["rob", "shake down", "strip the purse from"],
    "haggle": ["haggle", "bargain", "trade"],
    "comfort": ["reassure", "comfort", "patch up"],
    "menace": ["threaten", "menace", "intimidate"],
    "chat": ["swap stories", "talk", "trade gossip"],
    "lore": ["old legends", "strange noises", "the missing caravan", "local rumors"],
    "pry": ["pry", "lever", "dig"],
    "treasure": ["coin-filled strongbox", "jeweled idol", "silver reliquary"],
    "rest_verb": ["rest", "catch your breath", "keep a quiet watch"],
    "scout_verb": ["scout", "survey", "study"],
    "search_verb": ["search", "comb", "ransack"],
    "smash_verb": ["smash", "kick apart", "splinter"],
    "furniture": ["crates", "barrels", "shelving", "cot"],
}


_SLOT = re.compile(r"\{([^}]*)\}")

_TMPL = np.uint64(fnv1a64(b"tmpl"))  # the "tmpl" part of every chain
_U32 = np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)


def pick_index(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """(x * n) >> 64 for each uint64 draw x and list size n, exactly.

    x * n needs 128 bits, so it is taken from x's 32-bit halves: with
    n < 2**32 neither partial product, nor their sum, passes 2**64, and
    floor((hi * n * 2**32 + lo * n) / 2**64) equals
    (hi * n + (lo * n >> 32)) >> 32.
    """
    return ((x >> _U32) * n + ((x & _LOW32) * n >> _U32)) >> _U32


# A form's overrides: the (slot, text) pairs it pins, or None.
_Pinned = tuple[tuple[str, str], ...] | None


class _Forms:
    """Every form rendered so far (a template with one set of overrides),
    numbered in order of first use, with its draw tables as arrays indexed
    by form: the template id's fnv1a64, the variant count, each variant's
    pool size per slot draw (1 past its last slot) and the draws it needs
    at most. It also caches each sentence assembled, by form, variant and
    picks. Both depend only on the templates' text, never on call order."""

    def __init__(self) -> None:
        self.index: dict[tuple, int] = {}
        # per form, per variant: its literal text around the drawn slots
        # (overrides already written in) and the pool of each drawn slot
        self.parts: list[list[tuple[tuple[str, ...], tuple[list[str], ...]]]] = []
        self.sentences: dict[tuple[int, ...], str] = {}

    def form(self, bank: dict[str, list[str]], template_id: str, pinned: _Pinned) -> int:
        if template_id not in bank:
            raise UnknownTemplate(f"no template {template_id!r}")
        variants = tuple(bank[template_id])
        key = (template_id, variants, pinned or ())
        f = self.index.get(key)
        if f is None:
            self.parts.append([_split(variant, dict(pinned or ())) for variant in variants])
            f = self.index[key] = len(self.index)
            self._tabulate()
        return f

    def _tabulate(self) -> None:
        parts = self.parts
        ids = [template_id for template_id, _, _ in self.index]
        self.template_hash = np.array([fnv1a64(t.encode("utf-8")) for t in ids], dtype=np.uint64)
        self.n_variants = np.array([len(p) for p in parts], dtype=np.uint64)
        self.n_draws = np.array([max(len(pools) for _, pools in p) for p in parts])
        shape = (len(parts), max(map(len, parts)), int(self.n_draws.max()))
        self.pool_size = np.ones(shape, dtype=np.uint64)
        for f, variants in enumerate(parts):
            for v, (_, pools) in enumerate(variants):
                self.pool_size[f, v, : len(pools)] = [len(pool) for pool in pools]

    def assemble(self, key: tuple[int, ...]) -> str:
        """The sentence of (form, variant, pick of each slot draw...), cached;
        picks past the variant's last slot are 0 and unused."""
        literals, pools = self.parts[key[0]][key[1]]
        out = [literals[0]]
        for pool, pick, literal in zip(pools, key[2:], literals[1:]):
            out += (pool[pick], literal)
        text = self.sentences[key] = "".join(out)
        return text


def _split(variant: str, overrides: dict[str, str]) -> tuple[tuple[str, ...], tuple[list[str], ...]]:
    """A variant as the literal text around its drawn slots and each drawn
    slot's pool; an overridden slot is literal text and takes no draw. A
    slot with no pool raises KeyError."""
    pieces = _SLOT.split(variant)  # literal text at even, slot names at odd positions
    literals, pools = [pieces[0]], []
    for i in range(1, len(pieces), 2):
        slot = pieces[i]
        if slot in overrides:
            literals[-1] += overrides[slot] + pieces[i + 1]
        else:
            pools.append(SLOT_POOLS[slot])
            literals.append(pieces[i + 1])
    return tuple(literals), tuple(pools)


_FORMS = _Forms()


def render_texts(
    bank: dict[str, list[str]],
    template_ids: list[str],
    seeds: np.ndarray,
    overrides: list[_Pinned] | None = None,
) -> list[str]:
    """Sentence i rendered from template `template_ids[i]` with seed
    `seeds[i]` (a 1-D uint64 array), pinning the (slot, text) pairs of
    `overrides[i]` if given (e.g. the actual movement direction) instead of
    drawing those slots from the synonym pools.

    Each sentence's chain is the one the module docstring describes; the
    batch runs them side by side as array rounds, so a sentence does not
    depend on which others share its batch.
    """
    if not template_ids:
        return []
    forms = _FORMS
    keys = list(zip(template_ids, overrides or [None] * len(template_ids)))
    batch_forms = {key: forms.form(bank, *key) for key in dict.fromkeys(keys)}
    f_list = [batch_forms[key] for key in keys]
    f = np.array(f_list, dtype=np.intp)
    # mix_seed(seed, "tmpl", template_id), then draw 0
    x = fold_seed_array(np.full(len(f), FNV64_OFFSET, dtype=np.uint64), seeds, _TMPL, forms.template_hash[f])
    x = splitmix64_array(x)
    v = pick_index(x, forms.n_variants[f]).astype(np.intp)
    picks = []
    for k in range(int(forms.n_draws[f].max())):
        x = splitmix64_array(x)
        picks.append(pick_index(x, forms.pool_size[f, v, k]).tolist())
    sentences = forms.sentences
    return [sentences.get(key) or forms.assemble(key) for key in zip(f_list, v.tolist(), *picks)]


def render_text(
    bank: dict[str, list[str]],
    template_id: str,
    seed: int,
    overrides: dict[str, str] | None = None,
) -> str:
    """Render one template deterministically from a seed (its low 64 bits):
    `render_texts` for one sentence. `overrides` maps slot names to the
    text they are pinned to."""
    pinned = tuple(overrides.items()) if overrides else None
    return render_texts(bank, [template_id], np.array([seed % 2**64], dtype=np.uint64), [pinned])[0]
