"""Seeded surface-text generation for rooms and actions.

Every template carries synonym slots so the same event is described several
different ways across games; classifiers therefore cannot key on one fixed
string per action. Rendering is a pure function of (template_id, seed).

The variant and slot choices come from a SplitMix64 chain started at
`mix_seed(seed, "tmpl", template_id)`, not from a numpy Generator. A corpus
renders one sentence per room and per offered action, and building a fresh
`Generator(PCG64(seed))` for each runs numpy's `SeedSequence` every time:
about 11 of the ~15 us it takes, which made it the largest cost of
generating a corpus.
"""

from __future__ import annotations

import functools
import re

from profilebench.errors import UnknownTemplate
from profilebench.hashing import mix_seed, splitmix64

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


@functools.cache
def _pieces(variant: str) -> tuple[str, ...]:
    """A variant split once into literal text at even and slot names at odd positions."""
    return tuple(_SLOT.split(variant))


def render_text(
    bank: dict[str, list[str]],
    template_id: str,
    seed: int,
    overrides: dict[str, str] | None = None,
) -> str:
    """Render one template deterministically from a seed.

    Draw 0 of the SplitMix64 chain picks the variant; each slot without an
    override then takes the next draw, in template order. A draw x maps to
    index (x * n) >> 64 of an n-entry list. `overrides` pins specific slots
    (e.g. the actual movement direction) instead of drawing them from the
    synonym pools.
    """
    if template_id not in bank:
        raise UnknownTemplate(f"no template {template_id!r}")
    variants = bank[template_id]
    x = splitmix64(mix_seed(seed, "tmpl", template_id))
    pieces = _pieces(variants[(x * len(variants)) >> 64])
    out = [pieces[0]]
    for i in range(1, len(pieces), 2):
        slot = pieces[i]
        if overrides and slot in overrides:
            out.append(overrides[slot])
        else:
            pool = SLOT_POOLS[slot]
            x = splitmix64(x)
            out.append(pool[(x * len(pool)) >> 64])
        out.append(pieces[i + 1])
    return "".join(out)
