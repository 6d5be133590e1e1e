"""Shared runtime helpers: the default seed, canonical JSON, derived RNGs."""

import json
import random

DEFAULT_SEED = 0x5EED


def canonical_json(obj):
    """Serialize deterministically: sorted keys, fixed separators, ASCII only."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def derived_rng(seed, *path):
    """A Random stream derived stably from a base seed and a path of labels.

    String seeding is stable across runs and platforms, so reports built from
    derived streams are byte-identical for identical configurations.
    """
    key = str(seed) + "".join("/" + str(p) for p in path)
    return random.Random(key)
