"""Shared runtime helpers: the default seed, canonical JSON, derived RNGs,
and the one reader of integer arguments and of chart collections."""

import json
import random
from numbers import Integral

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


def _index(v, what, low=None, high=None):
    """v as an int, at least low if given and, with low, at most high if
    given; anything else, a bool included, raises ValueError: "<what> must
    be an integer, got v", "... must be at least L, got v" or "... must be
    between L and H, got v"."""
    if type(v) is not int:
        if isinstance(v, bool) or not isinstance(v, Integral):
            raise ValueError("%s must be an integer, got %r" % (what, v))
        v = int(v)
    if low is not None and (v < low or high is not None and v > high):
        bound = "at least %d" % low if high is None else "between %d and %d" % (low, high)
        raise ValueError("%s must be %s, got %d" % (what, bound, v))
    return v


def _charts(n, charts, what="charts"):
    """The collection `charts` as a tuple of distinct chart indices, each
    read by _index in 0..n; raises ValueError, "<what> must be a collection
    of chart indices, got v" when tuple() cannot read it."""
    try:
        charts = tuple(charts)
    except TypeError:
        message = "%s must be a collection of chart indices, got %r" % (what, charts)
        raise ValueError(message) from None
    out = tuple(_index(c, "chart index", 0, n) for c in charts)
    if len(set(out)) != len(out):
        raise ValueError("chart indices must be distinct, got %r" % (out,))
    return out
