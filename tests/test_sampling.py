"""The seeded samplers: their draws against randint, and their count checks."""

import random

import pytest

from oracles import randint_nonzero_scalar, randint_tensor_element
from tqps.sampling import (
    random_antichain_form,
    random_nonzero_scalar,
    random_poset,
)
from tqps.tensor_gluing import random_tensor_element


def _configs():
    """(n_slots, circle_slot, compact_slots, (min_terms, max_terms)): every
    shape up to five slots, with no forced matrix unit, one, and one in
    every Toeplitz slot; a term count width of 1 still consumes bits, and
    8 is a power of two."""
    for n in range(1, 6):
        for c in [None, *range(1, n + 1)]:
            toeplitz = tuple(p for p in range(1, n + 1) if p != c)
            for compact in sorted({(), toeplitz[:1], toeplitz}):
                for terms in [(1, 3), (5, 6), (2, 2), (1, 8)]:
                    yield n, c, compact, terms


_CONFIGS = list(_configs())


def test_tensor_draws_are_the_randint_draws():
    # 6000 calls cycle through the 220 configurations, 27 or 28 calls each
    for seed in range(2000):
        rng, ref = random.Random(seed), random.Random(seed)
        for t in range(3):
            n, c, compact, (low, high) = _CONFIGS[(3 * seed + t) % len(_CONFIGS)]
            x = random_tensor_element(rng, n, c, low, high, compact)
            assert x == randint_tensor_element(ref, n, c, low, high, compact)
            assert rng.getstate() == ref.getstate()


def test_scalar_draws_are_the_randint_draws():
    for seed in range(2000):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            s = random_nonzero_scalar(rng)
            assert s == randint_nonzero_scalar(ref)
            assert type(s.re) is int and type(s.im) is int
            assert rng.getstate() == ref.getstate()


_NOT_COUNTS = (True, 1.5, "2")


@pytest.mark.parametrize(
    "sampler, kwargs",
    [
        *((random_tensor_element, {"min_terms": v}) for v in (*_NOT_COUNTS, -1)),
        *((random_tensor_element, {"max_terms": v}) for v in (*_NOT_COUNTS, -1)),
        (random_tensor_element, {"min_terms": -2, "max_terms": 0}),
        (random_tensor_element, {"min_terms": 3, "max_terms": 2}),
        (random_tensor_element, {"min_terms": 4}),
        *((random_poset, {"size": v}) for v in (*_NOT_COUNTS, -1)),
        *((random_antichain_form, {"n_generators": v}) for v in (*_NOT_COUNTS, 0)),
    ],
    ids=lambda p: p.__name__ if callable(p) else repr(p),
)
def test_samplers_refuse_bad_counts_before_the_first_draw(sampler, kwargs):
    rng = random.Random(7)
    if sampler is random_tensor_element:
        kwargs = {"n_slots": 2, **kwargs}
    state = rng.getstate()
    with pytest.raises(ValueError, match="must be"):
        sampler(rng, **kwargs)
    assert rng.getstate() == state


def test_empty_counts_are_drawn():
    rng = random.Random(7)
    assert random_tensor_element(rng, 2, min_terms=0, max_terms=0).is_zero()
    assert random_poset(rng, 0).labels == []
