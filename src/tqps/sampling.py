"""Seeded random generators for scalars, algebra elements, posets and
antichain families.

Every generator takes an explicit random.Random so callers control
reproducibility; derived_rng in util builds independent streams from a
seed and a label path.
"""

from .circle_hopf import Scalar, collect
from .toeplitz_core import ToeplitzElement
from .order_lattice import AntichainForm, Poset, UpSet
from .util import DEFAULT_SEED  # noqa: F401  (re-exported for callers)

_SCALAR_BOUND = 3
_POSET_DENSITY = 0.35
_MAX_SETS = 3


def random_nonzero_scalar(rng):
    """Nonzero Gaussian-integer scalar with coordinates in
    [-_SCALAR_BOUND, _SCALAR_BOUND], redrawn until nonzero."""
    b = _SCALAR_BOUND
    while True:
        s = Scalar(rng.randint(-b, b), rng.randint(-b, b))
        if s:
            return s


def random_toeplitz_element(rng, max_degree=4, max_index=4, max_terms=3):
    """Random element: up to max_terms shifts of degree in
    [-max_degree, max_degree], then up to max_terms matrix units with
    indices in [0, max_index], each with a nonzero coefficient."""
    pairs = [
        (("T", rng.randint(-max_degree, max_degree)), random_nonzero_scalar(rng))
        for _ in range(rng.randint(0, max_terms))
    ]
    pairs += [
        (("E", rng.randint(0, max_index), rng.randint(0, max_index)), random_nonzero_scalar(rng))
        for _ in range(rng.randint(0, max_terms))
    ]
    return ToeplitzElement(collect(pairs))


def random_poset(rng, size):
    """Random poset on `size` labelled points: transitive closure of a DAG
    sampled edgewise, each edge with probability _POSET_DENSITY, below the
    diagonal of a shuffled order.
    """
    order = list(range(size))
    rng.shuffle(order)
    pairs = set()
    for a in range(size):
        for b in range(a + 1, size):
            if rng.random() < _POSET_DENSITY:
                pairs.add((order[a], order[b]))
    return Poset(list(range(size)), pairs)


def random_antichain_form(rng, n_generators):
    """Random join of meets over the given generators: the minimal sets of
    a randomly drawn family of 1 to _MAX_SETS index sets."""
    universe = list(range(n_generators))
    masks = set()
    for _ in range(rng.randint(1, _MAX_SETS)):
        k = rng.randint(1, n_generators)
        masks.add(sum(1 << i for i in rng.sample(universe, k)))
    return AntichainForm(n_generators, UpSet(n_generators, masks).minimal_sets())
