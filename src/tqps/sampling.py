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


def random_scalar(rng, bound=3):
    """Gaussian-integer scalar with coordinates in [-bound, bound]."""
    return Scalar(rng.randint(-bound, bound), rng.randint(-bound, bound))


def random_nonzero_scalar(rng, bound=3):
    while True:
        s = random_scalar(rng, bound)
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


def random_poset(rng, size, density=0.35):
    """Random poset on `size` labelled points: transitive closure of a DAG
    sampled edgewise below the diagonal of a shuffled order.
    """
    order = list(range(size))
    rng.shuffle(order)
    pairs = set()
    for a in range(size):
        for b in range(a + 1, size):
            if rng.random() < density:
                pairs.add((order[a], order[b]))
    return Poset(list(range(size)), pairs, close=True)


def random_antichain_form(rng, n_generators, max_sets=3):
    """Random join of meets over the given generators: the minimal sets of
    a randomly drawn family of index sets."""
    universe = list(range(n_generators))
    masks = set()
    for _ in range(rng.randint(1, max_sets)):
        k = rng.randint(1, n_generators)
        masks.add(sum(1 << i for i in rng.sample(universe, k)))
    return AntichainForm(n_generators, UpSet(n_generators, masks).minimal_sets())
