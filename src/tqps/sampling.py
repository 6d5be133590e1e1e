"""Seeded random generators for scalars, algebra elements, posets and
antichain families.

Every generator takes an explicit random.Random so callers control
reproducibility; derived_rng in util builds independent streams from a
seed and a label path.
"""

from .circle_hopf import _scalar, collect
from .toeplitz_core import ToeplitzElement
from .order_lattice import AntichainForm, Poset, UpSet
from .util import DEFAULT_SEED, _index  # noqa: F401  (DEFAULT_SEED re-exported for callers)

_SCALAR_BOUND = 3
_POSET_DENSITY = 0.35
_MAX_SETS = 3


def random_nonzero_scalar(rng):
    """Nonzero Gaussian-integer scalar with coordinates in
    [-_SCALAR_BOUND, _SCALAR_BOUND], redrawn until nonzero.

    Each coordinate is drawn as rng.randint(-_SCALAR_BOUND, _SCALAR_BOUND)
    draws it: getrandbits of the width's bit length, redrawn while at
    least the width.  So the values and the stream consumed are those of
    randint, and seeded reports and their golden hashes stay byte-identical,
    without randint's three frames per coordinate.
    """
    b = _SCALAR_BOUND
    width = 2 * b + 1
    bits = width.bit_length()
    getrandbits = rng.getrandbits
    while True:
        re = getrandbits(bits)
        while re >= width:
            re = getrandbits(bits)
        im = getrandbits(bits)
        while im >= width:
            im = getrandbits(bits)
        if re != b or im != b:
            return _scalar(re - b, im - b)


def random_toeplitz_element(rng, max_degree=4, max_index=4, max_terms=3):
    """Random element: up to max_terms shifts of degree in
    [-max_degree, max_degree], then up to max_terms matrix units with
    indices in [0, max_index], each with a nonzero coefficient.  The
    three counts are read before the first draw."""
    max_degree = _index(max_degree, "max_degree", 0)
    max_index = _index(max_index, "max_index", 0)
    max_terms = _index(max_terms, "max_terms", 0)
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
    diagonal of a shuffled order.  size is read before the first draw.
    """
    size = _index(size, "size", 0)
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
    a randomly drawn family of 1 to _MAX_SETS index sets; n_generators
    is read before the first draw."""
    n_generators = _index(n_generators, "n_generators", 1)
    universe = list(range(n_generators))
    masks = set()
    for _ in range(rng.randint(1, _MAX_SETS)):
        k = rng.randint(1, n_generators)
        masks.add(sum(1 << i for i in rng.sample(universe, k)))
    return AntichainForm(n_generators, UpSet(n_generators, masks).minimal_sets())
