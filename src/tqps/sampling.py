"""Seeded random generators for scalars, algebra elements, posets and
antichain families.

Every generator takes an explicit random.Random so callers control
reproducibility; derived_rng in util builds independent streams from a
seed and a label path.
"""

from .circle_hopf import CirclePoly, Scalar
from .toeplitz_core import CompactPart, ToeplitzElement
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


def random_circle_poly(rng, max_degree=5, min_terms=1, max_terms=3):
    poly = CirclePoly.zero()
    for _ in range(rng.randint(min_terms, max_terms)):
        poly = poly + CirclePoly.monomial(
            rng.randint(-max_degree, max_degree), random_nonzero_scalar(rng)
        )
    return poly


def random_compact_part(rng, max_index=4, min_terms=0, max_terms=2):
    out = CompactPart.zero()
    for _ in range(rng.randint(min_terms, max_terms)):
        out = out + CompactPart.unit(
            rng.randint(0, max_index), rng.randint(0, max_index), random_nonzero_scalar(rng)
        )
    return out


def random_toeplitz_element(rng, max_degree=4, max_index=4, max_terms=3):
    return ToeplitzElement(
        random_circle_poly(rng, max_degree, min_terms=0, max_terms=max_terms),
        random_compact_part(rng, max_index, min_terms=0, max_terms=max_terms),
    )


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
