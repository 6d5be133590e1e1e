"""Independent reference implementations the tests check the library against.

Each oracle recomputes a quantity through a different representation than
the library uses: operator products and adjoints through truncated
matrices read straight off the shift and matrix-unit coefficients of a
one-slot tensor, gluings through atom degrees read off those matrices and
circle exponents added and reflected as plain ints, tensor products one
slot at a time through atom_product, order-theoretic counts through
exhaustive filters, chart gluings through three relocations instead of
one and with their slots worked out by hand, free-lattice join and meet
through frozensets of index sets instead of up-set bitmasks, the Birkhoff
lattice check through every pair of both tables and an onto pass instead
of one triangle and symmetry, freeness of a set family through the size
of its closure instead of point types, and seeded samples through
random.Random.randint instead of getrandbits.  Keeping these routes
separate from the library is the point; do not fold them into src.
"""

from operator import and_, or_

from tqps.circle_hopf import Scalar, ZERO, collect
from tqps.order_lattice import LatticeError, Poset, upper_set_masks
from tqps.sampling import _SCALAR_BOUND
from tqps.tensor_gluing import RANDOM_BOUND, TensorElement, chi, chi_inv, psi, slot_symbol
from tqps.toeplitz_core import atom_product


def element_band(x):
    """Bound covering the symbol support and compact indices of the
    one-slot tensor x."""
    b = 0
    for (atom,) in x.terms:
        if atom[0] == "T":
            b = max(b, abs(atom[1]))
        else:
            b = max(b, atom[1] + 1, atom[2] + 1)
    return b


def toeplitz_matrix(x, d):
    """Truncation of the one-slot tensor x to the upper-left d by d corner:
    entry (j, k) is the coefficient of the shift T(u^(j-k)) plus that of
    E_{jk}."""
    terms = x.terms
    return [
        [terms.get((("T", j - k),), ZERO) + terms.get((("E", j, k),), ZERO) for k in range(d)]
        for j in range(d)
    ]


def matrix_product(a, b):
    d = len(a)
    out = [[ZERO] * d for _ in range(d)]
    for j in range(d):
        row = a[j]
        orow = out[j]
        for l in range(d):
            c = row[l]
            if not c:
                continue
            brow = b[l]
            for k in range(d):
                if brow[k]:
                    orow[k] = orow[k] + c * brow[k]
    return out


def matrix_adjoint(a):
    d = len(a)
    return [[a[k][j].conjugate() for k in range(d)] for j in range(d)]


def product_matches_truncation(x, y, product):
    """Check a claimed product against the truncated-matrix computation.

    The truncation of size d is exact on the m by m corner whenever
    d >= m + band(inputs): no nonzero entry reaches past the cut.  The
    corner is chosen to cover every compact entry and symbol degree of the
    claimed product, so any discrepancy is visible inside it.
    """
    band = max(element_band(x), element_band(y))
    m = max(band, element_band(product)) + 2
    d = m + band + 2
    oracle = matrix_product(toeplitz_matrix(x, d), toeplitz_matrix(y, d))
    claimed = toeplitz_matrix(product, d)
    return all(oracle[j][k] == claimed[j][k] for j in range(m) for k in range(m))


def adjoint_matches_truncation(x, adjoint):
    m = max(element_band(x), element_band(adjoint)) + 2
    oracle = matrix_adjoint(toeplitz_matrix(x, m))
    claimed = toeplitz_matrix(adjoint, m)
    return all(oracle[j][k] == claimed[j][k] for j in range(m) for k in range(m))


def matrix_degree(atom):
    """Gauge degree of one Toeplitz atom read off its truncated matrix: the
    diagonal offset j - k of its nonzero entries."""
    x = TensorElement.pure([atom])
    m = toeplitz_matrix(x, element_band(x) + 1)
    (deg,) = {j - k for j, row in enumerate(m) for k, v in enumerate(row) if v}
    return deg


def stepwise_psi(x):
    """Gluing recomputed term by term: the degrees of the Toeplitz slots
    read off their truncated matrices and added to the circle exponent as
    ints, then the sum reflected, u^h -> u^-h."""
    out = {}
    for atoms, c in x.terms.items():
        total = atoms[-1][1]
        for atom in atoms[:-1]:
            total += matrix_degree(atom)
        row = atoms[:-1] + (("u", -total),)
        out[row] = out.get(row, ZERO) + c
    return TensorElement(x.n_slots, x.n_slots, out)


def stepwise_psi_ij(x, src, dst):
    """Chart gluing as three rewrites: move the circle slot from src to the
    back, reflect it there by psi, then move it to dst."""
    return chi(psi(chi_inv(x, src)), dst)


def stepwise_glue(x, src, dst):
    """Component x at chart src seen from chart dst: the slotwise symbol,
    then the three-rewrite gluing.  The slots are worked out by hand: a
    component at chart c tracks chart k at slot k + 1 when k < c, at k
    otherwise."""
    at = dst + 1 if dst < src else dst
    to = src + 1 if src < dst else src
    return stepwise_psi_ij(slot_symbol(x, at), at, to)


def slotwise_product(x, y):
    """Tensor product expanded one slot at a time: every slot's atom product
    read off atom_product as (atom, sign) terms (in the circle slot, the
    exponents added as ints), and one Scalar product per slot term."""
    out = {}
    for t1, c1 in x.terms.items():
        for t2, c2 in y.terms.items():
            rows = [((), c1 * c2)]
            for pos, (a, b) in enumerate(zip(t1, t2), start=1):
                if pos == x.circle_slot:
                    slot = [(("u", a[1] + b[1]), 1)]
                else:
                    slot = atom_product(a, b)
                rows = [(row + (atom,), c * ac) for row, c in rows for atom, ac in slot]
            for row, c in rows:
                out[row] = out.get(row, ZERO) + c
    return TensorElement(x.n_slots, x.circle_slot, out)


def randint_nonzero_scalar(rng):
    """random_nonzero_scalar drawn through randint, coordinate by coordinate."""
    b = _SCALAR_BOUND
    while True:
        s = Scalar(rng.randint(-b, b), rng.randint(-b, b))
        if s:
            return s


def randint_tensor_element(rng, n_slots, circle_slot=None, min_terms=1, max_terms=3, compact_slots=()):
    """random_tensor_element drawn through randint: the term count, then
    slot by slot a circle degree, a matrix unit (forced, or on a coin of
    at least 0.5) or a shift, then the coefficient."""
    b = RANDOM_BOUND
    pairs = []
    for _ in range(rng.randint(min_terms, max_terms)):
        atoms = []
        for pos in range(1, n_slots + 1):
            if pos == circle_slot:
                atoms.append(("u", rng.randint(-b, b)))
            elif pos in compact_slots or rng.random() >= 0.5:
                atoms.append(("E", rng.randint(0, b), rng.randint(0, b)))
            else:
                atoms.append(("T", rng.randint(-b, b)))
        pairs.append((tuple(atoms), randint_nonzero_scalar(rng)))
    return TensorElement(n_slots, circle_slot, collect(pairs))


def brute_upper_sets(poset):
    """All upper sets by filtering every subset of the elements."""
    labels = poset.labels
    n = len(labels)
    out = []
    for mask in range(1 << n):
        chosen = {labels[i] for i in range(n) if (mask >> i) & 1}
        ok = True
        for a in chosen:
            for b in labels:
                if poset.leq(a, b) and b not in chosen:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(frozenset(chosen))
    return out


def full_pair_birkhoff(lat):
    """(irreducible poset, meet irreducibles, images) of a lattice given by
    in-range tables, checked on every ordered pair of both tables: the
    transform is injective, sends join to intersection and meet to union,
    and lands on every upper set of the irreducible poset; any failure
    raises LatticeError."""
    n, jt, mt = lat.n, lat.join_table, lat.meet_table
    tops = [t for t in range(n) if all(jt[a][t] == t for a in range(n))]
    if not tops:
        raise LatticeError("no top element")
    reducible = {mt[a][b] for a in range(n) for b in range(a + 1, n) if mt[a][b] not in (a, b)}
    mirr = [c for c in range(n) if c != tops[0] and c not in reducible]
    mapping = [sum(1 << x for x, c in enumerate(mirr) if jt[a][c] == c) for a in range(n)]
    pairs = [(x, y) for x, c in enumerate(mirr) for y, d in enumerate(mirr) if jt[c][d] == d]
    poset = Poset(range(len(mirr)), pairs)
    if len(set(mapping)) != n:
        raise LatticeError("transform not injective; lattice is not distributive")
    for a in range(n):
        for b in range(n):
            if mapping[jt[a][b]] != mapping[a] & mapping[b]:
                raise LatticeError("join does not map to intersection at (%d, %d)" % (a, b))
            if mapping[mt[a][b]] != mapping[a] | mapping[b]:
                raise LatticeError("meet does not map to union at (%d, %d)" % (a, b))
    try:
        onto = set(mapping) == set(upper_set_masks(poset, limit=n))
    except ValueError:
        onto = False
    if not onto:
        raise LatticeError("image is not the full upper set family")
    return poset, mirr, mapping


def naive_antichain_count(n):
    """Antichain families of subsets of an n-point set by exhaustive filter.

    Every family of subsets is encoded as a bitmask over the 2**n subsets;
    feasible up to n = 4.
    """
    if n > 4:
        raise ValueError("exhaustive filter is infeasible past n = 4")
    subs = list(range(1 << n))
    m = len(subs)
    comparable = []
    for i, a in enumerate(subs):
        mask = 0
        for j, b in enumerate(subs):
            if i != j and ((a & b) == a or (a & b) == b):
                mask |= 1 << j
        comparable.append(mask)
    count = 0
    for fam in range(1 << m):
        f = fam
        ok = True
        while f:
            i = (f & -f).bit_length() - 1
            if comparable[i] & fam:
                ok = False
                break
            f &= f - 1
        if ok:
            count += 1
    return count


def minimal_sets(family):
    """The sets of family that contain no other set of family."""
    return frozenset(s for s in family if not any(t < s for t in family))


def antichain_join(x, y):
    """Join of two antichains of index sets: the minimal sets of the union."""
    return minimal_sets(x | y)


def antichain_meet(x, y):
    """Meet of two antichains of index sets: the minimal pairwise unions."""
    return minimal_sets({a | b for a in x for b in y})


def antichain_leq(x, y):
    """x below y: every set of x contains some set of y."""
    return all(any(b <= a for b in y) for a in x)


def closure_size(family):
    """Number of sets in the closure of family under pairwise union and
    intersection, combining each new set with every set found so far.
    Sets of ints are held as bitmasks over their members.

    Sets G_0..G_{k-1} generate a free distributive lattice exactly when this
    is antichain_count(k) - 2, since the generated lattice is always an
    image of the free one.
    """
    sets = {sum(1 << x for x in s) for s in family}
    frontier = sets
    while frontier:
        frontier = {op(a, b) for a in frontier for b in sets for op in (or_, and_)} - sets
        sets |= frontier
    return len(sets)
