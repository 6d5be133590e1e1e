"""Independent reference implementations the tests check the library against.

Each oracle recomputes a quantity through a different representation than
the library uses: operator products through truncated matrices, coactions
and gluings through stepwise single-slot arithmetic, order-theoretic
counts through exhaustive filters, free-lattice join and meet through
frozensets of index sets instead of up-set bitmasks.  Keeping these routes
separate from the library is the point; do not fold them into src.
"""

from tqps.circle_hopf import CirclePoly, ZERO
from tqps.tensor_gluing import TensorElement
from tqps.toeplitz_core import ToeplitzElement


def element_band(x):
    """Bound covering the symbol support and compact indices of x."""
    b = 0
    for d in x.symbol.degrees():
        b = max(b, abs(d))
    for (j, k) in x.compact.terms:
        b = max(b, j + 1, k + 1)
    return b


def toeplitz_matrix(x, d):
    """Truncation of x to the upper-left d by d corner."""
    return [
        [x.symbol.coeff(j - k) + x.compact.terms.get((j, k), ZERO) for k in range(d)]
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


def _atom_degree_via_grading(atom):
    """Degree of one atom read off the single-slot gauge grading."""
    if atom[0] == "T":
        elem = ToeplitzElement.shift(atom[1])
    else:
        elem = ToeplitzElement.matrix_unit(atom[1], atom[2])
    parts = elem.homogeneous_parts()
    (deg,) = parts.keys()
    return deg


def stepwise_coaction(x):
    """Diagonal coaction recomputed atom by atom through the grading."""
    out = {}
    for atoms, c in x.terms.items():
        total = 0
        for atom in atoms:
            total += _atom_degree_via_grading(atom)
        row = atoms + (("u", total),)
        out[row] = out.get(row, ZERO) + c
    return TensorElement(x.n_slots + 1, x.n_slots + 1, out)


def stepwise_psi(x):
    """Gluing recomputed through circle-polynomial product and antipode."""
    out = {}
    for atoms, c in x.terms.items():
        total = 0
        for atom in atoms[:-1]:
            total += _atom_degree_via_grading(atom)
        circ = CirclePoly.monomial(total) * CirclePoly.monomial(atoms[-1][1])
        flipped = circ.antipode()
        (deg,) = flipped.degrees()
        row = atoms[:-1] + (("u", deg),)
        out[row] = out.get(row, ZERO) + c
    return TensorElement(x.n_slots, x.n_slots, out)


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
