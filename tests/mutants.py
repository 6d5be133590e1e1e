"""Named mutants of the gluing maps, each a one-line change of the library.

Each mutant is a function of a pytest MonkeyPatch that patches the broken
map in; the patch is undone with the MonkeyPatch.  (a), (b) and (c)
rewrite one line of tensor_gluing._move_circle, the one relocation behind
glue, chi, psi and psi_ij, built from the function's own source: a line
that is not found exactly once raises LookupError, so a mutant never
silently equals the library.  (s), (u), (m) and (d) replace glue in
tensor_gluing and in multipullback, which imports it by name: (s) negates
it whenever it moves a component down the charts, src > dst, (u) turns
every matrix unit of its output into the shift T^0, (m) leaves the
circle where the symbol puts it, unmoved and unreflected, and (d) doubles
it whenever it moves a component up the charts, src < dst.  (t) scales
every coordinate of classical_cpn.transition's result but its circle
slot by 1 + 1e-6.
"""

import inspect

from tqps import classical_cpn, multipullback, tensor_gluing
from tqps.tensor_gluing import TensorElement, slot_for, slot_symbol

DEGREE_LINE = 'h += a[1] - a[2] if a[0] == "E" else a[1]'


def _rewritten_move_circle(old, new):
    """tensor_gluing._move_circle with its one line `old` (stripped of its
    indent) replaced by `new` at the same indent."""
    lines = inspect.getsource(tensor_gluing._move_circle).splitlines(keepends=True)
    found = [k for k, line in enumerate(lines) if line.strip() == old]
    if len(found) != 1:
        raise LookupError("_move_circle has %d lines %r, not one" % (len(found), old))
    k = found[0]
    lines[k] = lines[k][: len(lines[k]) - len(lines[k].lstrip())] + new + "\n"
    namespace = dict(vars(tensor_gluing))
    exec(compile("".join(lines), "<mutant of _move_circle>", "exec"), namespace)
    return namespace["_move_circle"]


def _move_circle_mutant(old, new):
    def apply(monkeypatch):
        monkeypatch.setattr(tensor_gluing, "_move_circle", _rewritten_move_circle(old, new))

    return apply


def _glue_mutant(broken):
    """The mutant that patches broken(glue) in for glue, in tensor_gluing
    and in multipullback."""

    def apply(monkeypatch):
        glue = broken(tensor_gluing.glue)
        for module in (tensor_gluing, multipullback):
            monkeypatch.setattr(module, "glue", glue)

    return apply


def _negated_downward(real):
    def glue(x, src, dst):
        y = real(x, src, dst)
        return -y if src > dst else y

    return glue


def _units_to_shifts(real):
    def glue(x, src, dst):
        y = real(x, src, dst)
        pairs = [
            (tuple(("T", 0) if a[0] == "E" else a for a in atoms), c)
            for atoms, c in y.terms.items()
        ]
        return TensorElement(y.n_slots, y.circle_slot, pairs)

    return glue


def _unmoved_circle(real):
    return lambda x, src, dst: slot_symbol(x, slot_for(src, dst))


def _doubled_upward(real):
    def glue(x, src, dst):
        y = real(x, src, dst)
        return y + y if src < dst else y

    return glue


def _skewed_transition(monkeypatch):
    real = classical_cpn.transition

    def skewed(p, src, dst):
        q = real(p, src, dst)
        coords = [
            c if s == q.circle_slot else c * (1 + 1e-6) for s, c in enumerate(q.coords, start=1)
        ]
        return classical_cpn.ChartPoint(coords, q.circle_slot)

    monkeypatch.setattr(classical_cpn, "transition", skewed)


MUTANTS = {
    "a": _move_circle_mutant(DEGREE_LINE, 'h += 0 if a[0] == "E" else a[1]'),
    "b": _move_circle_mutant(DEGREE_LINE, 'h += a[2] - a[1] if a[0] == "E" else a[1]'),
    "c": _move_circle_mutant('circle = ("u", -h)', 'circle = ("u", 1 - h)'),
    "s": _glue_mutant(_negated_downward),
    "t": _skewed_transition,
    "u": _glue_mutant(_units_to_shifts),
    "m": _glue_mutant(_unmoved_circle),
    "d": _glue_mutant(_doubled_upward),
}

# what each mutant breaks, one line each
DESCRIPTIONS = {
    "a": "a matrix unit adds 0 to the degree the reflection reads",
    "b": "a matrix unit E_jk adds k - j, not j - k",
    "c": "the reflected circle exponent is 1 - h, not -h",
    "s": "glue is negated when src > dst",
    "t": "the classical transition scales each disc coordinate by 1 + 1e-6",
    "u": "glue turns every matrix unit of its output into T^0",
    "m": "glue is the bare symbol: the circle is neither moved nor reflected",
    "d": "glue is doubled when src < dst",
}
