"""Span tracing of tqps layers, installed from outside the library.

Each traced layer is a function or method of tqps.  `Tracer.install` wraps it
and puts the wrapper in place of every reference tqps holds to it: the module
that defines it, each module that imported it by name (multipullback imports
psi_ij, slot_symbol and lift_circle, for example), the package namespace, and
every alias in a class body (Scalar.__radd__ is Scalar.__add__).

Spans stay in memory.  Hot layers such as Scalar.__add__ open hundreds of
thousands of spans in one run, so each span is folded into its layer's totals
when it closes instead of being stored: a call count and a self time, which
is the span's duration minus the time covered by its child spans.
"""

import functools
import sys
import time

# (module, attribute path) of every traced layer.  The metric prefix is the
# module's short name and the path, with dunder methods named plainly:
# tqps.circle_hopf / Scalar.__add__ reports as circle_hopf.Scalar.add.
LAYERS = (
    ("tqps.circle_hopf", "Scalar.__add__"),
    ("tqps.circle_hopf", "Scalar.__mul__"),
    ("tqps.toeplitz_core", "ToeplitzElement.__mul__"),
    ("tqps.tensor_gluing", "TensorElement.__init__"),
    ("tqps.tensor_gluing", "TensorElement.__mul__"),
    ("tqps.tensor_gluing", "chi"),
    ("tqps.tensor_gluing", "chi_inv"),
    ("tqps.tensor_gluing", "psi"),
    ("tqps.tensor_gluing", "psi_ij"),
    ("tqps.tensor_gluing", "psi_ij_inv"),
    ("tqps.tensor_gluing", "slot_symbol"),
    ("tqps.tensor_gluing", "lift_circle"),
    ("tqps.tensor_gluing", "project_slots"),
    ("tqps.tensor_gluing", "phi"),
    ("tqps.tensor_gluing", "random_tensor_element"),
    ("tqps.multipullback", "extend"),
    ("tqps.multipullback", "compatibility_failures"),
    ("tqps.multipullback", "sample_kernel_intersection"),
    ("tqps.multipullback", "verify_freeness"),
    ("tqps.order_lattice", "fdl_join"),
    ("tqps.order_lattice", "fdl_meet"),
    ("tqps.order_lattice", "FiniteDistributiveLattice.from_elements"),
    ("tqps.order_lattice", "FiniteDistributiveLattice.from_upper_sets"),
    ("tqps.order_lattice", "FiniteDistributiveLattice.validate"),
    ("tqps.order_lattice", "birkhoff_transform"),
    ("tqps.order_lattice", "upper_set_masks"),
    ("tqps.order_lattice", "fdl_enumerate"),
    ("tqps.order_lattice", "check_freeness_criterion"),
    ("tqps.order_lattice", "Poset.isomorphic"),
    ("tqps.classical_cpn", "CoveringSet.from_family"),
    ("tqps.classical_cpn", "transition_agreement"),
    ("tqps.sampling", "random_poset"),
)


def layer_name(module, path):
    short = module.rpartition(".")[2]
    parts = [p[2:-2] if p.startswith("__") and p.endswith("__") else p for p in path.split(".")]
    return ".".join([short] + parts)


class Tracer:
    """Per-layer call counts and self times, plus the number of terms held by
    every TensorElement constructed while installed."""

    def __init__(self):
        self.stats = {}
        self.terms_built = 0
        # One child-time accumulator per open span; the bottom one is a root.
        self._stack = [[0.0]]

    def _wrap(self, name, fn, after=None):
        entry = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                entry[0] += 1
                entry[1] += elapsed - children[0]
            if after is not None:
                after(args)
            return result

        return traced

    def _count_terms(self, args):
        self.terms_built += len(args[0].terms)

    def install(self):
        """Wrap every layer in LAYERS; tqps must already be imported."""
        holders = []
        for name, module in list(sys.modules.items()):
            if name == "tqps" or name.startswith("tqps."):
                holders.append(module)
                holders.extend(
                    v
                    for v in vars(module).values()
                    if isinstance(v, type) and v.__module__ == name
                )
        for module, path in LAYERS:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            after = self._count_terms if path == "TensorElement.__init__" else None
            wrapper = self._wrap(layer_name(module, path), fn, after)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapper)
                    elif isinstance(value, classmethod) and value.__func__ is fn:
                        setattr(holder, key, classmethod(wrapper))

    def metrics(self, scale):
        """`<layer>.calls` and `<layer>.self_s` for every layer, self times
        multiplied by `scale` (reference seconds per raw second)."""
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s * scale
        return out
