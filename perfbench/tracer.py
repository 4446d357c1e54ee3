"""Per-layer timing of jordanium, taken from outside the package.

Every public function listed in ``WRAPPED`` is replaced by a timing wrapper
wherever callers look it up: in the module that defines it, in every
``jordanium`` module that imported the name, and on the class for methods.
Nothing inside ``src/jordanium`` changes.  A wrapper counts calls and adds
the call's self time, which is its span minus the spans of wrapped calls
made inside it.

This module imports nothing from jordanium at import time, so the parent
process can read the metric names without paying for numpy.
"""

from __future__ import annotations

import sys
from time import perf_counter

# layer (module of src/jordanium) -> wrapped public functions
WRAPPED = {
    "kernels": ("jordan_violation", "module_identity_violation", "to_int_tensor"),
    "algebra": (
        "check_jordan",
        "jordan_witness_operator",
        "center_basis",
        "build_hermitian",
        "int_tensor",
    ),
    "linalg": (
        "nullspace_int",
        "nullspace",
        "rank",
        "solve",
        "rref",
        "rref_bareiss",
        "exact_int_matmul",
    ),
    "derivations": (
        "derivation_basis",
        "structure_constants",
        "check_jacobi",
        "inner_span_report",
        "inner_basis_operators",
        "annihilator_subalgebra",
        "commutator_action_matrix",
        "complete_triality",
        "derivation_from_triality",
        "leibniz_violation",
    ),
    "modules": (
        "check_module",
        "split_null_extension",
        "hom_basis",
        "build_free",
        "build_antihermitian",
        "build_clifford",
        "hom_center_restriction",
    ),
    "forms": (
        "d_der",
        "wedge",
        "bracket_table",
        "leibniz_check",
        "graded_commutativity_check",
    ),
    "connections": (
        "base_connection",
        "with_potential",
        "curvature",
        "flatness_check",
        "lie_hom_check",
        "inner_connection",
    ),
}

# wrapped names that are methods, with the class that owns them
METHODS = {("algebra", "int_tensor"): "AlgebraPresentation"}

# "<parent>.miss" counts parent calls during which the child ran: a cache miss
MISSES = {
    "algebra.int_tensor": "kernels.to_int_tensor",
    "forms.bracket_table": "derivations.structure_constants",
}

OVERFLOW = "kernels.exact_overflow"

# every CLI subcommand, as (group, command)
CLI_COMMANDS = (
    ("algebra", "build"),
    ("algebra", "check"),
    ("der", "basis"),
    ("der", "inner"),
    ("der", "d4"),
    ("der", "triality"),
    ("module", "build"),
    ("module", "check"),
    ("module", "homdim"),
    ("forms", "d2check"),
    ("conn", "curvature"),
    ("conn", "flat"),
    ("conn", "innerflat"),
)


def wrapped_names() -> list[str]:
    return ["%s.%s" % (layer, fn) for layer, fns in WRAPPED.items() for fn in fns]


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out: list[tuple[str, str]] = []
    for name in wrapped_names():
        out.append((name + ".calls", "count"))
        out.append((name + ".self_s", "s"))
        if name in MISSES:
            out.append((name + ".miss", "count"))
        if name == "kernels.to_int_tensor":
            out.append((OVERFLOW, "count"))
    for group, cmd in CLI_COMMANDS:
        out.append(("cli.%s.%s.wall_s" % (group, cmd), "s"))
    out.append(("cli.import_s", "s"))
    out.append(("cli.python_s", "s"))
    return out


class Tracer:
    """Call counts and self times of the wrapped functions in one process."""

    def __init__(self):
        names = wrapped_names()
        self.calls = {n: 0 for n in names}
        self.self_s = {n: 0.0 for n in names}
        self.counts = {n + ".miss": 0 for n in MISSES}
        self.counts[OVERFLOW] = 0
        self._child_s: list[float] = []

    def _wrap(self, name: str, fn, overflow_exc):
        calls, self_s, counts, child_s = self.calls, self.self_s, self.counts, self._child_s
        miss_child = MISSES.get(name)

        def wrapper(*args, **kwargs):
            before = calls[miss_child] if miss_child else 0
            child_s.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                if overflow_exc is not None and isinstance(e, overflow_exc):
                    counts[OVERFLOW] += 1
                raise
            finally:
                span = perf_counter() - t0
                inner = child_s.pop()
                calls[name] += 1
                self_s[name] += span - inner
                if child_s:
                    child_s[-1] += span
                if miss_child and calls[miss_child] > before:
                    counts[name + ".miss"] += 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every listed function in all loaded jordanium modules."""
        import jordanium  # noqa: F401  (loads every submodule)

        kernels = sys.modules["jordanium.kernels"]
        namespaces = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "jordanium" or key.startswith("jordanium."))
        ]
        for layer, fns in WRAPPED.items():
            home = sys.modules["jordanium." + layer]
            exc = kernels.ExactOverflow if layer == "kernels" else None
            for fn_name in fns:
                name = "%s.%s" % (layer, fn_name)
                owner = METHODS.get((layer, fn_name))
                if owner is not None:
                    cls = getattr(home, owner)
                    setattr(cls, fn_name, self._wrap(name, cls.__dict__[fn_name], exc))
                    continue
                orig = getattr(home, fn_name)
                wrapper = self._wrap(name, orig, exc)
                for mod in namespaces:
                    if getattr(mod, fn_name, None) is orig:
                        setattr(mod, fn_name, wrapper)

    def snapshot(self) -> dict:
        """Per-layer values measured so far, keyed by metric name."""
        out: dict = {}
        for name in self.calls:
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
        out.update(self.counts)
        return out
