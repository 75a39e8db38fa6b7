"""Span recording around the public functions of each coxfusion module.

``instrumented(tracer)`` replaces each function in ``SPANNED`` with a
wrapper, in every coxfusion module namespace that binds it (and on the
class, for methods), and restores the originals on exit.  Calls between
library functions therefore nest: a ``coxeter_number`` call made inside
``ade_module`` is a child span of it, and a layer's self time is its
span minus its child spans.  No program file is changed; the wrappers
live here.

A span is ``[name, start, end, parent, op, error]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span or
None, ``op`` the index of the op in its pass, ``error`` the exception
class name if the call raised.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

MODULES = (
    "coxfusion",
    "coxfusion.cli",
    "coxfusion.verify",
    "coxfusion.fusion_ring",
    "coxfusion.zplus_module",
    "coxfusion.hypergroup",
    "coxfusion.coxeter",
    "coxfusion.linalg",
)


def _stacked_bytes(args, result):
    return {"hypergroup.stacked_bytes": args[0].matrices.size * 8}


def _rank4_bytes(key):
    # The associativity check materialises two rank**4 tensors of 8-byte
    # entries; computed from the rank, not measured.
    def count(args, result):
        return {key: 2 * 8 * args[0].rank ** 4}

    return count


def _roots(args, result):
    return {"coxeter.roots": len(result)}


# (defining module, attribute path, span name, computed counts)
SPANNED = [
    ("cli", "main", "cli.main", None),
    ("verify", "check_main_theorem", "verify.check_main_theorem", None),
    ("verify", "check_bifurcation_lemma", "verify.lemmas", None),
    ("verify", "check_decomposition_lemma", "verify.lemmas", None),
    ("verify", "check_regular_split", "verify.lemmas", None),
    ("fusion_ring", "verlinde_ring", "fusion_ring.verlinde_ring", None),
    ("fusion_ring", "even_subring", "fusion_ring.even_subring", None),
    ("fusion_ring", "FusionRing.fp_dims", "fusion_ring.fp_dims", None),
    (
        "fusion_ring",
        "FusionRing.verify_axioms",
        "fusion_ring.verify_axioms",
        _rank4_bytes("fusion_ring.axiom_tensor_bytes"),
    ),
    ("zplus_module", "ade_module", "zplus_module.ade_module", None),
    ("zplus_module", "restrict", "zplus_module.restrict", None),
    ("zplus_module", "decompose", "zplus_module.decompose", None),
    ("zplus_module", "regular_element", "zplus_module.regular_element", None),
    ("hypergroup", "from_fusion_ring", "hypergroup.from_fusion_ring", None),
    ("hypergroup", "action_from_module", "hypergroup.action_from_module", None),
    ("hypergroup", "fixed_space", "hypergroup.fixed_space", _stacked_bytes),
    (
        "hypergroup",
        "verify_hypergroup_axioms",
        "hypergroup.verify_hypergroup_axioms",
        _rank4_bytes("hypergroup.axiom_tensor_bytes"),
    ),
    ("coxeter", "CoxeterDiagram.is_ade", "coxeter.is_ade", None),
    ("coxeter", "coxeter_number", "coxeter.coxeter_number", None),
    ("coxeter", "coxeter_plane", "coxeter.coxeter_plane", None),
    ("coxeter", "root_system", "coxeter.root_system", _roots),
    ("coxeter", "project_to_plane", "coxeter.project_to_plane", None),
    ("linalg", "subspace_projector", "linalg.subspace_projector", None),
]

# Counted but not spanned: the Perron kernel's time stays in the self
# time of its callers (fp_dims, regular_element).
COUNTED = [("linalg", "perron_eigenpair", "linalg.perron_calls")]

# Spans whose errors are counted as failures of that layer.
FAILURES = {
    "fusion_ring.fp_dims": "fusion_ring.fp_dims_failed",
    "zplus_module.regular_element": "zplus_module.regular_element_failed",
}

# Spans whose call counts are reported.
CALLS = {
    "coxeter.is_ade": "coxeter.is_ade_calls",
    "coxeter.coxeter_number": "coxeter.coxeter_number_calls",
    "zplus_module.ade_module": "zplus_module.ade_module_calls",
}


class Tracer:
    """In-memory spans and counts for one pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self.counts.update(count(args, result))
            return result

        return traced

    def counter(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def _bindings(module: str, path: str, namespaces):
    """The original object and every (namespace, name) that binds it."""
    owner = importlib.import_module(f"coxfusion.{module}")
    *cls, attr = path.split(".")
    if cls:  # a method: patching the class covers every caller
        owner = getattr(owner, cls[0])
        return owner.__dict__[attr], [(owner, attr)]
    original = owner.__dict__[attr]
    return original, [(ns, attr) for ns in namespaces if ns.__dict__.get(attr) is original]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route every call to the functions above through ``tracer``."""
    namespaces = [importlib.import_module(m) for m in MODULES]
    plan = [(m, p, functools.partial(tracer.wrap, n, count=c)) for m, p, n, c in SPANNED]
    plan += [(m, p, functools.partial(tracer.counter, n)) for m, p, n in COUNTED]
    restore = []
    try:
        for module, path, make in plan:
            original, places = _bindings(module, path, namespaces)
            wrapper = make(original)
            for ns, attr in places:
                restore.append((ns, attr, original))
                setattr(ns, attr, wrapper)
        yield tracer
    finally:
        for ns, attr, original in reversed(restore):
            setattr(ns, attr, original)


def layer_totals(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one pass: self time as ``<span name>_s``
    (``cli.overhead_s`` for ``cli.main``: the CLI's own time around the
    library calls it makes), call and failure counts, computed counts."""
    child_time = defaultdict(float)
    for name, start, end, parent, op, error in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for index, (name, start, end, parent, op, error) in enumerate(spans):
        key = "cli.overhead_s" if name == "cli.main" else f"{name}_s"
        out[key] += end - start - child_time[index]
        if name in CALLS:
            out[CALLS[name]] += 1
        if error is not None and name in FAILURES:
            out[FAILURES[name]] += 1
    out.update(counts)
    return dict(out)
