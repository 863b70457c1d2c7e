"""Span tracing installed from outside the program.

``Tracer.install`` wraps every public function of each evoaut module, plus a
few public methods (``GraphAutomorphism.compose``, the algebra predicates,
element materialization), and rebinds each wrapper in every evoaut namespace
that holds the original, so calls are caught where they are looked up
(``evoaut.monomial.smith_normal_form`` as well as ``evoaut.snf``).  Each call
becomes a span: function, start, end, the span that caused it, and the
benchmark operation it belongs to.  Spans stay in compact arrays until the run
ends; ``layer_metrics`` then derives inclusive and self time per layer and the
per-layer counters, and ``write_spans`` saves them.

A layer's self time is its spans' durations minus the time their child spans
cover.  Code in unwrapped helpers (scalar arithmetic, private functions)
counts as self time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array

LAYERS = ("cli", "files", "scalar", "algebra", "wgraph", "snf", "monomial",
          "autgroup", "limits")

METHODS = {
    "algebra": {"EvolutionAlgebra": ("two_li_witness", "is_2li", "is_nondegenerate",
                                     "rank", "det", "is_invertible", "is_perfect")},
    "wgraph": {"GraphAutomorphism": ("compose",)},
    "monomial": {"GroupDescription": ("elements",), "SolutionCoset": ("elements",)},
    "autgroup": {"AutPresentation": ("monomial_elements",)},
}

# Function families: time is counted once for the outermost call of a family.
FAMILIES = {
    "files.parse": ("files.parse_algebra", "files.parse_graph"),
    "scalar.factorize": ("scalar.factorize",),
    "scalar.nth_roots": ("scalar.nth_roots",),
    "algebra.predicates": tuple(f"algebra.EvolutionAlgebra.{m}"
                                for m in METHODS["algebra"]["EvolutionAlgebra"])
                          + ("algebra.is_natural_vector", "algebra.same_orbit",
                             "algebra.verify_unique_basis_up_to_scaling"),
    "wgraph.enumerate": ("wgraph.enumerate_graph_automorphisms",),
    "wgraph.compose": ("wgraph.GraphAutomorphism.compose",),
    "snf.snf": ("snf.smith_normal_form",),
    "snf.int_det": ("snf.int_det",),
    "monomial.solve": ("monomial.solve_inhomogeneous", "monomial.solve_homogeneous"),
    "monomial.bruteforce": ("monomial.enumerate_solutions_bruteforce",),
    "monomial.elements": ("monomial.SolutionCoset.elements",
                          "monomial.GroupDescription.elements"),
    "autgroup.assemble": ("autgroup.assemble_aut",),
    "autgroup.oracle": ("autgroup.bruteforce_aut_count", "autgroup.bruteforce_aut"),
    "autgroup.materialize": ("autgroup.AutPresentation.monomial_elements",),
    "autgroup.membership": ("autgroup.is_automorphism_matrix",),
    "limits.chain": ("limits.truncated_chain",),
    "cli.main": ("cli.main",),
}

# Per-layer metrics reported by the traced run: name -> (family, statistic).
FAMILY_METRICS = {
    "cli.inproc_ms": ("cli.main", "ms"),
    "files.parse_ms": ("files.parse", "ms"),
    "files.parse_calls": ("files.parse", "calls"),
    "scalar.factorize_ms": ("scalar.factorize", "ms"),
    "scalar.factorize_calls": ("scalar.factorize", "calls"),
    "scalar.nth_roots_calls": ("scalar.nth_roots", "calls"),
    "algebra.predicates_ms": ("algebra.predicates", "ms"),
    "wgraph.enumerate_ms": ("wgraph.enumerate", "ms"),
    "wgraph.compose_calls": ("wgraph.compose", "calls"),
    "wgraph.compose_ms": ("wgraph.compose", "ms"),
    "snf.calls": ("snf.snf", "calls"),
    "snf.ms": ("snf.snf", "ms"),
    "snf.int_det_ms": ("snf.int_det", "ms"),
    "monomial.solve_calls": ("monomial.solve", "calls"),
    "monomial.solve_ms": ("monomial.solve", "ms"),
    "monomial.bruteforce_ms": ("monomial.bruteforce", "ms"),
    "monomial.elements_ms": ("monomial.elements", "ms"),
    "autgroup.assemble_ms": ("autgroup.assemble", "ms"),
    "autgroup.oracle_ms": ("autgroup.oracle", "ms"),
    "autgroup.materialize_ms": ("autgroup.materialize", "ms"),
    "autgroup.membership_ms": ("autgroup.membership", "ms"),
    "limits.chain_ms": ("limits.chain", "ms"),
}


def _sigmas(c, args, result):
    c["wgraph.sigmas"] += len(result)


def _assembled(c, args, result):
    c["autgroup.lifted"] += len(result.lifted)
    c["autgroup.enumerated"] += len(result.lifted) + len(result.not_lifted)


def _oracle(c, args, result):
    algebra = args[0]
    c["autgroup.oracle_candidates"] += algebra.field.p ** (algebra.dim * algebra.dim)
    c["autgroup.oracle_found"] += result if isinstance(result, int) else len(result)


def _snf_rows(c, args, result):
    c["snf.rows_max"] = max(c["snf.rows_max"], len(args[0]))


OBSERVERS = {
    "wgraph.enumerate_graph_automorphisms": _sigmas,
    "autgroup.assemble_aut": _assembled,
    "autgroup.bruteforce_aut_count": _oracle,
    "autgroup.bruteforce_aut": _oracle,
    "snf.smith_normal_form": _snf_rows,
}

COUNTERS = ("wgraph.sigmas", "autgroup.lifted", "autgroup.oracle_candidates",
            "autgroup.oracle_found", "snf.rows_max")

PER_LAYER_METRICS = (["cli.import_ms"] + list(FAMILY_METRICS) + list(COUNTERS)
                     + ["autgroup.lift_ratio"]
                     + [f"{layer}.{kind}" for layer in LAYERS for kind in ("incl_ms", "self_ms")]
                     + ["trace.spans", "trace.overhead_s"])


def unit_of(metric: str) -> str:
    if metric.endswith(("_ms", ".ms")):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    """Spans in parallel arrays; index order is call-start order."""

    def __init__(self):
        self.names = ["bench.op"]          # function index -> "layer.qualname"
        self.start = array("d")
        self.end = array("d")
        self.fn = array("i")
        self.cause = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.counters = {name: 0 for name in COUNTERS + ("autgroup.enumerated",)}
        self._places: list[tuple[object, str, object, object]] | None = None

    # -- recording -----------------------------------------------------------

    def _open(self, index: int) -> int:
        k = len(self.fn)
        self.fn.append(index)
        self.cause.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(k)
        return k

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.start[self._open(0)] = time.perf_counter()

    def end_op(self) -> None:
        k = self.stack.pop()
        self.end[k] = time.perf_counter()

    def _wrap(self, name: str, func):
        index = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        stack, start, end, counters = self.stack, self.start, self.end, self.counters
        clock = time.perf_counter
        open_span = self._open

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            k = open_span(index)
            start[k] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end[k] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, result)
            return result
        return wrapper

    # -- installation ----------------------------------------------------------

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every place to trace."""
        modules = {layer: importlib.import_module(f"evoaut.{layer}") for layer in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("evoaut")]
        out = []
        for layer, module in modules.items():
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", obj)
                out += [(ns, key, obj, wrapper) for ns in namespaces
                        for key, value in vars(ns).items() if value is obj]
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    original = vars(cls)[method]
                    out.append((cls, method, original,
                                self._wrap(f"{layer}.{cls_name}.{method}", original)))
        return out

    def install(self) -> None:
        if self._places is None:
            self._places = self._bindings()
        for owner, attr, _, wrapper in self._places:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._places or ():
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round averages of every per-layer metric except the ones the
        worker measures itself (cli.import_ms, trace.overhead_s)."""
        layer_of = [name.split(".", 1)[0] for name in self.names]
        layer_bit = {layer: 1 << k for k, layer in enumerate(("bench",) + LAYERS)}
        family_of = {}
        for fam_index, (family, members) in enumerate(FAMILIES.items()):
            for member in members:
                family_of[member] = (family, 1 << (len(layer_bit) + fam_index))
        fn_bits = []
        fn_family = []
        for name, layer in zip(self.names, layer_of):
            family, bit = family_of.get(name, (None, 0))
            fn_bits.append(layer_bit[layer] | bit)
            fn_family.append(family)
        fn_layer_bit = [layer_bit[layer] for layer in layer_of]
        fn_family_bit = [family_of.get(name, (None, 0))[1] for name in self.names]

        n = len(self.fn)
        fn, cause, start, end = self.fn, self.cause, self.start, self.end
        ancestors = array("q", bytes(8 * n))    # bits of every enclosing span
        child = array("d", bytes(8 * n))
        for k in range(n):
            c = cause[k]
            if c >= 0:
                ancestors[k] = ancestors[c] | fn_bits[fn[c]]
                child[c] += end[k] - start[k]
        incl = {layer: 0.0 for layer in LAYERS}
        self_time = {layer: 0.0 for layer in LAYERS}
        fam_ms = {family: 0.0 for family in FAMILIES}
        fam_calls = {family: 0 for family in FAMILIES}
        for k in range(n):
            f = fn[k]
            layer = layer_of[f]
            if layer == "bench":
                continue
            duration = end[k] - start[k]
            self_time[layer] += duration - child[k]
            if not ancestors[k] & fn_layer_bit[f]:
                incl[layer] += duration
            family = fn_family[f]
            if family is not None and not ancestors[k] & fn_family_bit[f]:
                fam_ms[family] += duration
                fam_calls[family] += 1

        out = {}
        for metric, (family, stat) in FAMILY_METRICS.items():
            value = fam_ms[family] * 1000 if stat == "ms" else fam_calls[family]
            out[metric] = value / rounds
        for name in COUNTERS:
            out[name] = self.counters[name] if name == "snf.rows_max" \
                else self.counters[name] / rounds
        enumerated = self.counters["autgroup.enumerated"]
        out["autgroup.lift_ratio"] = self.counters["autgroup.lifted"] / enumerated \
            if enumerated else 0.0
        for layer in LAYERS:
            out[f"{layer}.incl_ms"] = incl[layer] * 1000 / rounds
            out[f"{layer}.self_ms"] = self_time[layer] * 1000 / rounds
        out["trace.spans"] = n / rounds
        return out

    def write_spans(self, path: str) -> None:
        """Tab-separated spans: id, cause, op, function, start and duration (us)."""
        base = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("span\tcause\top\tfunction\tstart_us\tdur_us\n")
            names, fn, cause, op = self.names, self.fn, self.cause, self.op
            start, end = self.start, self.end
            for k in range(len(fn)):
                handle.write(f"{k}\t{cause[k]}\t{op[k]}\t{names[fn[k]]}\t"
                             f"{(start[k] - base) * 1e6:.1f}\t"
                             f"{(end[k] - start[k]) * 1e6:.1f}\n")
