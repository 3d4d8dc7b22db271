"""In-memory span tracing around the calls into each ltmplan module.

While a `Tracer` is installed, the public functions listed in `TRACED` are
replaced, in every ltmplan module that binds them, by wrappers that record
a span (name, start, end, parent, operation id) and a few counts read off
the call's arguments and result.  Nothing inside the program changes; the
wrappers sit at the boundaries between modules, so calls from one layer
into another nest as child spans.  Spans stay in memory and are written out
when the benchmark ends.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("graph", "typestats", "meanfield", "planner", "lp", "sampler", "cli")


def _links(args, kwargs, result):
    return {"links": result[0].edge_count}


def _cascade(args, kwargs, result):
    return {"steps": result[2]}


def _extract(args, kwargs, result):
    return {"types": len(result[0].support())}


def _recursion(args, kwargs, result):
    return {"steps": len(result[0]) - 1}


def _build_lp(args, kwargs, result):
    model, columns, _ = result
    p0, cfg = args[0], args[1]
    full = cfg.eta_mode == "full"
    candidates = sum(w.r if full else 1 for w in p0.support() if w.r > 0)
    # a scipy.sparse row block counts its own nonzeros
    nnz = getattr(model.rows, "nnz", None)
    return {"rows": model.num_rows, "cols": model.num_vars,
            "nnz": int(np.count_nonzero(model.rows) if nnz is None else nnz),
            "pruned": candidates - len(columns),
            "dense_mb": model.num_rows * model.num_vars * 8 / 1e6}


def _solve(args, kwargs, result):
    out = {"iterations": result.iterations}
    if result.status == "optimal":
        out.update(gap=result.dual_gap, violation=result.max_violation)
    return out


def _sample(args, kwargs, result):
    p, info = args[0], result[3]
    return {"draws": info.attempts,
            "predicted": math.exp(-p.moment("dk") / p.moment("d")),
            "reported": info.predicted_acceptance}


# module -> functions wrapped, each with an optional count extractor
TRACED = {
    "graph": {"parse_edge_list": _links, "ltm_trajectory": _cascade},
    "typestats": {"extract_statistics": _extract, "post_statistics": None,
                  "statistics_from_records": None, "intervention_from_records": None},
    "meanfield": {"phi_grid": None, "psi_grid": None, "psi_inverse": None,
                  "coeff_a": None, "phi_decomposed": None, "recursion": _recursion,
                  "dump_curves": None},
    "planner": {"plan": None, "delta_n": None, "build_lp": _build_lp,
                "solution_to_intervention": None, "audit_relaxed": None,
                "audit_original": None},
    "lp": {"solve": _solve, "check_solution": None},
    "sampler": {"monte_carlo_validate": None, "sample_configuration_model": _sample,
                "realize_intervention": None, "cascade_fractions": None},
}


class Span:
    __slots__ = ("sid", "op", "parent", "name", "start", "end", "error", "counts")

    def __init__(self, sid, op, parent, name, start):
        self.sid, self.op, self.parent, self.name = sid, op, parent, name
        self.start, self.end, self.error, self.counts = start, None, None, None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {"id": self.sid, "op": self.op, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "error": self.error,
                "counts": self.counts}


class Tracer:
    """Collects spans; `install` wraps the traced functions, `uninstall`
    restores the originals."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.op = None
        self.missing = []

    # spans -------------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), self.op, parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span, error=None):
        span.end = time.perf_counter()
        span.error = error
        popped = self._stack.pop()
        assert popped is span, "spans closed out of order"

    @contextmanager
    def span(self, name):
        span = self.open(name)
        try:
            yield span
        except BaseException as exc:
            self.close(span, error=type(exc).__name__)
            raise
        self.close(span)

    def wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if count:
                span.counts = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # installation --------------------------------------------------------------

    def install(self):
        self.missing = []
        mods = {m: importlib.import_module("ltmplan." + m) for m in LAYERS}
        namespaces = [importlib.import_module("ltmplan")] + list(mods.values())
        for mod_name, funcs in TRACED.items():
            for fn_name, count in funcs.items():
                original = getattr(mods[mod_name], fn_name, None)
                if original is None:
                    self.missing.append(mod_name + "." + fn_name)
                    continue
                wrapper = self.wrap(mod_name + "." + fn_name, original, count)
                for ns in namespaces:
                    if ns.__dict__.get(fn_name) is original:
                        self._patches.append((ns, fn_name, original))
                        setattr(ns, fn_name, wrapper)

    def uninstall(self):
        for ns, fn_name, original in reversed(self._patches):
            setattr(ns, fn_name, original)
        self._patches = []

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": [s.to_dict() for s in self.spans],
                       "not_traced": self.missing}, fh)
            fh.write("\n")


# aggregation ------------------------------------------------------------------

def _time(span_name):
    return lambda op: sum(s.duration for s in op.spans if s.name == span_name)


def _calls(span_name):
    return lambda op: sum(1 for s in op.spans if s.name == span_name)


def _counts(span_name, key, reduce=sum):
    def compute(op):
        vals = [s.counts[key] for s in op.spans
                if s.name == span_name and s.counts and key in s.counts]
        return reduce(vals) if vals else 0
    return compute


SAMPLE = "sampler.sample_configuration_model"


def _acceptance(op):
    """Accepted draws (one per replicate) over all draws."""
    draws = _counts(SAMPLE, "draws")(op)
    return _calls(SAMPLE)(op) / draws if draws else 0.0


class OpSpans:
    """The spans of one traced operation, with per-layer self times: a
    span's duration minus the time its child spans cover."""

    def __init__(self, root, spans):
        self.root, self.spans = root, spans
        child_time = {}
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        for s in spans:
            self.self_time[s.layer] += s.duration - child_time.get(s.sid, 0.0)

    def failed_leaf_calls(self, layer):
        """Spans of the layer that raised while none of their children did."""
        failed_parents = {s.parent for s in self.spans if s.error}
        return sum(1 for s in self.spans
                   if s.layer == layer and s.error and s.sid not in failed_parents)


# per-layer metric -> (unit, value for one traced operation)
PER_LAYER = {
    "graph.parse_s": ("s", _time("graph.parse_edge_list")),
    "graph.links": ("count", _counts("graph.parse_edge_list", "links", max)),
    "graph.cascade_s": ("s", _time("graph.ltm_trajectory")),
    "graph.cascade_steps": ("count", _counts("graph.ltm_trajectory", "steps")),
    "typestats.extract_s": ("s", _time("typestats.extract_statistics")),
    "typestats.types": ("count", _counts("typestats.extract_statistics", "types", max)),
    "typestats.post_s": ("s", _time("typestats.post_statistics")),
    "meanfield.phi_grid_s": ("s", _time("meanfield.phi_grid")),
    "meanfield.psi_inverse_s": ("s", _time("meanfield.psi_inverse")),
    "meanfield.coeff_a_s": ("s", _time("meanfield.coeff_a")),
    "meanfield.coeff_a_calls": ("count", _calls("meanfield.coeff_a")),
    "meanfield.recursion_s": ("s", _time("meanfield.recursion")),
    "meanfield.recursion_steps": ("count", _counts("meanfield.recursion", "steps")),
    "meanfield.curves_s": ("s", _time("meanfield.dump_curves")),
    "planner.build_lp_s": ("s", _time("planner.build_lp")),
    "planner.to_xi_s": ("s", _time("planner.solution_to_intervention")),
    "planner.audit_relaxed_s": ("s", _time("planner.audit_relaxed")),
    "planner.audit_original_s": ("s", _time("planner.audit_original")),
    "planner.delta_n_s": ("s", _time("planner.delta_n")),
    "planner.failed_calls": ("count", lambda op: op.failed_leaf_calls("planner")),
    "planner.lp_rows": ("count", _counts("planner.build_lp", "rows", max)),
    "planner.lp_cols": ("count", _counts("planner.build_lp", "cols", max)),
    "planner.lp_nnz": ("count", _counts("planner.build_lp", "nnz", max)),
    "planner.pruned_cols": ("count", _counts("planner.build_lp", "pruned", max)),
    "planner.lp_dense_mb": ("MB", _counts("planner.build_lp", "dense_mb", max)),
    "lp.solve_s": ("s", _time("lp.solve")),
    "lp.check_s": ("s", _time("lp.check_solution")),
    "lp.iterations": ("count", _counts("lp.solve", "iterations")),
    "lp.gap": ("ratio", _counts("lp.solve", "gap", max)),
    "lp.max_violation": ("ratio", _counts("lp.solve", "violation", max)),
    "sampler.sample_s": ("s", _time(SAMPLE)),
    "sampler.replicates": ("count", _calls(SAMPLE)),
    "sampler.draws": ("count", _counts(SAMPLE, "draws")),
    "sampler.acceptance": ("ratio", _acceptance),
    "sampler.predicted_acceptance": ("ratio", _counts(SAMPLE, "predicted", max)),
    "sampler.reported_acceptance": ("ratio", _counts(SAMPLE, "reported", max)),
    "sampler.realize_s": ("s", _time("sampler.realize_intervention")),
}
PER_LAYER.update({layer + ".self_s": ("s", lambda op, layer=layer: op.self_time[layer])
                  for layer in LAYERS})


def op_metrics(op):
    return {name: fn(op) for name, (_, fn) in PER_LAYER.items()}


def layer_sum_error(op):
    """|sum of layer self times - root span| for one operation; zero up to
    rounding when every span nests inside the root."""
    return abs(sum(op.self_time.values()) - op.root.duration)
