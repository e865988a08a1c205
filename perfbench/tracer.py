"""Span tracing of one CLI invocation, from outside the program.

Run as ``python -m perfbench.tracer <confspace argv...>``: it imports
confspace, wraps the public functions of its layers, runs ``cli.run(argv)``
and writes the aggregated spans to the last line of stderr, after the
marker ``TRACE_MARK``.  Stdout is the program's own, byte for byte.

A span wrapper times a call; a count wrapper only counts it (for functions
called so often that timing them would distort their callers).  Self time is
a span's duration minus the time of the spans it encloses.  Spans are
aggregated in memory by (name, parent name) as they close and written once
at the end: ``disc --n 6`` alone closes a few hundred thousand of them.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

TRACE_MARK = "PERFBENCH-TRACE "

LAYERS = ("ratios", "homology", "polyring", "morphisms", "braid")

# methods traced besides every public module-level function of a layer
METHODS = (
    "ratios.RatioComplex.all_simplices_by_dim",
    "ratios.RatioComplex.to_json",
    "polyring.MultiPoly.exact_divide",
    "polyring.MultiPoly.sorted_terms",
    "polyring.MultiPoly.__mul__",
    "polyring.MultiPoly.substitute",
    "polyring.MultiPoly.to_json_terms",
    "braid.Perm.__mul__",
)

# called up to millions of times per invocation: counted, not timed
COUNTED = frozenset((
    "ratios.divides_oracle",
    "ratios.as_diff_product",
    "ratios.klein_canonical",
    "ratios.make_simplex",
    "ratios.act",
    "ratios.cr_vertex",
    "ratios.sr_vertex",
    "ratios.divides_rule",
    "braid.hom_from_pair",
    "braid.check_relations",
    "braid.Perm.__mul__",
))


class Tracer:
    """Span and count wrappers sharing one stack of open spans."""

    def __init__(self):
        self.stack = []        # open spans: [name, child seconds]
        self.spans = {}        # (name, parent name) -> [calls, total, self]
        self.counts = {}       # counter name -> int

    def add(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, args)`` may add counts."""
        stack, spans = self.stack, self.spans

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                rec = spans.get((name, parent and parent[0]))
                if rec is None:
                    rec = spans[(name, parent and parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[1]
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counted(self, name, fn, after=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def summary(self):
        return {
            "spans": [[name, parent, *rec]
                      for (name, parent), rec in self.spans.items()],
            "counts": self.counts,
        }


def _targets(modules):
    """Traced name -> original callable: public functions of every layer
    (lru_cache wrappers included) and the methods in METHODS."""
    out = {}
    for layer in LAYERS:
        mod = modules[layer]
        for attr, value in vars(mod).items():
            if attr.startswith("_") or inspect.isclass(value):
                continue
            origin = getattr(value, "__wrapped__", value)
            if (inspect.isfunction(origin)
                    and origin.__module__ == mod.__name__):
                out["%s.%s" % (layer, attr)] = value
    for name in METHODS:
        layer, cls, attr = name.split(".")
        out[name] = vars(getattr(modules[layer], cls))[attr]
    return out


def _counters(tracer):
    """Work counts taken from a traced call's arguments and result."""
    add = tracer.add

    def smith(result, args):
        mat = args[0]
        add("homology.smith_diagonal.entries",
            len(mat) * (len(mat[0]) if mat else 0))

    def canonical(result, args):
        add("braid.canonical_form.letters", len(args[0].letters))
        add("braid.canonical_form.factors", len(result.factors))

    def relations(result, args):
        add("braid.check_relations.passed", result is None)

    def conjugate(result, args):
        add("braid.are_conjugate.hits", result is not None)

    return {
        "homology.smith_diagonal": smith,
        "braid.canonical_form": canonical,
        "braid.check_relations": relations,
        "braid.are_conjugate": conjugate,
    }


def _count_simplices(tracer, fn):
    """Simplices enumerated, counted once per complex (the method caches)."""

    def wrapper(self):
        fresh = self._by_dim is None
        result = fn(self)
        if fresh:
            tracer.add("ratios.simplices", sum(len(s) for s in result))
        return result

    return wrapper


def install(tracer):
    """Wrap every traced callable at every binding: module attributes,
    class attributes and names imported with ``from ... import``."""
    from confspace import braid, cli, homology, morphisms, polyring, ratios

    modules = {"cli": cli, "ratios": ratios, "homology": homology,
               "polyring": polyring, "morphisms": morphisms, "braid": braid}
    targets = _targets(modules)
    targets["cli.run"] = cli.run
    after = _counters(tracer)
    wrapped = {}
    for name, fn in targets.items():
        if name == "ratios.RatioComplex.all_simplices_by_dim":
            fn = _count_simplices(tracer, fn)
        make = tracer.counted if name in COUNTED else tracer.span
        wrapped[id(targets[name])] = make(name, fn, after.get(name))
    namespaces = []
    for mod in modules.values():
        namespaces.append(mod)
        namespaces.extend(v for v in vars(mod).values()
                          if inspect.isclass(v) and v.__module__ == mod.__name__)
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if id(value) in wrapped:
                setattr(ns, attr, wrapped[id(value)])
    return cli


def main(argv):
    tracer = Tracer()
    cli = install(tracer)
    try:
        return cli.run(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARK + json.dumps(tracer.summary()) + "\n")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
