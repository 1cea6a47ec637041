"""Span recording for traced requests and the per-layer metrics derived from it.

The tracer lives in the request process (``worker.py``).  It rebinds every
public function of the oddzeta modules, in every module namespace that holds
it, to a wrapper that records a span: name, start, end, parent span and
request id.  Closures handed to or returned by the library are wrapped too:
the integrand that ``quad.integrate_01`` / ``quad.integrate_semi_inf``
receive, and the Horner evaluator that ``pipoly.poly_evaluator`` returns.
Spans stay in memory and are written once, when the request ends.

The derivation half (``layer_metrics``) runs in the benchmark process on the
written file, so the numbers come from the spans alone.  Nothing under
``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

MODULES = ("exactnum", "pipoly", "expansion", "quad", "reference", "zetarep", "gammaderiv", "cli")

# Closure spans, named after the layer whose code runs inside them.
ZETAREP_INTEGRAND = "zetarep.integrand"
OTHER_INTEGRAND = "quad.integrand"
HORNER = "pipoly.horner"
INTEGRATORS = ("quad.integrate_01", "quad.integrate_semi_inf")


class Tracer:
    """In-memory span store for one request.

    ``spans[i]`` is ``[name, start_ns, end_ns, parent_index]``; a span is
    appended when it opens, so a parent always precedes its children.
    ``attrs`` holds quadrature diagnostics keyed by span index.
    """

    def __init__(self, request: int):
        self.request = request
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}
        self.stack = [-1]
        self.abscissas: set = set()
        self.seen_precisions: set = set()

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0, 0, stack[-1]]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        if hasattr(fn, "cache_clear"):
            traced.cache_clear = fn.cache_clear
        return traced

    def wrap_zetarep_integrand(self, fn):
        traced = self.wrap(ZETAREP_INTEGRAND, fn)
        abscissas = self.abscissas

        def integrand(t):
            abscissas.add(t)
            return traced(t)

        return integrand

    def wrap_integrator(self, name, fn, working_precision):
        """Wrap ``integrate_01``/``integrate_semi_inf``, their integrand and result."""
        traced = self.wrap(name, fn)

        def integrate(f, tol, precision, *args, **kwargs):
            if getattr(f, "__module__", None) == "oddzeta.zetarep":
                f = self.wrap_zetarep_integrand(f)
            else:
                f = self.wrap(OTHER_INTEGRAND, f)
            wp = working_precision(precision)
            first = name == INTEGRATORS[0] and wp not in self.seen_precisions
            if name == INTEGRATORS[0]:
                self.seen_precisions.add(wp)
            index = len(self.spans)
            result = traced(f, tol, precision, *args, **kwargs)
            self.attrs[index] = {
                "first_at_wp": first,
                "evaluations": result.evaluations,
                "levels": result.levels,
                "converged": result.converged,
            }
            return result

        return functools.wraps(fn)(integrate)

    def wrap_poly_evaluator(self, fn):
        traced = self.wrap("pipoly.poly_evaluator", fn)

        def poly_evaluator(*args, **kwargs):
            return self.wrap(HORNER, traced(*args, **kwargs))

        return functools.wraps(fn)(poly_evaluator)

    def install(self):
        """Rebind every public oddzeta function to its traced wrapper."""
        modules = {name: importlib.import_module(f"oddzeta.{name}") for name in MODULES}
        working_precision = modules["quad"].working_precision
        replacements = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in INTEGRATORS:
                    wrapper = self.wrap_integrator(name, obj, working_precision)
                elif name == "pipoly.poly_evaluator":
                    wrapper = self.wrap_poly_evaluator(obj)
                else:
                    wrapper = self.wrap(name, obj)
                replacements[id(obj)] = (obj, wrapper)
        namespaces = list(modules.values()) + [importlib.import_module("oddzeta")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def dump(self, path: str) -> None:
        """Write the header line, then one JSON line per span."""
        header = {
            "request": self.request,
            "counters": {"zetarep.distinct_abscissas": len(self.abscissas)},
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                row = [name, start, end, parent, self.request]
                if index in self.attrs:
                    row.append(self.attrs[index])
                handle.write(json.dumps(row) + "\n")


def load(path: str):
    """Read a span file written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        spans = [json.loads(line) for line in handle]
    return header, spans


def layer_metrics(header: dict, spans: list) -> dict:
    """Per-layer metrics of one traced request, from its spans alone.

    A layer's ``.s`` is the time of its outermost spans (a recursive or
    nested call is not counted twice); ``self`` times subtract the part of
    each span that its child spans cover.
    """
    names = [row[0] for row in spans]
    parents = [row[3] for row in spans]
    durations = [(row[2] - row[1]) / 1e9 for row in spans]
    attrs = [row[5] if len(row) > 5 else None for row in spans]
    children = [0.0] * len(spans)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent] += durations[index]
    self_time = [d - c for d, c in zip(durations, children)]

    def matching(pred):
        return [i for i, n in enumerate(names) if pred(n)]

    def outermost(pred):
        covered = [False] * len(spans)
        total = 0.0
        for index, parent in enumerate(parents):
            covered[index] = parent >= 0 and (covered[parent] or pred(names[parent]))
            if pred(names[index]) and not covered[index]:
                total += durations[index]
        return total

    def named(*wanted):
        return lambda n: n in wanted

    def prefixed(prefix):
        return lambda n: n.startswith(prefix)

    integrations = [attrs[i] for i in matching(named(*INTEGRATORS)) if attrs[i]]
    zetarep_evaluations = len(matching(named(ZETAREP_INTEGRAND)))
    distinct = header["counters"]["zetarep.distinct_abscissas"]
    horner = matching(named(HORNER))
    return {
        "quad.first_call_self_s": sum(
            self_time[i]
            for i in matching(named(INTEGRATORS[0]))
            if attrs[i] and attrs[i]["first_at_wp"]
        ),
        "quad.self_s": sum(
            self_time[i] for i in matching(lambda n: n.startswith("quad.") and n != OTHER_INTEGRAND)
        ),
        "quad.integrate_01.calls": len(matching(named(INTEGRATORS[0]))),
        "quad.evaluations": sum(a["evaluations"] for a in integrations),
        "quad.levels_max": max((a["levels"] for a in integrations), default=0),
        "quad.converged_ratio": (
            sum(1 for a in integrations if a["converged"]) / len(integrations) if integrations else 0.0
        ),
        "quad.semi_inf.s": outermost(named(INTEGRATORS[1])),
        "zetarep.integrand_self_s": sum(self_time[i] for i in matching(named(ZETAREP_INTEGRAND))),
        "zetarep.distinct_abscissa_ratio": (
            distinct / zetarep_evaluations if zetarep_evaluations else 0.0
        ),
        "pipoly.poly_evaluator.s": outermost(named("pipoly.poly_evaluator")),
        "pipoly.horner.calls": len(horner),
        "pipoly.horner.s": sum(durations[i] for i in horner),
        "pipoly.sin_moment.s": outermost(named("pipoly.sin_moment")),
        "pipoly.integrate_against_sin.s": outermost(named("pipoly.integrate_against_sin")),
        "pipoly.render.s": outermost(
            named("pipoly.to_json_terms", "pipoly.to_latex", "pipoly.from_json_terms")
        ),
        "expansion.p_poly.s": outermost(named("expansion.p_poly")),
        "expansion.w_coeff.s": outermost(named("expansion.w_coeff")),
        "exactnum.s": outermost(prefixed("exactnum.")),
        "exactnum.calls": len(matching(prefixed("exactnum."))),
        "reference.zeta_ref.s": outermost(named("reference.zeta_ref")),
        "reference.zeta_ref.calls": len(matching(named("reference.zeta_ref"))),
        "reference.euler_gamma.s": outermost(named("reference.euler_gamma")),
        "reference.digamma_ref.s": outermost(named("reference.digamma_ref")),
        "reference.digamma_mikolas.s": outermost(named("reference.digamma_mikolas")),
        "gammaderiv.numeric.s": outermost(named("gammaderiv.gamma_nth_derivative_numeric")),
        "gammaderiv.bell.s": outermost(named("gammaderiv.gamma_nth_derivative_at_1")),
        "cli.self_s": sum(self_time[i] for i in matching(prefixed("cli."))),
    }
