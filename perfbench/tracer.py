"""Outside-in layer tracer for eisen2.

``install()`` wraps the public functions and methods of each eisen2 module
in place, so nothing under ``src/`` changes.  A module-level function is
replaced at every module attribute that refers to it, because ``checks``,
``graded``, ``catalog`` and ``cli`` bind several of them by name; an
unpatched binding would charge its callee's time to the caller.

Spans are aggregated into one call tree per check: a node is a call path
(check -> catalog.delta -> qseries.pow -> qseries.mul, ...) with its call
count, inclusive time and self time.  Self time is a span's duration minus
the time its child spans cover.  Trees stay in memory and are returned by
``Tracer.report``.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

_clock = time.perf_counter

# Wrapped module-level functions: (module, function, span name).
FUNCTIONS = (
    ("scalars", "bernoulli", "scalars.bernoulli"),
    ("scalars", "zeta_even", "scalars.zeta_even"),
    ("scalars", "lambda_even", "scalars.lambda_even"),
    ("scalars", "rs_coefficient", "scalars.rs_coefficient"),
    ("scalars", "ks_coefficient", "scalars.ks_coefficient"),
    ("scalars", "ks_alpha", "scalars.ks_alpha"),
    ("qseries", "qs_det", "qseries.det"),
    ("qseries", "first_difference", "qseries.compare"),
    ("arith", "sigma", "arith.divisor_sums"),
    ("arith", "sigma_star", "arith.divisor_sums"),
    ("arith", "sigma_sharp", "arith.divisor_sums"),
    ("arith", "divisors", "arith.divisor_sums"),
    ("arith", "r_oracle", "arith.oracles"),
    ("arith", "delta8_oracle", "arith.oracles"),
    ("arith", "tau_table", "arith.tables"),
    ("arith", "r_count", "arith.tables"),
    ("arith", "primes_up_to", "arith.tables"),
    ("graded", "e_star_poly", "graded.e_star_poly"),
    ("graded", "decompose_modular", "graded.decompose"),
    ("graded", "gp_evaluate", "graded.gp_evaluate"),
    ("graded", "serre_delta", "graded.serre"),
    ("graded", "serre_partial", "graded.serre"),
    ("graded", "check_positivity", "graded.positivity"),
)

# Wrapped methods: (module, class, method, span name).
METHODS = (
    ("qseries", "QSeries", "__pow__", "qseries.pow"),
    ("qseries", "QSeries", "invert", "qseries.invert"),
    ("qseries", "QSeries", "__add__", "qseries.linear"),
    ("qseries", "QSeries", "__sub__", "qseries.linear"),
    ("qseries", "QSeries", "__neg__", "qseries.linear"),
    ("qseries", "QSeries", "scale", "qseries.linear"),
    ("qseries", "QSeries", "theta", "qseries.linear"),
    ("qseries", "QSeries", "neg_q", "qseries.linear"),
    ("qseries", "QSeries", "truncate", "qseries.linear"),
    ("qseries", "QSeries", "zero", "qseries.linear"),
    ("qseries", "QSeries", "one", "qseries.linear"),
    ("qseries", "QSeries", "from_terms", "qseries.linear"),
    ("qseries", "QSeries", "__eq__", "qseries.compare"),
    ("catalog", "SeriesCatalog", "level1", "catalog.eisenstein"),
    ("catalog", "SeriesCatalog", "level2", "catalog.eisenstein"),
    ("catalog", "SeriesCatalog", "delta", "catalog.delta"),
    ("catalog", "SeriesCatalog", "theta3", "catalog.theta3"),
    ("catalog", "SeriesCatalog", "C", "catalog.C"),
    ("catalog", "SeriesCatalog", "D", "catalog.D"),
    ("checks", "Workspace", "catalog_at", "checks.workspace"),
    ("checks", "Workspace", "catalog", "checks.workspace"),
    ("checks", "Workspace", "rcat", "checks.workspace"),
    ("checks", "Workspace", "sigma_range", "checks.workspace"),
    ("checks", "Workspace", "sigma_star_range", "checks.workspace"),
    ("checks", "Workspace", "r_table", "checks.workspace"),
    ("checks", "Workspace", "tau_range", "checks.workspace"),
)


class Node:
    """One call path in a check's span tree."""

    __slots__ = ("calls", "total", "self_time", "children", "misses", "terms",
                 "int_calls")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.children: dict[str, Node] = {}
        self.misses = 0  # calls that opened at least one child span
        self.terms = 0  # qseries.mul only: schoolbook multiply-adds
        self.int_calls = 0  # qseries.mul only: all-integer operands

    def to_json(self, name: str) -> dict:
        out = {"name": name, "calls": self.calls, "total_s": round(self.total, 6),
               "self_s": round(self.self_time, 6)}
        if self.children:
            out["children"] = [c.to_json(n) for n, c in self.children.items()]
        return out


class Tracer:
    def __init__(self):
        self.base = Node()  # check spans are its children
        # open spans: [node, time covered by children, opened a child]
        self.stack: list[list] = [[self.base, 0.0, False]]
        self.catalog_instances = 0
        self.poly_mul_calls = 0
        self.scopes: dict[str, str] = {}  # check span name -> registry scope

    def span(self, name: str, fn, measure=None):
        """Wrap fn so that each call is one span called ``name``.

        ``measure(args)`` returns (terms, all_int) for the call, computed
        before the span's clock starts.
        """
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            parent[2] = True
            node = parent[0].children.get(name)
            if node is None:
                node = parent[0].children[name] = Node()
            if measure is not None:
                terms, all_int = measure(args)
                node.terms += terms
                node.int_calls += all_int
            frame = [node, 0.0, False]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                node.calls += 1
                node.total += elapsed
                node.self_time += elapsed - frame[1]
                node.misses += frame[2]
                parent[1] += elapsed

        return wrapper

    def report(self, run_s: float) -> tuple[dict, dict, dict]:
        """Per-layer metrics, per-layer totals and the span tree of each check.

        A layer's inclusive time sums its outermost spans, so it covers the
        work the layer triggers in lower layers; its self time does not.
        """
        totals: dict[str, list] = {}  # span name -> [calls, self, misses]
        layers: dict[str, dict] = {}
        mul = [0, 0]  # terms, all-integer calls
        shared = [0.0]

        def walk(name: str, node: Node, outer: frozenset) -> None:
            acc = totals.setdefault(name, [0, 0.0, 0])
            acc[0] += node.calls
            acc[1] += node.self_time
            acc[2] += node.misses
            if name == "qseries.mul":
                mul[0] += node.terms
                mul[1] += node.int_calls
            layer = layer_of(name)
            lay = layers.setdefault(layer, {"calls": 0, "self_s": 0.0,
                                            "inclusive_s": 0.0})
            lay["calls"] += node.calls
            lay["self_s"] += node.self_time
            if layer not in outer:
                lay["inclusive_s"] += node.total
            if layer in ("catalog", "workspace") and not outer & {"catalog", "workspace"}:
                shared[0] += node.total
            for child_name, child in node.children.items():
                walk(child_name, child, outer | {layer})

        top = self.base.children
        for name, node in top.items():
            walk(name, node, frozenset())
        check_nodes = {n: node for n, node in top.items() if n in self.scopes}

        def calls(*names):
            return sum(totals.get(n, (0, 0.0, 0))[0] for n in names)

        def self_s(*names):
            return sum(totals.get(n, (0, 0.0, 0))[1] for n in names)

        scalars = [n for n in totals if n.startswith("scalars.")]
        catalog = ("catalog.eisenstein", "catalog.delta", "catalog.theta3",
                   "catalog.C", "catalog.D")
        catalog_calls = calls(*catalog)
        builds = sum(totals.get(n, (0, 0.0, 0))[2] for n in catalog)
        mul_calls = calls("qseries.mul")
        checks = check_nodes.values()
        covered = sum(n.total for n in top.values())
        metrics = {
            "scalars.calls": calls(*scalars),
            "scalars.self_s": self_s(*scalars),
            "qseries.mul.calls": mul_calls,
            "qseries.mul.self_s": self_s("qseries.mul"),
            "qseries.mul.terms": mul[0],
            "qseries.mul.int_frac": mul[1] / mul_calls if mul_calls else 0.0,
            "qseries.pow.calls": calls("qseries.pow"),
            "qseries.pow.self_s": self_s("qseries.pow"),
            "qseries.invert.calls": calls("qseries.invert"),
            "qseries.invert.self_s": self_s("qseries.invert"),
            "qseries.det.calls": calls("qseries.det"),
            "qseries.det.self_s": self_s("qseries.det"),
            "qseries.linear.self_s": self_s("qseries.linear"),
            "qseries.compare.self_s": self_s("qseries.compare"),
            "arith.divisor_sums.calls": calls("arith.divisor_sums"),
            "arith.divisor_sums.self_s": self_s("arith.divisor_sums"),
            "arith.oracles.self_s": self_s("arith.oracles"),
            "arith.tables.self_s": self_s("arith.tables"),
            "catalog.instances": self.catalog_instances,
            "catalog.builds": builds,
            "catalog.hit_frac": (catalog_calls - builds) / catalog_calls
            if catalog_calls else 0.0,
            "catalog.eisenstein.self_s": self_s("catalog.eisenstein"),
            "catalog.delta.self_s": self_s("catalog.delta"),
            "catalog.C.self_s": self_s("catalog.C"),
            "catalog.D.self_s": self_s("catalog.D"),
            "graded.e_star_poly.self_s": self_s("graded.e_star_poly"),
            "graded.decompose.self_s": self_s("graded.decompose"),
            "graded.gp_evaluate.self_s": self_s("graded.gp_evaluate"),
            "graded.serre.self_s": self_s("graded.serre"),
            "graded.poly_mul.calls": self.poly_mul_calls,
            "checks.calls": sum(n.calls for n in checks),
            "checks.self_s": sum(n.self_time for n in checks),
            "checks.range.self_s": sum(
                n.self_time for name, n in check_nodes.items()
                if self.scopes[name] == "range"),
            "checks.workspace.self_s": self_s("checks.workspace"),
            "checks.shared_build_s": shared[0],
            "checks.slowest_s": max((n.total for n in checks), default=0.0),
            "trace.unattributed_s": run_s - covered,
        }
        trees = {name: node.to_json(name) for name, node in check_nodes.items()}
        return metrics, layers, trees


def layer_of(span_name: str) -> str:
    """The layer a span belongs to: checks, workspace, qseries, catalog, ..."""
    if span_name.startswith("check "):
        return "checks"
    if span_name.startswith("checks.workspace"):
        return "workspace"
    return span_name.split(".", 1)[0]


def _mul_measure(args) -> tuple[int, bool]:
    # a schoolbook product on the common order n does one multiply-add per
    # nonzero a_i and each b_j with i + j <= n
    a, b = args
    n = min(a.order, b.order)
    left = [a[i] for i in range(n + 1)]
    right = [b[i] for i in range(n + 1)]
    terms = sum(n - i + 1 for i, c in enumerate(left) if c)
    all_int = all(c.denominator == 1 for c in left + right)
    return terms, all_int


def _eisen2_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "eisen2" or name.startswith("eisen2."))]


def install() -> Tracer:
    """Wrap every eisen2 layer boundary; returns the tracer collecting spans.

    Call once per process, after ``eisen2.cli`` has been imported.
    """
    from eisen2 import arith, catalog, checks, graded, qseries, scalars

    modules = {"scalars": scalars, "qseries": qseries, "arith": arith,
               "catalog": catalog, "graded": graded, "checks": checks}
    tracer = Tracer()

    originals = {}
    for mod, attr, name in FUNCTIONS:
        fn = getattr(modules[mod], attr)
        originals[id(fn)] = (fn, tracer.span(name, fn))
    for module in _eisen2_modules():
        for attr, value in list(vars(module).items()):
            if id(value) in originals and originals[id(value)][0] is value:
                setattr(module, attr, originals[id(value)][1])

    for mod, cls_name, attr, name in METHODS:
        cls = getattr(modules[mod], cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.span(name, raw.__func__))
        elif isinstance(raw, property):
            wrapped = property(tracer.span(name, raw.fget))
        else:
            wrapped = tracer.span(name, raw)
        setattr(cls, attr, wrapped)

    # series times series is a "mul" span; series times scalar goes on to
    # the wrapped scale()
    QSeries = qseries.QSeries
    series_mul = QSeries.__mul__
    mul_span = tracer.span("qseries.mul", series_mul, _mul_measure)

    def mul(self, other):
        if isinstance(other, QSeries):
            return mul_span(self, other)
        return series_mul(self, other)

    QSeries.__mul__ = mul

    catalog_init = catalog.SeriesCatalog.__init__

    def counting_init(self, *args, **kwargs):
        tracer.catalog_instances += 1
        catalog_init(self, *args, **kwargs)

    catalog.SeriesCatalog.__init__ = counting_init

    poly_mul = graded.GradedPoly.__mul__
    GradedPoly = graded.GradedPoly

    def counting_mul(self, other):
        if isinstance(other, GradedPoly):
            tracer.poly_mul_calls += 1
        return poly_mul(self, other)

    graded.GradedPoly.__mul__ = counting_mul

    for check_id, check in list(checks.REGISTRY.items()):
        span_name = f"check {check_id}"
        tracer.scopes[span_name] = check.scope
        checks.REGISTRY[check_id] = dataclasses.replace(
            check, runner=tracer.span(span_name, check.runner))

    return tracer
