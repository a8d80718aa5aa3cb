"""Span tracing of the traced benchmark run, installed from outside the
package.

Wrappers replace each traced function on every ``vecfdp`` module that binds
it (``from .gfc import log_noncentral_row`` gives ``prediction`` its own
binding), so calls are caught whichever name the program calls through.
Nothing inside ``src/`` is edited.

Each span records name, start, end, parent span and request id.  Spans are
kept in memory and written out by ``write_spans`` when the run ends.  A
span's self time is its duration minus the time covered by its child spans;
spans nest, so that is the sum of the direct children's durations.
``VCoefficients.log_v`` is called up to 10^6 times per request and gets a
counter only.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

#: (module, function, span name, counter derived from (args, result))
SPANS = [
    ("vecfdp.vcoef", "log_v", "vcoef.log_v", None),
    ("vecfdp.mprior", "expectation", "mprior.expectation", None),
    ("vecfdp.estimation", "fit_lambda", "estimation.fit", None),
    ("vecfdp.estimation", "fit_gamma", "estimation.fit", None),
    ("vecfdp.gfc", "log_noncentral_row", "gfc.noncentral_row",
     lambda args, out: ("cells", (args[0] + 1) ** 2)),
    ("vecfdp.gfc", "build_central_table", "gfc.central_table",
     lambda args, out: ("cells", (args[1] + 1) ** 2)),
    ("vecfdp.prediction", "shared_coverage_prob", "prediction.shared_coverage_prob", None),
    ("vecfdp.prediction", "extrapolation_curves", "prediction.extrapolation_curves", None),
    ("vecfdp.prediction", "posterior_m_pmf", "prediction.posterior_m_pmf",
     lambda args, out: ("support", len(out.entries))),
    ("vecfdp.prediction", "expected_new", "prediction.expected_new", None),
    ("vecfdp.prediction", "posterior_joint_new", "prediction.posterior_joint_new", None),
    ("vecfdp.prediction", "one_step_shared_pmf", "prediction.one_step", None),
    ("vecfdp.prediction", "predictive_pair_probs", "prediction.one_step", None),
    ("vecfdp.insample", "prior_joint", "insample.prior_laws", None),
    ("vecfdp.insample", "prior_marginal_global", "insample.prior_laws", None),
    ("vecfdp.insample", "prior_joint_global_shared", "insample.prior_laws", None),
    ("vecfdp.insample", "correlation", "insample.correlation", None),
    ("vecfdp.simulate", "run_experiment1", "simulate.harness", None),
    ("vecfdp.simulate", "run_experiment2", "simulate.harness", None),
    ("vecfdp.abundance", "ingest", "abundance.ingest", None),
    ("vecfdp.cli", "main", "cli.main", None),
]

#: functions whose calls count as moment evaluations of the fit
MOMENT_FUNCTIONS = ("expected_cross_moment", "expected_simpson_moment")


class TracingError(RuntimeError):
    """A traced function is missing from the package."""


class Tracer:
    """In-memory span store with per-name call counts and self times."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.self_ns: Counter = Counter()  # by "stream:span name"
        self.request_id = -1
        self.stream = ""
        self._stack: list[list] = []  # [span id, child ns] per open span
        self._bindings: list[tuple] = []  # (owner, name, original, wrapper)

    def span(self, name: str, fn, *args, **kwargs):
        span_id = len(self.spans) + len(self._stack)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0]
        self._stack.append(frame)
        self.counts[name + ".calls"] += 1
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.self_ns[f"{self.stream}:{name}"] += duration - frame[1]
            self.spans.append((span_id, parent, self.request_id, name, start, end))

    def _wrap_span(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            if counter is not None:
                key, amount = counter(args, out)
                self.counts[f"{name}.{key}"] += amount
            return out
        return traced

    def _wrap_count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _replace(self, module: str, attr: str, wrapper_of) -> None:
        """Bind a wrapper to every vecfdp binding of module.attr.

        A target that is gone, or that no module binds, raises: its
        metrics would otherwise read 0 and pass for a speed-up.
        """
        original = getattr(sys.modules.get(module), attr, None)
        if not callable(original):
            raise TracingError(f"{module}.{attr} not found; update tracing.SPANS")
        wrapper = wrapper_of(original)
        found = False
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "vecfdp":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._bindings.append((mod, key, original, wrapper))
                    found = True
        if not found:
            raise TracingError(f"no vecfdp module binds {module}.{attr}")

    def install(self) -> None:
        """Find every binding to wrap, then enable the wrappers."""
        for module, attr, name, counter in SPANS:
            self._replace(module, attr,
                          lambda fn, n=name, c=counter: self._wrap_span(n, fn, c))
        for attr in MOMENT_FUNCTIONS:
            self._replace("vecfdp.estimation", attr,
                          lambda fn: self._wrap_count("estimation.moment_evals", fn))
        vcoef = sys.modules["vecfdp.vcoef"]
        lookup = getattr(getattr(vcoef, "VCoefficients", None), "log_v", None)
        if lookup is None:
            raise TracingError("vecfdp.vcoef.VCoefficients.log_v not found")

        @functools.wraps(lookup)
        def counted_lookup(vc, *args):
            # a lookup that runs the series is a miss
            before = self.counts["vcoef.log_v.calls"]
            value = lookup(vc, *args)
            self.counts["vcoef.cache.lookups"] += 1
            if self.counts["vcoef.log_v.calls"] != before:
                self.counts["vcoef.cache.misses"] += 1
            return value

        self._bindings.append((vcoef.VCoefficients, "log_v", lookup, counted_lookup))
        self.enable()

    def enable(self) -> None:
        for owner, key, _, wrapper in self._bindings:
            setattr(owner, key, wrapper)

    def disable(self) -> None:
        for owner, key, original, _ in self._bindings:
            setattr(owner, key, original)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,parent,request,name,start_ns,end_ns\n")
            for span in self.spans:
                handle.write(",".join(map(str, span)) + "\n")


def per_layer(counts: dict, self_ns: dict, requests: int) -> dict:
    """Per-layer metrics: counts as totals over the counting window, self
    times (``self_ns`` is keyed by "stream:span name") as mean seconds per
    traced request.  ``vcoef.cache.hit_ratio`` is left out when the window
    made no V lookup."""
    counts, by_name = Counter(counts), Counter()
    for key, ns in self_ns.items():
        by_name[key.split(":", 1)[1]] += ns
    metrics = {}

    def add(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in ("vcoef.log_v", "mprior.expectation", "estimation.fit",
                 "gfc.noncentral_row"):
        add(f"{name}.calls", counts[f"{name}.calls"], "count")
    lookups = counts["vcoef.cache.lookups"]
    add("vcoef.cache.lookups", lookups, "count")
    if lookups:  # without lookups there is no ratio; the metric is missing
        add("vcoef.cache.hit_ratio", 1.0 - counts["vcoef.cache.misses"] / lookups,
            "fraction")
    add("estimation.moment_evals", counts["estimation.moment_evals"], "count")
    add("gfc.noncentral_row.cells", counts["gfc.noncentral_row.cells"], "count")
    add("gfc.noncentral_row.computed_bytes", 8 * counts["gfc.noncentral_row.cells"], "B")
    add("gfc.central_table.builds", counts["gfc.central_table.calls"], "count")
    add("gfc.central_table.cells", counts["gfc.central_table.cells"], "count")
    add("prediction.posterior_m_pmf.support",
        counts["prediction.posterior_m_pmf.support"], "count")
    for name in sorted({span[2] for span in SPANS}):
        add(f"{name}.self_s", by_name[name] / 1e9 / max(requests, 1), "s")
    return metrics
