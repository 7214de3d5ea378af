"""Span and counter recorder for the traced run, and the wrappers feeding it.

installed() wraps every public function of the six working layers of
truncbin, under each name a module binds it to (cli and claims import
functions by name, so rebinding only the defining module would miss
their calls), plus the report serialisers of residue_scan.  On exit it
puts every original object back.

A span is closed into a per-name aggregate rather than kept as a record:
a traced catalog pass opens some 660 000 spans.  Self time is a span's
duration minus the durations of its direct children, which in a single
thread are nested and disjoint, so that is the time they cover.
"""
from __future__ import annotations

import contextlib
import functools
import time

LAYERS = ("binomial_core", "valuation", "compatibility", "residue_scan", "claims", "cli")
REPORT_METHODS = (
    ("ScanReport", "to_jsonable"),
    ("ScanReport", "to_json"),
    ("QuadraticScanReport", "to_jsonable"),
    ("QuadraticScanReport", "to_json"),
)

# (name, unit) of every per-layer metric but the claim timings, in report
# order; per_layer() adds one claims.<CODE>_ms per catalog code.
LAYER_METRICS = [
    ("residue_scan.calls", "count"),
    ("residue_scan.self_ms", "ms"),
    ("residue_scan.cells", "count"),
    ("residue_scan.witnesses", "count"),
    ("residue_scan.cells_per_s", "1/s"),
    ("residue_scan.witness_ratio", "ratio"),
    ("residue_scan.to_jsonable_ms", "ms"),
    ("cli.calls", "count"),
    ("cli.self_ms", "ms"),
    ("cli.out_bytes", "bytes"),
    ("cli.uncaught", "count"),
    ("binomial_core.calls", "count"),
    ("binomial_core.self_ms", "ms"),
    ("binomial_core.max_bits", "bits"),
    ("valuation.calls", "count"),
    ("valuation.self_ms", "ms"),
    ("valuation.divisions", "count"),
    ("valuation.factored_ms", "ms"),
    ("compatibility.calls", "count"),
    ("compatibility.self_ms", "ms"),
    ("compatibility.rule_decided", "count"),
    ("compatibility.exact_only", "count"),
    ("compatibility.undetermined", "count"),
]


def per_layer(claim_codes):
    """(name, unit) of every per-layer metric, for the package's catalog."""
    claims = [(f"claims.{code}_ms", "ms") for code in claim_codes]
    return LAYER_METRICS + claims + [("claims.self_ms", "ms"), ("trace.overhead_s", "s")]


class Recorder:
    """Open/close spans on a stack; keep per-name totals and counters."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self._stack = []  # [name, start_ns, child_ns] of each open span
        self.spans = {}  # name -> [calls, total_ns, self_ns]
        self.counters = {}

    def open(self, name):
        self._stack.append([name, self.clock(), 0])

    def close(self):
        name, start, child_ns = self._stack.pop()
        duration = self.clock() - start
        if self._stack:
            self._stack[-1][2] += duration
        totals = self.spans.setdefault(name, [0, 0, 0])
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - child_ns

    def count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name, value):
        self.counters[name] = max(self.counters.get(name, 0), value)

    def layer_totals(self, layer):
        """(calls, self_ns) summed over every span name of one layer."""
        rows = [t for name, t in self.spans.items() if name.split(".")[0] == layer]
        return sum(r[0] for r in rows), sum(r[2] for r in rows)

    def total_ns(self, *names):
        return sum(self.spans[name][1] for name in names if name in self.spans)


def _wrap(recorder, fn, name, on_result=None, name_of=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        recorder.open(name_of(*args, **kwargs) if name_of else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close()
        if on_result is not None:
            on_result(result)
        return result

    return traced


def _result_hooks(recorder):
    def max_bits(value):
        recorder.maximum("binomial_core.max_bits", abs(value).bit_length())

    def divisions(valuation):
        exponent = 0 if valuation.is_infinite else valuation.exponent
        recorder.count("valuation.divisions", exponent + 1)

    def tiers(verdict):
        if verdict.evidence["rule_tier"].value == "Incompatible":
            recorder.count("compatibility.rule_decided")
        elif verdict.evidence["exact_tier"].value == "Incompatible":
            recorder.count("compatibility.exact_only")
        else:
            recorder.count("compatibility.undetermined")

    def scanned(report):
        recorder.count("residue_scan.cells", report.cells_scanned)
        recorder.count("residue_scan.witnesses", len(report.witnesses))

    def quadratic(report):
        recorder.count("residue_scan.cells", report.cells_scanned)

    return {
        "binomial_core.truncated2_direct": max_bits,
        "binomial_core.truncated2_series": max_bits,
        "binomial_core.truncated3": max_bits,
        "valuation.padic_valuation": divisions,
        "compatibility.case_A_verdict": tiers,
        "residue_scan.scan_divisibility": scanned,
        "residue_scan.scan_quadratic": quadratic,
    }


def _claim_span(code, *args, **kwargs):
    return f"claims.{code}"


@contextlib.contextmanager
def installed(tb, recorder):
    """Route the package's public functions through recorder spans."""
    modules = [tb] + [getattr(tb, layer) for layer in LAYERS]
    hooks = _result_hooks(recorder)
    saved = []
    try:
        for layer in LAYERS:
            module = getattr(tb, layer)
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = _wrap(
                    recorder, fn, name, hooks.get(name),
                    _claim_span if name == "claims.run_claim" else None,
                )
                for owner in modules:
                    for bound, value in list(vars(owner).items()):
                        if value is fn:
                            saved.append((owner, bound, fn))
                            setattr(owner, bound, wrapper)
        for cls_name, method in REPORT_METHODS:
            cls = getattr(tb.residue_scan, cls_name)
            fn = vars(cls)[method]
            saved.append((cls, method, fn))
            setattr(cls, method, _wrap(recorder, fn, f"residue_scan.{cls_name}.{method}"))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(recorder, claim_codes):
    """Per-layer values of one traced pass, keyed as in per_layer()."""
    out = {}
    for layer in LAYERS:
        calls, self_ns = recorder.layer_totals(layer)
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_ms"] = self_ns / 1e6
    c = recorder.counters
    cells = c.get("residue_scan.cells", 0)
    witnesses = c.get("residue_scan.witnesses", 0)
    kernel_ns = recorder.total_ns(
        "residue_scan.scan_divisibility", "residue_scan.scan_quadratic"
    )
    out["residue_scan.cells"] = cells
    out["residue_scan.witnesses"] = witnesses
    out["residue_scan.cells_per_s"] = cells * 1e9 / kernel_ns if kernel_ns else 0.0
    out["residue_scan.witness_ratio"] = witnesses / cells if cells else 0.0
    out["residue_scan.to_jsonable_ms"] = recorder.total_ns(
        "residue_scan.ScanReport.to_jsonable",
        "residue_scan.QuadraticScanReport.to_jsonable",
    ) / 1e6
    out["cli.out_bytes"] = c.get("cli.out_bytes", 0)
    out["cli.uncaught"] = c.get("cli.uncaught", 0)
    out["binomial_core.max_bits"] = c.get("binomial_core.max_bits", 0)
    out["valuation.divisions"] = c.get("valuation.divisions", 0)
    out["valuation.factored_ms"] = recorder.total_ns(
        "valuation.factored_u2", "valuation.trinomial_rhs_factored"
    ) / 1e6
    for key in ("rule_decided", "exact_only", "undetermined"):
        out[f"compatibility.{key}"] = c.get(f"compatibility.{key}", 0)
    for code in claim_codes:
        out[f"claims.{code}_ms"] = recorder.total_ns(f"claims.{code}") / 1e6
    return {name: out[name] for name, _ in per_layer(claim_codes) if name in out}
