"""Boundary tracing of stochord from the benchmark's own code.

Each listed function is wrapped at every name a stochord module binds it
to, so calls between modules go through the wrapper. A wrapper records a
span (name, start, end, parent) in flat arrays, and may read counts from
the call's result. Functions that no longer exist are recorded as absent;
their metrics are reported as absent rather than failing the run.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction

# span name -> (defining module, attribute)
SPANS = {
    "ordering.decide": ("stochord.ordering", "decide"),
    "ordering.closed_form": ("stochord.ordering", "decide_closed_form"),
    "ordering.bc": ("stochord.ordering", "_bc_stage"),
    "likelihood.hmlr": ("stochord.likelihood", "hmlr_criterion"),
    "oracle.dominance": ("stochord.oracle", "dominance"),
    "oracle.witnesses": ("stochord.oracle", "survival_witnesses"),
    "distributions.pmf": ("stochord.distributions", "pmf"),
    "exact.format_scalar": ("stochord.exact", "format_scalar"),
    "couplings.explicit": ("stochord.couplings", "binomial_explicit_coupling"),
    "couplings.occupancy": ("stochord.couplings", "occupancy_coupling"),
    "couplings.levy": ("stochord.couplings", "levy_coupling"),
    "couplings.poissonize": ("stochord.couplings", "binom_poisson_coupling"),
    "couplings.quantile": ("stochord.couplings", "quantile_coupling"),
    "couplings.harness": ("stochord.couplings", "run_harness"),
    "streams.substream": ("stochord.streams", "substream"),
}


class Tracer:
    """Spans in flat arrays, plus counters read at the same boundaries."""

    def __init__(self):
        self.names: list = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list = []
        self.counts: Counter = Counter()
        self.max_bits = 0
        self.min_p = None
        self.absent: set = set()
        self._restore: list = []

    # --- installing wrappers ------------------------------------------------------

    def install(self):
        hooks = {
            "distributions.pmf": self._on_pmf,
            "likelihood.hmlr": self._on_hmlr,
            "oracle.dominance": self._on_dominance,
            "couplings.harness": self._on_harness,
        }
        for name in SPANS:
            if name.startswith("couplings.") and name != "couplings.harness":
                hooks[name] = self._sample_counter(name)
        for name, (module_name, attr) in SPANS.items():
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.absent.add(name)
                continue
            self._rebind(original, self._span(name, original, hooks.get(name)))
        self._install_counters()

    def _rebind(self, original, wrapper):
        """Point every stochord binding of `original` at `wrapper`."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("stochord"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def _install_counters(self):
        counts = self.counts
        scan = getattr(sys.modules.get("stochord.oracle"), "_paired_cdf_scan", None)
        if scan is None:
            self.absent.add("oracle.k_scanned")
        else:

            def counted_scan(*args, **kwargs):
                for item in scan(*args, **kwargs):
                    counts["oracle.k_scanned"] += 1
                    yield item

            self._rebind(scan, counted_scan)
        stream = getattr(sys.modules.get("stochord.streams"), "Stream", None)
        draw = getattr(stream, "random", None)
        if draw is None:
            self.absent.add("streams.draws")
        else:

            def counted_random(self_):
                counts["streams.draws"] += 1
                return draw(self_)

            stream.random = counted_random
            self._restore.append((stream, "random", draw))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _span(self, name, fn, on_result):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack, name_of, start, end, parent = self._stack, self.name_of, self.start, self.end, self.parent
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- counters read from results ------------------------------------------------

    def _on_pmf(self, value):
        if isinstance(value, Fraction):
            bits = max(value.numerator.bit_length(), value.denominator.bit_length())
            if bits > self.max_bits:
                self.max_bits = bits

    def _on_hmlr(self, decision):
        self.counts["likelihood.hmlr.members"] += bool(getattr(decision, "member", False))

    def _on_dominance(self, report):
        self.counts["oracle.truncated"] += type(getattr(report, "mode", None)).__name__ == "Truncated"

    def _on_harness(self, report):
        self.counts["couplings.violations"] += report.violations
        low = min(report.p_value_x1, report.p_value_x2)
        self.min_p = low if self.min_p is None else min(self.min_p, low)

    def _sample_counter(self, name):
        def hook(samples):
            self.counts[f"{name}.samples"] += len(samples)

        return hook

    # --- results ----------------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive time, and self time (minus direct children)."""
        child_time = [0.0] * len(self.start)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                child_time[parent] += self.end[idx] - self.start[idx]
        out = {name: {"calls": 0, "time_s": 0.0, "self_s": 0.0} for name in self.names}
        for idx, nid in enumerate(self.name_of):
            row = out[self.names[nid]]
            duration = self.end[idx] - self.start[idx]
            row["calls"] += 1
            row["time_s"] += duration
            row["self_s"] += duration - child_time[idx]
        return out

    def write(self, path_stem: str):
        """Spans as raw arrays in <stem>.bin, described by <stem>.json."""
        columns = [("name", self.name_of), ("start", self.start), ("end", self.end), ("parent", self.parent)]
        with open(path_stem + ".bin", "wb") as fh:
            for _, column in columns:
                column.tofile(fh)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "columns": [[label, column.typecode, column.itemsize] for label, column in columns],
            "counts": dict(self.counts),
        }
        with open(path_stem + ".json", "w") as fh:
            json.dump(header, fh)
