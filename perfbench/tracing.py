"""Spans around calls into the package's public functions.

Wrappers are installed only for a traced run. Each one replaces the function
on every loaded ``robustmse`` module that binds it, so a call is recorded
whichever module the caller reaches it through (``estimator.hull_membership``
and ``stability.hull_membership`` are the same function bound twice). A span
is (name, start, end, parent, request id); spans stay in memory and are
written out when the run ends. Counts are read from return values, and the
little bookkeeping a wrapper does after its call ends is charged to the
caller's self time, which is part of the tracing overhead.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) of each wrapped function -> span name.
TARGETS = {
    ("robustmse.simplexlp", "solve_lp"): "simplexlp.solve_lp",
    ("robustmse.simplexlp", "hull_membership"): "simplexlp.hull_membership",
    ("robustmse.simplexlp", "box_epigraph_min"): "simplexlp.box_epigraph_min",
    ("robustmse.estimator", "solve_mmse"): "estimator.solve_mmse",
    ("robustmse.estimator", "verify_saddle"): "estimator.verify_saddle",
    ("robustmse.estimator", "kernel_member"): "estimator.kernel_member",
    ("robustmse.estimator", "ns_condition"): "estimator.ns_condition",
    ("robustmse.estimator", "brute_force_mmse"): "estimator.brute_force_mmse",
    ("robustmse.gexp", "tree_measure_set"): "gexp.tree_measure_set",
    ("robustmse.gexp", "g_expectation"): "gexp.g_expectation",
    ("robustmse.gexp", "compare_gexp_mmse"): "gexp.compare_gexp_mmse",
    ("robustmse.stability", "paste"): "stability.paste",
    ("robustmse.stability", "is_stable"): "stability.is_stable",
    ("robustmse.stability", "recursivity_check"): "stability.recursivity_check",
    ("robustmse.stability", "mmse_time_consistency_search"): "stability.tcsearch",
    ("robustmse.randgen", "rng_from_seed"): "randgen",
    ("robustmse.randgen", "random_measure_set"): "randgen",
    ("robustmse.randgen", "random_two_level_filtration"): "randgen",
    ("robustmse.randgen", "random_variable"): "randgen",
    ("robustmse.sublinear", "rho"): "sublinear.rho",
    ("robustmse.sublinear", "ess_sup_conditional"): "sublinear.envelope",
    ("robustmse.sublinear", "ess_inf_conditional"): "sublinear.envelope",
    ("robustmse.measures", "conditional_expectation"): "measures.conditional_expectation",
    ("robustmse.measures", "mix"): "measures.mix",
    ("robustmse.instances", "load_instance"): "instances.load_instance",
    ("robustmse.instances", "instance_digest"): "instances.instance_digest",
    ("robustmse.instances", "dump_result"): "instances.dump_result",
}
ROOT = "cli.main"
SPAN_NAMES = sorted({ROOT, *TARGETS.values()})


class Tracer:
    """Collects spans of the current request; aggregates them per request."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, request id)
        self._stack: list[int] = []
        self.request = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._pending: list = []  # pasted weights awaiting their generator matrix
        self._pastings: list = []  # (pasted weights, generator matrix)
        self._installed: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.request])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        tracer = self
        on_return = _ON_RETURN.get(fn.__name__)

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_return is not None:
                on_return(tracer, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Replace each target on every loaded robustmse module binding it."""
        originals = {}
        for (mod, attr), name in TARGETS.items():
            fn = getattr(sys.modules[mod], attr)
            originals[id(fn)] = (fn, self._wrap(name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("robustmse") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._installed.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in self._installed:
            setattr(mod, attr, value)
        self._installed.clear()

    # -- per-request aggregation ---------------------------------------------

    def finish_request(self, first_span: int) -> dict:
        """Self time and calls per span name for the spans of one request.

        Self time is a span's duration minus its children's durations, so the
        self times of one request sum to its root span, the traced wall time.
        """
        spans = self.spans[first_span:]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent, _ in spans:
            self_s[name] += end - start
            calls[name] += 1
            if parent >= first_span:
                parent_name = self.spans[parent][0]
                self_s[parent_name] -= end - start
                if parent_name == "stability.is_stable" and name == "simplexlp.hull_membership":
                    self.counts["stability.hull_lps"] += 1
        for result, gens in self._pastings:
            self.counts["stability.pastings"] += 1
            close = np.all(np.abs(gens - result) <= 1e-12, axis=1)
            self.counts["stability.pastings_matching_generator"] += int(close.any())
        self._pastings.clear()
        return {"self_s": dict(self_s), "calls": dict(calls)}


# --- counts taken from return values ------------------------------------------


def _lp(tracer, args, kwargs, res):
    m, n = np.shape(args[1])
    tracer.counts["simplexlp.solve_lp.pivots"] += res.pivots
    tracer.counts["simplexlp.solve_lp.tableau_cells"] += (m + 2) * (n + m + 1)
    if res.status != "optimal":
        tracer.counts[f"simplexlp.solve_lp.status_{res.status}"] += 1


def _estimator(tracer, args, kwargs, res):
    tracer.counts["estimator.solve_mmse.iterations"] += res.iterations
    tracer.counts["estimator.solve_mmse.nonconverged"] += int(not res.converged)


def _corners(tracer, args, kwargs, res):
    tracer.counts["gexp.corners_built"] += len(res)


def _stable(tracer, args, kwargs, report):
    tracer.counts["stability.is_stable.pastings_checked"] += report.pastings_checked
    gens = args[0].weights_matrix
    tracer._pastings.extend((w, gens) for w in tracer._pending)
    tracer._pending.clear()


def _paste(tracer, args, kwargs, pasted):
    tracer._pending.append(pasted.result.weights)


def _tcsearch(tracer, args, kwargs, hit):
    trials = kwargs["trials"] if hit is None else hit.trial_index + 1
    tracer.counts["stability.tcsearch.trials"] += trials


def _load(tracer, args, kwargs, inst):
    tracer.counts["instances.bytes_read"] += os.path.getsize(args[0])


_ON_RETURN = {
    "solve_lp": _lp,
    "solve_mmse": _estimator,
    "tree_measure_set": _corners,
    "is_stable": _stable,
    "paste": _paste,
    "mmse_time_consistency_search": _tcsearch,
    "load_instance": _load,
}
