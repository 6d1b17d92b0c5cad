"""Closed-loop benchmark of the robustmse command line, in process.

    python3 perfbench/run.py --workload enumerated|trees \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory. One client calls ``robustmse.cli.main(argv)`` with one
request after another. The requests come in rounds of fixed make-up
(``workloads.py``); a run issues about ``--seconds`` worth of rounds and
checks every result file afterwards (``checks.py``). Timings are scaled to
the speed of a reference timed between all requests (see REFERENCE_S).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every round
twice, once plain and once with spans around the package's public functions
(``tracing.py``), and prints per-layer metrics from the traced copies plus the
tracing overhead. The last stdout line is the result object; the line before
it is a report with the environment, per-command latencies, failures by
cause, the per-module table and the known defects.
"""

from __future__ import annotations

import os

# one BLAS thread: requests are small, and more threads only add noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")

SETUP_SAMPLES = 11
SETUP_CODE = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
SETUP_IMPORTS = "robustmse, robustmse.cli"
# The set-up reference: importing a fixed set of standard-library modules, in
# a fresh process like the set-up itself. It is the same kind of work (file
# reads, unmarshalling, module bodies, extension loading) and tracks the
# machine's drift far better than a numpy loop: over 14 trials of 9 pairs,
# the median import time of robustmse spread 0.12-0.21 s, while its median
# ratio to this reference stayed within 1.77-1.96. setup_s is that ratio times
# SETUP_REFERENCE_S.
SETUP_REFERENCE_IMPORTS = (
    "asyncio, decimal, email.mime.multipart, http.client, logging.handlers, sqlite3, "
    "ssl, unittest, xml.dom.minidom, ctypes, csv, zipfile"
)
SETUP_REFERENCE_S = 0.1
TAIL_BEYOND = 10  # the tail percentile leaves at least this many requests above it
MAX_OVERRUN = 1.25  # stop starting rounds once a run has taken this many --seconds
# The reference machine (README) is shared, and its speed drifts by up to 1.7x
# from one second to the next: over 100 s there, the same three requests
# (a depth-3 gexp, a depth-4 rho, a K=300 solve) had an IQR/median of wall
# time of 0.42 each. Divided by the geometric mean of the reference times
# taken just before and just after each, it fell to 0.09, 0.14 and 0.18. The
# reference is the geometric mean of an interpreter-bound part and a
# memory-bound part, which each track some requests better than the other.
# So the reference runs between all requests, and each latency is reported
# multiplied by REFERENCE_S over its bracketing reference: in seconds of a
# machine whose reference time is REFERENCE_S. Raw timings are in the report.
# The reference work is the benchmark's own code, so a change to the program
# moves the timings and not the scale.
REFERENCE_S = 0.003
REFERENCE_SORT = 1 << 19  # floats sorted by the memory-bound part, 4 MiB

# Failures that known defects of the program cause, as (command, kind) ->
# outcomes; every request of the units slice may fail. Any other failure, and
# any wrong answer with exit 0, makes the result incorrect.
KNOWN_FAILURES = {
    ("solve", "large"): {"exit 1", "exception RuntimeError"},
    ("oracle", "medium"): {"exception RuntimeError"},
    ("gexp", "tree-d3"): {"exit 3"},
    ("solve", "tree-d3"): {"exit 3", "exception RuntimeError"},
    ("gexp", "tree-d4"): {"exit 2"},
}

KNOWN_DEFECTS = [
    "enumerated, units slice: solve on xi scaled by 1e-6 or 1e6 raises RuntimeError in "
    "the simplex, exits 1 or 3, or (mostly at 1e-6) returns an alpha off s^2 * alpha by "
    "more than 1e-6 relative: absolute LP and solver tolerances, ROADMAP item 2",
    "enumerated: solve on a few large instances exits 1; kernel_member and the NS hull "
    "test put 0 outside the hull of the u_k although the saddle certificate passes",
    "enumerated, trees: now and then solve on a large instance or a depth-3 tree, or "
    "oracle on a medium instance, raises RuntimeError from the simplex",
    "trees: gexp and solve on some per-node-interval depth-3 trees end in "
    "nonconvergence (exit 3) after seconds of dual ascent",
    "trees: gexp on a drift-bound depth-4 tree can exit 2 when MixtureWeights rejects "
    "the solver's own weights, whose sum drifted 2e-12 past 1",
    "trees: gexp at level 3 on a few drift-bound depth-4 trees takes up to 25 s instead "
    "of about 2 s",
    "trees, not run: solve on a depth-4 tree; ns_condition allocates a dense "
    "(K+B)x(K+2B+2) tableau, 8 GiB at K = 32768, and dies with MemoryError",
    "trees, not run: gexp on depth-4 trees below the finest level (one request takes "
    "2-14 s on drift-bound trees) and on per-node-interval depth-4 trees (19-27 s, "
    "and it can end in nonconvergence)",
]


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the machine, or (0, 0) where /proc/stat is absent."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def interpreter_work() -> float:
    """Fixed small-array and interpreter work, the mix small requests do."""
    import numpy as np

    a = np.arange(64, dtype=float)
    acc = 0.0
    for i in range(300):
        acc += float((a * (i % 7) + 1.0) @ a) / (1 + i)
        acc += len(json.dumps({"k": i, "v": [i, i + 1]}))
    return acc


_SORT_INPUT = []


def memory_work() -> float:
    """A sort of a fixed array larger than the caches, as large requests do."""
    import numpy as np

    if not _SORT_INPUT:
        _SORT_INPUT.append(np.random.default_rng(0).random(REFERENCE_SORT))
    return float(np.sort(_SORT_INPUT[0])[0])


def reference_time() -> float:
    """Geometric mean of the times of the two parts of the reference."""
    t0 = time.perf_counter()
    interpreter_work()
    t1 = time.perf_counter()
    memory_work()
    return math.sqrt((t1 - t0) * (time.perf_counter() - t1))


def import_time(modules: str) -> float:
    """Seconds a fresh interpreter takes to import `modules`."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE.format(modules)],
        env=dict(os.environ, PYTHONPATH=SRC),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(out.stdout.split()[-1])


def measure_setup() -> tuple[list[float], list[float]]:
    """Import times of robustmse and its CLI, each in a fresh process right
    after one of the set-up reference."""
    samples, refs = [], []
    for _ in range(SETUP_SAMPLES):
        refs.append(import_time(SETUP_REFERENCE_IMPORTS))
        samples.append(import_time(SETUP_IMPORTS))
    return samples, refs


class Client:
    """Issues requests through cli.main and keeps one record per request."""

    def __init__(self, cli, workdir: str, tracer=None):
        self.cli = cli
        self.workdir = workdir
        self.tracer = tracer
        self.records: list[dict] = []

    def issue(self, req, traced: bool = False) -> dict:
        out = os.path.join(self.workdir, f"o{len(self.records)}.json")
        argv = [req.cmd, *req.argv, "--out", out]
        code = exc = None
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.request = len(self.records)
            first = tracer.open(tracing.ROOT)
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception as e:  # an escaping exception is a failed request
            exc = type(e).__name__
        wall = time.perf_counter() - t0
        rec = {"req": req, "out": out, "wall": wall, "code": code, "exc": exc, "traced": traced}
        if tracer is not None:
            tracer.close(first)
            rec["layers"] = tracer.finish_request(first)
        self.records.append(rec)
        return rec


def check(rec: dict) -> str | None:
    req = rec["req"]
    if rec["exc"] is not None:
        return f"exception {rec['exc']}"
    if rec["code"] != 0:
        return f"exit {rec['code']}"
    try:
        with open(rec["out"], encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["command"] != req.cmd:
            return f"result is for {doc['command']!r}"
        return req.check(req.instance(), doc["result"])
    except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
        return f"unreadable result: {type(e).__name__}: {e}"


def known_failure(rec: dict, why: str) -> bool:
    """Whether a failed request fails the way a known defect makes it fail."""
    req = rec["req"]
    return req.kind == "units" or why in KNOWN_FAILURES.get((req.cmd, req.kind), ())


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def latency_summary(records: list[dict], key) -> dict:
    """Median, total and count of request wall times, grouped by key(request)."""
    groups = defaultdict(list)
    for rec in records:
        groups[key(rec["req"])].append(rec["wall"])
    return {
        name: {"p50_s": statistics.median(v), "total_s": sum(v), "count": len(v)}
        for name, v in sorted(groups.items())
    }


def build_round(workload, r: int) -> tuple[list, float]:
    """The requests of round r, and the peak memory in MB that building them
    (instance documents, written to files and dropped) took."""
    tracemalloc.start()
    try:
        reqs = workload.round(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return reqs, peak / 2**20


def run_rounds(workload, client, seconds: float, trace: bool) -> tuple[list, float]:
    """Issue the rounds, each built just before it is issued. Returns, per
    round, the count of its plain requests and the median reference time
    taken between them; and the largest memory peak of building a round."""
    # a traced run issues every round twice, so it issues half as many
    per_round = workload.round_seconds * (2 if trace else 1)
    start = time.perf_counter()
    out, build_mb = [], 0.0
    for r in range(max(1, round(seconds / per_round))):
        if out and time.perf_counter() - start > MAX_OVERRUN * seconds:
            break
        reqs, mb = build_round(workload, r)
        build_mb = max(build_mb, mb)
        # keep the harness's own objects out of the collector's way, so they
        # do not slow the program's collections
        gc.collect()
        gc.freeze()
        # traced runs issue each round plain and traced, alternating which goes first
        order = ((False, True) if r % 2 == 0 else (True, False)) if trace else (False,)
        for traced in order:
            if traced:
                client.tracer.install()
            try:
                recs, refs = [], [reference_time()]
                for req in reqs:
                    recs.append(client.issue(req, traced))
                    refs.append(reference_time())
            finally:
                if traced:
                    client.tracer.uninstall()
            if not traced:
                for rec, before, after in zip(recs, refs, refs[1:]):
                    rec["scale"] = REFERENCE_S / math.sqrt(before * after)
                    rec["round"] = r
                out.append((len(recs), statistics.median(refs)))
    return out, build_mb


# self times reported as per-layer metrics: the layers both workloads reach
ALWAYS_TIMED = (
    "cli.main",
    "instances.load_instance",
    "instances.instance_digest",
    "instances.dump_result",
    "simplexlp.solve_lp",
    "simplexlp.hull_membership",
    "simplexlp.box_epigraph_min",
    "estimator.solve_mmse",
    "estimator.verify_saddle",
    "estimator.kernel_member",
    "estimator.ns_condition",
    "sublinear.rho",
    "sublinear.envelope",
    "measures.conditional_expectation",
    "measures.mix",
)


def layer_metrics(records: list[dict], counts: dict) -> tuple[dict, dict]:
    """(per-layer metrics, full per-module table) from the traced records."""
    self_s, calls = Counter(), Counter()
    solve_lp_in_gexp_rho = tree_sets_in_gexp = gexp_requests = 0
    worst_identity = 0.0
    for rec in records:
        layers = rec["layers"]
        self_s.update(layers["self_s"])
        calls.update(layers["calls"])
        worst_identity = max(worst_identity, abs(sum(layers["self_s"].values()) - rec["wall"]))
        cmd = rec["req"].cmd
        if cmd in ("gexp", "rho"):
            solve_lp_in_gexp_rho += layers["calls"].get("simplexlp.solve_lp", 0)
        if cmd == "gexp":
            gexp_requests += 1
            tree_sets_in_gexp += layers["calls"].get("gexp.tree_measure_set", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    c = counts
    lp_calls = calls["simplexlp.solve_lp"]
    values = {
        "simplexlp.solve_lp.calls": (lp_calls, "count"),
        "simplexlp.solve_lp.pivots": (c["simplexlp.solve_lp.pivots"], "count"),
        "simplexlp.solve_lp.tableau_cells": (c["simplexlp.solve_lp.tableau_cells"], "count"),
        "simplexlp.pivots_per_lp": (ratio(c["simplexlp.solve_lp.pivots"], lp_calls), "count"),
        "simplexlp.solve_lp.calls_in_gexp_rho": (solve_lp_in_gexp_rho, "count"),
        "simplexlp.hull_membership.calls": (calls["simplexlp.hull_membership"], "count"),
        "simplexlp.box_epigraph_min.calls": (calls["simplexlp.box_epigraph_min"], "count"),
        "estimator.solve_mmse.calls": (calls["estimator.solve_mmse"], "count"),
        "estimator.solve_mmse.iterations": (c["estimator.solve_mmse.iterations"], "count"),
        "estimator.solve_mmse.nonconverged": (c["estimator.solve_mmse.nonconverged"], "count"),
        "gexp.tree_measure_set.calls": (calls["gexp.tree_measure_set"], "count"),
        "gexp.tree_measure_set.calls_per_gexp": (ratio(tree_sets_in_gexp, gexp_requests), "count"),
        "gexp.corners_built": (c["gexp.corners_built"], "count"),
        "stability.paste.calls": (calls["stability.paste"], "count"),
        "stability.hull_lps_per_pasting": (
            ratio(c["stability.hull_lps"], c["stability.is_stable.pastings_checked"]),
            "count",
        ),
        "stability.pastings_matching_generator_frac": (
            ratio(c["stability.pastings_matching_generator"], c["stability.pastings"]),
            "frac",
        ),
        "stability.tcsearch.trials": (c["stability.tcsearch.trials"], "count"),
        "sublinear.rho.calls": (calls["sublinear.rho"], "count"),
        "sublinear.envelope.calls": (calls["sublinear.envelope"], "count"),
        "instances.bytes_read": (c["instances.bytes_read"], "bytes"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    for name in ALWAYS_TIMED:
        metrics[f"{name}.self_s"] = {"value": self_s[name], "unit": "s"}
    table = {}
    for name in tracing.SPAN_NAMES:
        table[f"{name}.self_s"] = {"value": self_s[name], "unit": "s"}
        table[f"{name}.calls"] = {"value": calls[name], "unit": "count"}
    table["trace.self_time_identity_max_error_s"] = {"value": worst_identity, "unit": "s"}
    table.update({name: {"value": v, "unit": "count"} for name, v in sorted(counts.items())})
    return metrics, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "robustmse", "cli.py")):
        fail(f"no robustmse sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, SRC)

    setup_samples, setup_refs = measure_setup()
    from robustmse import cli

    # the process before any request: interpreter, numpy, package and harness
    rss_import_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = tracing.Tracer() if args.trace else None
        client = Client(cli, workdir, tracer)
        for req in workload.warmup():
            client.issue(req)
        warm = len(client.records)
        steal0, total0 = cpu_ticks()
        rounds, build_mb = run_rounds(workload, client, args.seconds, bool(args.trace))
        steal1, total1 = cpu_ticks()
        records = client.records[warm:]
        reasons = [check(rec) for rec in records]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [(rec, why) for rec, why in zip(records, reasons) if why is not None]
    units = sum(1 for rec in records if rec["req"].kind == "units")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "requests": len(records),
        "round_reference_s": [ref for _, ref in rounds],
        # CPU time the hypervisor gave to others while this run measured
        "steal_frac": (steal1 - steal0) / (total1 - total0) if total1 > total0 else None,
        "environment": environment(),
        "setup_samples_s": setup_samples,
        "setup_reference_samples_s": setup_refs,
        # peak RSS before any request; the harness's largest allocation peak
        # while it built a round's instance files; the reference sort's arrays
        "rss_import_mb": rss_import_mb,
        "harness_build_peak_mb": build_mb,
        "reference_sort_mb": 2 * REFERENCE_SORT * 8 / 2**20,
        "failures": dict(Counter(f"{rec['req'].cmd}/{rec['req'].kind}: {why}" for rec, why in failed)),
        "escaped_exceptions": dict(Counter(rec["exc"] for rec in records if rec["exc"])),
        "fail_frac": len(failed) / len(records),
        "units_fail_frac": (
            sum(1 for rec, _ in failed if rec["req"].kind == "units") / units if units else None
        ),
        "known_defects": KNOWN_DEFECTS,
    }
    # correct: every failure is one a known defect causes (KNOWN_FAILURES)
    unexpected = Counter(
        f"{rec['req'].cmd}/{rec['req'].kind}: {why}" for rec, why in failed if not known_failure(rec, why)
    )
    report["unexpected_failures"] = dict(unexpected)
    correct = not unexpected

    plain = [rec for rec in records if not rec["traced"]]
    # The timing metrics leave out the units slice: it re-issues the small
    # instances to test scale invariance, so counted it would weigh the small
    # class three times, and most of its requests fail. Its outcomes count
    # in success_frac.
    timed = [rec for rec in plain if rec["req"].kind != "units"]
    lat = [rec["wall"] * rec["scale"] for rec in timed]
    raw = [rec["wall"] for rec in timed]
    solves = [rec for rec in timed if rec["req"].cmd == "solve"]
    rounds_timed = defaultdict(list)
    for rec in timed:
        rounds_timed[rec["round"]].append(rec)

    def round_rps(time_of) -> list[float]:
        return [len(recs) / sum(map(time_of, recs)) for recs in rounds_timed.values()]

    scaled_rps = round_rps(lambda rec: rec["wall"] * rec["scale"])
    tail_s, tail_pct = tail(lat)
    report["raw"] = {
        "setup_s": statistics.median(setup_samples),
        "latency_p50_s": statistics.median(raw),
        "latency_tail_s": tail(raw)[0],
        "throughput_rps": statistics.median(round_rps(lambda rec: rec["wall"])),
        "solve.p50_s": statistics.median(rec["wall"] for rec in solves),
    }
    report["round_throughput_rps"] = scaled_rps
    report["latency_tail_percentile"] = tail_pct
    report["latency_samples"] = len(lat)
    slowest = sorted(timed, key=lambda rec: rec["wall"], reverse=True)[: TAIL_BEYOND + 1]
    report["slowest"] = [[f"{r['req'].cmd}/{r['req'].kind}", r["wall"]] for r in slowest]
    report["per_command"] = {
        f"{cmd}.p50_s": {"value": row["p50_s"], "unit": "s", "count": row["count"]}
        for cmd, row in latency_summary(timed, lambda req: req.cmd).items()
    }
    report["per_kind"] = latency_summary(plain, lambda req: f"{req.cmd}/{req.kind}")
    if args.trace:
        traced = [rec for rec in records if rec["traced"]]
        metrics, table = layer_metrics(traced, tracer.counts)
        overhead = sum(r["wall"] for r in traced) - sum(r["wall"] for r in plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        report["per_module"] = table
        report["trace_overhead_frac"] = overhead / sum(r["wall"] for r in plain)
        spans_path = os.path.join(WORK, f"spans-{args.workload}-s{args.seed}.tsv")
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            fh.writelines("\t".join(map(str, s)) + "\n" for s in tracer.spans)
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        metrics = {
            "setup_s": {
                "value": SETUP_REFERENCE_S
                * statistics.median(t / ref for t, ref in zip(setup_samples, setup_refs)),
                "unit": "s",
            },
            "latency_p50_s": {"value": statistics.median(lat), "unit": "s"},
            "latency_tail_s": {"value": tail_s, "unit": "s"},
            "solve.p50_s": {
                "value": statistics.median(rec["wall"] * rec["scale"] for rec in solves),
                "unit": "s",
            },
            # median over rounds, which all have the same make-up: one
            # pathological instance (a depth-4 gexp has taken 25 s) moves
            # its round, and the report's slowest list, but not the median
            "throughput_rps": {"value": statistics.median(scaled_rps), "unit": "1/s"},
            "success_frac": {"value": 1.0 - report["fail_frac"], "unit": "frac"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
