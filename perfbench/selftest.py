"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs each workload at its smallest size (one round), plain and traced, and
asserts that the result line carries every metric BENCHMARK.json names, with
its unit. Then checks that corrupted result files are counted as failures,
and that the benchmark refuses to run without the package sources.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "work")


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def smallest_runs(spec):
    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            p = run(["--workload", w["name"], "--seed", "7", "--seconds", "1", "--trace", str(trace)])
            assert p.returncode == 0, (w["name"], trace, p.stderr[-2000:])
            result = json.loads(p.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True, (w["name"], trace, p.stdout[-3000:])
            assert result["attempted"] >= 1
            names = {m["name"]: m["unit"] for m in wanted}
            assert set(result["metrics"]) == set(names), set(result["metrics"]) ^ set(names)
            for name, unit in names.items():
                metric = result["metrics"][name]
                assert metric["unit"] == unit, (name, metric)
                assert isinstance(metric["value"], (int, float)), (name, metric)
            if trace:
                traced_checks(w["name"], result["metrics"], p.stdout)
            print(f"ok  {w['name']} trace={trace}: {len(names)} metrics, "
                  f"{result['attempted']} requests, {result['failed']} failed")


def traced_checks(workload, metrics, stdout):
    report = json.loads(stdout.strip().splitlines()[-2])["report"]
    table = report["per_module"]
    assert table["trace.self_time_identity_max_error_s"]["value"] < 1e-3, table
    assert metrics["simplexlp.solve_lp.calls_in_gexp_rho"]["value"] == 0
    if workload == "trees":
        assert metrics["gexp.tree_measure_set.calls_per_gexp"]["value"] == 2
        assert metrics["gexp.corners_built"]["value"] > 0
    if workload == "enumerated":
        assert metrics["stability.hull_lps_per_pasting"]["value"] == 1
        assert 0 < metrics["stability.pastings_matching_generator_frac"]["value"] < 1
    assert os.path.isfile(os.path.join(ROOT, report["spans_file"]))


def corrupted_results():
    """A result file edited after the fact must fail its check."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import checks
    import gen
    import run as bench
    from robustmse import cli
    from workloads import Request

    workdir = os.path.join(WORK, "selftest")
    os.makedirs(workdir, exist_ok=True)
    try:
        rng = gen.rng_for(7, 5)
        cases = [
            ("solve", gen.partition_instance(rng, 5, 8, 3), checks.solve,
             lambda r: r["estimator"].update(alpha=r["estimator"]["alpha"] * 1.01)),
            ("solve", gen.partition_instance(rng, 5, 8, 3), checks.solve,
             lambda r: r["saddle_certificate"].update(passed=False)),
            ("oracle", gen.partition_instance(rng, 4, 6, 2), checks.oracle,
             lambda r: r.update(agree=False)),
            ("gexp", gen.tree_instance(rng, 2, True, 1), checks.gexp,
             lambda r: r.update(root=r["root"] + 1e-6)),
            ("rho", gen.tree_instance(rng, 3, False, 0), checks.tree_rho,
             lambda r: r["rho"].update(value=r["rho"]["value"] - 1e-3)),
            ("stability", gen.filtration_instance(rng, 2, 1), checks.stability,
             lambda r: r.update(stable=False)),
        ]
        client = bench.Client(cli, workdir)
        for i, (cmd, doc, check, corrupt) in enumerate(cases):
            path = os.path.join(workdir, f"case{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            rec = client.issue(Request(cmd, "selftest", path, [path], check))
            assert bench.check(rec) is None, (cmd, bench.check(rec))
            with open(rec["out"], encoding="utf-8") as fh:
                result = json.load(fh)
            corrupt(result["result"])
            with open(rec["out"], "w", encoding="utf-8") as fh:
                json.dump(result, fh)
            why = bench.check(rec)
            assert why is not None, f"corrupted {cmd} result passed its check"
            assert not bench.known_failure(rec, why), f"corrupted {cmd} result taken for a known defect"
            print(f"ok  corrupted {cmd} result counted as an unexpected failure: {why}")
        rec = client.issue(Request("tcsearch", "selftest", None, ["--seed", "3", "--trials", "50"], checks.tcsearch))
        assert bench.check(rec) is None
        with open(rec["out"], "w", encoding="utf-8") as fh:
            fh.write("{not json")
        why = bench.check(rec)
        assert why is not None and not bench.known_failure(rec, why)
        print("ok  unreadable tcsearch result counted as an unexpected failure")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def known_failures():
    """Only the failures of KNOWN_FAILURES and the units slice leave `correct` set."""
    sys.path.insert(0, HERE)
    import run as bench
    from workloads import Request

    def rec(cmd, kind):
        return {"req": Request(cmd, kind, None, [], None)}

    assert bench.known_failure(rec("solve", "large"), "exit 1")
    assert bench.known_failure(rec("solve", "units"), "exception KeyError")
    assert not bench.known_failure(rec("solve", "large"), "exception KeyError")
    assert not bench.known_failure(rec("solve", "medium"), "exit 1")
    assert not bench.known_failure(rec("gexp", "tree-d2"), "exit 3")
    print("ok  only known defects' failures are taken as known")


def refuses_without_sources():
    """In a directory holding only BENCHMARK.json and perfbench, exit non-zero, print no result."""
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("work", "__pycache__"))
        p = run(["--workload", "trees", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        assert p.returncode != 0, p.stdout
        assert '"metrics"' not in p.stdout, p.stdout
        print(f"ok  without sources: exit {p.returncode}, {p.stderr.strip()}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    known_failures()
    corrupted_results()
    refuses_without_sources()
    smallest_runs(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
