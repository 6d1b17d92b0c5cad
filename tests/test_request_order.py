"""Results do not depend on what ran before in the process.

main() keeps state from one request to the next: the cached parser, the
per-depth tree tables, the last tree that instances built, and the last
instance file read, with the Instance parsed from its bytes, its digest and
its estimate. Every request of one round of the `trees` workload, and one
request of each command of an `enumerated` round, run in two shuffled orders
in one process, must write the same result bytes apart from wall_time_s,
with the same exit codes and stderr. In the first order each request starts
from empty tables; in the second the tables keep what the request before it
left. The first order spells --out as its own argument, which main reads
without argparse; the second spells it --out=P, which only argparse reads.

The same requests, each run twice in a row, write the same bytes the second
time, when the instance, its digest and its estimate come from the tables;
a request that follows another on the same file writes what it writes from
empty tables; a file rewritten in place is read again; a refused file is
refused alike each time and leaves nothing; and one instance is held at a
time.
"""

import gc
import json
import pathlib
import random
import re
import sys
import types
import weakref

import pytest

import robustmse.cli
import robustmse.instances

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    # executed from their sources, so no bytecode cache is written beside
    # them; workloads imports gen and checks by name
    for name in ("gen", "checks", "workloads"):
        path = PERFBENCH / f"{name}.py"
        module = types.ModuleType(name)
        module.__file__ = str(path)
        monkeypatch.setitem(sys.modules, name, module)
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return sys.modules["workloads"]


def clear_tables():
    robustmse.instances._tree.cache_clear()
    robustmse.instances._loaded.clear()


def sample(workloads, workload, tmp_path):
    """One round of `trees`, or the last request of each command of one
    round of `enumerated`, whose requests name no tree."""
    reqs = workloads.WORKLOADS[workload](26, str(tmp_path)).round(0)
    if workload == "enumerated":
        reqs = list({req.cmd: req for req in reqs}.values())
    return reqs


def outcome(argv, out, capsys):
    """Exit code (or the escaping exception's type), stderr and the result
    file with its wall_time_s value blanked."""
    try:
        code = robustmse.cli.main(argv)
    except Exception as exc:  # an escape must escape in both orders
        code = type(exc).__name__
    result = None
    if out.exists():
        result = re.sub(r'"wall_time_s":[^,}]*', '"wall_time_s":null', out.read_text())
    return code, capsys.readouterr().err, result


@pytest.mark.parametrize("workload", ["enumerated", "trees"])
def test_two_orders_write_the_same_results(workloads, workload, tmp_path, capsys):
    reqs = sample(workloads, workload, tmp_path)
    spellings = (
        lambda req, out: [req.cmd, *req.argv, "--out", str(out)],
        lambda req, out: [req.cmd, f"--out={out}", *req.argv],
    )
    runs = []
    for seed, spell in enumerate(spellings):
        order = list(range(len(reqs)))
        random.Random(seed).shuffle(order)
        got = {}
        for i in order:
            if seed == 0:
                clear_tables()
            out = tmp_path / f"r{seed}-{i}.json"
            got[i] = outcome(spell(reqs[i], out), out, capsys)
        runs.append(got)
    assert runs[0] == runs[1]
    assert all(result is not None for _, _, result in runs[0].values())


@pytest.fixture
def counted(monkeypatch, fresh_tables):
    """The parses of instance documents and the solves that main runs, by
    command line: each list grows by one per call. No estimate of the
    counted solve outlives the test (fresh_tables)."""
    parses, solves = [], []
    parse, solve = robustmse.instances.parse_instance, robustmse.cli.solve_mmse

    def counted_parse(doc):
        parses.append(doc)
        return parse(doc)

    def counted_solve(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(robustmse.instances, "parse_instance", counted_parse)
    monkeypatch.setattr(robustmse.cli, "solve_mmse", counted_solve)
    return parses, solves


@pytest.mark.parametrize("workload", ["enumerated", "trees"])
def test_a_request_run_twice_writes_the_same_result(workloads, workload, tmp_path, capsys, counted):
    parses, solves = counted
    for i, req in enumerate(sample(workloads, workload, tmp_path)):
        clear_tables()
        first, again = tmp_path / f"r{i}-first.json", tmp_path / f"r{i}-again.json"
        once = outcome([req.cmd, *req.argv, "--out", str(first)], first, capsys)
        count = len(parses), len(solves)
        assert outcome([req.cmd, *req.argv, "--out", str(again)], again, capsys) == once, req.kind
        assert once[2] is not None
        if req.path is not None:  # the second run parsed and solved nothing
            assert (len(parses), len(solves)) == count, (req.cmd, req.kind)


@pytest.mark.parametrize(
    "workload, first, then",
    [("trees", "gexp", "solve"), ("trees", "solve", "gexp"), ("enumerated", "solve", "oracle"),
     ("enumerated", "oracle", "solve")],
)
def test_a_request_after_another_on_its_file_is_as_from_empty_tables(
    workloads, workload, first, then, tmp_path, capsys, counted
):
    parses, solves = counted
    paths = [req.path for req in sample(workloads, workload, tmp_path) if req.cmd == then]
    for i, path in enumerate(paths):
        out = tmp_path / f"alone-{i}.json"
        clear_tables()
        alone = outcome([then, path, "--out", str(out)], out, capsys)
        clear_tables()
        out = tmp_path / f"first-{i}.json"
        outcome([first, path, "--out", str(out)], out, capsys)
        count = len(parses), len(solves)
        out = tmp_path / f"after-{i}.json"
        assert outcome([then, path, "--out", str(out)], out, capsys) == alone
        assert (len(parses), len(solves)) == count  # served by the first request's parse and solve


def test_a_file_rewritten_in_place_is_read_again(tmp_path, capsys, counted):
    parses, _ = counted
    doc = {"version": "1", "omega": ["a", "b", "c", "d"],
           "generators": [[0.25, 0.25, 0.25, 0.25], [0.125, 0.25, 0.375, 0.25]],
           "xi": [1.5, -0.5, 0.25, 2.0], "partition": [[0, 1], [2, 3]]}
    other = dict(doc, xi=[1.5, -0.5, 0.75, 2.0])
    # the same length as doc's, so only the bytes tell; then other's instance in other bytes
    texts = [json.dumps(doc), json.dumps(other), json.dumps(other, indent=1)]
    assert len(texts[0]) == len(texts[1]) != len(texts[2])
    path, out = tmp_path / "rewritten.json", tmp_path / "out.json"
    alone = []
    for text in texts:
        path.write_text(text)
        clear_tables()
        alone.append(outcome(["solve", str(path), "--out", str(out)], out, capsys))
    clear_tables()
    for text, expected in zip(texts, alone):
        path.write_text(text)
        count = len(parses)
        assert outcome(["solve", str(path), "--out", str(out)], out, capsys) == expected
        assert len(parses) == count + 1
    digests = [json.loads(result)["instance_digest"] for _, _, result in alone]
    assert digests[0] != digests[1] == digests[2]


@pytest.mark.parametrize(
    "text, message",
    [("{", "invalid JSON"),
     ('{"version": "1", "omega": ["a"], "generators": [[-1.0]], "xi": [0], "partition": [[0]]}',
      "generators[0]")],
)
def test_a_refused_file_is_refused_alike_each_time(text, message, tmp_path, capsys):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"version": "1", "omega": ["a", "b"], "generators": [[0.5, 0.5]], '
                    '"xi": [1, 2], "partition": [[0, 1]]}')
    bad.write_text(text)
    out = tmp_path / "good-out.json"
    assert outcome(["solve", str(good), "--out", str(out)], out, capsys)[0] == 0
    refusals = []
    for twice in range(2):
        out = tmp_path / f"bad-out-{twice}.json"
        refusals.append(outcome(["solve", str(bad), "--out", str(out)], out, capsys))
        assert robustmse.instances._loaded == {}  # good's entry dropped, and none kept
    code, err, result = refusals[0]
    assert (code, result) == (2, None)
    assert err.count("\n") == 1 and message in err and "Traceback" not in err
    assert refusals[1] == refusals[0]


def test_one_instance_is_held_at_a_time(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    doc = {"version": "1", "omega": ["a", "b"], "generators": [[0.25, 0.75], [0.75, 0.25]],
           "xi": [2, 8], "partition": [[0], [1]]}
    first.write_text(json.dumps(doc))
    second.write_text(json.dumps(dict(doc, xi=[2, 9])))
    clear_tables()
    for command in ("solve", "oracle"):  # the digest and the estimate kept too
        assert robustmse.cli.main([command, str(first), "--out", str(tmp_path / "out.json")]) == 0
    held = weakref.ref(robustmse.instances.load_instance(first).measure_set)
    gc.collect()
    assert held() is not None
    robustmse.instances.load_instance(second)
    assert held() is None  # dead by reference counting alone, before any collection
