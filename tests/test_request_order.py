"""Results do not depend on what ran before in the process.

main() keeps state from one request to the next: the cached parser, the
per-depth tree tables and the last tree that instances built. Every request
of one round of the `trees` workload, and one request of each command of an
`enumerated` round, run in two shuffled orders in one process, must write
the same result bytes apart from wall_time_s, with the same exit codes and
stderr. In the first order each request starts from an empty table of
trees; in the second the table keeps the tree the request before it built. The first order spells --out as its own
argument, which main reads without argparse; the second spells it --out=P,
which only argparse reads.
"""

import pathlib
import random
import re
import sys
import types

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
    reqs = workloads.WORKLOADS[workload](26, str(tmp_path)).round(0)
    if workload == "enumerated":  # names no tree: the last request of each command
        reqs = list({req.cmd: req for req in reqs}.values())
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
                robustmse.instances._tree.cache_clear()
            out = tmp_path / f"r{seed}-{i}.json"
            got[i] = outcome(spell(reqs[i], out), out, capsys)
        runs.append(got)
    assert runs[0] == runs[1]
    assert all(result is not None for _, _, result in runs[0].values())
