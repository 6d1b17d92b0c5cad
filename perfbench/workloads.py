"""The workloads, as rounds of CLI requests.

A run issues whole rounds, one request after another. Every round of a
workload has the same make-up, so any number of rounds gives the same mix,
and a seed replays the same requests. The make-up follows one rule: each
round draws the same number of instances of every size class (and tree kind),
and every instance gets the commands the workload assigns to it; commands
that take no instance of a class (`stability`, `tcsearch`) get that same
number of requests. A round's instance files are written just before the
round is issued, and the documents are dropped once written: the program
reads them through its own CLI, and the checks read them back from the files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import checks
import gen

UNIT_SCALES = (1e-6, 1e6)


@dataclass
class Request:
    cmd: str
    kind: str  # size class or slice, e.g. "small", "units", "tree-d4"
    path: str | None  # the instance file; None for tcsearch
    argv: list[str]  # everything after the command, except --out
    check: Callable[[dict | None, dict], str | None]

    def instance(self) -> dict | None:
        if self.path is None:
            return None
        with open(self.path, encoding="utf-8") as fh:
            return json.load(fh)


class Workload:
    """Builds the requests of round r; instance files go under `workdir`."""

    name = ""
    round_seconds = 1.0  # nominal time of one round on the reference machine

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self._files = 0

    def _file(self, doc: dict) -> str:
        path = os.path.join(self.workdir, f"i{self._files}.json")
        self._files += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def request(self, cmd, kind, doc, check, path=None) -> Request:
        path = path or self._file(doc)
        return Request(cmd, kind, path, [path], check)

    def warmup(self) -> list[Request]:
        raise NotImplementedError

    def round(self, r: int) -> list[Request]:
        raise NotImplementedError


class Enumerated(Workload):
    """Explicit generator lists. Per round, PER_CLASS instances of each size
    class get `solve`; those with at most 4 blocks also get `oracle`, and the
    small ones are re-issued with xi scaled (the units slice). `stability`
    on filtration instances without and with interior mixtures, and
    `tcsearch`, get PER_CLASS requests each."""

    name = "enumerated"
    round_seconds = 11.0
    PER_CLASS = 5  # medium B runs over 4-8, so one medium instance per round has B = 4
    TRIALS = 200

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # sizes are spread evenly over each class, so seeds differ in the
        # instances but hardly in how much work they make
        self.shifts = gen.rng_for(seed, 0).random((3, 2))
        self.base_alpha: dict[str, float] = {}

    def _base(self, key):
        def check(doc, result):
            reason = checks.solve(doc, result)
            if reason is None:
                self.base_alpha[key] = float(result["estimator"]["alpha"])
            return reason

        return check

    def _units(self, key, s):
        def check(doc, result):
            if key not in self.base_alpha:
                return "the unscaled copy failed"
            return checks.scaled_solve(doc, result, self.base_alpha[key], s)

        return check

    def warmup(self):
        rng = gen.rng_for(self.seed, 99)
        doc = gen.partition_instance(rng, 4, 6, 2)
        path = self._file(doc)
        return [
            self.request("solve", "warmup", doc, checks.solve, path),
            self.request("oracle", "warmup", doc, checks.oracle, path),
            self.request("stability", "warmup", gen.filtration_instance(rng, 2, 1), checks.stability),
            Request("tcsearch", "warmup", None, ["--seed", "1", "--trials", "50"], checks.tcsearch),
        ]

    def _sizes(self, cls, r, j):
        return (gen.spread(self.PER_CLASS * r + j, u) for u in self.shifts[cls])

    def round(self, r):
        reqs = []
        rng = gen.rng_for(self.seed, 1, r)
        for j in range(self.PER_CLASS):
            K, n = self._sizes(0, r, j)
            doc = gen.partition_instance(rng, 2 + int(7 * K), 4 + int(9 * n), 1 + j % 3)
            path, key = self._file(doc), f"{r}.{j}"
            reqs.append(self.request("solve", "small", doc, self._base(key), path))
            reqs.append(self.request("oracle", "small", doc, checks.oracle, path))
            for s in UNIT_SCALES:
                reqs.append(self.request("solve", "units", gen.scaled(doc, s), self._units(key, s)))
        # medium K is 50 throughout: the oracle's grid takes memory in
        # proportion to K, and this keeps peak RSS the same from seed to seed
        for j, B in enumerate(rng.permutation(range(4, 9))):
            _, n = self._sizes(1, r, j)
            doc = gen.partition_instance(rng, 50, 45 + int(11 * n), int(B))
            path = self._file(doc)
            reqs.append(self.request("solve", "medium", doc, checks.solve, path))
            if B <= 4:
                reqs.append(self.request("oracle", "medium", doc, checks.oracle, path))
        for j in range(self.PER_CLASS):
            K, n = self._sizes(2, r, j)
            B = 12 + (self.PER_CLASS * r + j) % 5
            doc = gen.partition_instance(rng, 200 + int(201 * K), 100 + int(21 * n), B)
            reqs.append(self.request("solve", "large", doc, checks.solve))
        # filtration slice: many tiny hull LPs instead of a few large ones.
        # 16 corners: 960 pastings, each equal to a generator; plus 4 interior
        # mixtures: 1,520 pastings, some of which land strictly inside the hull
        for mixtures in (0, 4):
            for _ in range(self.PER_CLASS):
                doc = gen.filtration_instance(rng, 4, mixtures)
                kind = f"corners16+{mixtures}" if mixtures else "corners16"
                reqs.append(self.request("stability", kind, doc, checks.stability))
        for s in rng.integers(0, 2**31, size=self.PER_CLASS):
            argv = ["--seed", str(int(s)), "--trials", str(self.TRIALS)]
            reqs.append(Request("tcsearch", "tcsearch", None, argv, checks.tcsearch))
        return reqs


class Trees(Workload):
    """Per round, one drift-bound and one per-node-interval tree of each depth
    2-4. Each gets `gexp` at every comparison level and `rho`; those of depth
    <= 3 also get `solve` at every level. Depth-4 trees get `gexp` at the
    finest level of the drift-bound tree only (known defects, run.py)."""

    name = "trees"
    round_seconds = 6.2

    def warmup(self):
        rng = gen.rng_for(self.seed, 99)
        doc = gen.tree_instance(rng, 2, False, 0)
        path = self._file(doc)
        return [
            self.request("gexp", "warmup", doc, checks.gexp, path),
            self.request("rho", "warmup", doc, checks.tree_rho, path),
            self.request("solve", "warmup", doc, checks.solve, path),
        ]

    def round(self, r):
        rng = gen.rng_for(self.seed, 2, r)
        reqs = []
        for depth in (2, 3, 4):
            for per_node in (False, True):
                doc = gen.tree_instance(rng, depth, per_node, 0)
                kind = f"tree-d{depth}"
                reqs.append(self.request("rho", kind, doc, checks.tree_rho))
                if depth == 4:
                    if not per_node:
                        at = dict(doc, options={"level": 3})
                        reqs.append(self.request("gexp", kind, at, checks.gexp))
                    continue
                for level in range(depth):
                    at = dict(doc, options={"level": level})
                    path = self._file(at)
                    reqs.append(self.request("gexp", kind, at, checks.gexp, path))
                    reqs.append(self.request("solve", kind, at, checks.solve, path))
        return reqs


WORKLOADS = {w.name: w for w in (Enumerated, Trees)}
