"""Instance and result files: one self-describing JSON format.

An instance carries the sample space, the generator list, the variable, and
exactly one conditioning structure (partition, filtration, or tree), plus an
options stanza. Parsing accepts numbers written as JSON numbers or as decimal
strings. Canonicalization produces a plain-number document. A SHA-256 digest
of the instance as parsed into binary64 pairs results with their instances.
Every file the package writes is compact JSON with sorted keys; a float's
shortest repr reads back bit for bit.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from ._version import __version__
from .errors import ArgumentError, RobustMseError, ValidationError
from .gexp import DEFAULT_DT, TreeModel, tree_measure_set
from .measures import Measure, MeasureSet
from .spaces import Filtration, PartitionAlgebra, RandomVariable, SampleSpace

FORMAT_VERSION = "1"
DIGEST_VERSION = "2"
DEFAULT_LEVEL = 0  # the tree level a tree instance conditions on without options.level

_KNOWN_OPTIONS = {
    "tol",
    "max_iter",
    "level",
    "ns_tol",
}


def _validate_options(options) -> dict:
    """The options as the solver reads them: `tol` and `ns_tol` as floats,
    `max_iter` and `level` as ints, so every spelling of a value is one."""
    _require(isinstance(options, dict), "options", "expected an object")
    bad = set(options) - _KNOWN_OPTIONS
    _require(not bad, "options", f"unknown option(s) {sorted(bad)}")
    typed = dict(options)
    for key in ("tol", "ns_tol"):
        if key in options:
            typed[key] = value = _num(options[key], f"options.{key}")
            _require(0.0 <= value < math.inf, f"options.{key}", "expected a finite number >= 0")
    for key in ("max_iter", "level"):
        if key in options:
            _require(_is_int(options[key]), f"options.{key}", "expected an integer")
    _require(typed.get("max_iter", 0) >= 0, "options.max_iter", "expected an integer >= 0")
    return typed


def _require(cond, path, message):
    if not cond:
        raise ValidationError(path, message)


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _num(value, path) -> float:
    if isinstance(value, bool):
        raise ValidationError(path, "expected a number, got a boolean")
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the largest float
            raise ValidationError(path, "number too large for a float") from None
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise ValidationError(path, f"not a number: {value!r}") from None
    raise ValidationError(path, f"expected a number, got {type(value).__name__}")


_PLAIN_NUMBERS = frozenset((int, float))  # exact types: a bool's type is not int


def _num_list(values, path) -> list[float]:
    _require(isinstance(values, list), path, "expected an array")
    if set(map(type, values)) <= _PLAIN_NUMBERS:
        try:
            return list(map(float, values))
        except OverflowError:  # an integer beyond the largest float
            pass
    # that and anything else take the per-value walk, which names the entry
    return [_num(v, f"{path}[{i}]") for i, v in enumerate(values)]


@dataclass(frozen=True)
class Instance:
    space: SampleSpace
    measure_set: MeasureSet | None
    xi: RandomVariable
    partition: PartitionAlgebra | None
    filtration: Filtration | None
    tree: TreeModel | None
    options: dict

    @property
    def kind(self) -> str:
        if self.partition is not None:
            return "partition"
        if self.filtration is not None:
            return "filtration"
        return "tree"

    def conditioning(self) -> PartitionAlgebra:
        """The algebra a single-partition command should condition on."""
        if self.partition is not None:
            return self.partition
        if self.filtration is not None:
            return self.filtration.levels[-1]
        return self.tree.level_partition(self.options.get("level", DEFAULT_LEVEL))

    def generators(self) -> MeasureSet:
        if self.measure_set is not None:
            return self.measure_set
        return tree_measure_set(self.tree)


def parse_instance(doc: Any) -> Instance:
    _require(isinstance(doc, dict), "$", "instance must be a JSON object")
    unknown = set(doc) - {
        "version",
        "omega",
        "generators",
        "xi",
        "partition",
        "filtration",
        "tree",
        "options",
        "chains",
    }
    _require(not unknown, "$", f"unknown fields {sorted(unknown)}")
    version = doc.get("version", FORMAT_VERSION)
    _require(str(version) == FORMAT_VERSION, "version", f"unsupported version {version!r}")

    structures = [k for k in ("partition", "filtration", "tree") if k in doc]
    _require(
        len(structures) == 1,
        "$",
        f"exactly one of partition/filtration/tree required, found {structures or 'none'}",
    )

    options = _validate_options(doc.get("options", {}))

    if "tree" in doc:
        return _parse_tree_instance(doc, options)
    _require("level" not in options, "options.level", "only a tree instance takes a level")

    _require("omega" in doc, "omega", "required for partition/filtration instances")
    omega = doc["omega"]
    _require(
        isinstance(omega, list) and all(isinstance(x, str) for x in omega),
        "omega",
        "expected an array of strings",
    )
    try:
        space = SampleSpace(tuple(omega))
    except Exception as exc:
        raise ValidationError("omega", str(exc)) from None

    _require("generators" in doc, "generators", "required")
    gens_doc = doc["generators"]
    _require(isinstance(gens_doc, list) and gens_doc, "generators", "expected a nonempty array")
    ms = _parse_generators(gens_doc, space)

    _require("xi" in doc, "xi", "required")
    xi_vals = _num_list(doc["xi"], "xi")
    _require(len(xi_vals) == space.n, "xi", f"expected {space.n} values, got {len(xi_vals)}")
    xi = RandomVariable(space, xi_vals)

    partition = filtration = None
    if "partition" in doc:
        partition = _parse_partition(doc["partition"], space, "partition")
    else:
        levels_doc = doc["filtration"]
        _require(
            isinstance(levels_doc, list) and levels_doc,
            "filtration",
            "expected a nonempty array of partitions",
        )
        levels = [
            _parse_partition(p, space, f"filtration[{i}]") for i, p in enumerate(levels_doc)
        ]
        try:
            filtration = Filtration(levels)
        except ArgumentError as exc:  # a level that does not refine the one before
            raise ValidationError("filtration", str(exc)) from None

    return Instance(
        space=space,
        measure_set=ms,
        xi=xi,
        partition=partition,
        filtration=filtration,
        tree=None,
        options=options,
    )


def _generator_row(row, i, space) -> list[float]:
    weights = _num_list(row, f"generators[{i}]")
    _require(
        len(weights) == space.n,
        f"generators[{i}]",
        f"expected {space.n} weights, got {len(weights)}",
    )
    return weights


def _plain_matrix(gens_doc, n) -> bool:
    """Is every row a list of n entries, each an int or a float (exact types)?"""
    return all(type(row) is list and len(row) == n for row in gens_doc) and set(
        map(type, itertools.chain.from_iterable(gens_doc))
    ) <= _PLAIN_NUMBERS


def _parse_generators(gens_doc, space) -> MeasureSet:
    """Validate the whole matrix at once; on failure, walk the rows in order
    so the error names the first faulty row as a per-row check would. Rows of
    plain numbers go to numpy in one conversion; any other row (decimal
    strings, a wrong length) takes the per-row walk first. An integer beyond
    the largest float makes numpy raise OverflowError; the walk names it."""
    try:
        if _plain_matrix(gens_doc, space.n):
            return MeasureSet.from_matrix(space, gens_doc)
        rows = [_generator_row(row, i, space) for i, row in enumerate(gens_doc)]
        return MeasureSet.from_matrix(space, rows)
    except (RobustMseError, OverflowError):
        for i, row in enumerate(gens_doc):
            weights = _generator_row(row, i, space)
            try:
                Measure(space, weights)
            except Exception as exc:
                raise ValidationError(f"generators[{i}]", str(exc)) from None
        raise


def _parse_partition(doc, space, path) -> PartitionAlgebra:
    _require(isinstance(doc, list) and doc, path, "expected a nonempty array of blocks")
    blocks = []
    for i, blk in enumerate(doc):
        _require(
            isinstance(blk, list) and all(_is_int(j) for j in blk),
            f"{path}[{i}]",
            "expected an array of integer indices",
        )
        blocks.append(tuple(blk))
    try:
        return PartitionAlgebra(space, blocks)
    except Exception as exc:
        raise ValidationError(path, str(exc)) from None


def _parse_tree_instance(doc, options) -> Instance:
    tree_doc = doc["tree"]
    _require(isinstance(tree_doc, dict), "tree", "expected an object")
    unknown = set(tree_doc) - {"depth", "q_lo", "q_hi", "dt", "leaf_values"}
    _require(not unknown, "tree", f"unknown fields {sorted(unknown)}")
    _require("depth" in tree_doc, "tree.depth", "required")
    depth = tree_doc["depth"]
    _require(_is_int(depth) and depth >= 1, "tree.depth", "expected an integer >= 1")
    level = options.get("level", DEFAULT_LEVEL)
    _require(0 <= level <= depth, "options.level", f"expected an integer in 0..{depth}")

    # the leaf values size the tree; their bit length bounds depth before
    # 2 ** depth or anything of that size is formed
    def leaf_values(values, path):
        vals = _num_list(values, path)
        fits = depth == len(vals).bit_length() - 1 and len(vals) == 2 ** depth
        _require(fits, path, f"expected 2^{depth} values, got {len(vals)}")
        return vals

    if "leaf_values" in tree_doc:
        vals = leaf_values(tree_doc["leaf_values"], "tree.leaf_values")
        if "xi" in doc:
            other = _num_list(doc["xi"], "xi")
            _require(other == vals, "xi", "xi and tree.leaf_values disagree")
    else:
        _require("xi" in doc, "xi", "required when tree.leaf_values is absent")
        vals = leaf_values(doc["xi"], "xi")
    nodes = len(vals) - 1

    def interval(key):
        _require(key in tree_doc, f"tree.{key}", "required")
        v = tree_doc[key]
        if isinstance(v, list):
            vals = _num_list(v, f"tree.{key}")
            _require(
                len(vals) == nodes, f"tree.{key}", f"expected {nodes} per-node values"
            )
            return vals
        return _num(v, f"tree.{key}")

    q_lo, q_hi = interval("q_lo"), interval("q_hi")
    dt = _num(tree_doc.get("dt", DEFAULT_DT), "tree.dt")
    _require(0 < dt < math.inf, "tree.dt", "expected a finite number > 0")
    try:
        tree = TreeModel(depth, q_lo, q_hi, dt)
    except Exception as exc:
        raise ValidationError("tree", str(exc)) from None

    if "omega" in doc:
        _require(
            doc["omega"] == list(tree.space.labels),
            "omega",
            "labels do not match the tree's leaf paths",
        )
    _require("generators" not in doc, "generators", "derived from the tree; do not supply")
    return Instance(
        space=tree.space,
        measure_set=None,
        xi=RandomVariable(tree.space, vals),
        partition=None,
        filtration=None,
        tree=tree,
        options=options,
    )


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError("$", f"invalid JSON: {exc}") from None
    return parse_instance(doc)


# --- canonical form, digest, serialization -------------------------------


def _sample_space_fields(inst: Instance) -> dict:
    """`omega` and the partition or filtration of an explicit-set instance."""
    out: dict[str, Any] = {"omega": list(inst.space.labels)}
    if inst.partition is not None:
        out["partition"] = [list(b) for b in inst.partition.blocks]
    else:
        out["filtration"] = [[list(b) for b in lev.blocks] for lev in inst.filtration.levels]
    return out


def canonical_dict(inst: Instance) -> dict:
    out: dict[str, Any] = {"version": FORMAT_VERSION}
    if inst.tree is not None:
        out["tree"] = {
            "depth": inst.tree.depth,
            "q_lo": inst.tree.q_lo.tolist(),
            "q_hi": inst.tree.q_hi.tolist(),
            "dt": inst.tree.dt,
            "leaf_values": inst.xi.values.tolist(),
        }
    else:
        out.update(_sample_space_fields(inst))
        out["generators"] = inst.measure_set.weights_matrix.tolist()
        out["xi"] = inst.xi.values.tolist()
    if inst.options:
        out["options"] = dict(inst.options)
    return out


def _canonical_json(obj) -> str:
    """The one JSON form the package writes: compact, with sorted keys."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)


def instance_digest(inst: Instance) -> str:
    """SHA-256 of the instance as parsed into binary64 (digest version 2).

    It hashes a header written by `_canonical_json`: the format and digest
    versions, `omega`, the partition or filtration, the options, a tree's
    `depth` and `dt`, and the name and shape of every numeric array in the
    order they follow. Then come the arrays' little-endian float64 bytes in
    C order: `weights_matrix` then `xi`, or a tree's `q_lo`, `q_hi` then leaf
    values. The header ends where its JSON object does and the shapes fix
    the byte counts, so two instances share a digest exactly when they share
    a canonical form (the bytes keep the sign of a zero, as a repr does)."""
    if inst.tree is not None:
        header = {"tree": {"depth": inst.tree.depth, "dt": inst.tree.dt}}
        arrays = {"q_lo": inst.tree.q_lo, "q_hi": inst.tree.q_hi, "leaf_values": inst.xi.values}
    else:
        header = _sample_space_fields(inst)
        arrays = {"weights_matrix": inst.measure_set.weights_matrix, "xi": inst.xi.values}
    header.update(
        version=FORMAT_VERSION,
        digest=DIGEST_VERSION,
        options=inst.options,
        arrays=[[name, list(a.shape)] for name, a in arrays.items()],
    )
    h = hashlib.sha256(_canonical_json(header).encode("utf-8"))
    for a in arrays.values():
        h.update(np.ascontiguousarray(a, dtype="<f8"))
    return h.hexdigest()


def estimator_result_dict(res) -> dict:
    return {
        "eta_hat": res.eta_hat.values.tolist(),
        "p_hat": None if res.p_hat is None else res.p_hat.lam.tolist(),
        "alpha": res.alpha,
        "saddle_gap": res.saddle_gap,
        "iterations": res.iterations,
        "solver": res.solver,
        "converged": res.converged,
        "warnings": list(res.warnings),
    }


def build_result(inst_digest: str | None, command: str, payload: dict, wall_time: float) -> dict:
    return {
        "instance_digest": inst_digest,
        "command": command,
        "result": payload,
        "wall_time_s": wall_time,
        "library_version": __version__,
    }


def dump_result(doc: dict) -> str:
    return _canonical_json(doc) + "\n"


def _json_inf(x: float):
    """JSON has no infinity literal; results encode -inf, the NS lower bound
    of a failed hull test, as a string."""
    return "-inf" if x == -math.inf else float(x)
