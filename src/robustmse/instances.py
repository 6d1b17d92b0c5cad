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
import json
import math
from types import MappingProxyType
from typing import Any, NamedTuple

import numpy as np

from ._version import __version__
from .errors import ArgumentError, RobustMseError, ValidationError
from .gexp import DEFAULT_DT, TreeModel
from .measures import Measure, MeasureSet, SetQueries
from .spaces import Filtration, PartitionAlgebra, RandomVariable, SampleSpace

FORMAT_VERSION = "1"
DIGEST_VERSION = "2"
DEFAULT_LEVEL = 0  # the tree level a tree instance conditions on without options.level

_KNOWN_OPTIONS = {"level"}
_CHAINS = ("eta_fine", "eta_chain", "eta_direct")  # a tcsearch counterexample's estimators


def _validate_options(options) -> MappingProxyType:
    """The options, read-only: `level`, the one option, is an int."""
    _require(isinstance(options, dict), "options", "expected an object")
    bad = set(options) - _KNOWN_OPTIONS
    _require(not bad, "options", f"unknown option(s) {sorted(bad)}")
    if "level" in options:
        _require(_is_int(options["level"]), "options.level", "expected an integer")
    return MappingProxyType(dict(options))


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


class Instance(NamedTuple):
    space: SampleSpace
    measure_set: MeasureSet | None
    xi: RandomVariable
    partition: PartitionAlgebra | None
    filtration: Filtration | None
    tree: TreeModel | None
    options: MappingProxyType

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

    def levels(self) -> list[PartitionAlgebra]:
        """The algebras `rho` reports envelopes at."""
        if self.tree is not None:
            return [self.tree.level_partition(lv) for lv in range(self.tree.depth + 1)]
        return [self.partition] if self.filtration is None else list(self.filtration.levels)

    def measures(self) -> SetQueries:
        """The set as its queries see it: a tree stands for its corner set."""
        return self.tree if self.measure_set is None else self.measure_set


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
    only_filtration = "chains" not in doc or "filtration" in doc
    _require(only_filtration, "chains", "only a filtration instance takes chains")

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
    xi = _variable(space, xi_vals, "xi")

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
        if "chains" in doc:
            _check_chains(doc["chains"], space)

    return Instance(
        space=space,
        measure_set=ms,
        xi=xi,
        partition=partition,
        filtration=filtration,
        tree=None,
        options=options,
    )


def _check_chains(chains, space) -> None:
    """The three estimators that a tcsearch counterexample carries, each n
    finite numbers; checked, not kept (the replay recomputes them)."""
    _require(isinstance(chains, dict), "chains", "expected an object")
    _require(set(chains) == set(_CHAINS), "chains", f"expected exactly the fields {list(_CHAINS)}")
    for key in _CHAINS:
        path = f"chains.{key}"
        vals = _num_list(chains[key], path)
        _require(len(vals) == space.n, path, f"expected {space.n} values, got {len(vals)}")
        _variable(space, vals, path)


def _generator_row(row, i, space) -> list[float]:
    weights = _num_list(row, f"generators[{i}]")
    _require(
        len(weights) == space.n,
        f"generators[{i}]",
        f"expected {space.n} weights, got {len(weights)}",
    )
    return weights


def _plain_rows(gens_doc, n) -> np.ndarray | None:
    """The rows in one numpy conversion if each is n numbers of the exact types
    int and float, else None. numpy reads a JSON bool among numbers as 1 or
    0, so only rows holding a 0 or 1 have their entries' types checked."""
    try:
        rows = np.array(gens_doc)
    except ValueError:  # rows of different lengths
        return None
    # not strings, bools alone, or an integer beyond int64 (an object array)
    if rows.dtype.kind not in "fi" or rows.shape != (len(gens_doc), n):
        return None
    hiding = ((rows == 0) | (rows == 1)).any(axis=1).nonzero()[0].tolist()
    plain = all(set(map(type, gens_doc[i])) <= _PLAIN_NUMBERS for i in hiding)
    return rows if plain and all(type(row) is list for row in gens_doc) else None


def _parse_generators(gens_doc, space) -> MeasureSet:
    """Validate the whole matrix at once; on failure, walk the rows in order
    so the error names the first faulty row as a per-row check would. Any
    matrix but plain numbers (decimal strings, a wrong length, an integer
    beyond the largest float) takes the per-row walk first."""
    try:
        rows = _plain_rows(gens_doc, space.n)
        if rows is None:
            rows = [_generator_row(row, i, space) for i, row in enumerate(gens_doc)]
        return MeasureSet.from_matrix(space, rows)
    except RobustMseError:
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

    path = "tree.leaf_values" if "leaf_values" in tree_doc else "xi"
    if "leaf_values" in tree_doc:
        vals = leaf_values(tree_doc["leaf_values"], path)
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
        xi=_variable(tree.space, vals, path),
        partition=None,
        filtration=None,
        tree=tree,
        options=options,
    )


def _variable(space, values, path) -> RandomVariable:
    try:
        return RandomVariable(space, values)
    except ArgumentError as exc:  # a NaN or infinite value
        raise ValidationError(path, str(exc)) from None


def load_instance(path) -> Instance:
    """The instance in the file at path: its bytes, decoded as UTF-8 (a byte
    order mark is refused as invalid JSON, an invalid byte raises
    UnicodeDecodeError), parsed as JSON. No newline is translated, so a
    JSON error's position counts every character of the file, CRs included."""
    with open(path, "rb", buffering=0) as fh:
        text = fh.read().decode("utf-8")
    try:
        doc = json.loads(text)
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
        options=dict(inst.options),
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


def json_inf(x: float):
    """JSON has no infinity literal; results encode -inf, the NS lower bound
    of a failed hull test, as a string."""
    return "-inf" if x == -math.inf else float(x)
