"""Instance and result files: one self-describing JSON format.

An instance carries the sample space, the generator list, the variable, and
exactly one conditioning structure (partition, filtration, or tree), plus an
options stanza. Numbers may be written as decimal strings where exactness
matters (the search emits dyadic rationals that way); parsing accepts both.
Canonicalization produces a plain-number, canonically ordered document whose
SHA-256 digest pairs results with their instances.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from ._version import __version__
from .errors import ValidationError
from .gexp import TreeModel
from .measures import Measure, MeasureSet
from .spaces import Filtration, PartitionAlgebra, RandomVariable, SampleSpace

FORMAT_VERSION = "1"

_KNOWN_OPTIONS = {
    "tol",
    "max_iter",
    "grid_step",
    "level",
    "ns_tol",
}


def _validate_options(options):
    bad = set(options) - _KNOWN_OPTIONS
    _require(not bad, "options", f"unknown option(s) {sorted(bad)}")
    for key in ("tol", "grid_step", "ns_tol"):
        if key in options:
            _num(options[key], f"options.{key}")
    for key in ("max_iter", "level"):
        if key in options:
            _require(
                isinstance(options[key], int) and not isinstance(options[key], bool),
                f"options.{key}",
                "expected an integer",
            )


def _require(cond, path, message):
    if not cond:
        raise ValidationError(path, message)


def _num(value, path) -> float:
    if isinstance(value, bool):
        raise ValidationError(path, "expected a number, got a boolean")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise ValidationError(path, f"not a number: {value!r}") from None
    raise ValidationError(path, f"expected a number, got {type(value).__name__}")


def _num_list(values, path) -> list[float]:
    _require(isinstance(values, list), path, "expected an array")
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
        level = int(self.options.get("level", 0))
        return self.tree.level_partition(level)

    def generators(self) -> MeasureSet:
        if self.measure_set is not None:
            return self.measure_set
        from .gexp import tree_measure_set

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

    options = doc.get("options", {})
    _require(isinstance(options, dict), "options", "expected an object")
    _validate_options(options)

    if "tree" in doc:
        return _parse_tree_instance(doc, options)

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
    gens = []
    for i, row in enumerate(gens_doc):
        weights = _num_list(row, f"generators[{i}]")
        _require(
            len(weights) == space.n,
            f"generators[{i}]",
            f"expected {space.n} weights, got {len(weights)}",
        )
        try:
            gens.append(Measure(space, weights))
        except Exception as exc:
            raise ValidationError(f"generators[{i}]", str(exc)) from None
    ms = MeasureSet(gens)

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
        filtration = Filtration(levels)

    return Instance(
        space=space,
        measure_set=ms,
        xi=xi,
        partition=partition,
        filtration=filtration,
        tree=None,
        options=dict(options),
    )


def _parse_partition(doc, space, path) -> PartitionAlgebra:
    _require(isinstance(doc, list) and doc, path, "expected a nonempty array of blocks")
    blocks = []
    for i, blk in enumerate(doc):
        _require(
            isinstance(blk, list) and all(isinstance(j, int) for j in blk),
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
    _require(isinstance(depth, int) and depth >= 1, "tree.depth", "expected an integer >= 1")
    nodes = 2 ** depth - 1

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
    dt = _num(tree_doc.get("dt", 0.25), "tree.dt")
    try:
        tree = TreeModel(depth, q_lo, q_hi, dt)
    except Exception as exc:
        raise ValidationError("tree", str(exc)) from None

    leaves = 2 ** depth
    if "leaf_values" in tree_doc:
        vals = _num_list(tree_doc["leaf_values"], "tree.leaf_values")
        _require(len(vals) == leaves, "tree.leaf_values", f"expected {leaves} values")
        if "xi" in doc:
            other = _num_list(doc["xi"], "xi")
            _require(other == vals, "xi", "xi and tree.leaf_values disagree")
    else:
        _require("xi" in doc, "xi", "required when tree.leaf_values is absent")
        vals = _num_list(doc["xi"], "xi")
        _require(len(vals) == leaves, "xi", f"expected {leaves} values")

    space = tree.sample_space()
    if "omega" in doc:
        _require(
            list(doc["omega"]) == list(space.labels),
            "omega",
            "labels do not match the tree's leaf paths",
        )
    _require("generators" not in doc, "generators", "derived from the tree; do not supply")
    return Instance(
        space=space,
        measure_set=None,
        xi=RandomVariable(space, vals),
        partition=None,
        filtration=None,
        tree=tree,
        options=dict(options),
    )


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError("$", f"invalid JSON: {exc}") from None
    return parse_instance(doc)


# --- canonical form, digest, serialization -------------------------------


def canonical_dict(inst: Instance) -> dict:
    out: dict[str, Any] = {"version": FORMAT_VERSION}
    if inst.tree is not None:
        out["tree"] = {
            "depth": inst.tree.depth,
            "q_lo": [float(v) for v in inst.tree.q_lo],
            "q_hi": [float(v) for v in inst.tree.q_hi],
            "dt": inst.tree.dt,
            "leaf_values": [float(v) for v in inst.xi.values],
        }
    else:
        out["omega"] = list(inst.space.labels)
        out["generators"] = [
            [float(w) for w in g.weights] for g in inst.measure_set.generators
        ]
        out["xi"] = [float(v) for v in inst.xi.values]
        if inst.partition is not None:
            out["partition"] = [list(b) for b in inst.partition.blocks]
        else:
            out["filtration"] = [
                [list(b) for b in lev.blocks] for lev in inst.filtration.levels
            ]
    if inst.options:
        out["options"] = dict(sorted(inst.options.items()))
    return out


def instance_digest(inst: Instance) -> str:
    blob = json.dumps(canonical_dict(inst), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def serialize_instance(inst: Instance, exact_strings: bool = False) -> dict:
    """Canonical document; exact_strings renders numeric leaves as decimal
    strings (for dyadic-rational counterexamples the expansion is exact)."""
    doc = canonical_dict(inst)
    if exact_strings:
        doc = _stringify_numbers(doc)
    return doc


def _stringify_numbers(obj):
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, list):
        return [_stringify_numbers(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _stringify_numbers(v) for k, v in obj.items()}
    return obj


def rv_values(x: RandomVariable) -> list[float]:
    return [float(v) for v in x.values]


def estimator_result_dict(res) -> dict:
    return {
        "eta_hat": rv_values(res.eta_hat),
        "p_hat": [float(v) for v in res.p_hat.lam],
        "alpha": res.alpha,
        "saddle_gap": res.saddle_gap,
        "iterations": res.iterations,
        "solver": res.solver,
        "converged": res.converged,
        "warnings": list(res.warnings),
    }


def certificate_dict(cert) -> dict:
    return {
        "max_over_P": cert.max_over_P,
        "value_at_saddle": cert.value_at_saddle,
        "min_over_eta": cert.min_over_eta,
        "passed": cert.passed,
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
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=True) + "\n"


def _json_inf(x: float):
    """JSON has no infinity literal; results encode it as a string."""
    if x == float("inf"):
        return "inf"
    if x == float("-inf"):
        return "-inf"
    return float(x)
