import hashlib
import itertools
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import robustmse.cli
import robustmse.estimator
import robustmse.gexp
import robustmse.instances
import robustmse.simplexlp
from robustmse import Measure, RandomVariable, replay_counterexample
from robustmse.cli import build_parser, main
from robustmse.errors import ValidationError
from robustmse.spaces import VALUE_TOL
from robustmse.instances import (
    _canonical_json,
    canonical_dict,
    instance_digest,
    parse_instance,
)

EXAMPLE = {
    "version": "1",
    "omega": ["w1", "w2"],
    "generators": [[0.25, 0.75], [0.75, 0.25]],
    "xi": [2, 8],
    "partition": [[0, 1]],
}

# the identity probe's zeros #142 (tools/solve_identity.py): a set that is not
# proper, on which the dual solve stops unconverged at a saddle gap of 0.488
STOPS = {
    "version": "1",
    "omega": ["a", "b", "c", "d", "e"],
    "generators": [
        [2 / 13, 6 / 13, 0.0, 1 / 13, 4 / 13],
        [0.0, 1 / 6, 0.0, 5 / 6, 0.0],
        [0.7, 0.0, 0.0, 0.0, 0.3],
        [0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.3, 0.0, 0.2, 0.5],
        [0.0, 7 / 19, 4 / 19, 8 / 19, 0.0],
    ],
    "xi": [3, 0, 0, 3, 0],
    "partition": [[0, 2, 4], [1, 3]],
}

# two blocks, two generators: the scale checks of the oracle and the guard
FOUR_POINT = {
    "version": "1",
    "omega": ["a", "b", "c", "d"],
    "generators": [[0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4]],
    "xi": [1, -1, 0, 0.5],
    "partition": [[0, 1], [2, 3]],
}


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(json.dumps(EXAMPLE))
    return str(path)


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


class TestParsing:
    def test_decimal_strings_accepted(self):
        doc = dict(EXAMPLE, generators=[["0.25", "0.75"], ["0.75", "0.25"]])
        inst = parse_instance(doc)
        assert list(inst.measure_set.generators[0].weights) == [0.25, 0.75]

    def test_exactly_one_structure(self):
        doc = dict(EXAMPLE)
        doc["filtration"] = [[[0, 1]]]
        with pytest.raises(Exception) as err:
            parse_instance(doc)
        assert "exactly one" in str(err.value)

    def test_bad_generator_row_names_field(self):
        doc = dict(EXAMPLE, generators=[[0.4, 0.5], [0.75, 0.25]])
        with pytest.raises(Exception) as err:
            parse_instance(doc)
        assert "generators[0]" in str(err.value)

    def test_roundtrip_is_fixed_point(self):
        inst = parse_instance(EXAMPLE)
        canon = canonical_dict(inst)
        again = canonical_dict(parse_instance(json.loads(json.dumps(canon))))
        assert canon == again

    def test_roundtrip_filtration_and_tree(self):
        filt = {
            "version": "1",
            "omega": ["a", "b", "c", "d"],
            "generators": [[0.25, 0.25, 0.25, 0.25]],
            "xi": [1, 2, 3, 4],
            "filtration": [[[3, 2, 1, 0]], [[1, 0], [3, 2]]],
        }
        tree = {
            "version": "1",
            "tree": {"depth": 2, "q_lo": "0.25", "q_hi": 0.75, "dt": 0.25,
                     "leaf_values": [1, 0, 0, 0]},
            "options": {"level": 1},
        }
        for doc in (filt, tree):
            canon = canonical_dict(parse_instance(doc))
            again = canonical_dict(parse_instance(json.loads(json.dumps(canon))))
            assert canon == again

    def test_digest_stable_under_reserialization(self):
        inst = parse_instance(EXAMPLE)
        canon = canonical_dict(inst)
        inst2 = parse_instance(json.loads(json.dumps(canon)))
        assert instance_digest(inst) == instance_digest(inst2)

    def test_tree_instance(self):
        doc = {
            "version": "1",
            "tree": {"depth": 1, "q_lo": 0.25, "q_hi": 0.75, "dt": 0.25, "leaf_values": [2, 8]},
        }
        inst = parse_instance(doc)
        assert inst.kind == "tree"
        assert list(inst.xi.values) == [2.0, 8.0]

    def test_tree_sized_before_allocation(self, tmp_path, capsys):
        # 2^20 leaves are declared and 4 given: refused before any array of
        # 2^20 nodes exists
        doc = {"tree": {"depth": 20, "q_lo": 0.25, "q_hi": 0.75, "leaf_values": [1, 2, 3, 4]}}
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc))
        build_parser()  # the cached parser is not part of the request
        tracemalloc.start()
        try:
            code = main(["rho", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "tree.leaf_values" in capsys.readouterr().err
        assert peak < 2**20

    @pytest.mark.parametrize(
        "tree, xi, path",
        [
            ({"leaf_values": [1, 2, 3]}, None, "tree.leaf_values"),
            ({"leaf_values": [1, 2, 3, 4, 5, 6]}, None, "tree.leaf_values"),
            ({}, [1, 2, 3, 4, 5], "xi"),
            ({"leaf_values": [1, 2, 3, 4], "q_lo": [0.25, 0.25]}, None, "tree.q_lo"),
            # NaN fails every comparison, so a negated range check would pass it
            ({"leaf_values": [1, 2, 3, 4], "q_lo": "nan"}, None, "tree"),
            ({"leaf_values": [1, 2, 3, 4], "q_lo": ["nan", 0.25, 0.25]}, None, "tree"),
            ({"leaf_values": [1, 2, 3, 4], "q_hi": "nan"}, None, "tree"),
            ({"leaf_values": [1, 2, 3, 4], "q_hi": [0.75, 0.75, "nan"]}, None, "tree"),
        ],
    )
    def test_tree_sizes_checked(self, tree, xi, path):
        doc = {"tree": dict({"depth": 2, "q_lo": 0.25, "q_hi": 0.75}, **tree)}
        if xi is not None:
            doc["xi"] = xi
        with pytest.raises(ValidationError) as err:
            parse_instance(doc)
        assert err.value.path == path


README_EXAMPLE = EXAMPLE
README_DIGEST = "d4d5b533da17ed40e526168b9c34bd36b5916484ada1683350502eb836f13bfe"


def reference_digest(inst):
    """The version-2 digest built by hand: the header's fields written out one
    by one and joined in key order, then every value packed on its own as a
    little-endian binary64, in the order the header lists the arrays."""

    def text(obj):
        return json.dumps(obj, separators=(",", ":"), sort_keys=True)

    fields = {"version": '"1"', "digest": '"2"', "options": text(dict(inst.options))}
    if inst.tree is not None:
        fields["tree"] = '{"depth":%d,"dt":%r}' % (inst.tree.depth, inst.tree.dt)
        arrays = {"q_lo": list(inst.tree.q_lo), "q_hi": list(inst.tree.q_hi),
                  "leaf_values": list(inst.xi.values)}
        shapes = [[name, [len(v)]] for name, v in arrays.items()]
    else:
        fields["omega"] = text(list(inst.space.labels))
        if inst.partition is not None:
            fields["partition"] = text([list(b) for b in inst.partition.blocks])
        else:
            fields["filtration"] = text(
                [[list(b) for b in lev.blocks] for lev in inst.filtration.levels]
            )
        rows = [list(g.weights) for g in inst.measure_set.generators]
        arrays = {"weights_matrix": [w for row in rows for w in row], "xi": list(inst.xi.values)}
        shapes = [["weights_matrix", [len(rows), inst.space.n]], ["xi", [inst.space.n]]]
    fields["arrays"] = text(shapes)
    header = "{" + ",".join(f'"{key}":{fields[key]}' for key in sorted(fields)) + "}"
    packed = b"".join(struct.pack("<d", v) for values in arrays.values() for v in values)
    return hashlib.sha256(header.encode("utf-8") + packed).hexdigest()


class TestNumberArrays:
    @pytest.mark.parametrize(
        "field, bad, message",
        [
            ("generators", True, "generators[1][2]: expected a number, got a boolean"),
            ("generators", "x1", "generators[1][2]: not a number: 'x1'"),
            ("generators", None, "generators[1][2]: expected a number, got NoneType"),
            ("xi", False, "xi[2]: expected a number, got a boolean"),
            ("xi", "1/2", "xi[2]: not a number: '1/2'"),
            ("xi", [1], "xi[2]: expected a number, got list"),
        ],
    )
    def test_error_names_the_entry(self, field, bad, message):
        doc = {
            "version": "1",
            "omega": ["a", "b", "c", "d"],
            "generators": [[0.25, 0.25, 0.25, 0.25], [0.125, 0.375, 0.25, 0.25]],
            "xi": [1, 2.5, 3, 4],
            "partition": [[0, 1], [2, 3]],
        }
        if field == "xi":
            doc["xi"][2] = bad
        else:
            doc["generators"][1][2] = bad
        with pytest.raises(ValidationError) as err:
            parse_instance(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "field, path",
        [
            ("generators", "generators[1][2]"),
            ("xi", "xi[2]"),
            ("q_lo", "tree.q_lo"),
            ("dt", "tree.dt"),
            ("q_lo list", "tree.q_lo[1]"),
        ],
    )
    def test_integer_beyond_float_range(self, field, path, tmp_path, capsys):
        # json writes 10**400 as 401 digits; float() on it raises OverflowError
        huge = 10**400
        doc = {
            "version": "1",
            "omega": ["a", "b", "c", "d"],
            "generators": [[0.25, 0.25, 0.25, 0.25], [0.125, 0.375, 0.25, 0.25]],
            "xi": [1, 2.5, 3, 4],
            "partition": [[0, 1], [2, 3]],
        }
        if field == "generators":
            doc["generators"][1][2] = huge
        elif field == "xi":
            doc["xi"][2] = huge
        else:
            tree = {"depth": 2, "q_lo": 0.25, "q_hi": 0.75, "leaf_values": [1, 0, 0, 0]}
            key = field.split()[0]
            tree[key] = [0.25, huge, 0.25] if field == "q_lo list" else huge
            doc = {"version": "1", "tree": tree}
        file = tmp_path / "huge.json"
        file.write_text(json.dumps(doc))
        assert main(["solve", str(file)]) == 2
        assert capsys.readouterr().err == (
            f"robustmse: invalid input: {path}: number too large for a float\n"
        )

    def test_decimal_string_among_plain_numbers(self):
        doc = dict(EXAMPLE, generators=[[0.25, "0.75"], [0.75, 0.25]], xi=[2, "8.5"])
        inst = parse_instance(doc)
        assert inst.measure_set.weights_matrix.tolist() == [[0.25, 0.75], [0.75, 0.25]]
        assert inst.xi.values.tolist() == [2.0, 8.5]

    def test_digest_matches_per_value_build(self):
        trees = [
            {"version": "1", "tree": {"depth": 2, "q_lo": 0.25, "q_hi": 0.75, "dt": 0.25,
                                      "leaf_values": [1, "0.5", -2, 0]}, "options": {"level": 1}},
            {"version": "1", "tree": {"depth": 2, "q_lo": [0.125, 0.25, 0.375],
                                      "q_hi": [0.5, 0.875, 0.75], "leaf_values": [3, 1, 4, 1]}},
        ]
        filtration = {
            "version": "1",
            "omega": ["a", "b", "c", "d"],
            "generators": [[0.25, 0.25, 0.25, 0.25], [0.125, 0.375, 0.25, 0.25]],
            "xi": [1, -2.5, 0, 4],
            "filtration": [[[3, 2, 1, 0]], [[1, 0], [3, 2]]],
        }
        docs = [EXAMPLE, README_EXAMPLE, filtration, *seeded_partition_docs(2702, 8), *trees]
        for doc in docs:
            inst = parse_instance(json.loads(json.dumps(doc)))
            assert instance_digest(inst) == reference_digest(inst)
        # pinned: the README example's digest
        assert instance_digest(parse_instance(README_EXAMPLE)) == README_DIGEST

    def test_large_matrix_digest_pinned(self):
        # K = 350 rows that do not sum to exactly 1, so every row is
        # renormalized: the matrix must match a build one Measure at a time
        rng = np.random.default_rng(2750)
        K, n, B = 350, 115, 14
        counts = rng.integers(1, 1000, size=(K, n))
        cuts = np.sort(rng.choice(np.arange(1, n), size=B - 1, replace=False))
        doc = {
            "version": "1",
            "omega": [f"w{i}" for i in range(n)],
            "generators": (counts / counts.sum(axis=1, keepdims=True)).tolist(),
            "xi": (rng.integers(-32, 33, size=n) / 16).tolist(),
            "partition": [sorted(int(i) for i in b) for b in np.split(rng.permutation(n), cuts)],
        }
        inst = parse_instance(json.loads(json.dumps(doc)))
        rows = [Measure(inst.space, row).weights for row in doc["generators"]]
        assert np.array_equal(inst.measure_set.weights_matrix, np.stack(rows))
        assert instance_digest(inst) == (
            "eecee3eec72d9ccd3bb48bdd249b2745480bc4058a5b86361426097d626023f8"
        )

    @pytest.mark.parametrize(
        "rows, message",
        [
            ({1: [0.25, 0.375, 0.25, 0.25]}, "generators[1]: weights sum to 1.125, not 1"),
            ({2: [0.5, 0.5, 0.125, -0.125]}, "generators[2]: measure weights must be nonnegative numbers"),
            ({0: [float("nan"), 0.5, 0.25, 0.25]}, "generators[0]: measure weights must be nonnegative numbers"),
            ({1: [0.5, 0.5]}, "generators[1]: expected 4 weights, got 2"),
            ({2: []}, "generators[2]: expected 4 weights, got 0"),
            ({1: 7}, "generators[1]: expected an array"),
            # two faulty rows: the first one is named, whatever its fault
            ({0: [0.5] * 4, 1: [0.125, "x", 0.25, 0.25]}, "generators[0]: weights sum to 2.0, not 1"),
            ({0: [0.25, None, 0.25, 0.25], 1: [1, 1, 1, 1]}, "generators[0][1]: expected a number, got NoneType"),
        ],
    )
    def test_first_faulty_row_named(self, rows, message):
        gens = [[0.25] * 4, [0.125, 0.375, 0.25, 0.25], [0.5, 0.25, 0.125, 0.125]]
        for i, row in rows.items():
            gens[i] = row
        doc = dict(EXAMPLE_4, generators=gens)
        with pytest.raises(ValidationError) as err:
            parse_instance(doc)
        assert str(err.value) == message


class TestGeneratorConversion:
    """The generator matrix goes to numpy in one conversion when it is plain
    numbers; numpy reads a JSON true or false as 1 or 0, so a row holding a
    0 or a 1 has its entries' types checked, and everything else takes the
    per-row walk with its messages."""

    QUARTER = [0.25, 0.25, 0.25, 0.25]

    @pytest.mark.parametrize(
        "row, message",
        [
            ([0.125, 0.375, True, 0.25], "generators[1][2]: expected a number, got a boolean"),
            ([0.0, 0.0, True, 0.0], "generators[1][2]: expected a number, got a boolean"),
            ([0.5, 0.5, False, 0.0], "generators[1][2]: expected a number, got a boolean"),
            ([True, False, False, False], "generators[1][0]: expected a number, got a boolean"),
            (["0.125", "0.375", "0.25", "0.2"], "generators[1]: weights sum to 0.95, not 1"),
            ([0.125, 0.375, 0.5], "generators[1]: expected 4 weights, got 3"),
            ([0.125, 0.375, 0.25, 0.25, 0], "generators[1]: expected 4 weights, got 5"),
            ([0.125, [0.375], 0.25, 0.25], "generators[1][1]: expected a number, got list"),
            ([0.125, 0.375, 10**400, 0.25], "generators[1][2]: number too large for a float"),
            ([2**70, 0.375, 0.25, 0.25], "generators[1]: weights sum to 1.1805916207174113e+21, not 1"),
            ("0.25", "generators[1]: expected an array"),
        ],
    )
    def test_refusals_name_the_entry(self, row, message, tmp_path, capsys):
        file = tmp_path / "bad.json"
        file.write_text(json.dumps(dict(EXAMPLE_4, generators=[self.QUARTER, row])))
        assert main(["solve", str(file), "--out", str(tmp_path / "out.json")]) == 2
        assert capsys.readouterr().err == f"robustmse: invalid input: {message}\n"
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize(
        "gens, message",
        [
            ([[1, 0, 0, 0], [0, 0, 1, 0]], None),
            ([[1, 0, 0, 0], [0, 1, 1, 0]], "generators[1]: weights sum to 2.0, not 1"),
            ([[1, 0, 0, 0], [0, 0, True, 0]], "generators[1][2]: expected a number, got a boolean"),
        ],
    )
    def test_integer_matrix(self, gens, message):
        # an all-integer matrix converts to an integer array; its 0/1 rows
        # are type-checked, so a bool is still named
        if message is None:
            inst = parse_instance(dict(EXAMPLE_4, generators=gens))
            assert inst.measure_set.weights_matrix.tolist() == [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
            assert inst.measure_set.weights_matrix.dtype == np.float64
            return
        with pytest.raises(ValidationError) as err:
            parse_instance(dict(EXAMPLE_4, generators=gens))
        assert str(err.value) == message

    def test_rows_must_be_lists(self):
        # a library caller's tuple row is refused as before, not converted
        with pytest.raises(ValidationError, match=r"generators\[0\]: expected an array"):
            parse_instance(dict(EXAMPLE_4, generators=[(0.25, 0.25, 0.25, 0.25)]))

    def test_plain_rows_skip_the_walk(self, monkeypatch):
        # plain numbers, zeros and ones among them, never reach the per-row walk
        def walk(*args):
            raise AssertionError("per-row walk")

        monkeypatch.setattr(robustmse.instances, "_generator_row", walk)
        gens = [[0.0, 1.0, 0.0, 0.0], [0.125, 0.375, 0.25, 0.25], [1, 0, 0, 0]]
        inst = parse_instance(json.loads(json.dumps(dict(EXAMPLE_4, generators=gens))))
        assert inst.measure_set.weights_matrix.tolist() == [[float(w) for w in r] for r in gens]

    def test_decimal_string_spelling_shares_the_digest(self):
        # K = 300 rows of 115 points as JSON numbers and as their shortest
        # decimal strings parse to the same binary64 matrix
        rng = np.random.default_rng(4101)
        K, n = 300, 115
        weights = rng.dirichlet(np.ones(n), size=K)
        doc = {
            "version": "1",
            "omega": [f"w{i}" for i in range(n)],
            "xi": (rng.integers(-32, 33, size=n) / 16).tolist(),
            "partition": [list(range(0, 60)), list(range(60, n))],
        }
        plain = parse_instance(json.loads(json.dumps(dict(doc, generators=weights.tolist()))))
        spelled = [[repr(w) for w in row] for row in weights.tolist()]
        strings = parse_instance(json.loads(json.dumps(dict(doc, generators=spelled))))
        assert np.array_equal(plain.measure_set.weights_matrix, strings.measure_set.weights_matrix)
        assert instance_digest(plain) == instance_digest(strings)


EXAMPLE_4 = {
    "version": "1",
    "omega": ["a", "b", "c", "d"],
    "xi": [1, 2, 3, 4],
    "partition": [[0, 1], [2, 3]],
}


def _with(doc, **fields):
    """A JSON copy of doc with fields set; a field set to None is dropped."""
    return json.loads(json.dumps({k: v for k, v in dict(doc, **fields).items() if v is not None}))


DIGEST_BASE = dict(
    EXAMPLE_4,
    generators=[[0.125, 0.375, 0.25, 0.25], [0.5, 0.25, 0.125, 0.125]],
    xi=[1, 2.5, 0.0, 4],
)
DIGEST_TREE = {"version": "1", "tree": {"depth": 2, "q_lo": 0.25, "q_hi": 0.75, "dt": 0.25,
                                        "leaf_values": [1, 0.0, -2, 0.5]}}


class TestDigest:
    """The digest names the instance as parsed into binary64."""

    @pytest.mark.parametrize(
        "base, variant, same",
        [
            # spellings of one parsed instance
            (DIGEST_BASE, _with(DIGEST_BASE, generators=[["0.125", "3.75e-1", 0.25, "0.25"],
                                                         [0.5, "0.250", 0.125, 0.125]],
                                xi=["1", 2.5, "0", "4.0"]), True),
            (DIGEST_BASE, canonical_dict(parse_instance(DIGEST_BASE)), True),
            (DIGEST_BASE, _with(DIGEST_BASE, partition=[[1, 0], [3, 2]]), True),
            (DIGEST_TREE, _with(DIGEST_TREE, tree=dict(DIGEST_TREE["tree"], q_lo=[0.25] * 3)), True),
            (DIGEST_TREE, canonical_dict(parse_instance(DIGEST_TREE)), True),
            # different instances
            (DIGEST_BASE, _with(DIGEST_BASE, generators=[[0.125, float(np.nextafter(0.375, 1)),
                                                          0.25, 0.25], [0.5, 0.25, 0.125, 0.125]]),
             False),
            (DIGEST_BASE, _with(DIGEST_BASE, xi=[1, 2.5, -0.0, 4]), False),
            (DIGEST_TREE, _with(DIGEST_TREE, options={"level": 0}), False),
            (DIGEST_BASE, _with(DIGEST_BASE, partition=[[0, 2], [1, 3]]), False),
            (DIGEST_BASE, _with(DIGEST_BASE, partition=[[0, 1, 2, 3]]), False),
            (DIGEST_BASE, _with(DIGEST_BASE, partition=None,
                                filtration=[[[0, 1, 2, 3]], [[0, 1], [2, 3]]]), False),
            (DIGEST_TREE, _with(DIGEST_TREE, tree=dict(DIGEST_TREE["tree"],
                                                       leaf_values=[1, -0.0, -2, 0.5])), False),
            (DIGEST_TREE, _with(DIGEST_TREE, tree=dict(DIGEST_TREE["tree"], dt=0.125)), False),
            (DIGEST_TREE, _with(DIGEST_TREE, options={"level": 1}), False),
        ],
    )
    def test_equality_classes(self, base, variant, same):
        a, b = parse_instance(base), parse_instance(variant)
        # the digest agrees exactly when the canonical forms do (a repr keeps
        # the sign of a zero and every bit of a float)
        assert (_canonical_json(canonical_dict(a)) == _canonical_json(canonical_dict(b))) is same
        assert (instance_digest(a) == instance_digest(b)) is same

    def test_option_spellings_are_one_instance(self):
        # an empty options stanza is no stanza; level is a JSON integer
        insts = [parse_instance(doc) for doc in (EXAMPLE, dict(EXAMPLE, options={}))]
        assert {_canonical_json(canonical_dict(i)) for i in insts} == {
            _canonical_json(canonical_dict(insts[0]))
        }
        assert "options" not in canonical_dict(insts[1])
        assert {instance_digest(i) for i in insts} == {README_DIGEST}
        typed = parse_instance(dict(DIGEST_TREE, options={"level": 1}))
        assert typed.options == {"level": 1}
        assert type(typed.options["level"]) is int

    def test_options_are_read_only(self):
        # the options feed the digest and the conditioning, so a parsed
        # instance refuses to change them
        inst = parse_instance(README_EXAMPLE)
        with pytest.raises(TypeError):
            inst.options["level"] = 1
        assert instance_digest(inst) == README_DIGEST

    def test_header_holds_no_weight(self, monkeypatch):
        # K = 35 and K = 350 rows on the same points, blocks and xi: the
        # header differs only by the shape, so no weight is written into it
        headers = []

        def spy(obj):
            headers.append(_canonical_json(obj))
            return headers[-1]

        monkeypatch.setattr(robustmse.instances, "_canonical_json", spy)
        rng = np.random.default_rng(35)
        n = 115
        doc = {
            "version": "1",
            "omega": [f"w{i}" for i in range(n)],
            "xi": (rng.integers(-32, 33, size=n) / 16).tolist(),
            "partition": [list(range(0, 60)), list(range(60, n))],
        }
        for K in (35, 350):
            weights = (rng.multinomial(1024 - n, np.full(n, 1.0 / n), size=K) + 1) / 1024
            instance_digest(parse_instance(dict(doc, generators=weights.tolist())))
        short, long = headers
        assert len(long) == len(short) + 1  # the one more digit of K
        assert long == short.replace('["weights_matrix",[35,115]]', '["weights_matrix",[350,115]]')

    def test_readme_digest(self):
        # README shows the example instance and its digest; both must hold
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        example = re.search(r"### Instance format.*?```json\n(.*?)```", readme, re.S).group(1)
        assert json.loads(example) == README_EXAMPLE
        assert re.findall(r"[0-9a-f]{64}", readme) == [README_DIGEST]
        assert instance_digest(parse_instance(json.loads(example))) == README_DIGEST


def seeded_partition_docs(seed, count):
    """Dyadic partition instances: K 2-50 strictly positive generators on 6-40
    points, 1-6 blocks."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(6, 41))
        K = int(rng.choice([2, 5, 12, 50]))
        B = int(rng.integers(1, 7))
        weights = (rng.multinomial(1024 - n, np.full(n, 1.0 / n), size=K) + 1) / 1024
        cuts = np.sort(rng.choice(np.arange(1, n), size=B - 1, replace=False))
        blocks = [sorted(int(i) for i in b) for b in np.split(rng.permutation(n), cuts)]
        yield {
            "version": "1",
            "omega": [f"w{i}" for i in range(n)],
            "generators": weights.tolist(),
            "xi": (rng.integers(-32, 33, size=n) / 16).tolist(),
            "partition": blocks,
        }


class TestSolveCommand:
    def test_example(self, example_file, tmp_path):
        code, doc = run(["solve", example_file], tmp_path)
        assert code == 0
        est = doc["result"]["estimator"]
        assert est["eta_hat"] == pytest.approx([5.0, 5.0], abs=1e-8)
        assert est["alpha"] == pytest.approx(9.0, abs=1e-8)
        assert doc["result"]["saddle_certificate"]["passed"]
        assert doc["result"]["kernel_member"] is True
        assert doc["result"]["ns_condition"]["holds"] is True

    def test_validation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(EXAMPLE, generators=[[0.4, 0.5], [0.75, 0.25]])))
        code = main(["solve", str(bad)])
        assert code == 2
        assert "generators[0]" in capsys.readouterr().err

    def test_nonconvergence_exit_code(self, tmp_path):
        # a solve that stops short of the saddle must be reported, not papered over
        path = tmp_path / "stops.json"
        path.write_text(json.dumps(STOPS))
        code, out = run(["solve", str(path)], tmp_path)
        assert code == 3
        est = out["result"]["estimator"]
        assert est["converged"] is False
        assert est["saddle_gap"] == pytest.approx(0.488, abs=1e-3)

    def test_results_reproducible_apart_from_wall_time(self, example_file, tmp_path):
        _, a = run(["solve", example_file], tmp_path, "a.json")
        _, b = run(["solve", example_file], tmp_path, "b.json")
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b

    @pytest.mark.usefixtures("fresh_tables")
    def test_certificate_failure_exit_code(self, tmp_path, monkeypatch):
        # a zero tolerance on the product equation cannot be met in floats:
        # here the certified bound lies 1.3e-16 * bound(xi)^2 below rho_sq,
        # on the default and the Prescott OpenBLAS kernels alike
        monkeypatch.setattr(robustmse.estimator, "NS_TOL", 0.0)
        doc = {
            "version": "1",
            "omega": ["a", "b", "c", "d"],
            "generators": [
                [0.3125, 0.1875, 0.1875, 0.3125],
                [0.1875, 0.375, 0.1875, 0.25],
            ],
            "xi": [-0.75, 0.75, 0.9375, 0.0],
            "partition": [[0, 1], [2, 3]],
        }
        path = tmp_path / "strict.json"
        path.write_text(json.dumps(doc))
        code, out = run(["solve", str(path)], tmp_path)
        assert code == 1
        assert out["result"]["ns_condition"]["holds"] is False

    @pytest.mark.parametrize("s", [1e-6, 1e-3, 1e3, 1e6])
    def test_certificates_do_not_depend_on_units(self, tmp_path, s):
        for i, doc in enumerate(seeded_partition_docs(2701, 12)):
            path = tmp_path / f"scaled{i}.json"
            path.write_text(json.dumps(dict(doc, xi=[v * s for v in doc["xi"]])))
            code, out = run(["solve", str(path)], tmp_path)
            assert code == 0, (i, out["result"])
            assert out["result"]["saddle_certificate"]["passed"]
            assert out["result"]["kernel_member"] is True
            assert out["result"]["ns_condition"]["holds"] is True

    def test_depth_four_tree(self, tmp_path):
        # the corner set has 32,768 generators; only the active ones enter the NS test
        leaves = [((7 * i) % 11 - 5) / 4 for i in range(16)]
        doc = {
            "version": "1",
            "tree": {"depth": 4, "q_lo": 0.25, "q_hi": 0.75, "dt": 0.25, "leaf_values": leaves},
            "options": {"level": 3},
        }
        path = tmp_path / "d4.json"
        path.write_text(json.dumps(doc))
        code, out = run(["solve", str(path)], tmp_path)
        assert code == 0
        ns = out["result"]["ns_condition"]
        assert ns["holds"] is True
        assert 1 <= ns["active"] < 2**15
        assert out["result"]["kernel_member"] is True

    def test_unknown_option_rejected(self, tmp_path, capsys):
        # no command reads solver, seed, trials or grid_step, so they are not accepted
        unknown = (
            {"tolerance": 1e-8},
            {"solver": "brute_force"},
            {"seed": 7},
            {"trials": 10},
            {"grid_step": 1e-3},
        )
        for options in unknown:
            doc = dict(EXAMPLE, options=options)
            path = tmp_path / "opt.json"
            path.write_text(json.dumps(doc))
            code = main(["solve", str(path)])
            assert code == 2, options

    def test_level_needs_a_tree(self, tmp_path, capsys):
        # no partition or filtration command reads level
        filtration = {k: v for k, v in EXAMPLE.items() if k != "partition"}
        for doc in (EXAMPLE, dict(filtration, filtration=[[[0, 1]], [[0], [1]]])):
            path = tmp_path / "level.json"
            path.write_text(json.dumps(dict(doc, options={"level": 0})))
            assert main(["solve", str(path)]) == 2
            assert "options.level: only a tree instance takes a level" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rho", "solve", "gexp"])
    @pytest.mark.parametrize("level", [5, -1])
    def test_tree_level_in_range(self, tmp_path, capsys, command, level):
        doc = {"tree": {"depth": 2, "q_lo": 0.25, "q_hi": 0.75, "leaf_values": [1, 0, 0, 0]},
               "options": {"level": level}}
        path = tmp_path / "level.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == (
            "robustmse: invalid input: options.level: expected an integer in 0..2\n"
        )

    def test_boolean_partition_index_rejected(self, tmp_path, capsys):
        # JSON booleans load as Python bools, which are ints; [[false], [true, 2]]
        # must not parse as the partition [[0], [1, 2]]
        doc = dict(
            EXAMPLE,
            omega=["a", "b", "c"],
            generators=[[0.25, 0.25, 0.5], [0.5, 0.25, 0.25]],
            xi=[1, 2, 3],
            partition=[[False], [True, 2]],
        )
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        code = main(["solve", str(path)])
        assert code == 2
        assert "partition[0]" in capsys.readouterr().err


class TestUnusablePaths:
    # a file that cannot be read or written is a usage error (exit 2) with
    # one line on stderr; exit 1 is a failed certificate
    @pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
    def test_instance_that_cannot_be_read(self, tmp_path, capsys, kind):
        path = tmp_path / "instance.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not utf-8":
            path.write_bytes(b'{"version": "1", "omega": ["\xff"]}')
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("robustmse: invalid input: ") and err.count("\n") == 1

    def test_result_that_cannot_be_written(self, example_file, tmp_path, capsys):
        out = tmp_path / "missing" / "result.json"
        assert main(["solve", example_file, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("robustmse: invalid input: ") and err.count("\n") == 1
        assert str(out) in err
        assert not out.parent.exists()


class TestBytes:
    """Instance files are read as bytes and decoded as UTF-8 once; result
    files are written as bytes, UTF-8 (here ASCII) with one LF at the end."""

    WALL = re.compile(rb'"wall_time_s":[^,}]+')

    def result(self, tmp_path, text, name, command="solve"):
        path = tmp_path / f"{name}.json"
        path.write_bytes(text.encode("utf-8"))
        out = tmp_path / f"{name}-out.json"
        assert main([command, str(path), "--out", str(out)]) == 0
        return self.WALL.sub(b"", out.read_bytes())

    def test_crlf_line_ends_solve_as_lf(self, tmp_path):
        lf = json.dumps(FOUR_POINT, indent=2)
        assert "\n" in lf
        for command in ("solve", "rho", "oracle"):
            crlf = self.result(tmp_path, lf.replace("\n", "\r\n"), "crlf", command)
            assert crlf == self.result(tmp_path, lf, "lf", command)

    def test_non_ascii_labels(self, tmp_path):
        labels = ["\u03c9\u2081", "caf\u00e9", "\u6a39", "\U0001f332"]
        raw = json.dumps(dict(FOUR_POINT, omega=labels), ensure_ascii=False)
        escaped = json.dumps(dict(FOUR_POINT, omega=labels))
        assert escaped.isascii() and not raw.isascii()
        got = self.result(tmp_path, raw, "raw")
        assert got == self.result(tmp_path, escaped, "escaped")
        assert got.isascii()
        digest = instance_digest(parse_instance(json.loads(raw)))
        assert f'"instance_digest":"{digest}"'.encode() in got

    def test_byte_order_mark_refused(self, tmp_path, capsys):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(EXAMPLE).encode())
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err == (
            "robustmse: invalid input: $: invalid JSON: Unexpected UTF-8 BOM "
            "(decode using utf-8-sig): line 1 column 1 (char 0)\n"
        )

    def test_invalid_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        text = json.dumps(dict(EXAMPLE, omega=["caf\u00e9", "w2"]), ensure_ascii=False)
        path.write_bytes(text.encode("latin-1"))
        assert main(["solve", str(path), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("robustmse: invalid input: 'utf-8' codec can't decode byte 0xe9")
        assert err.count("\n") == 1 and not (tmp_path / "r.json").exists()

    def test_json_error_position_counts_carriage_returns(self, tmp_path, capsys):
        # the file's characters as they are: each CR of a CRLF counts
        path = tmp_path / "cut.json"
        path.write_bytes(b'{\r\n  "version": "1",\r\n  "omega": ["w1"\r\n')
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err == (
            "robustmse: invalid input: $: invalid JSON: "
            "Expecting ',' delimiter: line 4 column 1 (char 40)\n"
        )

    @pytest.mark.parametrize("opening", ["[", '{"a":'])
    def test_deeply_nested_json_is_invalid_json(self, tmp_path, capsys, opening):
        # nesting past the recursion limit is refused as the file's JSON, with
        # one stderr line, not a traceback and exit 1 (a certificate failure)
        path = tmp_path / "deep.json"
        closing = "]" if opening == "[" else "}"
        path.write_text(opening * 100_000 + closing * 100_000)
        assert main(["solve", str(path), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("robustmse: invalid input: $: invalid JSON: maximum recursion depth")
        assert err.count("\n") == 1 and not (tmp_path / "r.json").exists()

    def test_result_ends_in_one_lf(self, example_file, tmp_path):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(TREE_2))
        for args in (["solve", example_file], ["gexp", str(tree)], ["tcsearch", "--trials", "3"]):
            out = tmp_path / "r.json"
            assert main(args + ["--out", str(out)]) == 0
            data = out.read_bytes()
            assert data.endswith(b"}\n") and data.count(b"\n") == 1 and b"\r" not in data
            assert data.isascii()


class TestRhoCommand:
    def test_example(self, example_file, tmp_path):
        code, doc = run(["rho", example_file], tmp_path)
        assert code == 0
        assert doc["result"]["rho"]["value"] == 6.5
        env = doc["result"]["envelopes"][0]
        assert env["ess_sup"] == [6.5, 6.5]
        assert env["ess_inf"] == [3.5, 3.5]

    @pytest.mark.parametrize("kind", ["explicit", "tree"])
    def test_one_support_query_at_the_value_tolerance(self, tmp_path, monkeypatch, kind):
        # value, argmax_generator and ties come from one query, with the
        # ties within VALUE_TOL * R of the maximum (here R = 4)
        leaves = [2, 8, 0, 3]
        if kind == "tree":
            tree = {"depth": 2, "q_lo": 0.25, "q_hi": 0.75, "dt": 0.25, "leaf_values": leaves}
            cls, doc = robustmse.gexp.TreeModel, {"version": "1", "tree": tree}
        else:
            cls, doc = robustmse.measures.MeasureSet, dict(FOUR_POINT, xi=leaves)
        calls, support = [], cls.support
        monkeypatch.setattr(cls, "support", lambda s, v, tol: calls.append(tol) or support(s, v, tol))
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        code, out = run(["rho", str(path)], tmp_path)
        assert code == 0 and calls == [VALUE_TOL * 4]

    def test_constant_instance(self, tmp_path):
        doc = dict(EXAMPLE, xi=[3, 3])
        path = tmp_path / "const.json"
        path.write_text(json.dumps(doc))
        code, out = run(["rho", str(path)], tmp_path)
        assert code == 0
        assert out["result"]["rho"]["value"] == pytest.approx(3.0)

    def test_filtration_instance_reports_every_level(self, tmp_path):
        doc = {
            "version": "1",
            "omega": ["a", "b", "c", "d"],
            "generators": [[0.25, 0.25, 0.25, 0.25], [0.125, 0.375, 0.25, 0.25]],
            "xi": [1, 2, 3, 4],
            "filtration": [[[0, 1, 2, 3]], [[0, 1], [2, 3]]],
        }
        path = tmp_path / "filt.json"
        path.write_text(json.dumps(doc))
        code, out = run(["rho", str(path)], tmp_path)
        assert code == 0
        assert len(out["result"]["envelopes"]) == 2

    def test_tree_instance_envelopes(self, tmp_path):
        doc = {
            "version": "1",
            "tree": {"depth": 1, "q_lo": 0.25, "q_hi": 0.75, "dt": 0.25, "leaf_values": [2, 8]},
        }
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(doc))
        code, out = run(["rho", str(path)], tmp_path)
        assert code == 0
        assert out["result"]["rho"]["value"] == 6.5
        assert len(out["result"]["envelopes"]) == 2

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_tree_matches_its_explicit_corner_set(self, tmp_path, depth):
        # the recursions answer exactly what the corner matrix answers on
        # dyadic trees: same value, argmax, ties and envelopes
        rng = np.random.default_rng(3100 + depth)
        nodes, leaves = 2**depth - 1, 2**depth
        lo = rng.integers(2, 8, size=nodes)
        hi = lo + rng.integers(1, 8, size=nodes)
        values = rng.integers(-32, 33, size=leaves) / 16
        values[3] = values[2]  # a tie at one parent: two maximizing corners
        tree = {
            "depth": depth,
            "q_lo": (lo / 16).tolist(),
            "q_hi": (hi / 16).tolist(),
            "dt": 0.25,
            "leaf_values": values.tolist(),
        }
        tm = robustmse.gexp.TreeModel(depth, lo / 16, hi / 16)
        levels = [tm.level_partition(lev) for lev in range(depth + 1)]
        explicit = {
            "version": "1",
            "omega": list(tm.space.labels),
            "generators": robustmse.gexp.tree_measure_set(tm).weights_matrix.tolist(),
            "xi": values.tolist(),
            "filtration": [[list(b) for b in part.blocks] for part in levels],
        }
        paths = []
        for name, doc in (("tree", {"version": "1", "tree": tree}), ("explicit", explicit)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(doc))
        (code_t, got), (code_e, want) = (run(["rho", str(p)], tmp_path, p.name) for p in paths)
        assert code_t == code_e == 0
        assert len(got["result"]["rho"]["ties"]) >= 2
        assert got["result"] == want["result"]


class TestOverflowRefused:
    @staticmethod
    def assert_refused(tmp_path, capsys, s):
        """FOUR_POINT's xi, and a depth-2 tree with those leaves, times s: the
        commands that square residuals refuse (exit 4, no traceback); rho,
        linear in xi, answers."""
        part = dict(FOUR_POINT, xi=[v * s for v in FOUR_POINT["xi"]])
        tree = {
            "version": "1",
            "tree": {"depth": 2, "dt": 0.25, "q_lo": 0.25, "q_hi": 0.75,
                     "leaf_values": part["xi"]},
            "options": {"level": 1},
        }
        for doc, commands in ((part, ("solve", "oracle")), (tree, ("solve", "gexp"))):
            path = tmp_path / "scaled.json"
            path.write_text(json.dumps(doc))
            for cmd in commands:
                code, out = run([cmd, str(path)], tmp_path, f"{cmd}.json")
                assert (code, out) == (4, None), cmd
                err = capsys.readouterr().err
                assert "robustmse: refused: " in err and "Traceback" not in err
            assert run(["rho", str(path)], tmp_path, "rho.json")[0] == 0

    def test_squares_that_overflow_are_refused(self, tmp_path, capsys):
        # residuals reach (2R)^2: at xi * 1e300 that is past binary64
        self.assert_refused(tmp_path, capsys, 1e300)

    def test_squares_below_the_normal_range_are_refused(self, tmp_path, capsys):
        # at xi * 1e-160, R^2 (about 1e-320) is subnormal: unguarded, solve
        # exited 1 at alpha 5.316e-321 (5.3125e-321 is right), oracle exited 1
        # with agree: false, and the tree exited 0 from gexp and solve
        self.assert_refused(tmp_path, capsys, 1e-160)


class TestLargeBound:
    """M = max|xi| can be far above R, the half-range: ns_condition forms its
    threshold and bound in units of M's power of two, as M^2 overflows from
    M = 1.34e154, and refuses where a term of the bound itself overflows."""

    @staticmethod
    def solve(tmp_path, xi, partition, generators=FOUR_POINT["generators"]):
        path = tmp_path / "large.json"
        doc = dict(FOUR_POINT, xi=xi, partition=partition, generators=generators)
        path.write_text(json.dumps(doc))
        out = tmp_path / "large-solve.json"
        code = main(["solve", str(path), "--out", str(out)])
        return code, out.read_text() if out.exists() else None

    @pytest.mark.parametrize(
        "xi, partition",
        [
            # measurable: its own estimator at any scale
            pytest.param([-1e308, 2, 3, 4], [[0], [1], [2], [3]], id="measurable-1e308"),
            # R = 1.5e150 on an offset of 1e155
            pytest.param([1.00001e155, 1.00002e155, 1.00003e155, 1.00004e155], [[0, 1], [2, 3]],
                         id="offset-1e155"),
        ],
    )
    def test_ns_condition_holds(self, tmp_path, xi, partition):
        code, text = self.solve(tmp_path, xi, partition)
        assert code == 0
        assert "NaN" not in text
        ns = json.loads(text)["result"]["ns_condition"]
        assert ns["holds"] is True and math.isfinite(ns["lower_bound"])

    def test_bound_term_that_overflows_is_refused(self, tmp_path, capsys):
        # E_g[(xi - eta_hat) xi] is about 1e310 at an offset of 1e160
        xi = [v + 1e160 for v in (1.00001e155, 1.00002e155, 1.00003e155, 1.00004e155)]
        assert self.solve(tmp_path, xi, [[0, 1], [2, 3]]) == (4, None)
        err = capsys.readouterr().err
        assert "robustmse: refused: " in err and "NS lower bound" in err and "Traceback" not in err

    def test_guard_reads_the_generators_products_not_each_point(self, tmp_path):
        # every (xi - eta_hat) xi is about +-1e310 here, but one generator
        # averages them to about 1e300: the guard reads max_k |a_k|, so the
        # set answers
        xi = [1e160 - 1e150, 1e160 + 1e150] * 2
        code, text = self.solve(tmp_path, xi, [[0, 1], [2, 3]], [[0.25] * 4])
        assert code == 0
        assert json.loads(text)["result"]["ns_condition"]["holds"] is True


class TestMeasurableAtScale:
    """A measurable xi is its own estimator at alpha = 0 whatever its scale:
    the saddle certificate's inner minimum is 0 exactly. It used to square the
    rounding of E_P_hat[xi | C] on two-point blocks of unequal masses, which
    read 3.3e268 at s = 1e150 and overflowed (a RuntimeWarning, then
    "min_over_eta": Infinity with passed: true) from about s = 1e170."""

    @pytest.mark.parametrize("s", [1e150, 1e200, 1e300])
    def test_solve_certifies_at_zero(self, tmp_path, capsys, s):
        path = tmp_path / "measurable.json"
        path.write_text(json.dumps(dict(FOUR_POINT, xi=[s, s, -s, -s])))
        code, doc = run(["solve", str(path)], tmp_path)
        assert code == 0 and capsys.readouterr().err == ""
        result = doc["result"]
        assert result["estimator"]["alpha"] == 0.0
        assert result["saddle_certificate"] == {
            "max_over_P": 0.0, "value_at_saddle": 0.0, "min_over_eta": 0.0, "passed": True,
        }
        assert result["kernel_member"] is True and result["ns_condition"]["holds"] is True


class TestOracleCommand:
    def test_example_agrees(self, example_file, tmp_path):
        code, doc = run(["oracle", example_file], tmp_path)
        assert code == 0
        assert doc["result"]["agree"] is True
        assert doc["result"]["alpha_diff"] <= 1e-4

    @pytest.mark.parametrize("s", [1e-150, 1e-100, 1e-6, 1e6, 1e100, 1e150])
    def test_agreement_does_not_depend_on_units(self, tmp_path, s):
        # at xi * 1e6 the second instance's alpha_diff (0.04) and eta_sup_diff
        # (0.2) are rounding relative to bound(xi), far above any fixed cut-off.
        # The oracle runs in units of a power of two: in the units of xi its
        # g'Pg, of order R^4, underflows on FOUR_POINT at xi * 1e-100
        interior = {
            "version": "1",
            "omega": ["a", "b", "c", "d"],
            "generators": [
                [0.3125, 0.1875, 0.1875, 0.3125],
                [0.1875, 0.375, 0.1875, 0.25],
            ],
            "xi": [-0.875, -1.9375, -0.8125, -1.875],
            "partition": [[0, 1], [2, 3]],
        }
        for doc in (EXAMPLE, interior, FOUR_POINT):
            path = tmp_path / "scaled.json"
            path.write_text(json.dumps(dict(doc, xi=[v * s for v in doc["xi"]])))
            code, out = run(["oracle", str(path)], tmp_path)
            assert code == 0
            assert out["result"]["agree"] is True

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    @pytest.mark.usefixtures("fresh_tables")
    def test_wrong_alpha_caught_on_a_shifted_copy(self, tmp_path, monkeypatch, shift):
        # agreement is judged in units of R, half the range of xi (3 here):
        # in units of max|xi| a shift of 1e6 would accept any alpha within 1e6
        solve = robustmse.cli.solve_mmse

        def off(*args, **kwargs):
            res = solve(*args, **kwargs)
            return res._replace(alpha=res.alpha + 1e-3)

        monkeypatch.setattr(robustmse.cli, "solve_mmse", off)
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps(dict(EXAMPLE, xi=[v + shift for v in EXAMPLE["xi"]])))
        code, doc = run(["oracle", str(path)], tmp_path)
        assert code == 1
        assert doc["result"]["agree"] is False

    @pytest.mark.usefixtures("fresh_tables")
    def test_oracle_step_cap_exit_code(self, example_file, tmp_path, monkeypatch):
        monkeypatch.setattr(robustmse.estimator, "MAX_ELLIPSOID_STEPS", 1)
        code, doc = run(["oracle", example_file], tmp_path)
        assert code == 3
        assert doc["result"]["brute_force"]["converged"] is False


UNCHARGED = {
    "version": "1",
    "omega": ["a", "b", "c"],
    "generators": [[0.5, 0.5, 0], [0.5, 0.49, 0.01]],
    "xi": [1, -1, 0],
    "partition": [[0, 1], [2]],
}


class TestUnchargedBlock:
    """A valid set that is not proper: P_hat = (1, 0) leaves block {c}
    uncharged, and F is 1 for every eta_c in [-1, 1]."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "uncharged.json"
        path.write_text(json.dumps(UNCHARGED))
        return str(path)

    def test_solve_certifies(self, path, tmp_path):
        code, doc = run(["solve", path], tmp_path)
        assert code == 0
        res = doc["result"]
        assert res["estimator"]["p_hat"] == [1.0, 0.0]
        # the uncharged block keeps the uniform mixture's conditional mean
        assert res["estimator"]["eta_hat"] == [0.0, 0.0, 0.0]
        assert res["estimator"]["alpha"] == 1.0
        assert res["saddle_certificate"]["passed"] is True
        assert res["kernel_member"] is True
        assert res["ns_condition"]["holds"] is True

    def test_oracle_agrees(self, path, tmp_path):
        code, doc = run(["oracle", path], tmp_path)
        assert code == 0
        assert doc["result"]["agree"] is True

    def test_uncharged_point_agrees_with_the_certified_gap(self, tmp_path):
        # a second such set: P_hat = generator 2 leaves point d uncharged, where
        # the solver keeps -0.5 and the ellipsoid stops 3.3e-3 lower, both optimal
        sixth = 1 / 6
        doc = {
            "version": "1",
            "omega": ["a", "b", "c", "d"],
            "generators": [
                [0.3, 0.2, 0.3, 0.2],
                [0.3, 0.3, 0.2, 0.2],
                [0.375, 0.375, 0.25, 0],
                [sixth, 2 * sixth, sixth, 2 * sixth],
                [0.2, 0, 0.4, 0.4],
                [0.5, sixth, sixth, sixth],
            ],
            "xi": [-0.5, 2, 1.5, -0.5],
            "partition": [[0, 1], [2], [3]],
        }
        path = tmp_path / "uncharged_point.json"
        path.write_text(json.dumps(doc))
        code, out = run(["oracle", str(path)], tmp_path)
        assert code == 0
        res = out["result"]
        assert res["agree"] is True
        assert res["brute_force"]["p_hat"] is None
        assert 0.0 <= res["brute_force"]["saddle_gap"] <= 1e-13 * 1.25**2  # R = 1.25

    @pytest.mark.parametrize("eta_c, agree", [(-0.5, True), (1.0, True), (2.0, False)])
    @pytest.mark.usefixtures("fresh_tables")
    def test_oracle_judges_by_value(self, path, tmp_path, monkeypatch, eta_c, agree):
        # moving eta on the uncharged block keeps F = 1 while |eta_c| <= 1
        solve = robustmse.cli.solve_mmse

        def moved(*args, **kwargs):
            res = solve(*args, **kwargs)
            values = res.eta_hat.values.copy()
            values[2] = eta_c
            return res._replace(eta_hat=RandomVariable(res.eta_hat.space, values))

        monkeypatch.setattr(robustmse.cli, "solve_mmse", moved)
        code, doc = run(["oracle", path], tmp_path)
        assert doc["result"]["eta_sup_diff"] == abs(eta_c)
        assert doc["result"]["agree"] is agree
        assert code == (0 if agree else 1)


UNSTABLE = {
    "version": "1",
    "omega": ["uu", "ud", "du", "dd"],
    "generators": [
        [0.5, 0.25, 0.125, 0.125],
        [0.125, 0.125, 0.25, 0.5],
    ],
    "xi": [1.25, -1.6875, -1.3125, -1.0625],
    "filtration": [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]],
}


class TestStabilityCommand:
    @pytest.fixture
    def unstable_file(self, tmp_path):
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(UNSTABLE))
        return str(path)

    def test_witness_instance(self, unstable_file, tmp_path):
        code, out = run(["stability", unstable_file], tmp_path)
        assert code == 0
        assert out["result"]["stable"] is False
        assert out["result"]["witness"]["hull_residual"] > 1e-3
        # the failing pasting matches no generator, so it went to the hull LP
        assert 1 <= out["result"]["hull_tests"] <= out["result"]["pastings_checked"]
        gaps = [row["max_abs_gap"] for row in out["result"]["recursivity"]]
        assert max(gaps) > 1e-3

    def test_lp_pivot_limit_exit_code(self, unstable_file, tmp_path, monkeypatch, capsys):
        # a simplex that stops at its pivot limit is nonconvergence, not invalid
        # input; this set's failing pasting goes to the batched hull LP
        monkeypatch.setattr(robustmse.simplexlp, "MAX_PIVOTS", 0)
        code, out = run(["stability", unstable_file], tmp_path)
        assert (code, out) == (3, None)
        err = capsys.readouterr().err
        assert err == "robustmse: nonconvergence: simplex pivot limit of 0 exceeded\n"

    def test_needs_filtration(self, example_file, tmp_path, capsys):
        code = main(["stability", example_file])
        assert code == 2

    @pytest.mark.parametrize("command", ["stability", "solve", "rho"])
    def test_levels_must_be_nested(self, tmp_path, capsys, command):
        # the last level crosses the blocks of the one before it
        doc = {
            "version": "1",
            "omega": ["a", "b", "c", "d"],
            "generators": [[0.25, 0.25, 0.25, 0.25], [0.125, 0.375, 0.375, 0.125]],
            "xi": [1, 2, 3, 4],
            "filtration": [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0, 2], [1, 3]]],
        }
        path = tmp_path / "crossing.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path), "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            "robustmse: invalid input: filtration: filtration[2] does not refine filtration[1]\n"
        )
        assert not (tmp_path / "r.json").exists()


class TestTcsearchCommand:
    def test_finds_and_serializes(self, tmp_path):
        code, doc = run(["tcsearch", "--seed", "20250801", "--trials", "50"], tmp_path)
        assert code == 0
        payload = doc["result"]
        assert payload["found"] is True
        assert payload["gap"] > 1e-3
        inst = parse_instance(payload["counterexample"])
        assert inst.kind == "filtration"

    def test_zero_trials_rejected(self, tmp_path, capsys):
        code = main(["tcsearch", "--trials", "0"])
        assert code == 2

    def test_negative_seed_rejected(self, capsys):
        assert main(["tcsearch", "--seed", "-1"]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err


class TestGexpCommand:
    def tree_doc(self, depth, lo=0.25, hi=0.75, leaves=None):
        n = 2 ** depth
        return {
            "version": "1",
            "tree": {
                "depth": depth,
                "q_lo": lo,
                "q_hi": hi,
                "dt": 0.25,
                "leaf_values": leaves or list(range(n)),
            },
        }

    def test_default_tree_contrast(self, tmp_path):
        path = tmp_path / "t1.json"
        path.write_text(json.dumps(self.tree_doc(1, leaves=[2, 8])))
        code, doc = run(["gexp", str(path)], tmp_path)
        assert code == 0
        assert doc["result"]["comparison"]["sup_diff"] == pytest.approx(1.5, abs=1e-6)
        assert doc["result"]["representation"]["abs_gap"] < 1e-10
        # the estimator's status, so that an exit 3 explains itself
        cmp = doc["result"]["comparison"]
        assert cmp["converged"] is True
        assert 0.0 <= cmp["saddle_gap"] <= 1e-8 * (1 + 9.0)
        assert cmp["iterations"] >= 1

    @pytest.mark.usefixtures("fresh_tables")
    def test_nonconvergence_reported_in_comparison(self, tmp_path, monkeypatch):
        monkeypatch.setattr(robustmse.estimator, "MAX_ADDITIONS", 0)
        doc = dict(self.tree_doc(2, leaves=[1, 0, 0, 0]), options={"level": 1})
        path = tmp_path / "cap.json"
        path.write_text(json.dumps(doc))
        code, out = run(["gexp", str(path)], tmp_path)
        assert code == 3
        cmp = out["result"]["comparison"]
        assert cmp["converged"] is False
        assert cmp["saddle_gap"] > 0.0
        assert cmp["iterations"] == 0

    def test_degenerate_interval_no_difference(self, tmp_path):
        path = tmp_path / "deg.json"
        path.write_text(json.dumps(self.tree_doc(2, lo=0.5, hi=0.5, leaves=[1, 2, 3, 4])))
        code, doc = run(["gexp", str(path)], tmp_path)
        assert code == 0
        assert doc["result"]["comparison"]["sup_diff"] < 1e-9

    def test_depth_guard_exit_code(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(self.tree_doc(7)))
        code = main(["gexp", str(path)])
        assert code == 4

    def test_boolean_depth_rejected(self, tmp_path, capsys):
        doc = self.tree_doc(1, leaves=[2, 8])
        doc["tree"]["depth"] = True
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        code = main(["gexp", str(path)])
        assert code == 2
        assert "tree.depth" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gexp", "rho", "solve"])
    def test_builds_no_corner_set(self, tmp_path, monkeypatch, command):
        # every command queries the tree's corner set through its recursions;
        # tree_measure_set lives in gexp alone, where the spy replaces it
        calls = []
        build = robustmse.gexp.tree_measure_set

        def counted(tm):
            calls.append(tm.depth)
            return build(tm)

        monkeypatch.setattr(robustmse.gexp, "tree_measure_set", counted)
        path = tmp_path / "t2.json"
        path.write_text(json.dumps(self.tree_doc(2, leaves=[1, 0, 0, 0])))
        code, doc = run([command, str(path)], tmp_path)
        assert code == 0
        assert calls == []
        if command == "gexp":
            assert doc["result"]["representation"]["abs_gap"] < 1e-10
        elif command == "rho":
            assert doc["result"]["rho"]["value"] == 0.5625
        else:
            result = doc["result"]
            assert result["saddle_certificate"]["passed"] is True
            assert result["kernel_member"] is True
            assert result["ns_condition"]["holds"] is True
            assert len(result["estimator"]["p_hat"]) == 8

    @pytest.mark.parametrize("depth", [2, 3, 4])
    @pytest.mark.parametrize("per_node", [False, True], ids=["drift", "per-node"])
    def test_oracle_builds_no_corner_set(self, tmp_path, monkeypatch, depth, per_node):
        # the ellipsoid oracle and the dual solve both query the TreeModel
        calls = []
        build = robustmse.gexp.tree_measure_set

        def counted(tm):
            calls.append(tm.depth)
            return build(tm)

        monkeypatch.setattr(robustmse.gexp, "tree_measure_set", counted)
        rng = np.random.default_rng(3930 + depth)
        lo, hi = 0.25, 0.75
        if per_node:
            nodes = 2**depth - 1
            lo = (rng.integers(2, 8, nodes) / 16).tolist()
            hi = (rng.integers(9, 15, nodes) / 16).tolist()
        leaves = (rng.integers(-32, 33, 2**depth) / 16).tolist()
        for level in range(depth):
            path = tmp_path / f"level{level}.json"
            doc = dict(self.tree_doc(depth, lo, hi, leaves), options={"level": level})
            path.write_text(json.dumps(doc))
            code, out = run(["oracle", str(path)], tmp_path)
            assert (code, out["result"]["agree"]) == (0, True)
        assert calls == []

    @pytest.mark.parametrize("depth", [2, 3, 4])
    @pytest.mark.parametrize("per_node", [False, True], ids=["drift", "per-node"])
    def test_solve_and_gexp_write_one_estimator(self, tmp_path, depth, per_node):
        # both commands solve on the TreeModel, so at every level below the
        # leaves they write one estimator: the same eta_hat bits, saddle gap
        # and iteration count
        rng = np.random.default_rng(4200 + depth)
        lo, hi = 0.25, 0.75
        if per_node:
            nodes = 2**depth - 1
            lo = (rng.integers(2, 8, nodes) / 16).tolist()
            hi = (rng.integers(9, 15, nodes) / 16).tolist()
        leaves = rng.normal(size=2**depth).tolist()
        for level in range(depth):
            path = tmp_path / f"level{level}.json"
            path.write_text(json.dumps(dict(self.tree_doc(depth, lo, hi, leaves), options={"level": level})))
            (code_s, solve), (code_g, gexp) = (
                run([command, str(path)], tmp_path, f"{command}.json") for command in ("solve", "gexp")
            )
            assert code_s == code_g == 0
            est, cmp = solve["result"]["estimator"], gexp["result"]["comparison"]
            assert [x.hex() for x in est["eta_hat"]] == [x.hex() for x in cmp["mmse"]]
            assert est["saddle_gap"].hex() == cmp["saddle_gap"].hex()
            assert est["iterations"] == cmp["iterations"]

    def test_depth_four_rho_and_gexp(self, tmp_path):
        leaves = [((7 * i) % 11 - 5) / 4 for i in range(16)]
        path = tmp_path / "d4.json"
        path.write_text(json.dumps(dict(self.tree_doc(4, leaves=leaves), options={"level": 0})))
        code, doc = run(["rho", str(path)], tmp_path, "rho.json")
        assert code == 0
        assert len(doc["result"]["envelopes"]) == 5
        code, doc = run(["gexp", str(path)], tmp_path, "gexp.json")
        assert code == 0
        assert doc["result"]["comparison"]["level"] == 0
        assert doc["result"]["representation"]["abs_gap"] <= 1e-9

    def test_full_depth_five_rho_refused(self, tmp_path, capsys):
        path = tmp_path / "d5.json"
        path.write_text(json.dumps(self.tree_doc(5)))
        assert main(["rho", str(path)]) == 4
        assert "dense over the corners" in capsys.readouterr().err

    def test_full_depth_five_oracle_refused_before_it_runs(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(robustmse.cli, "brute_force_mmse", lambda *args: calls.append(args))
        path = tmp_path / "d5.json"
        path.write_text(json.dumps(dict(self.tree_doc(5), options={"level": 4})))
        assert main(["oracle", str(path)]) == 4
        assert "dense over the corners" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("command", ["rho", "gexp", "solve", "oracle"])
    @pytest.mark.parametrize("omega", [5, None, "uudd", {"a": 1}, ["a", "b", "c", "d"]])
    def test_omega_that_is_not_the_leaf_paths(self, tmp_path, capsys, command, omega):
        path = tmp_path / "omega.json"
        path.write_text(json.dumps(dict(self.tree_doc(2), omega=omega)))
        assert main([command, str(path)]) == 2
        assert "omega" in capsys.readouterr().err

    @pytest.mark.parametrize("dt", ['"inf"', '"-inf"', '"nan"', "1e309", "0", "-0.25"])
    def test_dt_must_be_positive_and_finite(self, tmp_path, capsys, dt):
        # dt as written in the file: 1e309 parses as an infinite float, which
        # used to reach the digest header as Infinity
        doc = self.tree_doc(2)
        doc["tree"]["dt"] = "DT"
        path = tmp_path / "dt.json"
        path.write_text(json.dumps(doc).replace('"DT"', dt))
        for command in ("rho", "gexp", "solve"):
            assert main([command, str(path), "--out", str(tmp_path / "r.json")]) == 2
            assert capsys.readouterr().err == (
                "robustmse: invalid input: tree.dt: expected a finite number > 0\n"
            )
        assert not (tmp_path / "r.json").exists()

    def test_gexp_level_below_depth(self, tmp_path, capsys):
        # rho and solve take level = depth (the discrete partition); gexp
        # compares the recursion with the estimator above the leaves only
        path = tmp_path / "level.json"
        path.write_text(json.dumps(dict(self.tree_doc(2, leaves=[1, 0, 0, 0]), options={"level": 2})))
        assert main(["gexp", str(path)]) == 2
        assert capsys.readouterr().err == (
            "robustmse: invalid input: options.level: gexp needs an integer in 0..1\n"
        )
        for command in ("rho", "solve"):
            code, _ = run([command, str(path)], tmp_path)
            assert code == 0


class TestWrittenForm:
    """Every result file is the canonical JSON of its own content."""

    def test_every_command_writes_canonical_json(self, example_file, tmp_path):
        filtration = tmp_path / "filtration.json"
        filtration.write_text(json.dumps({
            "omega": ["uu", "ud", "du", "dd"],
            "generators": [[0.5, 0.25, 0.125, 0.125], [0.125, 0.125, 0.25, 0.5]],
            "xi": [1.25, -1.6875, -1.3125, -1.0625],
            "filtration": [[[0, 1, 2, 3]], [[0, 1], [2, 3]]],
        }))
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps({
            "tree": {"depth": 2, "q_lo": 0.25, "q_hi": 0.75, "leaf_values": [1, 0, 0, 0]},
        }))
        calls = [
            ["rho", example_file],
            ["solve", example_file],
            ["oracle", example_file],
            ["stability", str(filtration)],
            ["gexp", str(tree)],
            ["tcsearch", "--seed", "20250801", "--trials", "50"],
        ]
        for i, args in enumerate(calls):
            out = tmp_path / f"out-{i}.json"
            assert main(args + ["--out", str(out)]) == 0, args
            text = out.read_text()
            assert text == _canonical_json(json.loads(text)) + "\n", args
        # the counterexample writes plain numbers, and they read back bit for bit
        payload = json.loads(text)["result"]
        ce = payload["counterexample"]
        numbers = [
            *itertools.chain.from_iterable(ce["generators"]),
            *ce["xi"],
            *itertools.chain.from_iterable(ce["chains"].values()),
        ]
        assert all(type(x) is float for x in numbers)
        inst = parse_instance(ce)
        _, _, gap = replay_counterexample(inst.measure_set, inst.xi, inst.filtration)
        assert gap == payload["gap"]


def fresh_process_result(args, tmp_path, name):
    """The result file of the same command from a new interpreter."""
    out = tmp_path / name
    src = os.path.dirname(os.path.dirname(robustmse.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "robustmse.cli", *args, "--out", str(out)], env=env
    )
    doc = json.loads(out.read_text())
    doc.pop("wall_time_s")
    return proc.returncode, doc


class TestOptions:
    @pytest.mark.parametrize("command", ["rho", "solve", "oracle", "stability", "gexp", "tcsearch"])
    def test_tol_is_a_usage_error_where_unread(self, example_file, command):
        # the solver's tolerances are constants of the package
        instance = [] if command == "tcsearch" else [example_file]
        with pytest.raises(SystemExit) as err:
            main([command, *instance, "--tol", "1e-6"])
        assert err.value.code == 2

    @pytest.mark.parametrize("key", ["tol", "max_iter", "ns_tol"])
    def test_solver_settings_are_refused(self, tmp_path, capsys, key):
        # the solver's tolerances and cap are constants of the package, so an
        # instance that sets one is refused, not solved with the setting ignored
        path = tmp_path / "options.json"
        path.write_text(json.dumps(dict(EXAMPLE, options={key: 1})))
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"robustmse: invalid input: options: unknown option(s) ['{key}']\n"
        )

    @pytest.mark.parametrize(
        "options, field",
        [
            ({"tol": "nan"}, "options.tol"),
            ({"tol": "inf"}, "options.tol"),
            ({"tol": -1e-8}, "options.tol"),
            ({"ns_tol": "nan"}, "options.ns_tol"),
            ({"max_iter": -5}, "options.max_iter"),
        ],
    )
    def test_option_out_of_range(self, tmp_path, capsys, options, field):
        # a value that was out of range for a solver setting is still refused
        # with exit 2, now as an unknown option rather than a bad value
        path = tmp_path / "options.json"
        path.write_text(json.dumps(dict(EXAMPLE, options=options)))
        assert main(["solve", str(path)]) == 2
        key = field.split(".")[1]
        assert capsys.readouterr().err == (
            f"robustmse: invalid input: options: unknown option(s) ['{key}']\n"
        )


class TestParserReuse:
    """main() reuses one parser; no option of one call may reach the next."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_consecutive_calls_match_fresh_processes(self, tmp_path, example_file):
        path = tmp_path / "stops.json"
        path.write_text(json.dumps(STOPS))
        calls = [
            # a solve that stops (exit 3) after one that converges: nothing
            # of the first call may change the second
            ["solve", example_file],
            ["solve", str(path)],
            None,  # a usage error between two valid calls
            ["tcsearch", "--seed", "20250801", "--trials", "50"],
            ["tcsearch"],
        ]
        results = []
        for i, args in enumerate(calls):
            if args is None:
                with pytest.raises(SystemExit) as err:
                    main(["solve", "--trials", "3"])
                assert err.value.code == 2
                continue
            code, doc = run(args, tmp_path, f"in-process-{i}.json")
            doc.pop("wall_time_s")
            assert (code, doc) == fresh_process_result(args, tmp_path, f"fresh-{i}.json")
            results.append((code, doc))
        assert [code for code, _ in results] == [0, 3, 0, 0]
        assert results[0][1] != results[1][1]
        assert results[2][1]["result"]["trials"] == 50
        assert results[3][1]["result"]["trials"] == 1000


def without_wall_time(text: str) -> str:
    return re.sub(r'"wall_time_s":[^,}]*', '"wall_time_s":null', text)


# argv for TestArgvReading, run from a directory holding inst.json (a
# partition instance) and tree.json: each command with and without --out, and
# the shapes that only argparse reads or refuses
ARGV_CORPUS = [
    *([cmd, inst, *out] for cmd, inst in [
        ("rho", "inst.json"), ("solve", "inst.json"), ("oracle", "inst.json"),
        ("stability", "inst.json"), ("gexp", "tree.json"), ("solve", "tree.json"),
    ] for out in ([], ["--out", "r.json"])),
    ["solve", "--out=r.json", "inst.json"],
    ["solve", "inst.json", "--out=r.json"],
    ["solve", "--out", "r.json", "inst.json"],
    ["solve", "inst.json", "--ou", "r.json"],
    ["solve", "--", "inst.json"],
    ["solve", "inst.json", "--", "--out", "r.json"],
    ["solve", "inst.json", "--out", "-r.json"],
    ["solve", "-inst.json"],
    ["solve", "inst.json", "--out", ""],
    ["solve", "inst.json", "--out"],
    ["solve", "inst.json", "--out", "r.json", "--out", "s.json"],
    ["solve", "inst.json", "--tol", "1e-6"],
    ["solve", "inst.json", "other.json"],
    ["solve", "missing.json"],
    ["solve"],
    ["solv", "inst.json"],
    ["tcsearch", "inst.json"],
    ["tcsearch", "--seed", "7", "--trials", "3"],
    ["tcsearch", "--trials", "3", "--out", "r.json", "--seed", "7"],
    ["tcsearch", "--seed", "7", "--trials", "3", "--seed", "8"],
    ["tcsearch", "--seed=7", "--trials", "3"],
    ["tcsearch", "--se", "7", "--trials", "3"],
    ["tcsearch", "--seed", "-7", "--trials", "3"],
    ["tcsearch", "--seed", " 7 ", "--trials", "+3"],
    ["tcsearch", "--seed", "1_0", "--trials", "3"],
    ["tcsearch", "--seed", "x", "--trials", "3"],
    ["tcsearch", "--seed", "7.0", "--trials", "3"],
    ["tcsearch", "--seed", "", "--trials", "3"],
    ["tcsearch", "--trials"],
    ["tcsearch", "--trials", "3", "--tol", "1"],
    ["tcsearch", "--", "--trials", "3"],
    [],
    ["-h"],
    ["--help"],
    ["solve", "-h"],
    ["tcsearch", "--help"],
    ["solve", "inst.json", "-h"],
    ["--version"],
]


class TestArgvReading:
    """main() reads the common argv shapes without argparse (cli._read_argv)
    and leaves every other one to it, with the same outcome either way."""

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        (tmp_path / "inst.json").write_text(json.dumps(EXAMPLE))
        (tmp_path / "tree.json").write_text(json.dumps(TREE_2))
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @staticmethod
    def outcome(argv, workdir, capsys):
        """Exit code, stdout, stderr and result files of main(argv), the
        wall_time_s value blanked; the result files are removed."""
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        files = {}
        for path in sorted(workdir.iterdir()):
            if path.name not in ("inst.json", "tree.json"):
                files[path.name] = without_wall_time(path.read_text())
                path.unlink()
        return code, without_wall_time(out), err, files

    @pytest.mark.parametrize("argv", ARGV_CORPUS, ids=" ".join)
    def test_namespace_is_argparse_or_deferred(self, argv):
        args = robustmse.cli._read_argv(argv)
        if args is not None:
            assert vars(args) == vars(build_parser().parse_args(argv))

    def test_the_common_shapes_skip_argparse(self):
        read = [argv for argv in ARGV_CORPUS if robustmse.cli._read_argv(argv) is not None]
        assert read == [
            *ARGV_CORPUS[:12],
            ["solve", "inst.json", "--out", ""],
            ["solve", "missing.json"],
            ["tcsearch", "--seed", "7", "--trials", "3"],
            ["tcsearch", "--trials", "3", "--out", "r.json", "--seed", "7"],
            ["tcsearch", "--seed", "7", "--trials", "3", "--seed", "8"],
            ["tcsearch", "--seed", " 7 ", "--trials", "+3"],
            ["tcsearch", "--seed", "1_0", "--trials", "3"],
        ]

    @pytest.mark.parametrize("argv", ARGV_CORPUS, ids=" ".join)
    def test_same_outcome_as_argparse_alone(self, argv, workdir, capsys, monkeypatch):
        got = self.outcome(argv, workdir, capsys)
        monkeypatch.setattr(robustmse.cli, "_read_argv", lambda argv: None)
        assert got == self.outcome(argv, workdir, capsys)


class TestTreeTable:
    """instances builds each distinct tree once per process, and keeps the
    last one; tests/test_request_order.py checks that sharing a tree changes no
    result."""

    DOC = {"tree": {"depth": 2, "q_lo": [0.25, 0.125, 0.375], "q_hi": 0.75, "dt": 0.25},
           "xi": [1, 0, 0, 0]}

    def test_one_tree_per_key(self):
        first = parse_instance(self.DOC)
        again = parse_instance(dict(self.DOC, xi=[4, 3, 2, 1], options={"level": 1}))
        assert again.tree is first.tree
        other = parse_instance({"tree": dict(self.DOC["tree"], dt=0.5), "xi": [1, 0, 0, 0]})
        assert other.tree is not first.tree and other.tree != first.tree

    def test_refusals_not_kept(self):
        table = robustmse.instances._tree
        misses = table.cache_info().misses
        with pytest.raises(ValidationError):
            parse_instance({"tree": dict(self.DOC["tree"], q_hi=0.1), "xi": [1, 0, 0, 0]})
        assert table.cache_info().misses == misses + 1
        with pytest.raises(ValidationError):  # tried again, not served from the table
            parse_instance({"tree": dict(self.DOC["tree"], q_hi=0.1), "xi": [1, 0, 0, 0]})
        assert table.cache_info().misses == misses + 2


class TestOutputAndConditioning:
    def test_solve_on_a_filtration_conditions_on_its_last_level(self, tmp_path):
        # the last level is not the coarsest refinement of the first: eta_hat
        # must match the partition instance on the last level only
        last = [[0], [1], [2, 3]]
        doc = {
            "version": "1",
            "omega": ["a", "b", "c", "d"],
            "generators": [[0.25, 0.25, 0.25, 0.25], [0.125, 0.375, 0.25, 0.25]],
            "xi": [1, 2, 3, 4],
            "filtration": [[[0, 1, 2, 3]], [[0, 1], [2, 3]], last],
        }
        partition = {k: v for k, v in doc.items() if k != "filtration"}
        results = []
        for name, d in (("filt", doc), ("part", dict(partition, partition=last))):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(d))
            code, out = run(["solve", str(path)], tmp_path, f"{name}_out.json")
            assert code == 0
            results.append(out["result"])
        assert results[0] == results[1]
        assert results[0]["estimator"]["eta_hat"] == pytest.approx([1.0, 2.0, 3.5, 3.5])

    def test_stdout_holds_the_bytes_of_the_out_file(self, example_file, tmp_path, capsys):
        assert main(["solve", example_file]) == 0
        printed = capsys.readouterr().out
        code, _ = run(["solve", example_file], tmp_path)
        assert code == 0
        written = (tmp_path / "out.json").read_text()
        timing = re.compile(r'"wall_time_s":[^,}]+')
        assert printed.count("\n") == 1 and printed.endswith("\n")
        assert timing.sub("T", printed) == timing.sub("T", written)

    def test_tcsearch_without_a_hit(self, tmp_path):
        # seed 8 hits nothing in its first 3 trials: a report, exit 0
        code, doc = run(["tcsearch", "--seed", "8", "--trials", "3"], tmp_path)
        assert code == 0
        assert doc["instance_digest"] is None
        assert doc["result"] == {"found": False, "seed": 8, "trials": 3}


TREE_2 = {"tree": {"depth": 2, "q_lo": 0.25, "q_hi": 0.75, "leaf_values": [1, 0, 0, 0]}}


class TestValidationNamesTheField:
    def test_gexp_needs_a_tree(self, example_file, capsys):
        assert main(["gexp", example_file]) == 2
        assert capsys.readouterr().err.startswith("robustmse: invalid input: tree: ")

    @pytest.mark.parametrize(
        "text, field",
        [
            (json.dumps(dict(TREE_2, xi=[1, 0, 0, 1])), "xi"),
            ('{"version": "1", "omega": ["w1"', "$"),
            (json.dumps(dict(EXAMPLE, omega=["w1", "w1"])), "omega"),
            (json.dumps(dict(EXAMPLE, partition=[[0, 1], [1]])), "partition"),
            (json.dumps(dict(EXAMPLE, partition=[[0]])), "partition"),
            (json.dumps(dict(EXAMPLE, partition=[[0], [1, 2]])), "partition"),
            (json.dumps({"tree": dict(TREE_2["tree"], q_lo=0.75, q_hi=0.25)}), "tree"),
            (json.dumps({"tree": dict(TREE_2["tree"], q_hi=1.0)}), "tree"),
            (json.dumps({"tree": dict(TREE_2["tree"], q_hi=[0.75, 0.5, 1.5])}), "tree"),
            (json.dumps(dict(EXAMPLE, xi=[2, math.inf])), "xi"),
            (json.dumps(dict(EXAMPLE, xi=[math.nan, 8])), "xi"),
            (json.dumps({"tree": dict(TREE_2["tree"], leaf_values=[1, 0, -math.inf, 0])}),
             "tree.leaf_values"),
            (json.dumps({"tree": {k: v for k, v in TREE_2["tree"].items() if k != "leaf_values"},
                         "xi": [1, math.nan, 0, 0]}), "xi"),
        ],
        ids=[
            "tree-xi-disagrees", "invalid-json", "repeated-omega-label",
            "partition-blocks-overlap", "partition-misses-an-index", "partition-out-of-range",
            "tree-q-lo-above-q-hi", "tree-q-hi-one", "tree-node-q-hi-above-one",
            "xi-infinite", "xi-nan", "tree-leaf-values-infinite", "tree-xi-nan",
        ],
    )
    def test_exit_2_names_the_field(self, tmp_path, capsys, text, field):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["solve", str(path), "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err.startswith(f"robustmse: invalid input: {field}: ")
        assert not (tmp_path / "r.json").exists()


@pytest.fixture(scope="module")
def counterexample(tmp_path_factory):
    """The counterexample of `tcsearch --seed 20250801 --trials 50`, chains included."""
    out = tmp_path_factory.mktemp("tcsearch") / "hit.json"
    assert main(["tcsearch", "--seed", "20250801", "--trials", "50", "--out", str(out)]) == 0
    return json.loads(out.read_text())["result"]["counterexample"]


def with_chains(doc, chains):
    out = {k: v for k, v in doc.items() if k != "chains"}
    return out if chains is None else dict(out, chains=chains)


class TestChains:
    """A counterexample's `chains` are checked on parse, never ignored: only a
    filtration instance takes them, as an object of exactly eta_fine,
    eta_chain and eta_direct, each n numbers. They are not part of the
    instance, so they move no digest."""

    def test_counterexample_parses_and_replays(self, counterexample, tmp_path):
        inst = parse_instance(counterexample)
        plain = parse_instance(with_chains(counterexample, None))
        assert instance_digest(inst) == instance_digest(plain)
        chain, direct, _ = replay_counterexample(inst.measure_set, inst.xi, inst.filtration)
        assert chain.values.tolist() == counterexample["chains"]["eta_chain"]
        assert direct.values.tolist() == counterexample["chains"]["eta_direct"]
        path = tmp_path / "hit.json"
        path.write_text(json.dumps(counterexample))
        code, _ = run(["stability", str(path)], tmp_path)
        assert code == 0

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda c: dict(c, eta_chain=c["eta_chain"][:-1]), "chains.eta_chain"),
            (lambda c: dict(c, eta_fine=c["eta_fine"] + [0.0]), "chains.eta_fine"),
            (lambda c: dict(c, eta_direct=["x"] + c["eta_direct"][1:]), "chains.eta_direct[0]"),
            (lambda c: dict(c, eta_direct=["nan"] + c["eta_direct"][1:]), "chains.eta_direct"),
            (lambda c: dict(c, eta_fine=1.0), "chains.eta_fine"),
            (lambda c: {k: v for k, v in c.items() if k != "eta_fine"}, "chains"),
            (lambda c: dict(c, eta_extra=c["eta_fine"]), "chains"),
            (lambda c: "garbage", "chains"),
            (lambda c: [c["eta_fine"], c["eta_chain"], c["eta_direct"]], "chains"),
        ],
        ids=["chain-one-short", "fine-one-long", "a-string", "a-nan", "a-number",
             "a-field-missing", "a-field-more", "a-string-object", "an-array"],
    )
    def test_bad_chains_exit_2_naming_the_entry(self, counterexample, tmp_path, capsys, edit,
                                                field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(with_chains(counterexample, edit(counterexample["chains"]))))
        assert main(["stability", str(path), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"robustmse: invalid input: {field}: ") and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("doc", [EXAMPLE, TREE_2], ids=["partition", "tree"])
    @pytest.mark.parametrize("chains", ["garbage", {"eta_fine": [1.0, 2.0]}])
    def test_only_a_filtration_instance_takes_chains(self, doc, chains, tmp_path, capsys):
        path = tmp_path / "chains.json"
        path.write_text(json.dumps(dict(doc, chains=chains)))
        assert main(["rho", str(path), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err == "robustmse: invalid input: chains: only a filtration instance takes chains\n"
