import hashlib
import itertools
import json
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


README_EXAMPLE = dict(EXAMPLE, options={"tol": 1e-8})
README_DIGEST = "efe5b540429143562f9919ab8f64b92412dad14f32d1ead2c36c5652bf759d9c"


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
            ("tol", "options.tol"),
            ("q_lo", "tree.q_lo"),
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
        elif field == "tol":
            doc["options"] = {"tol": huge}
        else:
            q_lo = huge if field == "q_lo" else [0.25, huge, 0.25]
            doc = {"version": "1", "tree": {"depth": 2, "q_lo": q_lo, "q_hi": 0.75,
                                            "leaf_values": [1, 0, 0, 0]}}
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
            "options": {"ns_tol": "1e-7", "max_iter": 50},
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
            ({1: [0.25, 0.375, 0.25, 0.25]}, "generators[1]: weights sum to np.float64(1.125), not 1"),
            ({2: [0.5, 0.5, 0.125, -0.125]}, "generators[2]: measure weights must be nonnegative numbers"),
            ({0: [float("nan"), 0.5, 0.25, 0.25]}, "generators[0]: measure weights must be nonnegative numbers"),
            ({1: [0.5, 0.5]}, "generators[1]: expected 4 weights, got 2"),
            ({2: []}, "generators[2]: expected 4 weights, got 0"),
            ({1: 7}, "generators[1]: expected an array"),
            # two faulty rows: the first one is named, whatever its fault
            ({0: [0.5] * 4, 1: [0.125, "x", 0.25, 0.25]}, "generators[0]: weights sum to np.float64(2.0), not 1"),
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
            (DIGEST_BASE, _with(DIGEST_BASE, options={"max_iter": 10000}), False),
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
        insts = [parse_instance(dict(EXAMPLE, options={"tol": t})) for t in ("1e-8", "1E-8", 1e-8)]
        assert {_canonical_json(canonical_dict(i)) for i in insts} == {
            _canonical_json(canonical_dict(insts[2]))
        }
        assert canonical_dict(insts[0])["options"] == {"tol": 1e-8}
        assert {instance_digest(i) for i in insts} == {README_DIGEST}
        typed = parse_instance(dict(EXAMPLE_4, generators=[[0.25] * 4],
                                    options={"ns_tol": "0", "max_iter": 7}))
        assert typed.options == {"ns_tol": 0.0, "max_iter": 7}
        assert type(typed.options["ns_tol"]) is float

    def test_options_are_read_only(self):
        # the options feed the digest and the solver settings, so a parsed
        # instance refuses to change them
        inst = parse_instance(README_EXAMPLE)
        with pytest.raises(TypeError):
            inst.options["tol"] = 0.5
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
        # interior saddle that needs both generators; a solve stopped by the
        # iteration cap before it gets there must be reported, not papered over
        doc = {
            "version": "1",
            "omega": ["a", "b", "c", "d"],
            "generators": [
                [0.3125, 0.1875, 0.1875, 0.3125],
                [0.1875, 0.375, 0.1875, 0.25],
            ],
            "xi": [-0.875, -1.9375, -0.8125, -1.875],
            "partition": [[0, 1, 2, 3]],
            "options": {"max_iter": 0},
        }
        path = tmp_path / "hard.json"
        path.write_text(json.dumps(doc))
        code, out = run(["solve", str(path)], tmp_path)
        assert code == 3
        assert out["result"]["estimator"]["converged"] is False

    def test_results_reproducible_apart_from_wall_time(self, example_file, tmp_path):
        _, a = run(["solve", example_file], tmp_path, "a.json")
        _, b = run(["solve", example_file], tmp_path, "b.json")
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b

    def test_certificate_failure_exit_code(self, tmp_path):
        # a zero tolerance on the product equation cannot be met in floats
        doc = {
            "version": "1",
            "omega": ["a", "b", "c", "d"],
            "generators": [
                [0.3125, 0.1875, 0.1875, 0.3125],
                [0.1875, 0.375, 0.1875, 0.25],
            ],
            "xi": [-0.875, -1.9375, -0.8125, -1.875],
            "partition": [[0, 1], [2, 3]],
            "options": {"ns_tol": 0.0},
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


class TestRhoCommand:
    def test_example(self, example_file, tmp_path):
        code, doc = run(["rho", example_file], tmp_path)
        assert code == 0
        assert doc["result"]["rho"]["value"] == 6.5
        env = doc["result"]["envelopes"][0]
        assert env["ess_sup"] == [6.5, 6.5]
        assert env["ess_inf"] == [3.5, 3.5]

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

    def test_nonconvergence_reported_in_comparison(self, tmp_path):
        doc = dict(self.tree_doc(2, leaves=[1, 0, 0, 0]), options={"level": 1, "max_iter": 0})
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

    @pytest.mark.parametrize("command", ["gexp", "rho"])
    def test_builds_no_corner_set(self, tmp_path, monkeypatch, command):
        # both commands query the tree's corner set through its support oracle
        calls = []
        build = robustmse.gexp.tree_measure_set

        def counted(tm):
            calls.append(tm.depth)
            return build(tm)

        for module in (robustmse.gexp, robustmse.instances):
            monkeypatch.setattr(module, "tree_measure_set", counted)
        path = tmp_path / "t2.json"
        path.write_text(json.dumps(self.tree_doc(2, leaves=[1, 0, 0, 0])))
        code, doc = run([command, str(path)], tmp_path)
        assert code == 0
        assert calls == []
        if command == "gexp":
            assert doc["result"]["representation"]["abs_gap"] < 1e-10
        else:
            assert doc["result"]["rho"]["value"] == 0.5625

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
        assert "corner-matrix entries" in capsys.readouterr().err

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
        # the solver's tolerance is options.tol, which the instance digest hashes
        instance = [] if command == "tcsearch" else [example_file]
        with pytest.raises(SystemExit) as err:
            main([command, *instance, "--tol", "1e-6"])
        assert err.value.code == 2

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
        path = tmp_path / "options.json"
        path.write_text(json.dumps(dict(EXAMPLE, options=options)))
        assert main(["solve", str(path)]) == 2
        assert f"robustmse: invalid input: {field}: expected " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "options, flags, tol, max_iter",
        [
            ({}, [], 1e-8, 10_000),
            ({"tol": 1e-6}, [], 1e-6, 10_000),
            ({"max_iter": 7}, [], 1e-8, 7),
        ],
    )
    def test_solver_settings_reach_the_solver(
        self, tmp_path, monkeypatch, options, flags, tol, max_iter
    ):
        seen, solve = [], robustmse.cli.solve_mmse

        def spy(ms, xi, c, cfg):
            seen.append(cfg)
            return solve(ms, xi, c, cfg)

        monkeypatch.setattr(robustmse.cli, "solve_mmse", spy)
        path = tmp_path / "options.json"
        path.write_text(json.dumps(dict(EXAMPLE, options=options)))
        run(["solve", str(path), *flags], tmp_path)
        assert [(type(cfg), cfg.tol, cfg.max_iter) for cfg in seen] == [
            (robustmse.cli.SolverConfig, tol, max_iter)
        ]


class TestParserReuse:
    """main() reuses one parser; no option of one call may reach the next."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_consecutive_calls_match_fresh_processes(self, tmp_path):
        interior = dict(
            EXAMPLE_4,
            generators=[[0.3125, 0.1875, 0.1875, 0.3125], [0.1875, 0.375, 0.1875, 0.25]],
            xi=[-0.875, -1.9375, -0.8125, -1.875],
            options={"max_iter": 0},
        )
        path = tmp_path / "interior.json"
        path.write_text(json.dumps(interior))
        loose = tmp_path / "interior-tol-1.json"
        loose.write_text(json.dumps(dict(interior, options={"max_iter": 0, "tol": 1})))
        calls = [
            # the solve stops at its start, a saddle gap of 0.053: tol 1
            # accepts it (then the NS check fails, exit 1) and the default
            # does not (exit 3), so a tol left over from the first call would
            # change the second
            ["solve", str(loose)],
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
        assert [code for code, _ in results] == [1, 3, 0, 0]
        assert results[0][1] != results[1][1]
        assert results[2][1]["result"]["trials"] == 50
        assert results[3][1]["result"]["trials"] == 1000


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
        ],
        ids=[
            "tree-xi-disagrees", "invalid-json", "repeated-omega-label",
            "partition-blocks-overlap", "partition-misses-an-index", "partition-out-of-range",
            "tree-q-lo-above-q-hi", "tree-q-hi-one", "tree-node-q-hi-above-one",
        ],
    )
    def test_exit_2_names_the_field(self, tmp_path, capsys, text, field):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["solve", str(path), "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err.startswith(f"robustmse: invalid input: {field}: ")
        assert not (tmp_path / "r.json").exists()
