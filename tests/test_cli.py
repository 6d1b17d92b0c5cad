import json

import pytest

from robustmse.cli import main
from robustmse.instances import (
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

    def test_unknown_option_rejected(self, tmp_path, capsys):
        # no command reads solver, seed or trials, so they are not accepted
        unknown = ({"tolerance": 1e-8}, {"solver": "brute_force"}, {"seed": 7}, {"trials": 10})
        for options in unknown:
            doc = dict(EXAMPLE, options=options)
            path = tmp_path / "opt.json"
            path.write_text(json.dumps(doc))
            code = main(["solve", str(path)])
            assert code == 2, options


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


class TestOracleCommand:
    def test_example_agrees(self, example_file, tmp_path):
        code, doc = run(["oracle", example_file, "--grid-step", "1e-3"], tmp_path)
        assert code == 0
        assert doc["result"]["agree"] is True
        assert doc["result"]["alpha_diff"] <= 1e-4


class TestStabilityCommand:
    def test_witness_instance(self, tmp_path):
        doc = {
            "version": "1",
            "omega": ["uu", "ud", "du", "dd"],
            "generators": [
                [0.5, 0.25, 0.125, 0.125],
                [0.125, 0.125, 0.25, 0.5],
            ],
            "xi": [1.25, -1.6875, -1.3125, -1.0625],
            "filtration": [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]],
        }
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(doc))
        code, out = run(["stability", str(path)], tmp_path)
        assert code == 0
        assert out["result"]["stable"] is False
        assert out["result"]["witness"]["hull_residual"] > 1e-3
        gaps = [row["max_abs_gap"] for row in out["result"]["recursivity"]]
        assert max(gaps) > 1e-3

    def test_needs_filtration(self, example_file, tmp_path, capsys):
        code = main(["stability", example_file])
        assert code == 2


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
