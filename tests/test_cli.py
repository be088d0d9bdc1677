"""End-to-end command line coverage.

Every test drives main(argv) in process and checks the full external
contract: exit codes, emitted JSON documents, CSV side files, stderr
diagnostics, determinism, and conformance to the shipped JSON schemas.
"""

import copy
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from lqconic import cli
from lqconic.cli import DocumentError, main, parse_problem, problem_sha256
from lqconic.model import GeneralIQC, LQR, TimeGrid
from oracles import convolution_norm

REPO = Path(__file__).resolve().parents[1]
TANH1 = math.tanh(1.0)
LNCOSH1 = math.log(math.cosh(1.0))


def lqr_doc(steps=256, T=1.0, x0=1.0):
    return {
        "schema_version": "1",
        "system": {"A": [[0.0]], "B": [[1.0]]},
        "horizon": {"T": T, "steps": steps},
        "variant": {"type": "lqr", "Q": [[1.0]], "R": [[1.0]], "x_i": [x0]},
    }


def slqr_doc(steps=256):
    return {
        "schema_version": "1",
        "system": {"A": [[0.0]], "B": [[1.0]]},
        "horizon": {"T": 1.0, "steps": steps},
        "variant": {"type": "stoch_lqr", "Q": [[1.0]], "R": [[1.0]],
                    "X_i": [[0.0]], "W": [[1.0]]},
    }


def iqc_doc(T=2.0, steps=256):
    return {
        "schema_version": "1",
        "system": {"A": [[0.0]], "B": [[1.0]]},
        "horizon": {"T": T, "steps": steps},
        "variant": {"type": "general_iqc", "Q": [[-1.0]], "R": [[1.0]],
                    "x_i": [1.0]},
    }


def br_doc(gamma=2.0, steps=256):
    return {
        "schema_version": "1",
        "system": {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]]},
        "horizon": {"T": 2.0, "steps": steps},
        "variant": {"type": "bounded_real", "gamma": gamma},
    }


def pr_doc(good=True, steps=256):
    if good:
        system = {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]], "D": [[1.0]]}
    else:
        system = {"A": [[1.0]], "B": [[1.0]], "C": [[-1.0]], "D": [[0.2]]}
    return {
        "schema_version": "1",
        "system": system,
        "horizon": {"T": 2.0, "steps": steps},
        "variant": {"type": "positive_real"},
    }


def write_doc(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def read_trajectory_csv(path):
    """(times, rows) of a trajectory CSV: the time column, and one flat
    row-major entry vector per node."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1:]


def load_schema(name):
    return json.loads((REPO / "docs" / "schema" / name).read_text())


# documents the problem schema rejects: keys it does not allow
# (additionalProperties false) -- the retired escape cap, a misspelled
# option, unknown keys elsewhere, and keys of one variant set on another --
# and a horizon of zero steps (the schema's minimum is 2); with the object
# the key goes into (None for the root), the field path and text of the
# error and the document the key goes into
BAD_DOCUMENTS = [
    ("options", "escape_cap", 1e9, "options.escape_cap", "unknown key",
     lqr_doc),
    ("options", "tolerance", 5, "options.tolerance", "unknown key", lqr_doc),
    (None, "extra_top", 1, r"\$\.extra_top", "unknown key", lqr_doc),
    ("system", "E", [[1.0]], "system.E", "unknown key", lqr_doc),
    ("horizon", "t0", 0.0, "horizon.t0", "unknown key", lqr_doc),
    ("variant", "gamma", 3.0, "variant.gamma", "unknown key", lqr_doc),
    ("variant", "Q", [[1.0]], "variant.Q", "unknown key", br_doc),
    ("variant", "W", [[1.0]], "variant.W", "unknown key", pr_doc),
    ("horizon", "steps", 0, "horizon", "steps must be >= 1", lqr_doc),
]


def bad_document(where, key, value, base):
    doc = base(steps=64)
    (doc if where is None else doc.setdefault(where, {}))[key] = value
    return doc


class TestProblemParsing:
    def test_defaults(self):
        doc = lqr_doc()
        del doc["horizon"]["steps"]
        spec, options = parse_problem(doc)
        assert spec.grid.steps == 512
        assert options == {"seed": 0}

    def test_document_options_read(self):
        doc = lqr_doc()
        doc["options"] = {"seed": 3}
        _, options = parse_problem(doc)
        assert options == {"seed": 3}

    @pytest.mark.parametrize("where,key,value,field,said,base", BAD_DOCUMENTS,
                             ids=[k[1] for k in BAD_DOCUMENTS])
    def test_unknown_key_rejected(self, tmp_path, capsys, where, key, value,
                                  field, said, base):
        doc = bad_document(where, key, value, base)
        with pytest.raises(DocumentError, match=field):
            parse_problem(doc)
        rc, out, err = run(capsys, ["lqr", write_doc(tmp_path, doc)])
        assert rc == 1 and out == ""
        assert said in err

    @pytest.mark.parametrize("key", ["tol"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_non_positive_option_rejected(self, tmp_path, capsys, key,
                                          value):
        # the certificate tolerance options.tol is retired: an old document
        # that sets it, at any value, fails as the schema does instead of
        # being ignored
        doc = iqc_doc(T=0.5)
        doc["options"] = {key: value}
        with pytest.raises(DocumentError, match=f"options.{key}"):
            parse_problem(doc)
        rc, out, err = run(capsys, ["iqc", write_doc(tmp_path, doc)])
        assert rc == 1 and out == ""
        assert "unknown key" in err
        validator = jsonschema.Draft202012Validator(
            load_schema("problem.schema.json"))
        assert not validator.is_valid(doc)

    @pytest.mark.parametrize("seed", [1.5, -1, "3", True])
    def test_seed_must_be_a_nonnegative_integer(self, tmp_path, capsys,
                                                seed):
        # 1.5 used to be truncated to seed 1
        doc = lqr_doc(steps=64)
        doc["options"] = {"seed": seed}
        with pytest.raises(DocumentError, match="options.seed"):
            parse_problem(doc)
        rc, out, err = run(capsys, ["dri-cloud", write_doc(tmp_path, doc),
                                    "--samples", "2",
                                    "--csv-dir", str(tmp_path / "o")])
        assert rc == 1 and out == ""
        assert "options.seed" in err

    def test_integral_seed_accepted(self):
        # the schema's integer admits a number with a zero fraction
        doc = lqr_doc()
        doc["options"] = {"seed": 4.0}
        _, options = parse_problem(doc)
        assert options["seed"] == 4 and isinstance(options["seed"], int)

    def test_overrides_beat_document(self):
        spec, _ = parse_problem(lqr_doc(steps=64), steps_override=128,
                                T_override=2.0)
        assert spec.grid.steps == 128
        assert spec.grid.T == 2.0

    def test_variant_types(self):
        spec, _ = parse_problem(lqr_doc())
        assert isinstance(spec.variant, LQR)
        spec, _ = parse_problem(iqc_doc())
        assert isinstance(spec.variant, GeneralIQC)

    def test_bounded_real_gamma_defaults_to_one(self):
        doc = br_doc()
        del doc["variant"]["gamma"]
        spec, _ = parse_problem(doc)
        assert spec.variant.gamma == 1.0

    def test_wrong_schema_version(self):
        doc = lqr_doc()
        doc["schema_version"] = "2"
        with pytest.raises(DocumentError, match="schema_version"):
            parse_problem(doc)

    def test_missing_system_matrix(self):
        doc = lqr_doc()
        del doc["system"]["A"]
        with pytest.raises(DocumentError, match="system.A"):
            parse_problem(doc)

    def test_boolean_is_not_a_number(self):
        doc = lqr_doc()
        doc["horizon"]["T"] = True
        with pytest.raises(DocumentError, match="horizon.T"):
            parse_problem(doc)

    def test_fractional_steps_rejected(self):
        doc = lqr_doc()
        doc["horizon"]["steps"] = 10.5
        with pytest.raises(DocumentError, match="horizon.steps"):
            parse_problem(doc)

    def test_unknown_variant(self):
        doc = lqr_doc()
        doc["variant"]["type"] = "mystery"
        with pytest.raises(DocumentError, match="variant.type"):
            parse_problem(doc)

    def test_hash_is_key_order_invariant(self):
        doc = lqr_doc()
        reordered = json.loads(json.dumps(doc, sort_keys=True))
        shuffled = {k: reordered[k] for k in reversed(list(reordered))}
        assert problem_sha256(doc) == problem_sha256(shuffled)
        doc2 = lqr_doc(x0=2.0)
        assert problem_sha256(doc) != problem_sha256(doc2)

    def test_hash_reads_values_not_spelling(self, tmp_path, capsys):
        # 1 and 1.0, indentation and key order at every level are spelling;
        # a result made from one spelling verifies against another
        doc = lqr_doc(steps=64)
        spelled = lqr_doc(steps=64)
        spelled["horizon"]["T"] = 1
        spelled["variant"]["Q"] = [[1]]
        spelled = {key: ({k: val[k] for k in reversed(list(val))}
                         if isinstance(val, dict) else val)
                   for key, val in reversed(list(spelled.items()))}
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(spelled, indent=4))
        assert problem_sha256(spelled) == problem_sha256(doc)
        assert problem_sha256(cli._load_json(str(indented))) == \
            problem_sha256(doc)
        res = tmp_path / "res.json"
        assert main(["lqr", write_doc(tmp_path, doc), "--out", str(res)]) == 0
        rc, out, _ = run(capsys, ["verify", str(indented), str(res)])
        assert rc == 0 and out.rstrip().endswith("PASS")

    def test_hash_sees_one_ulp_of_a_sampled_node(self):
        doc = lqr_doc(steps=8)
        doc["system"]["A"] = [[[-0.1 * k]] for k in range(9)]
        bumped = copy.deepcopy(doc)
        node = bumped["system"]["A"][5][0]
        node[0] = float(np.nextafter(node[0], np.inf))
        assert problem_sha256(bumped) != problem_sha256(doc)

    @pytest.mark.parametrize("a, b", [
        ({"x": [[1, 2]]}, {"x": [[1], [2]]}),
        ({"x": [1.0, 2.0]}, {"y": [1.0, 2.0]}),
        ({"Q": [[2.0]], "R": [[1.0]]}, {"Q": [[1.0]], "R": [[2.0]]}),
        ([True], [1]),
        ([1, True], [1, 1]),
        (["1"], [1]),
        ([None], [0]),
        ({"x": []}, {"x": [[]]}),
    ], ids=["reshape", "other-key", "swapped-keys", "true-1", "mixed-true",
            "string", "null", "empty"])
    def test_hash_tells_documents_apart(self, a, b):
        assert problem_sha256(a) != problem_sha256(b)

    def test_hash_is_pinned(self):
        # a new digest here means every earlier result document fails
        # verify with "hash mismatch": change the hash only on purpose
        doc = {"schema_version": "1",
               "system": {"A": [[0.0, 1.0], [-1, 0]], "B": [[0], [1]]},
               "horizon": {"T": 1.5, "steps": 8},
               "variant": {"type": "lqr", "Q": [[1, 0], [0, 1]],
                           "R": [[0.5]], "x_i": [1, 0]},
               "options": {"seed": 3}}
        assert problem_sha256(doc) == \
            "8f73451a5f89091081548d5080c5d828455f4e610b97a842169fc27bc4407405"


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        [],
        ["lqr"],
        ["nosuch", "p.json"],
        ["lqr", "p.json", "--bogus"],
        ["lqr", "p.json", "--steps", "abc"],
        ["dri-cloud", "p.json", "--tol", "1e-5"],
        ["slqr", "p.json", "--tol", "1e-5"],
    ])
    def test_usage_error_is_input_error(self, tmp_path, capsys, argv):
        # argparse's own exit code 2 would read as "minus infinity"
        argv = [write_doc(tmp_path, lqr_doc()) if a == "p.json" else a
                for a in argv]
        rc, out, err = run(capsys, argv)
        assert rc == 1
        assert out == "" and "usage:" in err

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        assert "lqconic" in capsys.readouterr().out

    @pytest.mark.parametrize("cmd", ["lqr", "hinf"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_tol_flag_rejected(self, tmp_path, capsys, cmd,
                                            value):
        # hinf's --tol is the bracket width: at or below zero no bracket
        # ever closes. lqr has no --tol (its certificate has no tolerance),
        # so the flag is a usage error there
        doc = lqr_doc() if cmd == "lqr" else br_doc(steps=32)
        rc, out, err = run(capsys, [cmd, write_doc(tmp_path, doc),
                                    "--tol", value])
        assert rc == 1 and out == ""
        assert ("unrecognized arguments: --tol" if cmd == "lqr"
                else "--tol: must be positive") in err

    def test_lqr_success(self, tmp_path, capsys):
        rc, out, _ = run(capsys, ["lqr", write_doc(tmp_path, lqr_doc())])
        assert rc == 0
        res = json.loads(out)
        assert res["kind"] == "certificate"
        assert abs(res["optimal_value"] - TANH1) < 1e-4

    def test_one_step_grid_is_input_error(self, tmp_path, capsys):
        # the grid's field and code are named; the certificate's finite
        # differences used to raise "need at least 3 nodes" instead
        rc, out, err = run(capsys, ["lqr",
                                    write_doc(tmp_path, lqr_doc(steps=1))])
        assert rc == 1 and out == ""
        assert "grid.steps: [TooFewSteps]" in err

    def test_missing_file(self, tmp_path, capsys):
        rc, _, err = run(capsys, ["lqr", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "cannot read file" in err

    def test_malformed_json_reports_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": "1",\n  "system": }')
        rc, _, err = run(capsys, ["lqr", str(path)])
        assert rc == 1
        assert "line 2" in err
        assert "column" in err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("where", ["A", "T"])
    def test_non_finite_literal_is_input_error(self, tmp_path, capsys,
                                               literal, where):
        # Python's json reads these literals; they must never reach a
        # verdict (exit 2 would claim the infimum is minus infinity)
        doc = json.dumps(iqc_doc())
        if where == "A":
            doc = doc.replace('"A": [[0.0]]', f'"A": [[{literal}]]')
        else:
            doc = doc.replace('"T": 2.0', f'"T": {literal}')
        path = tmp_path / "nonfinite.json"
        path.write_text(doc)
        rc, out, err = run(capsys, ["iqc", str(path)])
        assert rc == 1
        assert literal in err and out == ""

    @pytest.mark.parametrize("command, wants, doc", [
        ("lqr", "'lqr'", br_doc),
        ("slqr", "'stoch_lqr'", lqr_doc),
        ("iqc", "'general_iqc'", lqr_doc),
        ("passivity", "'positive_real'", lqr_doc),
        ("hinf", "'bounded_real'", lqr_doc),
        ("dri-cloud", "'lqr' or 'general_iqc'", br_doc),
    ], ids=["lqr", "slqr", "iqc", "passivity", "hinf", "dri-cloud"])
    def test_variant_subcommand_mismatch(self, tmp_path, capsys, command,
                                         wants, doc):
        rc, _, err = run(capsys, [command, write_doc(tmp_path, doc())])
        got = doc()["variant"]["type"]
        assert rc == 1
        assert f"needs a {wants} problem" in err
        assert f"subcommand {command!r} needs a {wants} problem, got " \
               f"{got!r}" in err

    def test_validation_failure_lists_violations(self, tmp_path, capsys):
        doc = lqr_doc()
        doc["variant"]["R"] = [[0.0]]
        rc, _, err = run(capsys, ["lqr", write_doc(tmp_path, doc)])
        assert rc == 1
        assert "RNotPD" in err

    def test_escaping_iqc_exits_two(self, tmp_path, capsys):
        rc, out, _ = run(capsys, ["iqc", write_doc(tmp_path, iqc_doc())])
        assert rc == 2
        res = json.loads(out)
        assert res["minus_infinity"] is True
        assert res["optimal_value"] is None
        assert abs(res["escape_time"] - (2.0 - math.pi / 2)) < 0.05

    def test_finite_iqc_exits_zero(self, tmp_path, capsys):
        rc, out, _ = run(capsys,
                         ["iqc", write_doc(tmp_path, iqc_doc(T=0.5))])
        assert rc == 0
        res = json.loads(out)
        assert abs(res["optimal_value"] - (-math.tan(0.5))) < 1e-4

    def test_passive_system_exits_zero(self, tmp_path, capsys):
        rc, out, _ = run(capsys,
                         ["passivity", write_doc(tmp_path, pr_doc(True))])
        assert rc == 0
        assert json.loads(out)["verdict"] is True

    def test_active_system_exits_three(self, tmp_path, capsys):
        rc, out, _ = run(capsys,
                         ["passivity", write_doc(tmp_path, pr_doc(False))])
        assert rc == 3
        res = json.loads(out)
        assert res["verdict"] is False
        assert res["minus_infinity"] is True

    def test_passivity_d_zero_is_input_error(self, tmp_path, capsys):
        doc = pr_doc(True)
        doc["system"]["D"] = [[0.0]]
        rc, _, err = run(capsys, ["passivity", write_doc(tmp_path, doc)])
        assert rc == 1
        assert err.startswith("error:")


class TestResultDocuments:
    def test_certificate_fields(self, tmp_path, capsys):
        rc, out, _ = run(capsys,
                         ["lqr", write_doc(tmp_path, lqr_doc(steps=128))])
        assert rc == 0
        res = json.loads(out)
        assert res["schema_version"] == "1"
        assert res["tool"]["name"] == "lqconic"
        assert res["variant"] == "lqr"
        assert res["grid"] == {"T": 1.0, "steps": 128}
        assert res["problem_sha256"] == problem_sha256(lqr_doc(steps=128))
        assert res["minus_infinity"] is False
        assert res["duality_gap"] < 1e-4
        assert res["duality_gap"] == res["primal_value"] - res["optimal_value"]
        # the dual slack's eigenvalue floor and rank, and the alignment of
        # the certificate's own gain, are identities and are not reported
        assert not {"alignment", "dual_min_eig", "rank_ok"} & set(res)
        assert res["timing_seconds"] > 0
        gain = res["gain"]
        assert gain["m"] == 1 and gain["n"] == 1
        assert len(gain["nodes"]) == 129
        # node 0 of the optimal schedule is tanh(T)
        assert abs(gain["nodes"][0][0] - TANH1) < 1e-4

    def test_out_file_matches_stdout_shape(self, tmp_path, capsys):
        out_path = tmp_path / "res.json"
        rc, out, _ = run(capsys, ["lqr", write_doc(tmp_path, lqr_doc()),
                                  "--out", str(out_path)])
        assert rc == 0
        assert out == ""
        res = json.loads(out_path.read_text())
        assert res["kind"] == "certificate"

    def test_documents_are_written_compact(self, tmp_path):
        # certificate, norm result and cloud summary: sorted keys, no
        # whitespace and one closing newline
        runs = [
            ["lqr", write_doc(tmp_path, lqr_doc(), "p1.json")],
            ["iqc", write_doc(tmp_path, iqc_doc(), "p2.json")],
            ["hinf", write_doc(tmp_path, br_doc(), "p3.json"),
             "--tol", "1e-2"],
            ["dri-cloud", write_doc(tmp_path, lqr_doc(128), "p4.json"),
             "--samples", "2", "--csv-dir", str(tmp_path / "cloud")],
        ]
        for i, argv in enumerate(runs):
            out = tmp_path / f"res{i}.json"
            main(argv + ["--out", str(out)])
            text = out.read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True,
                                      separators=(",", ":")) + "\n"

    def test_steps_flag_overrides_document(self, tmp_path, capsys):
        rc, out, _ = run(capsys, ["lqr", write_doc(tmp_path, lqr_doc(steps=64)),
                                  "--steps", "200"])
        assert rc == 0
        assert json.loads(out)["grid"]["steps"] == 200

    def test_slqr_value(self, tmp_path, capsys):
        rc, out, _ = run(capsys,
                         ["slqr", write_doc(tmp_path, slqr_doc(steps=512))])
        assert rc == 0
        res = json.loads(out)
        assert abs(res["optimal_value"] - LNCOSH1) < 1e-4

    def test_determinism_modulo_timing(self, tmp_path, capsys):
        path = write_doc(tmp_path, lqr_doc())
        _, out1, _ = run(capsys, ["lqr", path])
        _, out2, _ = run(capsys, ["lqr", path])
        a, b = json.loads(out1), json.loads(out2)
        a.pop("timing_seconds")
        b.pop("timing_seconds")
        assert a == b

    def test_hinf_document(self, tmp_path, capsys):
        rc, out, _ = run(capsys, ["hinf", write_doc(tmp_path, br_doc()),
                                  "--steps", "200", "--tol", "1e-3"])
        assert rc == 0
        res = json.loads(out)
        assert res["kind"] == "norm_result"
        assert res["bracket"][0] <= res["gamma_star"] <= res["bracket"][1]
        reference = convolution_norm(np.array([[-1.0]]), np.array([[1.0]]),
                                     np.array([[1.0]]), T=2.0, steps=800)
        assert abs(res["gamma_star"] - reference) < 0.02 * reference
        assert res["iterations"] > 0

    def test_hinf_width_defaults_to_the_bisection(self, tmp_path, capsys):
        # without --tol the bisection's own width (1e-4) applies
        path = write_doc(tmp_path, br_doc(steps=64))
        default = json.loads(run(capsys, ["hinf", path])[1])
        flagged = json.loads(run(capsys, ["hinf", path, "--tol", "1e-4"])[1])
        for key in ("gamma_star", "iterations", "bracket"):
            assert default[key] == flagged[key]
        assert default["bracket"][1] - default["bracket"][0] <= 1e-4


class TestCsvExport:
    def test_gain_and_dual_round_trip_bitwise(self, tmp_path, capsys):
        csv_dir = tmp_path / "csv"
        rc, out, _ = run(capsys, ["lqr", write_doc(tmp_path, lqr_doc(steps=64)),
                                  "--csv-dir", str(csv_dir)])
        assert rc == 0
        res = json.loads(out)
        times, rows = read_trajectory_csv(csv_dir / "gain.csv")
        grid = TimeGrid(T=1.0, steps=64)
        assert np.array_equal(times, grid.times())
        flat_doc = np.array(res["gain"]["nodes"])
        assert np.array_equal(rows, flat_doc)

        times_l, rows_l = read_trajectory_csv(csv_dir / "dual.csv")
        assert len(times_l) == 65
        # dual trajectory of this problem is tanh(T - t)
        assert np.allclose(rows_l[:, 0], np.tanh(1.0 - times_l), atol=1e-4)

    def test_header_names_index_matrix_entries(self, tmp_path, capsys):
        csv_dir = tmp_path / "csv"
        doc = {
            "schema_version": "1",
            "system": {"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]]},
            "horizon": {"T": 1.0, "steps": 64},
            "variant": {"type": "lqr", "Q": [[1.0, 0.0], [0.0, 1.0]],
                        "R": [[1.0]], "x_i": [1.0, 0.0]},
        }
        rc, _, _ = run(capsys, ["lqr", write_doc(tmp_path, doc),
                                "--csv-dir", str(csv_dir)])
        assert rc == 0
        gain_header = (csv_dir / "gain.csv").read_text().split("\n")[0]
        assert gain_header == "t,k_0_0,k_0_1"
        dual_header = (csv_dir / "dual.csv").read_text().split("\n")[0]
        assert dual_header == "t,l_0_0,l_0_1,l_1_0,l_1_1"

    def test_escaped_nodes_are_skipped(self, tmp_path, capsys):
        csv_dir = tmp_path / "csv"
        rc, _, _ = run(capsys, ["iqc", write_doc(tmp_path, iqc_doc(steps=128)),
                                "--csv-dir", str(csv_dir)])
        assert rc == 2
        text = (csv_dir / "dual.csv").read_text()
        assert "nan" not in text.lower()
        lines = text.strip().split("\n")
        # escape near t = 0.43 of [0, 2]: only the valid tail is written
        assert 1 < len(lines) - 1 < 129
        times, _ = read_trajectory_csv(csv_dir / "dual.csv")
        assert times.min() > 0.4


class TestDriCloudCommand:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        doc = lqr_doc(steps=128)
        doc["options"] = {"seed": 7}
        path = write_doc(tmp_path, doc)
        dirs = [tmp_path / "run_a", tmp_path / "run_b"]
        for d in dirs:
            rc, _, _ = run(capsys, ["dri-cloud", path, "--samples", "5",
                                    "--csv-dir", str(d)])
            assert rc == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == ["dre.csv", "sample_000.csv", "sample_001.csv",
                         "sample_002.csv", "sample_003.csv", "sample_004.csv",
                         "summary.json"]
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

        summary = json.loads((dirs[0] / "summary.json").read_text())
        assert summary["kind"] == "dri_cloud_summary"
        assert summary["seed"] == 7
        assert summary["n_samples"] == 5
        assert summary["maximal"] is True
        assert summary["dre_escaped"] is False
        assert "timing_seconds" not in summary

    def test_seed_flag_beats_document(self, tmp_path, capsys):
        doc = lqr_doc(steps=128)
        doc["options"] = {"seed": 7}
        path = write_doc(tmp_path, doc)
        d = tmp_path / "out"
        rc, _, _ = run(capsys, ["dri-cloud", path, "--samples", "2",
                                "--seed", "11", "--csv-dir", str(d)])
        assert rc == 0
        assert json.loads((d / "summary.json").read_text())["seed"] == 11

    def test_non_finite_data_is_input_error(self, tmp_path, capsys):
        # JSON reads 1e999 as infinity; the cloud used to run on it and
        # report a maximal cloud whose extremal escaped at t = 1
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(lqr_doc(steps=64)).replace(
            '"Q": [[1.0]]', '"Q": [[1e999]]'))
        for cmd in (["lqr"], ["dri-cloud", "--samples", "2",
                              "--csv-dir", str(tmp_path / "o")]):
            rc, out, err = run(capsys, cmd[:1] + [str(path)] + cmd[1:])
            assert rc == 1 and out == ""
            assert "NonFinite" in err

    def test_negative_sample_count_is_input_error(self, tmp_path, capsys):
        # used to end in an uncaught IndexError
        rc, out, err = run(capsys, ["dri-cloud",
                                    write_doc(tmp_path, lqr_doc(steps=64)),
                                    "--samples", "-1",
                                    "--csv-dir", str(tmp_path / "o")])
        assert rc == 1 and out == ""
        assert "n_samples" in err

    def test_rejects_norm_variants(self, tmp_path, capsys):
        rc, _, err = run(capsys, ["dri-cloud", write_doc(tmp_path, br_doc()),
                                  "--csv-dir", str(tmp_path / "o")])
        assert rc == 1
        assert "needs a 'lqr' or 'general_iqc' problem, got " \
               "'bounded_real'" in err


class TestVerifyCommand:
    def _solve(self, tmp_path, capsys, doc, cmd="lqr"):
        ppath = write_doc(tmp_path, doc)
        rpath = str(tmp_path / "result.json")
        rc, _, _ = run(capsys, [cmd, ppath, "--out", rpath])
        return ppath, rpath, rc

    def test_fresh_certificate_passes(self, tmp_path, capsys):
        ppath, rpath, _ = self._solve(tmp_path, capsys, lqr_doc(steps=128))
        rc, out, _ = run(capsys, ["verify", ppath, rpath])
        assert rc == 0
        assert out.strip().endswith("PASS")
        assert "ok   variant_match" in out
        assert "ok   value_match" in out
        assert "ok   primal_match" in out

    def test_tampered_value_fails(self, tmp_path, capsys):
        ppath, rpath, _ = self._solve(tmp_path, capsys, lqr_doc(steps=128))
        res = json.loads(Path(rpath).read_text())
        res["optimal_value"] = 0.5
        Path(rpath).write_text(json.dumps(res))
        rc, out, _ = run(capsys, ["verify", ppath, rpath])
        assert rc == 4
        assert "FAIL value_match" in out
        assert out.strip().endswith("FAIL")

    def test_tampered_gain_fails_alignment(self, tmp_path, capsys):
        ppath, rpath, _ = self._solve(tmp_path, capsys, lqr_doc(steps=128))
        res = json.loads(Path(rpath).read_text())
        res["gain"]["nodes"] = [[0.0] for _ in res["gain"]["nodes"]]
        Path(rpath).write_text(json.dumps(res))
        rc, out, _ = run(capsys, ["verify", ppath, rpath])
        assert rc == 4
        assert "FAIL alignment" in out

    def test_problem_hash_mismatch(self, tmp_path, capsys):
        ppath, rpath, _ = self._solve(tmp_path, capsys, lqr_doc(steps=128))
        other = write_doc(tmp_path, lqr_doc(steps=128, x0=2.0), "other.json")
        rc, _, err = run(capsys, ["verify", other, rpath])
        assert rc == 1
        assert "hash mismatch" in err

    def test_escape_certificate_verifies(self, tmp_path, capsys):
        ppath, rpath, rc0 = self._solve(tmp_path, capsys, iqc_doc(steps=256),
                                        cmd="iqc")
        assert rc0 == 2
        rc, out, _ = run(capsys, ["verify", ppath, rpath])
        assert rc == 0
        assert "escape_confirmed" in out
        assert out.strip().endswith("PASS")

    @pytest.mark.parametrize("steps", [64, 128, 256])
    def test_finite_iqc_verifies_on_coarse_grids(self, tmp_path, capsys,
                                                 steps):
        # a = 0, b = 1, q = -1, r = 1 on T = 1 is finite (-tan 1); the
        # primal cost is fourth order, so weak duality holds on coarse grids
        ppath, rpath, rc0 = self._solve(
            tmp_path, capsys, iqc_doc(T=1.0, steps=steps), cmd="iqc")
        assert rc0 == 0
        rc, out, _ = run(capsys, ["verify", ppath, rpath])
        assert rc == 0
        assert "ok   weak_duality" in out

    @pytest.mark.parametrize("cmd,doc,flags", [
        ("lqr", lqr_doc(steps=128), ["--T", "2"]),
        ("iqc", iqc_doc(steps=128), ["--T", "3"]),
        ("lqr", lqr_doc(steps=128), ["--steps", "64"]),
    ], ids=["lqr-T", "iqc-T", "lqr-steps"])
    def test_overridden_grid_verifies(self, tmp_path, capsys, monkeypatch,
                                      cmd, doc, flags):
        # verify re-solves on the grid the result records, which --T and
        # --steps set apart from the document's horizon
        ppath = write_doc(tmp_path, doc)
        rpath = tmp_path / "result.json"
        run(capsys, [cmd, ppath, "--out", str(rpath)] + flags)
        claimed = TimeGrid(**json.loads(rpath.read_text())["grid"])
        grids, verify = [], cli.verify_solution

        def spy(spec, cert):
            grids.append(spec.grid)
            return verify(spec, cert)

        monkeypatch.setattr(cli, "verify_solution", spy)
        rc, out, _ = run(capsys, ["verify", ppath, str(rpath)])
        assert rc == 0 and out.strip().endswith("PASS")
        assert grids == [claimed]

    @pytest.mark.parametrize("key,value", [
        ("steps", 64.5), ("steps", True), ("steps", 0), ("steps", None),
        ("T", 0.0), ("T", -1.0), ("T", True), ("T", "1")])
    def test_result_grid_checked(self, tmp_path, capsys, key, value):
        ppath, rpath, _ = self._solve(tmp_path, capsys, lqr_doc(steps=128))
        res = json.loads(Path(rpath).read_text())
        res["grid"][key] = value
        Path(rpath).write_text(json.dumps(res))
        rc, out, err = run(capsys, ["verify", ppath, rpath])
        assert rc == 1 and out == ""
        assert "result.grid" in err

    @pytest.mark.parametrize("field,value,path", [
        ("gain.m", 2, "result.gain"),
        ("gain.n", 0, "result.gain"),
        ("gain.nodes", [[0.5]] * 3, "result.gain"),
        ("gain.nodes", "many", "result.gain.nodes"),
        ("minus_infinity", "false", "result.minus_infinity"),
        ("verdict", 1, "result.verdict"),
        ("optimal_value", "0.76", "result.optimal_value"),
        ("descriptor_residual", [0.0], "result.descriptor_residual"),
    ], ids=["gain_m", "gain_n", "node_count", "nodes_text", "minus_infinity",
            "verdict", "optimal_value", "descriptor_residual"])
    def test_result_claims_checked(self, tmp_path, capsys, field, value,
                                   path):
        # each claim is checked for its type before verify reads it; a
        # wrong m used to end in a reshape error naming no field, and the
        # string "false" was read as True
        ppath, rpath, _ = self._solve(tmp_path, capsys, lqr_doc(steps=128))
        res = json.loads(Path(rpath).read_text())
        *outer, key = field.split(".")
        (res[outer[0]] if outer else res)[key] = value
        Path(rpath).write_text(json.dumps(res))
        rc, out, err = run(capsys, ["verify", ppath, rpath])
        assert rc == 1 and out == ""
        assert f"error: {path}:" in err

    def test_non_finite_gain_rejected(self, tmp_path, capsys):
        # JSON reads 1e999 as infinity
        ppath, rpath, _ = self._solve(tmp_path, capsys, lqr_doc(steps=128))
        res = json.loads(Path(rpath).read_text())
        res["gain"]["nodes"][5] = [12345.5]
        Path(rpath).write_text(json.dumps(res).replace("12345.5", "1e999"))
        rc, out, err = run(capsys, ["verify", ppath, rpath])
        assert rc == 1 and out == ""
        assert "result.gain.nodes: non-finite" in err

    def test_result_missing_field(self, tmp_path, capsys):
        ppath, rpath, _ = self._solve(tmp_path, capsys, lqr_doc(steps=128))
        res = json.loads(Path(rpath).read_text())
        del res["minus_infinity"]
        Path(rpath).write_text(json.dumps(res))
        rc, _, err = run(capsys, ["verify", ppath, rpath])
        assert rc == 1
        assert "minus_infinity" in err


def _bump(key):
    def tamper(res):
        res[key] += 1.0
    return tamper


def _flip(key):
    def tamper(res):
        res[key] = not res[key]
    return tamper


def _bump_mid_gain(res):
    nodes = res["gain"]["nodes"]
    mid = len(nodes) // 2
    nodes[mid] = [v + 1.0 for v in nodes[mid]]


def _bump_horizon(res):
    res["grid"]["T"] += 1.0


def _zero_gains(res):
    res["gain"]["nodes"] = [[0.0] * len(v) for v in res["gain"]["nodes"]]


def _relabel(res):
    # another variant's tag with the verdict inverted: when verify took
    # the verdict policy from the tag, a failed passivity test relabelled
    # as an infimum (or a passed one as a regulator) verified
    res["variant"] = "general_iqc" if res["variant"] != "general_iqc" \
        else "lqr"
    if "verdict" in res:
        res["verdict"] = not res["verdict"]


class TestVerifyMutations:
    """Each field verify reads, tampered past its threshold, fails the
    verification with exit 4, on every kind of result document."""

    DOCS = {
        "lqr": ("lqr", lqr_doc(steps=128)),
        "stoch_lqr": ("slqr", slqr_doc(steps=128)),
        "iqc_finite": ("iqc", iqc_doc(T=0.5, steps=128)),
        "iqc_escaping": ("iqc", iqc_doc(steps=128)),
        "passive": ("passivity", pr_doc(True, steps=128)),
        "not_passive": ("passivity", pr_doc(False, steps=128)),
    }
    FINITE = ("lqr", "stoch_lqr", "iqc_finite", "passive")
    ESCAPING = ("iqc_escaping", "not_passive")
    # field -> (tampering, the documents that carry the field): escaping
    # documents have no value, no evidence and no gain, finite ones no
    # escape time, and only the passivity documents a verdict (and, when
    # passive, the dual's largest eigenvalue). A longer horizon changes
    # every claim but the passive document's (value 0, still passive)
    TAMPER = {
        "variant": (_relabel, FINITE + ESCAPING),
        "optimal_value": (_bump("optimal_value"), FINITE),
        "primal_value": (_bump("primal_value"), FINITE),
        "duality_gap": (_bump("duality_gap"), FINITE),
        "descriptor_residual": (_bump("descriptor_residual"), FINITE),
        "lam_max_eig": (_bump("lam_max_eig"), ("passive",)),
        "escape_time": (_bump("escape_time"), ESCAPING),
        "gain_mid_node": (_bump_mid_gain, FINITE),
        "gain_zeroed": (_zero_gains, FINITE),
        "minus_infinity": (_flip("minus_infinity"), FINITE + ESCAPING),
        "verdict": (_flip("verdict"), ("passive", "not_passive")),
        "grid_T": (_bump_horizon,
                   ("lqr", "stoch_lqr", "iqc_finite") + ESCAPING),
    }

    @pytest.fixture(scope="class")
    def solved(self, tmp_path_factory):
        out = {}
        for name, (cmd, doc) in self.DOCS.items():
            tmp = tmp_path_factory.mktemp(name)
            ppath, rpath = write_doc(tmp, doc), tmp / "result.json"
            main([cmd, ppath, "--out", str(rpath)])
            out[name] = (ppath, json.loads(rpath.read_text()))
        return out

    def _verify(self, tmp_path, capsys, ppath, res):
        rpath = tmp_path / "tampered.json"
        rpath.write_text(json.dumps(res))
        return run(capsys, ["verify", ppath, str(rpath)])

    @pytest.mark.parametrize("name", list(DOCS))
    def test_untampered_document_passes(self, solved, tmp_path, capsys,
                                        name):
        ppath, res = solved[name]
        rc, out, _ = self._verify(tmp_path, capsys, ppath, res)
        assert rc == 0 and out.strip().endswith("PASS")

    @pytest.mark.parametrize("name,field", [
        (name, field) for field, (_, names) in TAMPER.items()
        for name in names])
    def test_tampered_field_fails(self, solved, tmp_path, capsys, name,
                                  field):
        ppath, res = solved[name]
        res = copy.deepcopy(res)
        self.TAMPER[field][0](res)
        rc, out, _ = self._verify(tmp_path, capsys, ppath, res)
        assert rc == 4 and out.strip().endswith("FAIL")


class TestSchemaConformance:
    def test_schema_keys_match_the_parser(self):
        # the keys the problem schema allows in each object are exactly
        # those parse_problem accepts, so a key dropped from one of them
        # (as options.tol was) cannot linger in the other
        schema = load_schema("problem.schema.json")
        props = schema["properties"]
        allowed = {"$": set(props)}
        for name in ("system", "horizon", "options"):
            allowed[name] = set(props[name]["properties"])
        assert allowed == {k: set(v) for k, v in cli._OBJECT_KEYS.items()}
        variants = {v["properties"]["type"]["const"]: set(v["properties"])
                    for v in props["variant"]["oneOf"]}
        assert variants == {k: set(v) for k, v in cli._VARIANT_KEYS.items()}

    def test_problem_documents_validate(self):
        schema = load_schema("problem.schema.json")
        validator = jsonschema.Draft202012Validator(schema)
        for doc in (lqr_doc(), slqr_doc(), iqc_doc(), br_doc(),
                    pr_doc(True), pr_doc(False)):
            validator.validate(doc)

    def test_problem_schema_rejects_bad_documents(self):
        schema = load_schema("problem.schema.json")
        validator = jsonschema.Draft202012Validator(schema)
        bad = lqr_doc()
        bad["schema_version"] = "0"
        assert not validator.is_valid(bad)
        bad = lqr_doc()
        del bad["system"]
        assert not validator.is_valid(bad)
        for where, key, value, _, _, base in BAD_DOCUMENTS:
            assert not validator.is_valid(bad_document(where, key, value,
                                                       base))

    def test_problem_schema_rejects_one_step(self):
        # the schema's minimum is validate's TooFewSteps bound
        validator = jsonschema.Draft202012Validator(
            load_schema("problem.schema.json"))
        assert not validator.is_valid(lqr_doc(steps=1))
        validator.validate(lqr_doc(steps=2))

    def test_emitted_results_validate(self, tmp_path, capsys):
        schema = load_schema("result.schema.json")
        validator = jsonschema.Draft202012Validator(schema)
        runs = [
            (["lqr", write_doc(tmp_path, lqr_doc(), "p1.json")], 0),
            (["slqr", write_doc(tmp_path, slqr_doc(), "p2.json")], 0),
            (["iqc", write_doc(tmp_path, iqc_doc(), "p3.json")], 2),
            (["hinf", write_doc(tmp_path, br_doc(), "p4.json"),
              "--tol", "1e-2"], 0),
            (["passivity", write_doc(tmp_path, pr_doc(False), "p5.json")], 3),
        ]
        for argv, want_rc in runs:
            rc, out, _ = run(capsys, argv)
            assert rc == want_rc
            validator.validate(json.loads(out))

    def test_dri_cloud_summary_validates(self, tmp_path, capsys):
        schema = load_schema("result.schema.json")
        validator = jsonschema.Draft202012Validator(schema)
        d = tmp_path / "cloud"
        rc, _, _ = run(capsys, ["dri-cloud", write_doc(tmp_path, lqr_doc(128)),
                                "--samples", "2", "--csv-dir", str(d)])
        assert rc == 0
        validator.validate(json.loads((d / "summary.json").read_text()))
