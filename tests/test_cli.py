"""End-to-end tests for the command-line interface.

Each test drives main() with an argv list and inspects the JSON envelope,
the exit code, and stderr.  One test invokes the installed console script
through a real subprocess.
"""

import json
import subprocess
import sys

import pytest

from matchkit import __version__, cli, matching
from matchkit.algebra import LaurentAmbient, StructureConstantAmbient, echelonize
from matchkit.cli import main
from matchkit.primes import check_prop_2_2

ENVELOPE_KEYS = {"tool", "version", "command", "seed", "config", "result"}


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert err == ""
    return code, json.loads(out)


def z6_obstructed(tmp_path):
    return write_json(tmp_path, "pair.json",
                      {"group": {"kind": "cyclic", "n": 6}, "A": [1, 4], "B": [3, 2]})


def z7_quadratic_residues(tmp_path):
    return write_json(tmp_path, "pair.json",
                      {"group": {"kind": "cyclic", "n": 7}, "A": [1, 2, 4], "B": [1, 2, 4]})


def laurent_pair_doc(a_coeffs, b_coeffs):
    amb = LaurentAmbient(0, 8)
    a_space = echelonize(amb, [amb.from_coeffs(c) for c in a_coeffs])
    b_space = echelonize(amb, [amb.from_coeffs(c) for c in b_coeffs])
    return {"A": a_space.to_json(), "B": b_space.to_json()}


def quartic_pair_doc():
    amb = StructureConstantAmbient.power_basis([2, 0, 0, 0])
    a_space = echelonize(amb, [amb.unity(), amb.basis_element(2)])
    b_space = echelonize(amb, [amb.basis_element(1), amb.basis_element(2)])
    return {"A": a_space.to_json(), "B": b_space.to_json()}


class TestEnvelope:
    def test_keys_and_metadata(self, capsys, tmp_path):
        code, doc = run_json(capsys, ["match", "find", "--pair", z6_obstructed(tmp_path)])
        assert code == 0
        assert set(doc) == ENVELOPE_KEYS
        assert doc["tool"] == "matchkit"
        assert doc["version"] == __version__
        assert doc["command"] == "match find"
        assert doc["seed"] == 0
        assert doc["config"]["pair"].endswith("pair.json")

    def test_output_is_sorted_and_newline_terminated(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, ["match", "find", "--pair", z6_obstructed(tmp_path)])
        assert code == 0
        assert out.endswith("\n")
        doc = json.loads(out)
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_output_flag_writes_file(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        pair = z6_obstructed(tmp_path)
        code, out, err = run_cli(capsys, ["match", "find", "--pair", pair,
                                          "--output", str(report)])
        assert code == 0
        assert out == ""
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert doc["result"]["hall_violator"] == [1, 4]
        assert doc["config"]["output"] == str(report)

    def test_seed_is_echoed(self, capsys, tmp_path):
        pair = write_json(tmp_path, "lin.json",
                          laurent_pair_doc([{0: 1}, {1: 1}], [{3: 1}, {4: 1}]))
        code, doc = run_json(capsys, ["linear", "match", "--pair", pair, "--seed", "5"])
        assert code == 0
        assert doc["seed"] == 5

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == __version__


class TestBadInput:
    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, ["match", "find", "--pair",
                                          str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot read" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"group": ', encoding="utf-8")
        code, out, err = run_cli(capsys, ["match", "find", "--pair", str(path)])
        assert code == 2
        assert "invalid JSON at line 1 column" in err

    def test_non_object_top_level(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        code, out, err = run_cli(capsys, ["match", "find", "--pair", str(path)])
        assert code == 2
        assert "JSON object" in err

    def test_size_mismatch(self, capsys, tmp_path):
        pair = write_json(tmp_path, "bad.json",
                          {"group": {"kind": "cyclic", "n": 6}, "A": [1, 2], "B": [3]})
        code, out, err = run_cli(capsys, ["match", "find", "--pair", pair])
        assert code == 2
        assert err.startswith("matchkit:")

    def test_identity_in_b(self, capsys, tmp_path):
        pair = write_json(tmp_path, "bad.json",
                          {"group": {"kind": "cyclic", "n": 6}, "A": [1], "B": [0]})
        code, out, err = run_cli(capsys, ["match", "find", "--pair", pair])
        assert code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["primes", "family", "--prop", "99", "--upto", "10"])
        assert excinfo.value.code == 2

    def test_stdin_pair(self, capsys, monkeypatch, tmp_path):
        text = json.dumps({"group": {"kind": "cyclic", "n": 6}, "A": [1, 4], "B": [3, 2]})
        monkeypatch.setattr("sys.stdin", __import__("io").StringIO(text))
        code, doc = run_json(capsys, ["match", "find", "--pair", "-"])
        assert code == 0
        assert doc["result"]["hall_violator"] == [1, 4]


class TestMatchCommands:
    def test_find_obstructed(self, capsys, tmp_path):
        code, doc = run_json(capsys, ["match", "find", "--pair", z6_obstructed(tmp_path)])
        assert code == 0
        assert doc["result"] == {"matching": None, "hall_violator": [1, 4]}

    def test_find_obstructed_runs_one_matching(self, capsys, tmp_path, monkeypatch):
        calls = []
        build = matching.compatibility_graph

        def counting(pair):
            calls.append(pair)
            return build(pair)

        for module in (matching, cli):
            monkeypatch.setattr(module, "compatibility_graph", counting)
        code, doc = run_json(capsys, ["match", "find", "--pair", z6_obstructed(tmp_path)])
        assert code == 0
        assert doc["result"]["hall_violator"] == [1, 4]
        assert len(calls) == 1

    def test_find_forced_swap(self, capsys, tmp_path):
        pair = write_json(tmp_path, "pair.json",
                          {"group": {"kind": "cyclic", "n": 5}, "A": [1, 2], "B": [1, 2]})
        code, doc = run_json(capsys, ["match", "find", "--pair", pair])
        assert code == 0
        matching = doc["result"]["matching"]
        assert matching["sigma"] == [1, 0]
        assert matching["products"] == [3, 3]
        assert doc["result"]["hall_violator"] is None

    def test_enumerate(self, capsys, tmp_path):
        pair = z7_quadratic_residues(tmp_path)
        code, doc = run_json(capsys, ["match", "enumerate", "--pair", pair])
        assert code == 0
        result = doc["result"]
        assert result["count"] == 2
        assert result["truncated"] is False
        assert [m["sigma"] for m in result["matchings"]] == [[1, 2, 0], [2, 0, 1]]
        assert result["matchings"][0]["multiplicity"] == {"3": 1, "5": 1, "6": 1}

    def test_enumerate_truncated_exits_3(self, capsys, tmp_path):
        pair = z7_quadratic_residues(tmp_path)
        code, doc = run_json(capsys, ["match", "enumerate", "--pair", pair, "--cap", "1"])
        assert code == 3
        assert doc["result"]["count"] == 1
        assert doc["result"]["truncated"] is True

    def test_acyclic_absent(self, capsys, tmp_path):
        pair = z7_quadratic_residues(tmp_path)
        code, doc = run_json(capsys, ["match", "acyclic", "--pair", pair])
        assert code == 0
        result = doc["result"]
        assert result["status"] == "absent"
        assert result["matching"] is None
        assert result["total_matchings"] == 2
        assert result["acyclic_count"] == 0

    def test_acyclic_found(self, capsys, tmp_path):
        pair = write_json(tmp_path, "pair.json",
                          {"group": {"kind": "cyclic", "n": 5}, "A": [1], "B": [1]})
        code, doc = run_json(capsys, ["match", "acyclic", "--pair", pair])
        assert code == 0
        assert doc["result"]["status"] == "found"
        assert doc["result"]["matching"]["sigma"] == [0]

    def test_acyclic_inconclusive_exits_3(self, capsys, tmp_path):
        pair = z7_quadratic_residues(tmp_path)
        code, doc = run_json(capsys, ["match", "acyclic", "--pair", pair, "--cap", "1"])
        assert code == 3
        result = doc["result"]
        assert result["status"] == "inconclusive"
        assert result["matchings_examined"] == 1
        assert result["total_matchings"] is None

    @pytest.mark.parametrize("action", ["find", "enumerate", "acyclic"])
    def test_free_abelian_product_outside_the_window(self, capsys, tmp_path, action):
        # 3 + 3 = 6 leaves the window; it is a valid product outside A.
        pair = write_json(tmp_path, "pair.json",
                          {"group": {"kind": "free_abelian", "rank": 1, "window": 3},
                           "A": [[3]], "B": [[3]]})
        code, doc = run_json(capsys, ["match", action, "--pair", pair])
        assert code == 0
        result = doc["result"]
        matching = result["matchings"][0] if action == "enumerate" else result["matching"]
        assert matching["sigma"] == [0]
        assert matching["products"] == [[6]]
        assert matching["multiplicity"] == {"(6)": 1}


class TestCriteriaCommand:
    def test_check_with_witness_and_prop14(self, capsys, tmp_path):
        pair = write_json(tmp_path, "pair.json",
                          {"group": {"kind": "cyclic", "n": 6},
                           "A": [0, 2, 4], "B": [1, 3, 5]})
        code, doc = run_json(capsys, ["criteria", "check", "--pair", pair])
        assert code == 0
        result = doc["result"]
        assert result["coset_free"] is False
        assert result["witness"]["subgroup"] == [0, 2, 4]
        assert result["witness"]["side"] == "left"
        assert result["witness"]["translate"] == 0
        assert result["prop14"] is True
        assert result["prop14_witness"] is None

    def test_check_without_b_skips_prop14(self, capsys, tmp_path):
        pair = write_json(tmp_path, "pair.json",
                          {"group": {"kind": "cyclic", "n": 7}, "A": [1, 2, 4]})
        code, doc = run_json(capsys, ["criteria", "check", "--pair", pair])
        assert code == 0
        assert doc["result"]["coset_free"] is True
        assert doc["result"]["witness"] is None
        assert doc["result"]["prop14"] is None

    def test_check_requires_a(self, capsys, tmp_path):
        pair = write_json(tmp_path, "pair.json",
                          {"group": {"kind": "cyclic", "n": 6}, "B": [1]})
        code, out, err = run_cli(capsys, ["criteria", "check", "--pair", pair])
        assert code == 2
        assert "requires a set A" in err


class TestRelativeCommands:
    def test_find_success(self, capsys, tmp_path):
        doc_in = {"group": {"kind": "cyclic", "n": 6},
                  "a": [1, 2], "b": [2, 4], "subgroup": [0, 3]}
        path = write_json(tmp_path, "rel.json", doc_in)
        code, doc = run_json(capsys, ["relative", "find", "--input", path])
        assert code == 0
        assert doc["result"] == {"matching": {"sigma": [0, 1]}, "hall_violator": None}

    def test_find_absent_reports_violator(self, capsys, tmp_path):
        doc_in = {"group": {"kind": "cyclic", "n": 6},
                  "a": [1, 2], "b": [1, 1], "subgroup": [0]}
        path = write_json(tmp_path, "rel.json", doc_in)
        code, doc = run_json(capsys, ["relative", "find", "--input", path])
        assert code == 0
        assert doc["result"]["matching"] is None
        assert doc["result"]["hall_violator"] == [0]

    def test_find_free_abelian_product_outside_the_window(self, capsys, tmp_path):
        doc_in = {"group": {"kind": "free_abelian", "rank": 1, "window": 3},
                  "a": [[3], [1]], "b": [[3], [2]], "subgroup": [[0]]}
        path = write_json(tmp_path, "rel.json", doc_in)
        code, doc = run_json(capsys, ["relative", "find", "--input", path])
        assert code == 0
        # 1 + 2 = 3 lands in a, so 1 takes the 3 and 3 + 2 = 5.
        assert doc["result"] == {"matching": {"sigma": [1, 0]}, "hall_violator": None}

    def test_find_subgroup_leaving_the_window_exits_2(self, capsys, tmp_path):
        doc_in = {"group": {"kind": "free_abelian", "rank": 1, "window": 1},
                  "a": [[1]], "b": [[1]], "subgroup": [[0], [1], [-1]]}
        path = write_json(tmp_path, "rel.json", doc_in)
        code, out, err = run_cli(capsys, ["relative", "find", "--input", path])
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "not closed at" in err and "Traceback" not in err

    def test_transfer(self, capsys, tmp_path):
        doc_in = {"hom": {"source": {"kind": "cyclic", "n": 6},
                          "target": {"kind": "cyclic", "n": 3},
                          "map": "mod_3"},
                  "a": [1, 2, 4], "b": [1, 2, 5]}
        path = write_json(tmp_path, "xfer.json", doc_in)
        code, doc = run_json(capsys, ["relative", "transfer", "--input", path])
        assert code == 0
        result = doc["result"]
        assert result["transfer_verified"] is True
        assert result["kernel"] == [0, 3]
        assert result["image_a"] == [1, 2, 1]


class TestPrimesCommands:
    def test_family_members(self, capsys):
        code, doc = run_json(capsys, ["primes", "family", "--prop", "22", "--upto", "100"])
        assert code == 0
        assert doc["result"]["primes"] == [7, 23, 31, 47, 71, 79]
        verdict = doc["result"]["verdicts"][0]
        assert verdict["p"] == 7
        assert verdict["certificate"]["square_root_of_two"] in (3, 4)

    def test_family_with_cap_beyond_the_enumeration_size_cap(self, capsys):
        code, doc = run_json(capsys, ["primes", "family", "--prop", "22",
                                      "--upto", "60", "--cap", "1"])
        assert code == 0
        rows = {row["p"]: row for row in doc["result"]["verdicts"]}
        assert sorted(rows) == [7, 23, 31, 47]
        assert rows[47]["exhaustive"] is False
        assert rows[47]["certificate"]["subset_size"] > matching.ENUMERATION_SIZE_CAP
        for p in (7, 23, 31):
            assert rows[p] == json.loads(json.dumps(check_prop_2_2(p, enumeration_cap=1).to_json()))

    def test_family_is_deterministic(self, capsys):
        argv = ["primes", "family", "--prop", "23", "--upto", "100"]
        code1, out1, err1 = run_cli(capsys, argv)
        code2, out2, err2 = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_scan_with_log(self, capsys, tmp_path):
        log = tmp_path / "scan.jsonl"
        code, doc = run_json(capsys, ["primes", "scan", "--p", "3",
                                      "--size-cap", "1", "--log", str(log)])
        assert code == 0
        result = doc["result"]
        assert result["pairs_examined"] == 6
        assert result["failure"] is None
        assert "elapsed_ms" not in json.dumps(result)
        lines = log.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 6
        for line in lines:
            record = json.loads(line)
            assert isinstance(record["elapsed_ms"], float)

    def test_scan_budget_exhausted_exits_3(self, capsys):
        code, doc = run_json(capsys, ["primes", "scan", "--p", "7",
                                      "--size-cap", "3", "--budget", "2"])
        assert code == 3
        assert doc["result"]["budget_exhausted"] is True
        assert doc["result"]["failure"] is None

    def test_scan_failure_is_exit_0(self, capsys):
        code, doc = run_json(capsys, ["primes", "scan", "--p", "7",
                                      "--size-cap", "3", "--budget", "10000000"])
        assert code == 0
        failure = doc["result"]["failure"]
        assert failure is not None
        assert sorted(failure["A"]) == failure["A"]

    def test_audit(self, capsys):
        code, doc = run_json(capsys, ["primes", "audit", "--n", "7", "--set", "1,2,4"])
        assert code == 0
        assert doc["result"]["fixed_point_property"] is True
        assert doc["result"]["set"] == [1, 2, 4]

    def test_audit_bad_set_string(self, capsys):
        code, out, err = run_cli(capsys, ["primes", "audit", "--n", "7", "--set", "1,x"])
        assert code == 2
        assert "comma-separated" in err


class TestLinearCommands:
    def test_match_reports_violator(self, capsys, tmp_path):
        pair = write_json(tmp_path, "quartic.json", quartic_pair_doc())
        code, doc = run_json(capsys, ["linear", "match", "--pair", pair])
        assert code == 0
        result = doc["result"]
        assert result["matched_basis"] is None
        assert result["violator"] == [1, 2]
        assert result["attempts"] == 0

    def test_match_success(self, capsys, tmp_path):
        pair = write_json(tmp_path, "sep.json",
                          laurent_pair_doc([{0: 1}, {1: 1}], [{3: 1}, {4: 1}]))
        code, doc = run_json(capsys, ["linear", "match", "--pair", pair])
        assert code == 0
        result = doc["result"]
        assert result["violator"] is None
        assert len(result["matched_basis"]["vectors"]) == 2
        assert result["attempts"] >= 1

    def test_strong_pencil_witness(self, capsys, tmp_path):
        pair = write_json(tmp_path, "pencil.json",
                          laurent_pair_doc([{0: 1, 3: -1}, {1: 1, 2: 1, 3: 1}],
                                           [{0: 1, 2: -1}, {1: 1, 2: -1}]))
        code, doc = run_json(capsys, ["linear", "strong", "--pair", pair])
        assert code == 0
        result = doc["result"]
        assert result["exists"] is False
        assert result["certificate"] == "pencil-witness"
        assert result["decisive"] is True
        witness = result["witness"]
        assert witness["a"]["coeffs"] == ["1", "1", "1"]
        assert witness["b"]["coeffs"] == ["1", "-1"]
        assert witness["product"]["coeffs"] == ["1", "0", "0", "-1"]

    def test_strong_disjoint_span(self, capsys, tmp_path):
        pair = write_json(tmp_path, "sep.json",
                          laurent_pair_doc([{0: 1}, {1: 1}], [{3: 1}, {4: 1}]))
        code, doc = run_json(capsys, ["linear", "strong", "--pair", pair])
        assert code == 0
        result = doc["result"]
        assert result["exists"] is True
        assert result["certificate"] == "disjoint-product-span"
        assert result["witness"] is None

    def test_scaling_found(self, capsys, tmp_path):
        pair = write_json(tmp_path, "scaled.json",
                          laurent_pair_doc([{0: 1}, {1: 1}], [{2: 1}, {3: 1}]))
        code, doc = run_json(capsys, ["linear", "scaling", "--pair", pair])
        assert code == 0
        alpha = doc["result"]["alpha"]
        assert alpha["ambient"] == {"kind": "laurent", "dmin": 2, "dmax": 2}
        assert alpha["coeffs"] == ["1"]

    def test_scaling_absent(self, capsys, tmp_path):
        pair = write_json(tmp_path, "noscale.json",
                          laurent_pair_doc([{0: 1}, {1: 1}], [{3: 1}, {4: 1, 5: 1}]))
        code, doc = run_json(capsys, ["linear", "scaling", "--pair", pair])
        assert code == 0
        assert doc["result"]["alpha"] is None

    def test_acyclic_scaling_certificate(self, capsys, tmp_path):
        pair = write_json(tmp_path, "scaled.json",
                          laurent_pair_doc([{0: 1}, {1: 1}], [{2: 1}, {3: 1}]))
        code, doc = run_json(capsys, ["linear", "acyclic", "--pair", pair])
        assert code == 0
        result = doc["result"]
        assert result["certificate"] == "scaling"
        assert result["acyclicity_claimed"] is True
        assert result["alpha"]["coeffs"] == ["1"]
        assert len(result["domain_basis"]["vectors"]) == 2

    def test_acyclic_requires_strong_matching(self, capsys, tmp_path):
        pair = write_json(tmp_path, "quartic.json", quartic_pair_doc())
        code, out, err = run_cli(capsys, ["linear", "acyclic", "--pair", pair])
        assert code == 2
        assert "strong matching" in err

    def test_incompatible_ambients(self, capsys, tmp_path):
        doc_a = laurent_pair_doc([{0: 1}], [{1: 1}])
        doc_b = quartic_pair_doc()
        pair = write_json(tmp_path, "mixed.json", {"A": doc_a["A"], "B": doc_b["B"]})
        code, out, err = run_cli(capsys, ["linear", "strong", "--pair", pair])
        assert code == 2
        assert "incompatible" in err


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "matchkit.cli",
             "primes", "family", "--prop", "23", "--upto", "50"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["tool"] == "matchkit"
        assert doc["result"]["primes"] == [7, 23, 31, 47]
