"""End-to-end tests for the command-line driver."""

import json

import pytest

from tbhl.cli_verify import AuditCase, main, run_audit, witness_cases
from tbhl.qsym_typeb import QSymElement, fb_monomials, peak_function_type_b
from tbhl.shifted_domino import enumerate_shifted


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQsymCommands:
    def test_delta_json_pinned(self, capsys):
        code, out, _ = run_cli(
            capsys, ["qsym", "delta", "--set", "{1}", "--n", "2", "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["basis"] == "FB"
        assert payload["n"] == 2
        assert payload["variant"] == "literal"
        assert payload["coeffs"] == [["{0}", 2], ["{1}", 2]]

    def test_delta_text(self, capsys):
        code, out, _ = run_cli(
            capsys, ["qsym", "delta", "--set", "{1}", "--n", "2"]
        )
        assert code == 0
        assert out.strip() == "2*FB{0} + 2*FB{1}"

    def test_fb_plain_element(self, capsys):
        code, out, _ = run_cli(
            capsys, ["qsym", "fb", "--set", "{0,3}", "--n", "4"]
        )
        assert code == 0
        assert out.strip() == str(QSymElement.fundamental({0, 3}, 4))

    def test_fb_monomials_text(self, capsys):
        code, out, _ = run_cli(
            capsys, ["qsym", "fb", "--set", "{}", "--n", "1", "--monomials"]
        )
        assert code == 0
        assert out.strip() == "x0 + x1"

    def test_fb_monomials_json_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "qsym",
                "fb",
                "--set",
                "{0,3}",
                "--n",
                "4",
                "--monomials",
                "--nvars",
                "3",
                "--json",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["nvars"] == 3
        assert payload["terms"] == fb_monomials({0, 3}, 4, 3).to_json()

    def test_peakfn_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["qsym", "peakfn", "--bit", "0", "--peaks", "{1}", "--n", "2"],
        )
        assert code == 0
        assert out.strip() == str(peak_function_type_b(0, {1}, 2))


class TestEnumerateCommands:
    def test_domino_count(self, capsys):
        code, out, _ = run_cli(
            capsys, ["enumerate", "domino", "sdt", "--shape", "2,2", "--count"]
        )
        assert code == 0
        assert out.strip() == "2"

    def test_domino_listing_shows_descents(self, capsys):
        code, out, _ = run_cli(
            capsys, ["enumerate", "domino", "sdt", "--shape", "2,2"]
        )
        assert code == 0
        assert "descents={0}" in out
        assert "descents={1}" in out

    def test_quotient_text(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["enumerate", "shifted", "quotient", "--shape", "7,7,6,5,1"],
        )
        assert code == 0
        assert out.strip() == "mu=3,3,3 nu=4 valid=yes"

    def test_quotient_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "enumerate",
                "shifted",
                "quotient",
                "--shape",
                "7,7,6,5,1",
                "--json",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mu"] == [3, 3, 3]
        assert payload["nu"] == [4]
        assert payload["valid"] is True

    def test_shifted_standard_count(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["enumerate", "shifted", "sshdt", "--shape", "2,2", "--count"],
        )
        assert code == 0
        assert out.strip() == "1"

    def test_shifted_semistandard_count(self, capsys):
        expected = len(enumerate_shifted((2, 2), "semistandard", 2))
        code, out, _ = run_cli(
            capsys,
            [
                "enumerate",
                "shifted",
                "sshdt",
                "--shape",
                "2,2",
                "--maxval",
                "2",
                "--count",
            ],
        )
        assert code == 0
        assert out.strip() == str(expected)

    def test_family_count(self, capsys):
        code, out, _ = run_cli(
            capsys, ["enumerate", "family", "arc:3", "--count"]
        )
        assert code == 0
        assert out.strip() == "24"

    def test_family_members_listed(self, capsys):
        code, out, _ = run_cli(capsys, ["enumerate", "family", "dclass:{0}:2"])
        assert code == 0
        assert out.split() == ["-2,-1", "-1,2", "2,-1"]

    def test_family_json(self, capsys):
        code, out, _ = run_cli(
            capsys, ["enumerate", "family", "arc:2", "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["name"] == "arc:2"
        assert payload["count"] == 8
        assert len(payload["members"]) == 8


class TestUsageErrors:
    def test_malformed_index_set(self, capsys):
        code, _, err = run_cli(
            capsys, ["qsym", "fb", "--set", "oops", "--n", "2"]
        )
        assert code == 2
        assert err.startswith("error:")

    def test_odd_domino_shape(self, capsys):
        code, _, err = run_cli(
            capsys, ["enumerate", "domino", "sdt", "--shape", "2,1"]
        )
        assert code == 2
        assert "even" in err

    def test_odd_shifted_shape(self, capsys):
        code, _, err = run_cli(
            capsys, ["enumerate", "shifted", "sshdt", "--shape", "2,1"]
        )
        assert code == 2
        assert "even" in err

    def test_non_numeric_shape(self, capsys):
        code, _, err = run_cli(
            capsys, ["enumerate", "domino", "sdt", "--shape", "2,x"]
        )
        assert code == 2
        assert "comma-separated" in err

    def test_unknown_family_kind(self, capsys):
        code, _, err = run_cli(capsys, ["enumerate", "family", "blob:3"])
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_semistandard_shape_with_bad_quotient(self, capsys):
        code, _, err = run_cli(
            capsys, ["enumerate", "shifted", "sshdt", "--shape", "2,1,1"]
        )
        assert code == 2
        assert "2-quotient" in err


class TestVerifyCommands:
    def test_clifford_audit_statuses(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "clifford-audit", "--max-n", "2", "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"] == {
            "pass": 15,
            "fail": 0,
            "variant-dependent": 3,
        }
        for case in payload["cases"]:
            assert case["status"] in ("pass", "variant-dependent")
            if case["status"] == "variant-dependent":
                assert case["params"]["form"] == "theorem_literal"
                assert "0" not in case["params"]["indices"]
            if (
                case["params"]["form"] == "theorem_literal"
                and "0" in case["params"]["indices"]
            ):
                assert case["status"] == "pass"

    def test_verify_all_small(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "all", "--max-n", "1", "--max-partition", "2"],
        )
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("summary:")
        assert " fail" in out.strip().splitlines()[-1]

    def test_verify_all_deterministic(self, capsys):
        argv = ["verify", "all", "--max-n", "1", "--max-partition", "2"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_threads_do_not_change_output(self, capsys):
        argv = ["verify", "all", "--max-n", "1", "--max-partition", "2"]
        _, single, _ = run_cli(capsys, argv)
        _, pooled, _ = run_cli(capsys, argv + ["--threads", "3"])
        assert single == pooled

    def test_peak_theorem_subcommand(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "peak-theorem", "--shape", "2,2"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("PASS")
        assert "shifted.peak" in lines[0]

    def test_failing_case_sets_exit_one(self, capsys, monkeypatch):
        def fake_run_audit(*args, **kwargs):
            return [AuditCase("fake.case", {"k": 1}, "fail", "boom")]

        monkeypatch.setattr("tbhl.cli_verify.run_audit", fake_run_audit)
        code, out, _ = run_cli(capsys, ["verify", "all"])
        assert code == 1
        assert "FAIL" in out

    def test_variant_dependent_does_not_fail_exit(self, capsys, monkeypatch):
        def fake_run_audit(*args, **kwargs):
            return [
                AuditCase("fake.case", {"k": 1}, "variant-dependent", "note")
            ]

        monkeypatch.setattr("tbhl.cli_verify.run_audit", fake_run_audit)
        code, _, _ = run_cli(capsys, ["verify", "all"])
        assert code == 0


class TestAuditLibrary:
    def test_sorted_and_unique_keys(self):
        cases = run_audit("all", 1, 2, 0)
        keys = [case.sort_key() for case in cases]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_every_style_of_case_present(self):
        cases = run_audit("all", 1, 2, 0)
        ids = {case.id for case in cases}
        assert {
            "families.relations",
            "families.random-convex",
            "unimodal.interval",
            "domino.counts",
            "domino.pinned-g22",
            "shifted.quotient",
            "clifford.relations",
            "clifford.audit",
            "morphisms.iso",
            "induction.family",
            "qsym.peak-valley",
            "qsym.truncations",
        } <= ids

    def test_no_failures_at_small_scale(self):
        cases = run_audit("all", 2, 4, 0)
        assert all(case.status != "fail" for case in cases)

    def test_witness_cases_pass_only_on_a_found_verdict(self, monkeypatch):
        assert [case.status for case in witness_cases()] == ["pass", "pass"]
        monkeypatch.setattr(
            "tbhl.cli_verify.find_semistandard_with_weight",
            lambda shape, weight: ("not-found", None),
        )
        weight, descents = witness_cases()
        assert (weight.status, descents.status) == ("fail", "pass")
        assert weight.details.startswith("no tableau with weight")
