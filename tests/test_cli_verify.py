"""End-to-end tests for the command-line driver."""

import dataclasses
import hashlib
import json
import math

import pytest

from tbhl import cli_verify, hecke_clifford, shifted_domino, special_families
from tbhl.cli_verify import (
    AuditCase,
    _prettify_polynomial,
    _valid_shapes,
    cases_clifford,
    cases_shifted,
    main,
    run_audit,
    witness_cases,
)
from tbhl.exact_algebra import GaussianInteger, TruncatedPolynomial
from tbhl.hecke_clifford import RES_FORMS
from tbhl.hecke_engine import NoCompositionSeries
from tbhl.qsym_typeb import QSymElement, fb_monomials, peak_function_type_b
from tbhl.shifted_domino import enumerate_shifted_tilings, iter_semistandard
from tbhl.signed_permutations import MAX_RANK


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

    def test_fb_monomials_text_readme_example(self, capsys):
        code, out, _ = run_cli(
            capsys, ["qsym", "fb", "--set", "{0,3}", "--n", "4", "--monomials"]
        )
        assert code == 0
        assert out == (
            "x1^3*x2 + x1^3*x3 + x1^3*x4 + x1^2*x2*x3 + x1^2*x2*x4 + "
            "x1^2*x3*x4 + x1*x2^2*x3 + x1*x2^2*x4 + x1*x2*x3*x4 + "
            "x1*x3^2*x4 + x2^3*x3 + x2^3*x4 + x2^2*x3*x4 + x2*x3^2*x4 + "
            "x3^3*x4\n"
        )

    def test_prettify_strips_only_unit_coefficients(self):
        assert (
            _prettify_polynomial("1*x1*x11 + 2*x1 + 1*x11 + 11*x1 + 21*x2")
            == "x1*x11 + 2*x1 + x11 + 11*x1 + 21*x2"
        )

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

    @pytest.mark.parametrize("variant", ["literal", "complemented"])
    def test_peakfn_bit_one_at_degree_zero_is_a_usage_error(self, capsys, variant):
        argv = ["qsym", "peakfn", "--peaks", "{}", "--variant", variant]
        code, out, err = run_cli(capsys, [*argv, "--bit", "1", "--n", "0"])
        assert (code, out) == (2, "")
        assert err == "error: bit 1 puts 0 in the set, so it needs n >= 1\n"
        assert run_cli(capsys, [*argv, "--bit", "1", "--n", "1"])[0] == 0
        assert run_cli(capsys, [*argv, "--bit", "0", "--n", "0"]) == (0, "1*FB{}\n", "")


class TestQsymBounds:
    DEGREE_COMMANDS = [
        ["qsym", "fb", "--set", "{}"],
        ["qsym", "fb", "--set", "{}", "--monomials", "--nvars", "1"],
        ["qsym", "delta", "--set", "{0,2,5}"],
        ["qsym", "peakfn", "--bit", "1", "--peaks", "{3,7,11}"],
    ]

    @pytest.fixture
    def refuse_to_compute(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("computation started on a rejected input")

        for name in ("fb_monomials", "peak_characteristic", "peak_function_type_b"):
            monkeypatch.setattr(cli_verify, name, refuse)
        monkeypatch.setattr(cli_verify.QSymElement, "fundamental", refuse)

    @pytest.fixture
    def stub_monomials(self, monkeypatch):
        calls = []

        def stub(subset, n, nvars):
            calls.append((n, nvars))
            return TruncatedPolynomial.zero(nvars, n)

        monkeypatch.setattr(cli_verify, "fb_monomials", stub)
        return calls

    @pytest.mark.parametrize("command", DEGREE_COMMANDS)
    def test_degree_above_its_bound_fails_before_computing(
        self, capsys, refuse_to_compute, command
    ):
        bound = cli_verify.MAX_QSYM_DEGREE
        code, out, err = run_cli(capsys, [*command, "--n", str(bound + 1)])
        assert (code, out) == (2, "")
        assert err == f"error: --n must be at most {bound}\n"

    @pytest.mark.parametrize("command", DEGREE_COMMANDS)
    def test_degree_at_its_bound_is_computed(self, capsys, command):
        code, out, err = run_cli(
            capsys, [*command, "--n", str(cli_verify.MAX_QSYM_DEGREE)]
        )
        assert (code, err) == (0, "")
        assert out.strip()

    def test_nvars_at_and_above_its_bound(self, capsys, stub_monomials):
        bound = cli_verify.MAX_QSYM_VARIABLES
        argv = ["qsym", "fb", "--set", "{}", "--n", "1", "--monomials", "--nvars"]
        assert run_cli(capsys, [*argv, str(bound)])[0] == 0
        code, out, err = run_cli(capsys, [*argv, str(bound + 1)])
        assert (code, out) == (2, "")
        assert err == f"error: --nvars must be at most {bound}\n"
        assert stub_monomials == [(1, bound)]

    def test_chain_count_at_and_above_its_bound(self, capsys, stub_monomials):
        # C(n+nvars-1, n) at n = 4 is 194,580 for 45 variables and 211,876
        # for 46, the two sides of the bound
        bound = cli_verify.MAX_MONOMIAL_CHAINS
        assert math.comb(48, 4) <= bound < math.comb(49, 4)
        argv = ["qsym", "fb", "--set", "{}", "--n", "4", "--monomials", "--nvars"]
        assert run_cli(capsys, [*argv, "45"])[0] == 0
        code, out, err = run_cli(capsys, [*argv, "46"])
        assert (code, out) == (2, "")
        assert err == f"error: --monomials needs C(n+nvars-1, n) at most {bound}\n"
        assert stub_monomials == [(4, 45)]

    def test_monomials_without_variables(self, capsys):
        argv = ["qsym", "fb", "--set", "{}", "--monomials", "--nvars", "0"]
        assert run_cli(capsys, [*argv, "--n", "0"]) == (0, "1\n", "")
        assert run_cli(capsys, [*argv, "--n", "3"]) == (0, "0\n", "")

    def test_bounds_are_stated_in_help(self, capsys):
        texts = {}
        for command in ("fb", "delta", "peakfn"):
            with pytest.raises(SystemExit):
                main(["qsym", command, "--help"])
            texts[command] = " ".join(capsys.readouterr().out.split())
            assert f"degree, at most {cli_verify.MAX_QSYM_DEGREE}" in texts[command]
        assert f"at most {cli_verify.MAX_QSYM_VARIABLES}" in texts["fb"]
        chains = f"C(n+nvars-1, n) at most {cli_verify.MAX_MONOMIAL_CHAINS}"
        assert chains in texts["fb"]


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

    # sha256 prefixes of the --json listings; the order of the tableaux is
    # part of the report, so a change of enumeration order shows here
    LISTING_DIGESTS = [
        (["domino", "sdt", "--shape", "4,4,2,2"], "7a9396d23acc7a44"),
        (["domino", "sdt", "--shape", "6,4,2"], "ee7877fc5974cec5"),
        (["shifted", "sshdt", "--shape", "8,6,4"], "e4b38034ccdd12f2"),
        (["shifted", "sshdt", "--shape", "6,6,4"], "f8ed8e890e93fd77"),
    ]

    @pytest.mark.parametrize("command, digest", LISTING_DIGESTS)
    def test_json_listing_pinned(self, capsys, command, digest):
        code, out, _ = run_cli(capsys, ["enumerate", *command, "--json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

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
        expected = sum(1 for _ in iter_semistandard((2, 2), 2))
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


class TestOutputPinned:
    # sha256 prefixes of every command's output in every mode: text, --json,
    # --monomials, --count and --count --json, and the empty listing
    OUTPUT_DIGESTS = [
        ("qsym fb --set {0,3} --n 4", "f5845edc08901a9b"),
        ("qsym fb --set {0,3} --n 4 --json", "b1573dcbd0025ada"),
        ("qsym fb --set {0,3} --n 4 --monomials", "2a85c66c0aea4fe4"),
        ("qsym delta --set {1} --n 3", "a00c693a189f6c17"),
        ("qsym delta --set {1} --n 3 --json", "25ab1b240a924ba7"),
        ("qsym delta --set {0,2} --n 3 --variant complemented", "69992734caf2c1d0"),
        ("qsym delta --set {0,2} --n 3 --variant complemented --json", "72a9bae7c9f55e6b"),
        ("qsym peakfn --bit 1 --peaks {2} --n 3", "59de577e20e924e2"),
        ("qsym peakfn --bit 1 --peaks {2} --n 3 --json", "046d27dc5a198937"),
        ("qsym peakfn --bit 0 --peaks {2} --n 3 --variant complemented", "39885f8ab7645014"),
        ("enumerate domino sdt --shape 4,2,2", "f08dd1d36935e38a"),
        ("enumerate domino sdt --shape 4,2,2 --json", "0741bb93cb0a746f"),
        ("enumerate domino sdt --shape 4,2,2 --count", "aa67a169b0bba217"),
        ("enumerate domino sdt --shape 4,2,2 --count --json", "cb73c37bbc360b07"),
        ("enumerate domino sdt --shape 3,2,1", "5dfecbf35de344dc"),
        ("enumerate shifted sshdt --shape 6,4", "852aaa40a7f436b0"),
        ("enumerate shifted sshdt --shape 6,4 --json", "a4bbf6ada6620fa2"),
        ("enumerate shifted sshdt --shape 6,4 --count", "06e9d52c1720fca4"),
        ("enumerate shifted sshdt --shape 6,4 --count --json", "fe59eef6031991ea"),
        ("enumerate shifted sshdt --shape 4,2 --maxval 2", "6764b2e364a5dbb5"),
        ("enumerate shifted sshdt --shape 4,2 --maxval 2 --json", "b90c4518b5d267d6"),
        ("enumerate shifted sshdt --shape 4,2 --maxval 2 --count", "673650f936cb3b0a"),
        (
            "enumerate shifted sshdt --shape 4,2 --maxval 2 --count --json",
            "0eb7a63c0bd907ce",
        ),
        ("enumerate shifted sshdt --shape 3,2,1", "5dfecbf35de344dc"),
        ("enumerate shifted quotient --shape 7,7,6,5,1", "9e26a134c9d9dc6f"),
        ("enumerate shifted quotient --shape 7,7,6,5,1 --json", "52a329aab4d0c045"),
        ("enumerate family dclass:{0}:2", "f32feee5db02a4b7"),
        ("enumerate family dclass:{0}:2 --json", "6ccecf2ad77a0452"),
        ("enumerate family dclass:{0}:2 --count", "1121cfccd5913f0a"),
        ("enumerate family dclass:{0}:2 --count --json", "d3f4db6a9ee4530c"),
        ("enumerate family arc:1", "4a6fea88f1f4b219"),
        ("enumerate family arc:1 --json", "5eed61f4e214f87c"),
    ]

    @pytest.mark.parametrize("command, digest", OUTPUT_DIGESTS)
    def test_output_pinned(self, capsys, command, digest):
        code, out, err = run_cli(capsys, command.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "all", "--max-n", "-1"],
            ["verify", "all", "--max-n", "7"],
            ["verify", "clifford-audit", "--max-n", "0"],
            ["enumerate", "family", "arc:9"],
            ["qsym", "fb", "--set", "{}", "--n", "-1"],
            ["qsym", "fb", "--set", "{}", "--n", "1", "--monomials", "--nvars", "-1"],
            ["verify", "all", "--max-n", "0"],
            ["verify", "clifford-audit", "--max-n", "7"],
            ["enumerate", "family", "dclass:{0}:7"],
            ["enumerate", "family", "luni:1:7:inv"],
            ["enumerate", "family", "arc:0", "--count"],
        ],
        ids=[
            "max-n-negative",
            "max-n-7",
            "clifford-max-n-0",
            "family-degree-9",
            "fb-n-negative",
            "fb-nvars-negative",
            "max-n-0",
            "clifford-max-n-7",
            "family-dclass-degree-7",
            "family-inverse-degree-7",
            "family-degree-0",
        ],
    )
    def test_bad_sizes_fail_before_any_work(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("work started on a rejected size")

        monkeypatch.setattr(cli_verify, "run_audit", refuse)
        monkeypatch.setattr(special_families, "all_elements", refuse)
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["verify", "all", "--max-n", "1"], 1),
            (["verify", "all", "--max-n", "6"], 6),
            (["verify", "clifford-audit", "--max-n", "1"], 1),
            (["verify", "clifford-audit", "--max-n", "6"], 6),
        ],
        ids=["max-n-1", "max-n-6", "clifford-max-n-1", "clifford-max-n-6"],
    )
    def test_extreme_max_n_reaches_the_audit(self, capsys, monkeypatch, argv, expected):
        seen = []

        def record(command, max_n, *args, **kwargs):
            seen.append(max_n)
            return []

        monkeypatch.setattr(cli_verify, "run_audit", record)
        code, out, err = run_cli(capsys, [*argv, "--json"])
        assert (code, err) == (0, "")
        assert seen == [expected]
        assert json.loads(out)["max_n"] == expected

    def test_largest_family_degree_is_built(self, capsys, monkeypatch):
        seen = []

        def record(n):
            seen.append(n)
            return ()

        monkeypatch.setattr(special_families, "all_elements", record)
        code, out, err = run_cli(capsys, ["enumerate", "family", "arc:6", "--count"])
        assert (code, out, err) == (0, "0\n", "")
        assert seen == [MAX_RANK] == [6]

    def test_zero_sizes_are_accepted(self, capsys):
        code, out, err = run_cli(capsys, ["qsym", "fb", "--set", "{}", "--n", "0"])
        assert (code, out, err) == (0, "1*FB{}\n", "")
        # a degree-1 function in no variables is the zero polynomial
        code, out, err = run_cli(
            capsys,
            ["qsym", "fb", "--set", "{}", "--n", "1", "--monomials", "--nvars", "0"],
        )
        assert (code, out, err) == (0, "0\n", "")

    @pytest.mark.parametrize("value", ["-3", "0", "1"])
    def test_max_partition_below_two_fails_fast(self, capsys, value):
        argv = ["verify", "all", "--max-n", "1", "--max-partition", value]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: --max-partition must be at least 2\n"

    def test_max_partition_two_runs(self, capsys):
        argv = ["verify", "all", "--max-n", "1", "--max-partition", "2", "--json"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        cases = json.loads(out)["cases"]
        assert any(case["id"].startswith("domino.") for case in cases)

    @pytest.mark.parametrize(
        "shape, maxval", [("2,2", "-1"), ("2,2", "0"), ("2,2", "3"), ("4,2", "4")]
    )
    def test_maxval_outside_one_to_dominoes_fails_fast(self, capsys, shape, maxval):
        argv = ["enumerate", "shifted", "sshdt", "--shape", shape, "--maxval", maxval]
        code, out, err = run_cli(capsys, argv)
        dominoes = sum(int(part) for part in shape.split(",")) // 2
        assert (code, out) == (2, "")
        assert err == f"error: --maxval must lie in 1..{dominoes} for shape {shape}\n"

    @pytest.mark.parametrize("shape, maxval", [("2,2", 1), ("2,2", 2), ("4,2", 3)])
    def test_maxval_at_its_bounds_enumerates(self, capsys, shape, maxval):
        argv = ["enumerate", "shifted", "sshdt", "--shape", shape]
        code, out, _ = run_cli(capsys, [*argv, "--maxval", str(maxval), "--count"])
        parts = tuple(int(part) for part in shape.split(","))
        expected = sum(1 for _ in iter_semistandard(parts, maxval))
        assert (code, out) == (0, f"{expected}\n")
        assert expected > 0

    SHAPE_BOUNDS = [
        (["enumerate", "domino", "sdt"], "MAX_STANDARD_DOMINOES"),
        (["enumerate", "shifted", "sshdt"], "MAX_STANDARD_DOMINOES"),
        (["enumerate", "shifted", "sshdt", "--maxval", "1"], "MAX_SEMISTANDARD_DOMINOES"),
        (["verify", "peak-theorem"], "MAX_PEAK_THEOREM_DOMINOES"),
    ]

    @pytest.mark.parametrize("command, bound", SHAPE_BOUNDS)
    def test_shape_above_its_bound_fails_before_enumerating(
        self, capsys, monkeypatch, command, bound
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("enumeration started on a rejected shape")

        refused = (
            "enumerate_sdt", "enumerate_shifted", "iter_semistandard",
            "_count_tableaux", "run_audit",
        )
        for name in refused:
            monkeypatch.setattr(cli_verify, name, refuse)
        dominoes = getattr(cli_verify, bound)
        argv = [*command, "--shape", str(2 * dominoes + 2)]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: --shape has more than {dominoes} dominoes\n"

    @pytest.mark.parametrize("command, bound", SHAPE_BOUNDS)
    def test_shape_at_its_bound_is_enumerated(self, capsys, command, bound):
        # a single row: the largest shape the bound admits, with few tableaux
        shape = str(2 * getattr(cli_verify, bound))
        extra = ["--count"] if command[0] == "enumerate" else []
        code, out, err = run_cli(capsys, [*command, "--shape", shape, *extra])
        assert (code, err) == (0, "")
        assert int(out) > 0 if extra else out.startswith("PASS")

    def test_bounds_are_stated_in_help(self, capsys):
        for command, bound in self.SHAPE_BOUNDS:
            with pytest.raises(SystemExit):
                main([*command, "--help"])
            text = " ".join(capsys.readouterr().out.split())
            assert f"at most {getattr(cli_verify, bound)} dominoes" in text or (
                f"{getattr(cli_verify, bound)} with --maxval" in text
            )

    @pytest.mark.parametrize(
        "extra", [[], ["--count"], ["--maxval", "1"], ["--maxval", "1", "--count"]]
    )
    def test_shifted_shape_with_bad_quotient(self, capsys, extra):
        argv = ["enumerate", "shifted", "sshdt", "--shape", "2,1,1", *extra]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: shape (2, 1, 1) has an invalid 2-quotient\n"


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

    def test_default_report_pinned(self, capsys):
        # sha256 prefix of ``tbhl verify all --json`` at its defaults, the
        # report the default-audit benchmark workload runs
        code, out, _ = run_cli(capsys, ["verify", "all", "--json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == "ae62fa1bd042a3e7"

    def test_rank5_report_pinned(self, capsys):
        # sha256 prefix of the scaled audit the rank-5 benchmark workload
        # runs; it builds every induced module of ranks 1-5
        argv = ["verify", "all", "--max-n", "5", "--max-partition", "6", "--json"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == "09aa4a317e8d6bf3"

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["verify", "all"], "21d6a0ac5fd439c7"),
            (["verify", "clifford-audit", "--max-n", "4", "--json"], "a7fdab5cb33d1db2"),
            (
                ["verify", "all", "--max-n", "6", "--max-partition", "6", "--json"],
                "7c4ba26df620d3d9",
            ),
        ],
    )
    def test_other_reports_pinned(self, capsys, argv, digest):
        # sha256 prefixes of the text audit, of the rank-4 Clifford audit and
        # of the rank-6 audit
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    def test_verify_all_deterministic(self, capsys):
        argv = ["verify", "all", "--max-n", "1", "--max-partition", "2"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_peak_theorem_subcommand(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "peak-theorem", "--shape", "2,2"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("PASS")
        assert "shifted.peak" in lines[0]

    def test_peak_theorem_takes_no_max_n(self, capsys):
        # one shape is checked, so a rank bound would change nothing
        with pytest.raises(SystemExit) as exc:
            main(["verify", "peak-theorem", "--shape", "2,2", "--max-n", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-n 3" in capsys.readouterr().err
        code, out, _ = run_cli(
            capsys, ["verify", "peak-theorem", "--shape", "2,2", "--json"]
        )
        assert code == 0
        assert set(json.loads(out)) == {"cases", "command", "summary"}

    def test_failing_case_sets_exit_one(self, capsys, monkeypatch):
        def fake_run_audit(*args, **kwargs):
            return [AuditCase("fake.case", {"k": 1}, "fail", "boom")]

        monkeypatch.setattr("tbhl.cli_verify.run_audit", fake_run_audit)
        code, out, _ = run_cli(capsys, ["verify", "all"])
        assert code == 1
        assert "FAIL" in out

    def test_case_table_fault_fails_clifford_diagonal(self, capsys, monkeypatch):
        table_column = hecke_clifford._ribbon_table_column

        def one_sign_flipped(i, index_set, subset):
            column = table_column(i, index_set, subset)
            if (i, index_set, subset) != (0, frozenset({0}), ()):
                return column
            minus_one = GaussianInteger.integer(-1)
            return tuple((target, value * minus_one) for target, value in column)

        monkeypatch.setattr(
            hecke_clifford, "_ribbon_table_column", one_sign_flipped
        )
        statuses = {
            (case.id, case.params["degree"]): case.status
            for case in cases_clifford(2)
        }
        assert statuses.pop(("clifford.diagonal", 1)) == "fail"
        assert statuses.pop(("clifford.diagonal", 2)) == "fail"
        assert set(statuses.values()) == {"pass"}
        code, out, err = run_cli(
            capsys, ["verify", "all", "--max-n", "2", "--max-partition", "2"]
        )
        assert code == 1
        assert err == ""
        failing = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert [line.split()[1] for line in failing] == ["clifford.diagonal"] * 2

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

    def test_one_restriction_characteristic_per_index_set(self, cleared_caches):
        # the three Clifford sections read hecke_clifford's one characteristic
        # per (I, n): clifford.restriction and morphisms.iso once each, and
        # clifford.audit once per closed form
        run_audit("all", max_n=3, max_partition=6, seed=0)
        info = hecke_clifford.restriction_characteristic.cache_info()
        assert info.misses == 2 + 4 + 8
        assert info.hits == (1 + len(RES_FORMS)) * (2 + 4 + 8)

    def test_relation_suite_runs_once_per_index_set(self, monkeypatch):
        # build_MI builds a new module on every call, and the relation suite
        # runs once on one module per (I, n)
        checked = []

        def counting(module):
            checked.append((frozenset(module.labels[0][1]), module.rank))
            return hecke_clifford.verify_hcl_relations(module)

        monkeypatch.setattr("tbhl.cli_verify.verify_hcl_relations", counting)
        run_audit("all", max_n=3, max_partition=6, seed=0)
        assert len(checked) == 2 + 4 + 8
        assert len(set(checked)) == len(checked)

    def test_one_walk_per_shifted_tiling(self, monkeypatch, cleared_caches):
        # the stand check's walk also gives H_lambda's monomial sum, so each
        # tiling of a checked shape is walked once; the weight witness adds one
        walks = []
        code_walk = shifted_domino._code_walk

        def counting(tiling, *args):
            walks.append(tiling)
            return code_walk(tiling, *args)

        monkeypatch.setattr(shifted_domino, "_code_walk", counting)
        cases_shifted(10)
        tilings = [
            tiling
            for shape in _valid_shapes(8)
            for tiling in enumerate_shifted_tilings(shape)
        ]
        assert len(tilings) == 12
        assert len(walks) == len(tilings) + 1

    def test_cache_sweep_leaves_no_stale_result(self, monkeypatch, cleared_caches):
        # a fault injected after a full run and a sweep reaches every case
        # that reads the faulted tables; a cache the sweep misses would serve
        # the clean run's results instead
        run_audit("all", 3, 6, 0)
        cleared_caches()
        pi_commute = hecke_clifford.pi_commute

        def dropped_term(i, word):
            # pi_1 c_1 c_2 loses its c_1 c_2 term
            terms = pi_commute(i, word)
            if (i, word) != (1, (1, 2)):
                return terms
            return tuple(term for term in terms if term[0] != word)

        monkeypatch.setattr(hecke_clifford, "pi_commute", dropped_term)
        failing = {
            case.id for case in run_audit("all", 3, 6, 0) if case.status == "fail"
        }
        assert failing == {
            "clifford.audit", "clifford.diagonal", "clifford.relations",
            "clifford.restriction", "induction.conjugate", "induction.family",
            "morphisms.intertwiner", "morphisms.iso",
        }

    def test_no_composition_series_fails_the_cases_that_read_one(
        self, capsys, monkeypatch, cleared_caches
    ):
        # every module the audit reads a characteristic of has no series: the
        # report keeps every case, and each reading case fails with the reason
        _, out, _ = run_cli(capsys, ["verify", "all", "--json"])
        clean = json.loads(out)["cases"]
        cleared_caches()

        def no_series(*args):
            raise NoCompositionSeries("support digraph is cyclic")

        for name in (
            "characteristic_by_composition_series",
            "restriction_characteristic",
            "induce_and_restrict",
        ):
            monkeypatch.setattr(cli_verify, name, no_series)
        code, out, err = run_cli(capsys, ["verify", "all", "--json"])
        assert (code, err) == (1, "")
        cases = json.loads(out)["cases"]
        assert [(c["id"], c["params"]) for c in cases] == [
            (c["id"], c["params"]) for c in clean
        ]
        failing = [c for c in cases if c["status"] == "fail"]
        assert {c["id"] for c in failing} == {
            "clifford.audit", "clifford.restriction", "domino.modules",
            "families.random-convex", "families.relations", "induction.conjugate",
            "induction.family", "morphisms.iso",
        }
        assert {c["details"] for c in failing} == {"support digraph is cyclic"}
        assert all(c["status"] != "variant-dependent" for c in cases)

    def test_witness_cases_pass_only_on_a_found_verdict(self, monkeypatch):
        assert [case.status for case in witness_cases()] == ["pass", "pass"]
        monkeypatch.setattr(
            "tbhl.cli_verify.find_semistandard_with_weight",
            lambda shape, weight: ("not-found", None),
        )
        weight, descents = witness_cases()
        assert (weight.status, descents.status) == ("fail", "pass")
        assert weight.details.startswith("no tableau with weight")

    def test_failing_report_pinned(self, monkeypatch, cleared_caches):
        # every check is faked to fail, so each case builds its failing
        # details; the sha256 prefix pins those texts as the passing
        # reports' prefixes pin theirs
        enumerate_sdt = cli_verify.enumerate_sdt
        peak_data = cli_verify.peak_data
        iso_predicate = cli_verify.iso_predicate
        faked = {
            "verify_relations": lambda ops: {"failed": {"kind": "quadratic", "i": 0}},
            "verify_hcl_relations": lambda module: {"failed": {"kind": "braid"}},
            "brute_force_sdt": lambda shape: (),
            "unimodal_interval": lambda i, n, variant: (),
            # no tableau of (5,4,4,1), the pinned-descents shape, and only there
            "enumerate_sdt": lambda shape: (
                () if shape == (5, 4, 4, 1) else enumerate_sdt(shape)
            ),
            "smallest_non_convex_arc_degree": lambda max_degree: None,
            # one failure, with the true compared count and monomial sum, so
            # the details are unchanged and h-modes still passes
            "stand_theorem_check": lambda shape, nvars: (
                1, *shifted_domino.stand_theorem_check(shape, nvars)[1:]
            ),
            "verify_peak_theorem": lambda standard, variant: False,
            "find_semistandard_with_weight": lambda shape, weight: ("not-found", None),
            "find_standard_with_descents": lambda shape, descents: ("not-found", None),
            "res_MI_formula": lambda index_set, n, form: QSymElement.zero(n),
            # depends on the barred set, so adding a valley changes it
            "k_set": lambda index_set, subset, n: frozenset(subset),
            # one zero indicator too many, so no valley count matches
            "peak_data": lambda subset, n: dataclasses.replace(
                peak_data(subset, n), zeta=peak_data(subset, n).zeta + 1
            ),
            "iso_predicate": lambda first, second, n: not iso_predicate(
                first, second, n
            ),
            # never commutes
            "build_intertwiner": lambda index_set, k, n: (
                hecke_clifford.IntertwinerResult(None, False, True)
            ),
            "centralizer_check": lambda index_set, n: (),
            "induce_and_restrict": lambda base: (
                QSymElement.fundamental((), base.rank),
                QSymElement.zero(base.rank),
            ),
            "fb_truncations_linearly_independent": lambda n, nvars: False,
        }
        for name, fake in faked.items():
            monkeypatch.setattr(cli_verify, name, fake)
        cases = run_audit("all", 3, 10, 0)
        header = {"command": "verify all", "max_n": 3}
        out = cli_verify.render_report(cases, True, header)
        failing = {case.id for case in cases if case.status == "fail"}
        assert failing >= {
            "arc.non-convex", "clifford.diagonal", "clifford.relations",
            "clifford.restriction", "clifford.valley-stability", "domino.counts",
            "domino.modules", "domino.pinned-descents", "families.random-convex",
            "families.relations", "induction.conjugate", "induction.family",
            "morphisms.centralizer", "morphisms.intertwiner", "morphisms.iso",
            "qsym.peak-valley", "qsym.truncations", "shifted.peak",
            "shifted.stand", "shifted.witness-descents", "shifted.witness-weight",
            "unimodal.interval",
        }
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == "1e27fb2289f2455c"
