import json
import pathlib

import pytest

from stochord import suites as suites_mod
from stochord.cli import main


BIN_18 = '{"family":"binomial","n":18,"p":"1/2"}'
HYP_SMALL = '{"family":"hypergeometric","B":21,"W":23,"n":22}'
HYP_A = '{"family":"hypergeometric","B":400,"W":509,"n":500}'
HYP_B = '{"family":"hypergeometric","B":310,"W":710,"n":700}'

# argv, exit code and stdout of explain (every ordered family pair, plus the
# Bernoulli-convolution pairs) and of couple (every method), as printed
# before the families took over their own behaviour
PINNED_CLI = json.loads((pathlib.Path(__file__).parent / "pinned_cli.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecide:
    def test_ordered_pair(self, capsys):
        code, out, _ = run_cli(capsys, "decide", BIN_18, HYP_SMALL)
        payload = json.loads(out)
        assert code == 0
        assert payload["relation"] == "le_st"

    def test_identical_specs_equal(self, capsys):
        code, out, _ = run_cli(capsys, "decide", BIN_18, BIN_18)
        assert code == 0
        assert json.loads(out)["relation"] == "equal"

    def test_counterexample_incomparable_with_witnesses(self, capsys):
        code, out, _ = run_cli(capsys, "decide", HYP_A, HYP_B)
        payload = json.loads(out)
        assert code == 0
        assert payload["relation"] == "incomparable"
        assert set(payload["witnesses"]) == {"k_minus", "k_plus"}

    def test_malformed_input_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "decide", "{not json", BIN_18)
        assert code == 2
        assert err

    def test_bad_family_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "decide", '{"family":"cauchy"}', BIN_18)
        assert code == 2

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "decide", HYP_A, HYP_B)
        _, second, _ = run_cli(capsys, "decide", HYP_A, HYP_B)
        assert first == second


class TestExplain:
    def test_report_contains_profile_value(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "explain",
            HYP_SMALL,
            '{"family":"binomial","n":18,"p":"0.5106"}',
        )
        assert code == 0
        assert "lambda(13) = 2.04904" in out
        assert "relation: incomparable" in out

    def test_report_names_closed_form_case(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "explain",
            '{"family":"binomial","n":2,"p":"1/2"}',
            '{"family":"binomial","n":3,"p":"2/5"}',
        )
        assert code == 0
        assert "binomial_binomial" in out
        assert "left_tail: holds" in out
        assert "right_tail: holds" in out

    def test_bc_vectors_report_product_criteria(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "explain",
            '{"family":"poisson_binomial","p":["1/5","1/10"]}',
            '{"family":"poisson_binomial","p":["3/5","1/2"]}',
        )
        assert code == 0
        assert "Bernoulli-convolution products" in out

    def test_bc_vs_binomial_reports_extreme_mass(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "explain",
            '{"family":"poisson_binomial","p":["9/10","1/10"]}',
            '{"family":"binomial","n":2,"p":"7/10"}',
        )
        assert code == 0
        assert "extreme-mass criteria" in out


class TestCouple:
    def test_quantile_identical_specs(self, capsys):
        code, out, _ = run_cli(
            capsys, "couple", BIN_18, BIN_18, "--method", "quantile", "--samples", "50"
        )
        assert code == 0
        lines = out.strip().splitlines()
        footer = json.loads(lines[-1])
        assert footer["violations"] == 0
        rows = [json.loads(line) for line in lines[:-1]]
        assert len(rows) == 50
        assert all(r["x1"] == r["x2"] for r in rows)

    def test_explicit_method(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "couple",
            '{"family":"binomial","n":2,"p":"1/2"}',
            '{"family":"binomial","n":4,"p":0.2928932188134524}',
            "--method",
            "explicit",
            "--samples",
            "200",
            "--seed",
            "7",
        )
        assert code == 0
        footer = json.loads(out.strip().splitlines()[-1])
        assert footer["violations"] == 0
        assert footer["seed"] == 7

    def test_precondition_failure_is_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "couple",
            '{"family":"binomial","n":4,"p":"1/2"}',
            '{"family":"binomial","n":2,"p":"1/2"}',
            "--method",
            "explicit",
            "--samples",
            "10",
        )
        assert code == 2
        assert "n1 <= n2" in err

    def test_wrong_family_for_method_is_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "couple", BIN_18, HYP_SMALL, "--method", "levy", "--samples", "10"
        )
        assert code == 2

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("STOCHORD_SEED", "12345")
        _, with_env, _ = run_cli(
            capsys, "couple", BIN_18, BIN_18, "--method", "quantile", "--samples", "20"
        )
        monkeypatch.delenv("STOCHORD_SEED")
        _, default_seed, _ = run_cli(
            capsys, "couple", BIN_18, BIN_18, "--method", "quantile", "--samples", "20"
        )
        _, explicit, _ = run_cli(
            capsys,
            "couple",
            BIN_18,
            BIN_18,
            "--method",
            "quantile",
            "--samples",
            "20",
            "--seed",
            "12345",
        )
        assert with_env == explicit
        assert with_env != default_seed

    def test_trace_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "couple",
            '{"family":"negbinomial","r":"1","p":"0.6"}',
            '{"family":"negbinomial","r":"1","p":"0.5"}',
            "--method",
            "levy",
            "--samples",
            "5",
            "--trace",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()[:-1]]
        assert all("trace" in r for r in rows)


class TestOracleCommand:
    def test_exact_report(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", HYP_A, HYP_B)
        payload = json.loads(out)
        assert code == 0
        assert payload["relation"] == "incomparable"
        assert payload["crossings"] == [45]
        assert payload["mode"] == "exact"

    def test_truncated_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "oracle",
            '{"family":"poisson","lambda":"1"}',
            '{"family":"poisson","lambda":"2"}',
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["relation"] == "le_st"
        assert "k_cap" in payload["mode"]


class TestVerify:
    def test_unknown_suite_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "nonsense")
        assert code == 2
        assert "available" in err

    def test_box_joint_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "box-joint")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines[-1]["passed"] == lines[-1]["total"]

    def test_counterexamples_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "counterexamples")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["passed"] == summary["total"]

    def test_counterexamples_suite_reports_known_failures(self, capsys, monkeypatch):
        # a failing check is reported in its line and in the summary, and
        # the run exits 1
        failing = [
            suites_mod.CheckResult("criterion-x ok", True),
            suites_mod.CheckResult("criterion-x broken", False, "off by one"),
        ]
        monkeypatch.setattr(suites_mod, "run_suite", lambda tag: failing)
        code, out, _ = run_cli(capsys, "verify", "--suite", "counterexamples")
        assert code == 1
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines[1] == {"check": "criterion-x broken", "pass": False, "detail": "off by one"}
        summary = lines[-1]
        assert summary["total"] - summary["passed"] == 1


class TestOutputFile:
    def test_decide_writes_file(self, capsys, tmp_path):
        target = tmp_path / "verdict.json"
        code = main(["decide", BIN_18, HYP_SMALL, "--output", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["relation"] == "le_st"
        assert capsys.readouterr().out == ""

    def test_verify_writes_file(self, tmp_path):
        target = tmp_path / "suite.jsonl"
        code = main(["verify", "--suite", "box-joint", "--output", str(target)])
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert json.loads(lines[-1])["passed"] == 1


@pytest.mark.parametrize(
    "case", PINNED_CLI, ids=[f"{i}-{c['argv'][0]}" for i, c in enumerate(PINNED_CLI)]
)
def test_pinned_cli_output(case, capsys):
    code, out, _ = run_cli(capsys, *case["argv"])
    assert (code, out) == (case["code"], case["stdout"])


class TestInputErrors:
    @pytest.mark.parametrize(
        "spec, message",
        [
            ('{"family":"poisson_binomial","p":5}', "must be a list"),
            ('{"family":"negbinomial","r":Infinity,"p":"1/2"}', "r must be positive and finite"),
            ('{"family":"poisson","lambda":Infinity}', "lambda must be positive and finite"),
        ],
    )
    def test_malformed_spec_is_exit_2(self, capsys, spec, message):
        code, out, err = run_cli(capsys, "decide", spec, '{"family":"binomial","n":4,"p":"1/2"}')
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["decide", BIN_18, HYP_SMALL, "--k-cap", "-5"],
            ["explain", BIN_18, HYP_SMALL, "--epsilon", "-1"],
            ["oracle", BIN_18, HYP_SMALL, "--epsilon", "nan"],
            ["explain", BIN_18, HYP_SMALL, "--profile-rows", "-2"],
            ["couple", BIN_18, BIN_18, "--method", "quantile", "--samples", "-3"],
        ],
    )
    def test_out_of_range_option_is_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be nonnegative" in captured.err

    def test_non_integer_option_keeps_its_message(self, capsys):
        with pytest.raises(SystemExit):
            main(["decide", BIN_18, HYP_SMALL, "--k-cap", "x"])
        assert "invalid int value: 'x'" in capsys.readouterr().err

    def test_zero_is_in_range(self, capsys):
        code, out, _ = run_cli(capsys, "decide", BIN_18, HYP_SMALL, "--k-cap", "0", "--epsilon", "0")
        assert code == 0 and json.loads(out)["relation"] == "le_st"
        code, out, _ = run_cli(capsys, "couple", BIN_18, BIN_18, "--method", "quantile", "--samples", "0")
        assert code == 0 and json.loads(out)["n"] == 0
