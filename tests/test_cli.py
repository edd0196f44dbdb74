import csv
import inspect
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from cdna import cli, codes, construct_grid_code, enumerate_observed, evaluate_code
from cdna.cli import main
from cdna.coverage import DEFAULT_TOL, expected_coverage, expected_coverage_partial
from cdna.simulate import DEFAULT_MAX_TRANSMISSIONS


def run_cli(*args, env=None):
    runner = CliRunner()
    return runner.invoke(main, args, env=env, catch_exceptions=False)


def parse_csv(output):
    rows = list(csv.DictReader(io.StringIO(output)))
    assert rows, output
    return rows


def run_range_in_subprocess(spec, **env_vars):
    """``cdna coverage --range SPEC`` in a subprocess, under a timeout and a 512 MB
    address-space limit, so that a sweep that never ends or grows without bound fails fast."""
    import resource

    limit = 512 << 20
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **env_vars)
    return subprocess.run(
        [sys.executable, "-m", "cdna.cli", "coverage", "--range", spec, "--omega", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


class TestCoverageCommand:
    def test_single_value(self):
        result = run_cli("coverage", "--ell", "1", "--omega", "2")
        assert result.exit_code == 0
        row = parse_csv(result.output)[0]
        assert float(row["expected"]) == pytest.approx(3.0, abs=1e-9)

    def test_trivial_support(self):
        result = run_cli("coverage", "--ell", "4", "--omega", "1")
        assert float(parse_csv(result.output)[0]["expected"]) == 1.0

    def test_range_with_bounds(self):
        result = run_cli("coverage", "--range", "1:1024:*2", "--omega", "2", "--bounds")
        rows = parse_csv(result.output)
        assert len(rows) == 11
        for row in rows:
            assert float(row["lower"]) <= float(row["expected"]) <= float(row["upper"])

    def test_arithmetic_range(self):
        result = run_cli("coverage", "--range", "1:5:2", "--omega", "2")
        assert [r["ell"] for r in parse_csv(result.output)] == ["1", "3", "5"]

    @pytest.mark.parametrize(
        "spec, code",
        [
            ("0:8:*2", 2),
            ("-1:8:*2", 2),
            ("0:5:1", 2),
            ("1:1000000000000:1", 3),
            (f"1:{10**30}:1", 3),
            ("1:10001:1", 3),
            (f"1:{10**4000}:*2", 3),
        ],
    )
    def test_range_refusals_return(self, spec, code):
        # each grew a list without end or built the whole sweep first
        proc = run_range_in_subprocess(spec)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == ""

    def test_geometric_range_stops_past_the_cap(self):
        # with no limit on int digits, END may have 100,001 digits: about 332,000 doublings,
        # whose growing ints would fill the memory limit if the loop ran to END
        proc = run_range_in_subprocess(f"1:1{'0' * 100000}:*2", PYTHONINTMAXSTRDIGITS="0")
        assert proc.returncode == 3, proc.stderr

    def test_range_of_the_most_lengths(self):
        assert len(cli._parse_range(f"1:{cli._MAX_RANGE_LENGTHS}:1")) == cli._MAX_RANGE_LENGTHS
        assert len(cli._parse_range(f"1:{2 ** (cli._MAX_RANGE_LENGTHS - 1)}:*2")) == cli._MAX_RANGE_LENGTHS

    def test_requires_exactly_one_selector(self):
        assert run_cli("coverage", "--omega", "2").exit_code == 2
        assert run_cli("coverage", "--ell", "1", "--range", "1:2:1", "--omega", "2").exit_code == 2

    def test_bounds_with_omega_one_is_usage_error(self):
        assert run_cli("coverage", "--ell", "1", "--omega", "1", "--bounds").exit_code == 2

    def test_large_support_single_index(self):
        # one index is the coupon collector: omega * H_omega
        result = run_cli("coverage", "--ell", "1", "--omega", "2000")
        assert result.exit_code == 0
        assert float(parse_csv(result.output)[0]["expected"]) == pytest.approx(coupon_collector(2000), rel=1e-11)

    def test_large_support_beyond_the_work_cap(self):
        result = run_cli("coverage", "--ell", "2", "--omega", "2000")
        assert result.exit_code == 3
        assert result.stderr.startswith("error:") and "simulator" in result.stderr


def coupon_collector(omega):
    return float(omega * sum(Fraction(1, i) for i in range(1, omega + 1)))


class TestPartialCommand:
    def test_values(self):
        row = parse_csv(run_cli("partial", "--ell", "2", "--omega", "2", "--r", "1").output)[0]
        assert float(row["expected"]) == pytest.approx(7 / 3, abs=1e-9)
        assert float(row["subset_bound"]) == pytest.approx(3.0, abs=1e-9)

    def test_full_threshold(self):
        row = parse_csv(run_cli("partial", "--ell", "2", "--omega", "2", "--r", "2").output)[0]
        assert float(row["expected"]) == pytest.approx(11 / 3, abs=1e-9)

    def test_threshold_above_length_is_usage_error(self):
        assert run_cli("partial", "--ell", "3", "--omega", "2", "--r", "4").exit_code == 2

    def test_cap_exit_code(self):
        # the chain's work cap: omega = 2000 needs about 10^8 state updates
        result = run_cli("partial", "--ell", "3", "--omega", "2000", "--r", "2")
        assert result.exit_code == 3
        assert result.stderr.startswith("error:") and "simulator" in result.stderr

    def test_many_threshold_sets_answer(self):
        # C(20, 10) = 184756 threshold sets; the chain sums binomial terms instead
        result = run_cli("partial", "--ell", "20", "--omega", "2", "--r", "10")
        assert result.exit_code == 0
        assert float(parse_csv(result.output)[0]["expected"]) == pytest.approx(2.41585018952, rel=1e-11)


class TestRaCommand:
    def test_values(self):
        assert float(
            parse_csv(run_cli("ra", "--ell", "1", "--omega", "2", "--k", "2").output)[0]["expected"]
        ) == pytest.approx(6.0, abs=1e-9)
        assert float(
            parse_csv(run_cli("ra", "--ell", "2", "--omega", "2", "--k", "3").output)[0]["expected"]
        ) == pytest.approx(11.0, abs=1e-9)

    def test_single_sequence(self):
        assert float(
            parse_csv(run_cli("ra", "--ell", "2", "--omega", "2", "--k", "1").output)[0]["expected"]
        ) == pytest.approx(11 / 3, abs=1e-9)

    def test_large_support_single_index(self):
        result = run_cli("ra", "--ell", "1", "--omega", "2000", "--k", "1")
        assert result.exit_code == 0
        assert float(parse_csv(result.output)[0]["expected"]) == pytest.approx(coupon_collector(2000), rel=1e-11)

    def test_k_beyond_the_float_range_exits_3(self):
        # k * E(2, 2) overflows: an int k above the float range, and one just below it
        for k in (10**400, 10**308):
            result = run_cli("ra", "--ell", "2", "--omega", "2", "--k", str(k))
            assert result.exit_code == 3
            assert result.stdout == ""
            assert result.stderr.startswith("error:") and "float" in result.stderr


class TestSimCommand:
    def test_recovery_agrees_with_formula(self):
        result = run_cli(
            "sim", "--mode", "recovery", "--ell", "1", "--omega", "2",
            "--trials", "20000", "--seed", "7",
        )
        row = parse_csv(result.output)[0]
        assert abs(float(row["mean"]) - 3.0) <= 3 * float(row["std_error"])
        assert row["truncated_trials"] == "0"

    def test_max_transmissions_default_is_the_library_default(self):
        option = next(p for p in main.commands["sim"].params if p.name == "max_transmissions")
        assert option.default == DEFAULT_MAX_TRANSMISSIONS
        for command, function in (("coverage", expected_coverage), ("partial", expected_coverage_partial)):
            tol = next(p for p in main.commands[command].params if p.name == "tol")
            assert tol.default == DEFAULT_TOL == inspect.signature(function).parameters["tol"].default

    def test_byte_identical_reruns(self):
        args = ("sim", "--mode", "ra", "--ell", "1", "--omega", "2", "--k", "2",
                "--trials", "2000", "--seed", "99")
        assert run_cli(*args).output == run_cli(*args).output

    def test_mode_flag_validation(self):
        assert run_cli("sim", "--mode", "partial", "--ell", "2", "--omega", "2",
                       "--trials", "10", "--seed", "1").exit_code == 2
        assert run_cli("sim", "--mode", "recovery", "--ell", "2", "--omega", "2",
                       "--r", "1", "--trials", "10", "--seed", "1").exit_code == 2
        assert run_cli("sim", "--mode", "recovery", "--ell", "2", "--omega", "2",
                       "--k", "2", "--trials", "10", "--seed", "1").exit_code == 2

    def test_strict_truncation_exit_code(self):
        result = run_cli(
            "sim", "--mode", "recovery", "--ell", "1", "--omega", "2",
            "--trials", "50", "--seed", "3", "--max-transmissions", "1", "--strict",
        )
        assert result.exit_code == 4
        row = parse_csv(result.output.splitlines()[0] + "\n" + result.output.splitlines()[1])[0]
        assert row["truncated_trials"] == "50"

    def test_truncation_without_strict_succeeds(self):
        result = run_cli(
            "sim", "--mode", "recovery", "--ell", "1", "--omega", "2",
            "--trials", "50", "--seed", "3", "--max-transmissions", "1",
        )
        assert result.exit_code == 0

    @pytest.mark.parametrize(
        "size", [("--ell", "10000000000000", "--trials", "1"), ("--ell", "2", "--trials", "10000000000000")]
    )
    def test_arrays_beyond_the_simulator_caps_exit_code(self, size):
        # refused before anything is allocated: the first once died with
        # "Unable to allocate 72.8 TiB" and exit 1
        result = run_cli("sim", "--mode", "recovery", *size, "--omega", "2", "--seed", "1")
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1

    def test_omega_beyond_bitmask_width_exit_code(self):
        result = run_cli("sim", "--ell", "1", "--omega", "65", "--trials", "1", "--seed", "0")
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1


class TestCodeEvalCommand:
    def test_counterexample(self):
        rows = parse_csv(run_cli("code-eval", "--code", "0.4,0.5,0.6", "--n", "10").output)
        summary = rows[-1]
        assert float(summary["f_min"]) == pytest.approx(0.246, abs=5e-4)
        symbol_rows = [r for r in rows if r["kind"] == "symbol"]
        assert float(symbol_rows[0]["p_succ"]) == pytest.approx(0.633, abs=5e-4)

    def test_family_spec(self):
        rows = parse_csv(run_cli("code-eval", "--code", "qplus1:q=2", "--n", "3").output)
        assert float(rows[-1]["f_min"]) == pytest.approx(0.75, abs=1e-12)

    def test_general_spec(self):
        rows = parse_csv(
            run_cli("code-eval", "--code", "q=3; 1 0 0|0 1 0|0 0 1", "--n", "2").output
        )
        assert float(rows[-1]["f_min"]) == 1.0

    def test_table_decoder(self, tmp_path):
        table = tmp_path / "dprime.json"
        table.write_text(json.dumps({"0,10": 1}))
        rows = parse_csv(
            run_cli(
                "code-eval", "--code", "0.4,0.5,0.6", "--n", "10",
                "--decoder", f"table:{table}",
            ).output
        )
        assert float(rows[-1]["f_min"]) == pytest.approx(0.247, abs=5e-4)

    @pytest.mark.parametrize("content", ["[1]", '"0,2"', "3", "null"])
    def test_table_that_is_not_an_object_is_usage_error(self, tmp_path, content):
        table = tmp_path / "t.json"
        table.write_text(content)
        result = run_cli("code-eval", "--code", "0.4,0.6", "--n", "2", "--decoder", f"table:{table}")
        assert result.exit_code == 2
        assert "must hold a JSON object" in result.output

    # the first seven once read as a count vector through int(), each as the
    # override (0, 10) ("0,١٠" in Arabic-Indic digits); the rest were refused already
    @pytest.mark.parametrize(
        "key", ["0,1_0", " 0,10", "0,10 ", "0, 10", "+0,10", "0,+10", "0,١٠", "0,10.0", "0,,10", "", "0,-0,10"]
    )
    def test_table_key_must_be_ascii_digits(self, tmp_path, key):
        table = tmp_path / "t.json"
        table.write_text(json.dumps({key: 1}))
        result = run_cli("code-eval", "--code", "0.4,0.5,0.6", "--n", "10", "--decoder", f"table:{table}")
        assert result.exit_code == 2
        assert "bad count-vector key" in result.output

    @pytest.mark.parametrize("value", ["true", "false"])
    def test_table_boolean_is_not_a_codeword_index(self, tmp_path, value):
        table = tmp_path / "t.json"
        table.write_text('{"0,2": %s}' % value)
        result = run_cli("code-eval", "--code", "0.4,0.6", "--n", "2", "--decoder", f"table:{table}")
        assert result.exit_code == 2
        assert "must be a codeword index" in result.output

    def test_spec_from_file(self, tmp_path):
        spec_file = tmp_path / "code.txt"
        spec_file.write_text("0.4,0.5,0.6\n")
        rows = parse_csv(run_cli("code-eval", "--code", str(spec_file), "--n", "10").output)
        assert float(rows[-1]["f_min"]) == pytest.approx(0.246, abs=5e-4)

    def test_malformed_spec_reports_position(self):
        result = run_cli("code-eval", "--code", "0.4,oops,0.6", "--n", "10")
        assert result.exit_code == 2
        assert "position" in result.output

    def test_unsupported_range_exit_code(self):
        result = run_cli(
            "code-eval", "--code", "0.4,0.6", "--n", "100",
            env={"CDNA_MAX_ENUM": "10"},
        )
        assert result.exit_code == 3

    def test_family_spec_over_the_cap_exits_as_design_does(self):
        env = {"CDNA_MAX_ENUM": "10"}
        spec = run_cli("code-eval", "--code", "omega:n=20,q=3", "--n", "2", env=env)
        design = run_cli("design", "--family", "omega", "--n", "20", "--q", "3", env=env)
        assert spec.exit_code == design.exit_code == 3
        assert spec.stderr == design.stderr == "error: |grid(n=20, q=3)| = 231 exceeds the cap 10; lower n or q\n"


class TestDesignCommand:
    def test_binary4(self):
        rows = parse_csv(run_cli("design", "--family", "binary4", "--n", "3").output)
        assert float(rows[0]["alpha"]) == pytest.approx(1 / 3, abs=1e-9)
        assert rows[0]["code"].split("|")[1] == "0.333333333333"

    def test_binary4_verify_grid(self):
        rows = parse_csv(
            run_cli("design", "--family", "binary4", "--n", "3", "--verify-grid", "1e-3").output
        )
        verify = rows[-1]
        assert verify["kind"] == "design-verify"
        assert float(verify["alpha_delta"]) <= 1.5e-3

    def test_omega_family(self):
        rows = parse_csv(run_cli("design", "--family", "omega", "--n", "2", "--q", "2").output)
        assert float(rows[0]["f_min"]) == pytest.approx(0.5, abs=1e-12)
        assert float(rows[0]["f_avg"]) == pytest.approx(5 / 6, abs=1e-12)

    def test_omega_family_agrees_with_evaluate_code(self):
        for q in (2, 3, 4):
            for n in (1, 3, 5):
                rows = json.loads(
                    run_cli("design", "--family", "omega", "--q", str(q), "--n", str(n), "--format", "json").output
                )
                result = evaluate_code(construct_grid_code(n, q), n)
                assert float(rows[0]["f_min"]) == pytest.approx(float(result.f_min), rel=1e-11)
                assert float(rows[0]["f_avg"]) == pytest.approx(float(result.f_avg), rel=1e-11)

    def test_omega_family_work_is_linear_in_the_grid(self, monkeypatch):
        # every grid point decodes to itself, so the command needs one
        # self-decoding mass per point; evaluate_code would score all 5151
        # symbols at each of the 5151 points
        calls = []
        mass = codes._integer_mass

        def counted(scaled, point):
            calls.append(tuple(point))
            return mass(scaled, point)

        def refused(*args, **kwargs):
            raise AssertionError("the omega family does not evaluate its grid code")

        monkeypatch.setattr(codes, "_integer_mass", counted)
        monkeypatch.setattr(cli, "evaluate_code", refused)
        monkeypatch.setattr(codes, "evaluate_code", refused)
        result = run_cli("design", "--family", "omega", "--q", "3", "--n", "100")
        assert result.exit_code == 0, result.output
        assert calls == enumerate_observed(100, 3)

    def test_omega_family_builds_no_code(self, monkeypatch):
        # the code column comes from the grid's counts: no symbol object per point
        def refused(*args, **kwargs):
            raise AssertionError("the omega family builds no code")

        monkeypatch.setattr(cli, "construct_grid_code", refused)
        monkeypatch.setattr(codes, "construct_grid_code", refused)
        monkeypatch.setattr(codes.CompositeCode, "__init__", refused)
        result = run_cli("design", "--family", "omega", "--q", "3", "--n", "100")
        assert result.exit_code == 0, result.output
        assert parse_csv(result.output)[0]["code"].count("|") == 5150

    def test_omega_family_over_many_letters(self):
        # the grid's generator once recursed once per letter: q = 1,200 raised RecursionError
        result = run_cli("design", "--family", "omega", "--q", "1500", "--n", "1")
        assert result.exit_code == 0
        header, line = result.output.splitlines()  # the code column is beyond csv's field limit
        row = dict(zip(header.split(","), line.split(",")))
        assert (row["f_min"], row["f_avg"]) == ("1", "1")
        symbols = row["code"].split("|")
        assert len(symbols) == 1500
        assert symbols[0] == ":".join(["0"] * 1499 + ["1"]) and symbols[-1] == ":".join(["1"] + ["0"] * 1499)

    def test_qplus1_family(self):
        rows = parse_csv(run_cli("design", "--family", "qplus1", "--q", "3", "--n", "2").output)
        assert float(rows[0]["f_min"]) == pytest.approx(1 - 1 / 3, abs=1e-12)
        assert float(rows[0]["f_avg"]) == pytest.approx(11 / 12, abs=1e-12)

    def test_qplus1_single_letter_always_decodes(self):
        rows = parse_csv(run_cli("design", "--family", "qplus1", "--q", "1", "--n", "3").output)
        assert (rows[0]["code"], rows[0]["f_min"], rows[0]["f_avg"]) == ("1", "1", "1")

    def test_qplus1_past_the_exact_integer_cap_exits_3(self):
        # q**(n - 1) was once formed whatever its size: n = 10**20 never returned
        src = str(ROOT / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "cdna.cli", "design", "--family", "qplus1", "--q", "2", "--n", str(10**20)]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=10)
        assert proc.returncode == 3 and proc.stdout == ""
        assert f"exceeds the cap of {codes._MAX_POINT_BITS}" in proc.stderr
        # the last n whose q**(n - 1) fits the cap answers, the next is refused
        cap = codes._MAX_POINT_BITS
        for q, n in ((2, cap), (4, cap // 2)):
            f_min, f_avg = codes._base_plus_uniform_success(q, n)
            assert cap - 1 <= f_min.denominator.bit_length() <= cap and f_min < f_avg < 1
            with pytest.raises(codes.UnsupportedRangeError):
                codes._base_plus_uniform_success(q, n + 1)
        assert codes._base_plus_uniform_success(1, 10**20) == (1, 1)

    def test_qplus1_without_reads_is_usage_error(self):
        for n in ("0", "-1"):
            result = run_cli("design", "--family", "qplus1", "--q", "2", "--n", n)
            assert result.exit_code == 2
            assert f"Error: need q >= 1 and n >= 1, got q=2, n={n}" in result.stderr

    def test_bad_verify_grid_is_usage_error(self):
        result = run_cli("design", "--family", "binary4", "--n", "3", "--verify-grid", "0.01")
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "Error: grid_step must lie in (0, 1e-3], got 0.01" in result.stderr

    def test_verify_grid_beyond_the_enumeration_cap_exits_3(self):
        # 500 candidates of 4 points each against a cap of 1999, then about
        # 5e299 candidates against the default cap: refused before any work
        capped = run_cli(
            "design", "--family", "binary4", "--n", "3", "--verify-grid", "1e-3", env={"CDNA_MAX_ENUM": "1999"}
        )
        assert capped.exit_code == 3 and capped.stdout == ""
        result = run_cli("design", "--family", "binary4", "--n", "3", "--verify-grid", "1e-300")
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error:") and "enumeration cap" in result.stderr

    def test_distinct_family(self):
        rows = parse_csv(
            run_cli("design", "--family", "distinct", "--q", "4", "--parts", "1+2|3+4").output
        )
        assert float(rows[0]["f_min"]) == 1.0

    def test_verify_grid_other_family_rejected(self):
        assert run_cli(
            "design", "--family", "omega", "--n", "2", "--q", "2", "--verify-grid", "1e-3"
        ).exit_code == 2

    def test_missing_params(self):
        assert run_cli("design", "--family", "binary4").exit_code == 2
        assert run_cli("design", "--family", "distinct", "--q", "4").exit_code == 2


class TestRecordRoundTrip:
    def test_coverage_record_reproduces_itself(self):
        row = parse_csv(run_cli("coverage", "--ell", "37", "--omega", "3").output)[0]
        again = parse_csv(
            run_cli(
                "coverage", "--ell", row["ell"], "--omega", row["omega"], "--tol", row["tol"]
            ).output
        )[0]
        assert again == row

    def test_sim_record_reproduces_itself(self):
        args = ("sim", "--mode", "recovery", "--ell", "2", "--omega", "2")
        row = parse_csv(run_cli(*args, "--trials", "500", "--seed", "15").output)[0]
        again = parse_csv(
            run_cli(*args, "--trials", row["trials"], "--seed", row["seed"]).output
        )[0]
        assert again == row


class TestFormats:
    def test_csv_json_same_values(self):
        args = ("coverage", "--range", "1:16:*2", "--omega", "3", "--bounds")
        csv_rows = parse_csv(run_cli(*args).output)
        json_rows = json.loads(run_cli(*args, "--format", "json").output)
        assert len(csv_rows) == len(json_rows)
        for c, j in zip(csv_rows, json_rows):
            for key, jv in j.items():
                cv = c[key]
                if isinstance(jv, float):
                    assert float(cv) == pytest.approx(jv, rel=1e-12)
                elif jv is None:
                    assert cv == ""
                else:
                    assert cv == str(jv)

    def test_json_sim_null_fields(self):
        rows = json.loads(
            run_cli(
                "sim", "--mode", "recovery", "--ell", "1", "--omega", "2",
                "--trials", "5", "--seed", "1", "--format", "json",
            ).output
        )
        assert rows[0]["ci_low"] is None


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cdna.cli", "coverage", "--ell", "2", "--omega", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "3.66666666667" in proc.stdout


#: One coverage sweep and the partial and random-access lines, the chain questions
#: one process asks in turn; made by running these commands on the code before the
#: chain walks were kept.
CHAIN_COMMANDS = (
    ("coverage", "--range", "1:1048576:*2", "--omega", "32", "--bounds"),
    ("partial", "--ell", "12", "--omega", "3", "--r", "5"),
    ("ra", "--ell", "3", "--omega", "3", "--k", "5"),
)
ROOT = Path(__file__).resolve().parent.parent
CHAIN_GOLDEN = ROOT / "tests" / "golden" / "cli" / "coverage_sweep.txt"


class TestChainGolden:
    """stdout of the chain commands, byte for byte, in fresh processes and in one warm one."""

    def test_fresh_processes(self):
        src = str(ROOT / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = b""
        for args in CHAIN_COMMANDS:
            proc = subprocess.run([sys.executable, "-m", "cdna.cli", *args], capture_output=True, env=env, cwd=ROOT)
            assert proc.returncode == 0, proc.stderr.decode()
            out += proc.stdout
        assert out == CHAIN_GOLDEN.read_bytes()

    def test_one_process_twice(self):
        # the second pass reads every chain from the walks the first one kept
        want = CHAIN_GOLDEN.read_text()
        for _ in range(2):
            got = ""
            for args in CHAIN_COMMANDS:
                result = run_cli(*args)
                assert result.exit_code == 0
                got += result.stdout
            assert got == want
