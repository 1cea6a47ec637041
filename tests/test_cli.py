"""CLI surface: exit codes, output formats, fault injection."""

import json
import re
from fractions import Fraction

import mpmath as mp
import pytest
from oddzeta import cli, exactnum, reference, zetarep
from oddzeta.cli import EXIT_NO_CONVERGENCE, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED

ZETA3_30 = "1.20205690315959428539973816151"

# `poly --p p` text output, expanded and factored lines, frozen byte for byte
POLY_TEXT = {
    1: (
        "P_2(t) = 1/6*pi^2*t^3 - 1/6*pi^2*t",
        "factored     = (pi^2/6)*t*(t^2 - 1)",
    ),
    2: (
        "P_4(t) = -1/120*pi^4*t^5 + 1/36*pi^4*t^3 - 7/360*pi^4*t",
        "factored     = -(pi^4/360)*t*(t^2 - 1)*(3t^2 - 7)",
    ),
    3: (
        "P_6(t) = 1/5040*pi^6*t^7 - 1/720*pi^6*t^5 + 7/2160*pi^6*t^3 - 31/15120*pi^6*t",
        "factored     = (pi^6/15120)*t*(t^2 - 1)*(3t^4 - 18t^2 + 31)",
    ),
    4: (
        "P_8(t) = -1/362880*pi^8*t^9 + 1/30240*pi^8*t^7 - 7/43200*pi^8*t^5"
        " + 31/90720*pi^8*t^3 - 127/604800*pi^8*t",
        "factored     = -(pi^8/1814400)*t*(t^2 - 1)*(5t^6 - 55t^4 + 239t^2 - 381)",
    ),
    5: (
        "P_10(t) = 1/39916800*pi^10*t^11 - 1/2177280*pi^10*t^9 + 1/259200*pi^10*t^7"
        " - 31/1814400*pi^10*t^5 + 127/3628800*pi^10*t^3 - 73/3421440*pi^10*t",
        "factored     = (pi^10/119750400)*t*(t^2 - 1)*(t^2 - 5)*(3t^6 - 37t^4 + 225t^2 - 511)",
    ),
}


# `digamma --z 0.5` and `gammaderiv --n 2` at 25 digits, text form, frozen byte for byte
DIGAMMA_TEXT = (
    "psi(0.5)\n"
    "  integral form = -1.963510026021423479440976\n"
    "  reference     = -1.963510026021423479440976\n"
    "  |difference|  = 0.0\n"
)
GAMMADERIV_TEXT = (
    "Gamma^(2)(1)\n"
    "  Bell form = 1.978111990655945110790791\n"
    "  integral  = 1.978111990655945110790791\n"
    "  |difference| = 0.0\n"
)
COMPARISON_KEYS = {"command", "inputs", "value", "error_estimate", "reference", "diagnostics"}

# one valid command line per subcommand that takes --digits
DIGITS_COMMANDS = {
    "compute": ["compute", "--p", "1"],
    "verify": ["verify", "--max-p", "1"],
    "digamma": ["digamma", "--z", "0.5"],
    "gammaderiv": ["gammaderiv", "--n", "2"],
    "table": ["table", "--max-p", "1"],
}


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def verify_rows(out):
    """``verify``'s check lines by check name, as "STATUS detail"."""
    rows = {}
    for line in out.splitlines()[:-1]:
        status, name, detail = line.split(None, 2)
        rows[name] = f"{status} {detail}"
    return rows


class TestCompute:
    def test_corollary_zeta3(self, capsys):
        code, out, _ = run(
            ["compute", "--p", "1", "--rep", "corollary", "--digits", "30", "--format", "json"],
            capsys,
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["value"].startswith(ZETA3_30[:25])
        assert mp.mpf(payload["diagnostics"]["abs_error_vs_reference"]) < mp.mpf(10) ** -22

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            ["compute", "--p", "1", "--rep", "theorem", "--digits", "20", "--format", "json"],
            capsys,
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["command"] == "compute"
        assert set(payload) == {"command", "inputs", "value", "error_estimate", "reference", "diagnostics"}
        assert cli.render_json(payload) == out
        value = mp.mpf(payload["value"])
        reference = mp.mpf(payload["reference"])
        assert abs(value - reference) < mp.mpf(10) ** -15

    def test_p_zero_is_usage_error(self, capsys):
        code, _, err = run(["compute", "--p", "0", "--digits", "20"], capsys)
        assert code == EXIT_USAGE
        assert "p must be >= 1" in err

    @pytest.mark.parametrize("command", sorted(DIGITS_COMMANDS))
    def test_digits_bounds(self, command, capsys):
        for digits in ("5", "10001"):
            code, out, err = run([*DIGITS_COMMANDS[command], "--digits", digits], capsys)
            assert code == EXIT_USAGE, digits
            assert out == ""
            assert err == "error: digits must be between 10 and 10000\n"

    def test_unknown_command(self, capsys):
        code, _, _ = run(["frobnicate"], capsys)
        assert code == EXIT_USAGE

    def test_non_convergence_exit_code(self, capsys, monkeypatch):
        real = zetarep.zeta_odd

        def stubborn(p, rep, precision):
            comp = real(p, rep, precision)
            bad_quad = type(comp.quad)(
                value=comp.quad.value,
                error_estimate=comp.quad.error_estimate,
                evaluations=comp.quad.evaluations,
                levels=comp.quad.levels,
                converged=False,
            )
            return type(comp)(
                p=comp.p,
                representation=comp.representation,
                value=comp.value,
                quad=bad_quad,
                reference=comp.reference,
            )

        monkeypatch.setattr(cli.zetarep, "zeta_odd", stubborn)
        code, _, _ = run(["compute", "--p", "1", "--digits", "15"], capsys)
        assert code == EXIT_NO_CONVERGENCE


class TestPoly:
    def test_latex_p1(self, capsys):
        code, out, _ = run(["poly", "--p", "1", "--format", "latex"], capsys)
        assert code == EXIT_OK
        assert out.strip() == "\\frac{\\pi^2}{6}\\left(t^3 - t\\right)"

    def test_json_p3_homogeneous(self, capsys):
        code, out, _ = run(["poly", "--p", "3", "--format", "json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["command"] == "poly"
        assert payload["terms"]
        assert all(term["pi_exp"] == 6 for term in payload["terms"])
        assert cli.render_json(payload) == out

    def test_text_catalogued(self, capsys):
        code, out, _ = run(["poly", "--p", "2", "--format", "text"], capsys)
        assert code == EXIT_OK
        assert "factored" in out
        assert "machine-verified" in out

    @pytest.mark.parametrize("p", sorted(POLY_TEXT))
    def test_text_golden(self, p, capsys):
        code, out, _ = run(["poly", "--p", str(p)], capsys)
        assert code == EXIT_OK
        expanded, factored = POLY_TEXT[p]
        assert out == f"{expanded}\n{factored}\n(factored form machine-verified against the expansion)\n"

    def test_text_out_of_catalogue(self, capsys):
        code, out, _ = run(["poly", "--p", "13", "--format", "text"], capsys)
        assert code == EXIT_OK
        assert "P_26(t) =" in out
        assert "factored" not in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "poly.json"
        code, out, _ = run(
            ["poly", "--p", "1", "--format", "json", "--out", str(target)], capsys
        )
        assert code == EXIT_OK
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["inputs"] == {"p": 1}

    def test_corrupted_factored_form_is_refused(self, capsys, monkeypatch):
        # 3t^2 - 5 for 3t^2 - 7: the stored factorization no longer re-expands to P_4
        entry = (Fraction(-1, 360), 4, [{1: 1}, {2: 1, 0: -1}, {2: 3, 0: -5}])
        monkeypatch.setitem(cli._FACTORED_FORMS, 2, entry)
        code, out, err = run(["poly", "--p", "2"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: stored factorization for p=2 does not match the expansion\n"

    def test_corrupted_bernoulli_is_a_clean_error(self, capsys, monkeypatch, cold_caches):
        # B_2 feeds the Cauchy product but not the closed form's fixed pi^2/6
        # tail coefficient, so p_poly's exact cross-check must fail with a
        # typed error and the CLI must report it instead of a traceback
        real = exactnum.bernoulli_number

        def corrupted(n):
            return Fraction(1, 7) if n == 2 else real(n)  # true value is 1/6

        monkeypatch.setattr(exactnum, "bernoulli_number", corrupted)
        code, out, err = run(["poly", "--p", "2"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ")
        assert "Cauchy product" in err


class TestDigamma:
    def test_half(self, capsys):
        code, out, _ = run(["digamma", "--z", "0.5", "--digits", "25"], capsys)
        assert code == EXIT_OK
        # psi(1/2) = -gamma - 2 log 2
        assert "-1.96351002602142" in out

    def test_text_golden(self, capsys):
        code, out, _ = run(["digamma", "--z", "0.5", "--digits", "25"], capsys)
        assert code == EXIT_OK
        assert out == DIGAMMA_TEXT

    def test_json_keys(self, capsys):
        code, out, _ = run(["digamma", "--z", "0.5", "--digits", "25", "--format", "json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert set(payload) == COMPARISON_KEYS
        assert payload["command"] == "digamma"
        assert payload["inputs"] == {"z": "0.5", "digits": 25}
        assert set(payload["diagnostics"]) == {"precision_bits"}
        assert cli.render_json(payload) == out

    def test_out_of_domain(self, capsys):
        code, _, err = run(["digamma", "--z", "1.5", "--digits", "20"], capsys)
        assert code == EXIT_USAGE
        assert "0 < z < 1" in err

    def test_unparsable_z(self, capsys):
        code, out, err = run(["digamma", "--z", "abc", "--digits", "20"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: cannot parse z = 'abc'\n"


class TestGammaDeriv:
    def test_n2(self, capsys):
        code, out, _ = run(
            ["gammaderiv", "--n", "2", "--digits", "25", "--format", "json"], capsys
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        value = mp.mpf(payload["value"])
        assert abs(value - mp.mpf("1.97811199065594511079")) < mp.mpf(10) ** -18
        assert mp.mpf(payload["error_estimate"]) < mp.mpf(10) ** -18

    def test_text_golden(self, capsys):
        code, out, _ = run(["gammaderiv", "--n", "2", "--digits", "25"], capsys)
        assert code == EXIT_OK
        assert out == GAMMADERIV_TEXT

    def test_json_keys(self, capsys):
        code, out, _ = run(["gammaderiv", "--n", "2", "--digits", "25", "--format", "json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert set(payload) == COMPARISON_KEYS
        assert payload["command"] == "gammaderiv"
        assert payload["inputs"] == {"n": 2, "digits": 25}
        assert set(payload["diagnostics"]) == {"precision_bits"}
        assert cli.render_json(payload) == out

    def test_negative_n(self, capsys):
        code, _, err = run(["gammaderiv", "--n", "-1", "--digits", "20"], capsys)
        assert code == EXIT_USAGE
        assert err.startswith("error: ")
        assert "derivative order" in err


class TestNoConvergence:
    # each integral stops after level 1: a bare-valued route must not exit 0
    @pytest.mark.parametrize(
        "argv,what",
        [
            (["digamma", "--z", "0.3"], "Mikolas digamma integral at z = 0.3"),
            (["gammaderiv", "--n", "4"], "Gamma^(4)(1.0) integral"),
        ],
        ids=["digamma", "gammaderiv"],
    )
    @pytest.mark.usefixtures("cap_levels")
    def test_exit_2_with_one_error_line(self, argv, what, capsys):
        code, out, err = run([*argv, "--digits", "20"], capsys)
        assert code == EXIT_NO_CONVERGENCE
        assert out == ""
        assert err.startswith(f"error: {what} did not converge: error estimate ")
        assert err.endswith(" after level 1\n") and err.count("\n") == 1

    @pytest.mark.usefixtures("cap_levels")
    def test_verify_names_the_integral(self, capsys):
        code, out, _ = run(["verify", "--max-p", "1", "--digits", "15"], capsys)
        assert code == EXIT_VERIFY_FAILED
        rows = verify_rows(out)
        assert rows["digamma-grid"].startswith(
            "FAIL Mikolas digamma integral at z = 0.0625 did not converge"
        )
        assert rows["gamma-derivatives"].startswith("FAIL Gamma^(0)(1.0) integral did not converge")


class TestTable:
    def test_csv_header_and_rows(self, capsys):
        code, out, _ = run(["table", "--max-p", "1", "--digits", "15"], capsys)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "p,rep,value,abs_error,evaluations"
        assert len(lines) == 5  # four representations for p = 1
        assert all(line.startswith("1,") for line in lines[1:])

    @pytest.mark.usefixtures("cap_levels")
    def test_unconverged_rows_still_printed(self, capsys):
        code, out, _ = run(["table", "--max-p", "2", "--digits", "15"], capsys)
        assert code == EXIT_NO_CONVERGENCE
        rows = out.strip().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [
            [str(p), rep.value] for p in (1, 2) for rep in zetarep.Representation
        ]

    def test_bad_max_p(self, capsys):
        code, out, err = run(["table", "--max-p", "0"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: max-p must be >= 1\n"


@pytest.mark.parametrize("command", ["compute", "table"])
def test_out_into_missing_directory(command, capsys, tmp_path, monkeypatch):
    # the file cannot be opened; that is one error line and exit 1, not a
    # traceback, and it is found before anything is computed
    def no_computing(*args, **kwargs):
        raise AssertionError("computed before opening --out")

    monkeypatch.setattr(zetarep, "zeta_odd", no_computing)
    target = tmp_path / "missing" / "x"
    code, out, err = run([*DIGITS_COMMANDS[command], "--digits", "15", "--out", str(target)], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(target) in err
    assert not target.exists()


class TestVerify:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run(["verify", "--max-p", "2", "--digits", "15"], capsys)
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_fault_injection_fails_lemma(self, capsys, monkeypatch, cold_caches):
        # corrupt one even Bernoulli value on cold caches; the exact -1/pi
        # moment must break and the exit code must say so
        real = exactnum.bernoulli_number

        def corrupted(n):
            if n == 6:
                return Fraction(1, 43)  # true value is 1/42
            return real(n)

        monkeypatch.setattr(exactnum, "bernoulli_number", corrupted)
        code, out, _ = run(["verify", "--max-p", "3", "--digits", "12"], capsys)
        assert code == EXIT_VERIFY_FAILED
        assert "FAIL" in out

    def test_fault_injection_fails_series_product(self, capsys, monkeypatch, cold_caches):
        # B_6 enters the closed form and the Cauchy product alike, so only the
        # independent csc(pi z) sin(pi z) = 1 identity can flag it
        real = exactnum.bernoulli_number

        def corrupted(n):
            return Fraction(1, 43) if n == 6 else real(n)  # true value is 1/42

        monkeypatch.setattr(exactnum, "bernoulli_number", corrupted)
        code, out, _ = run(["verify", "--max-p", "3", "--digits", "12"], capsys)
        assert code == EXIT_VERIFY_FAILED
        line = next(line for line in out.splitlines() if "series-product" in line)
        assert line.startswith("FAIL  series-product")
        assert "z^6" in line

    @pytest.mark.parametrize(
        "oracle,failed",
        [
            (
                "zeta_ref",
                {
                    "representations": r"worst representation error \S+ exceeds bound  \[",
                    "even-closed-form": r"even closed form mismatch at p=1  \[",
                    "gamma-derivatives": r"Gamma derivative mismatch at n=2  \[",
                },
            ),
            (
                "euler_gamma",
                {
                    "digamma-grid": r"digamma grid error \S+ exceeds bound  \[",
                    "gamma-derivatives": r"Gamma derivative mismatch at n=1  \[",
                },
            ),
        ],
    )
    def test_perturbed_oracle_fails_the_numeric_bounds(
        self, oracle, failed, capsys, monkeypatch, cold_caches
    ):
        # one oracle off by a relative 1e-5, far outside the 10^-(digits-8) bounds;
        # the exact checks read no oracle and still pass
        real = getattr(reference, oracle)
        monkeypatch.setattr(reference, oracle, lambda *args: real(*args) * (1 + mp.mpf(10) ** -5))
        code, out, _ = run(["verify", "--max-p", "1", "--digits", "15"], capsys)
        assert code == EXIT_VERIFY_FAILED
        rows = verify_rows(out)
        assert {name for name, row in rows.items() if row.startswith("FAIL")} == set(failed)
        for name, pattern in failed.items():
            assert re.match(f"FAIL {pattern}", rows[name]), rows[name]

    def test_bad_max_p(self, capsys):
        code, _, err = run(["verify", "--max-p", "0"], capsys)
        assert code == EXIT_USAGE
