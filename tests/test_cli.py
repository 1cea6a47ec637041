"""CLI surface: exit codes, output formats, fault injection."""

import json
import re
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from oddzeta import cli, exactnum, quad, reference, zetarep
from oddzeta.cli import EXIT_NO_CONVERGENCE, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED
from oddzeta.errors import IdentityViolation

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

# `table --max-p 6 --digits 60` stdout, frozen byte for byte (md5 5906806e8c3820caafb2fa6ef02f4626):
# every value, abs_error digit and evaluation count
TABLE_6_60 = "\r\n".join(
    [
        "p,rep,value,abs_error,evaluations",
        "1,theorem,1.20205690315959428539973816151144999076498629234049888179227,0.0,113",
        "1,corollary,1.20205690315959428539973816151144999076498629234049888179227,0.0,113",
        "1,ck_euler,1.20205690315959428539973816151144999076498629234049888179227,0.0,113",
        "1,ck_bernoulli,1.20205690315959428539973816151144999076498629234049888179227,0.0,113",
        "2,theorem,1.03692775514336992633136548645703416805708091950191281197419,0.0,113",
        "2,corollary,1.03692775514336992633136548645703416805708091950191281197419,0.0,113",
        "2,ck_euler,1.03692775514336992633136548645703416805708091950191281197419,0.0,113",
        "2,ck_bernoulli,1.03692775514336992633136548645703416805708091950191281197419,0.0,113",
        "3,theorem,1.00834927738192282683979754984979675959986356056523870641728,0.0,113",
        "3,corollary,1.00834927738192282683979754984979675959986356056523870641728,0.0,113",
        "3,ck_euler,1.00834927738192282683979754984979675959986356056523870641728,0.0,113",
        "3,ck_bernoulli,1.00834927738192282683979754984979675959986356056523870641728,0.0,113",
        "4,theorem,1.0020083928260822144178527692324120604856058513948887565486,0.0,113",
        "4,corollary,1.0020083928260822144178527692324120604856058513948887565486,0.0,113",
        "4,ck_euler,1.0020083928260822144178527692324120604856058513948887565486,0.0,113",
        "4,ck_bernoulli,1.0020083928260822144178527692324120604856058513948887565486,0.0,113",
        "5,theorem,1.00049418860411946455870228252646993646860643575820861711914,0.0,113",
        "5,corollary,1.00049418860411946455870228252646993646860643575820861711914,0.0,113",
        "5,ck_euler,1.00049418860411946455870228252646993646860643575820861711914,0.0,113",
        "5,ck_bernoulli,1.00049418860411946455870228252646993646860643575820861711914,0.0,113",
        "6,theorem,1.0001227133475784891467518365263573957142751058955098451367,0.0,113",
        "6,corollary,1.0001227133475784891467518365263573957142751058955098451367,0.0,113",
        "6,ck_euler,1.0001227133475784891467518365263573957142751058955098451367,0.0,113",
        "6,ck_bernoulli,1.0001227133475784891467518365263573957142751058955098451367,0.0,113",
        "",
    ]
)

# `table --max-p 16 --digits 100` stdout, frozen byte for byte (md5 0c69e0c8679bc58158efc5db2a3497d3);
# its evaluations column sums to 10,944
TABLE_16_100 = Path(__file__).parent / "golden" / "table-max-p16-digits100.csv"

COMPARISON_KEYS = {"command", "inputs", "value", "error_estimate", "reference", "diagnostics"}
TABLE_ROW_KEYS = {"p", "representation", "value", "reference", "abs_error", "diagnostics"}
TABLE_DIAGNOSTIC_KEYS = {"evaluations", "levels", "converged", "error_estimate", "precision_bits"}
VERIFY_KEYS = {"command", "inputs", "checks", "passed", "total"}
VERIFY_CHECK_KEYS = {"name", "status", "detail", "elapsed_s"}
VERIFY_CHECKS = [
    "lemma",
    "series-product",
    "representations",
    "even-closed-form",
    "digamma-grid",
    "gamma-derivatives",
]

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

    def test_large_p_ck_bernoulli_converges(self, capsys):
        code, out, _ = run(["compute", "--p", "48", "--rep", "ck-bernoulli", "--digits", "50", "--format", "json"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["diagnostics"]["converged"] is True

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

    def test_json_renders_no_text(self, capsys, monkeypatch):
        # the JSON payload reads the terms alone: neither the expanded nor the
        # factored text is built for it
        def refuse(*args):
            raise AssertionError("text rendered for --format json")

        monkeypatch.setattr(cli.pipoly, "to_text", refuse)
        monkeypatch.setattr(cli, "_factored_text", refuse)
        code, out, _ = run(["poly", "--p", "2", "--format", "json"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["inputs"] == {"p": 2}

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
        # B_2 feeds the Cauchy product, so P_4(1) is not 0 and p_poly's exact
        # check must fail with a typed error that the CLI reports instead of
        # a traceback
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

    def test_title_does_not_round_z(self, capsys):
        # nstr(z, 8) would print psi(1.0) for a z accepted only because it is below 1
        code, out, _ = run(["digamma", "--z", "0.9999999999999999999999", "--digits", "12"], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "psi(0.9999999999999999999999)"

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
            (
                ["digamma", "--z", "0.9999999999999999999999"],
                "Mikolas digamma integral at z = 0.9999999999999999999999",
            ),
            (["gammaderiv", "--n", "4"], "Gamma^(4)(1.0) integral"),
        ],
        ids=["digamma", "digamma-next-to-one", "gammaderiv"],
    )
    @pytest.mark.usefixtures("cap_levels")
    def test_exit_2_with_one_error_line(self, argv, what, capsys):
        code, out, err = run([*argv, "--digits", "20"], capsys)
        assert code == EXIT_NO_CONVERGENCE
        assert out == ""
        assert err.startswith(f"error: {what} did not converge: error estimate ")
        assert err.endswith(" after level 1\n") and err.count("\n") == 1

    @pytest.mark.usefixtures("cap_levels")
    def test_compute_exits_2(self, capsys):
        code, out, _ = run(["compute", "--p", "2", "--rep", "ck-euler", "--digits", "20", "--format", "json"], capsys)
        assert code == EXIT_NO_CONVERGENCE
        payload = json.loads(out)
        assert payload["diagnostics"]["levels"] == 1 and not payload["diagnostics"]["converged"]

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

    def test_text_golden(self, capsys):
        code, out, _ = run(["table", "--max-p", "6", "--digits", "60"], capsys)
        assert code == EXIT_OK
        assert out == TABLE_6_60

    def test_golden_sixteen(self, capsys):
        code, out, _ = run(["table", "--max-p", "16", "--digits", "100"], capsys)
        assert code == EXIT_OK
        assert out.encode() == TABLE_16_100.read_bytes()

    @pytest.mark.parametrize("golden", ["6-60", "16-100"])
    def test_goldens_print_one_value_per_p(self, golden):
        # every route is rounded once from an integral accurate to the working
        # precision, so all four print the corollary's value on every row
        text = TABLE_6_60 if golden == "6-60" else TABLE_16_100.read_text()
        rows = [line.split(",") for line in text.splitlines()[1:]]
        corollary = {p: value for p, rep, value, _, _ in rows if rep == "corollary"}
        assert len(rows) == 4 * len(corollary)
        assert all(value == corollary[p] for p, _, value, _, _ in rows)

    def test_json_keys_and_round_trip(self, capsys):
        code, out, _ = run(["table", "--max-p", "2", "--digits", "20", "--format", "json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert cli.render_json(payload) == out
        assert set(payload) == {"command", "inputs", "rows"}
        assert payload["command"] == "table"
        assert payload["inputs"] == {"max_p": 2, "digits": 20}
        assert [(row["p"], row["representation"]) for row in payload["rows"]] == [
            (p, rep.value) for p in (1, 2) for rep in zetarep.Representation
        ]
        for row in payload["rows"]:
            assert set(row) == TABLE_ROW_KEYS
            assert set(row["diagnostics"]) == TABLE_DIAGNOSTIC_KEYS
            assert row["diagnostics"]["converged"] is True
            assert row["diagnostics"]["precision_bits"] == cli.bits_for_digits(20)
            assert row["value"][:19] in ("1.20205690315959428", "1.03692775514336992")

    def test_json_matches_csv(self, capsys):
        argv = ["table", "--max-p", "3", "--digits", "30"]
        _, text, _ = run(argv, capsys)
        _, out, _ = run([*argv, "--format", "json"], capsys)
        csv_rows = [line.split(",") for line in text.splitlines()[1:]]
        json_rows = [
            [str(r["p"]), r["representation"], r["value"], r["abs_error"], str(r["diagnostics"]["evaluations"])]
            for r in json.loads(out)["rows"]
        ]
        assert json_rows == csv_rows

    @pytest.mark.usefixtures("cap_levels")
    def test_json_unconverged_exit_code(self, capsys):
        code, out, _ = run(["table", "--max-p", "1", "--digits", "15", "--format", "json"], capsys)
        assert code == EXIT_NO_CONVERGENCE
        rows = json.loads(out)["rows"]
        assert len(rows) == 4 and not any(row["diagnostics"]["converged"] for row in rows)

    def test_bad_max_p(self, capsys):
        code, out, err = run(["table", "--max-p", "0"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: max-p must be >= 1\n"

    def test_theorem_rows_take_the_corollary_quadrature(self, capsys, monkeypatch):
        # three quadratures per p: the theorem row is the corollary's once the
        # exact sine lemma holds
        calls = []
        real = quad.integrate_moments

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(quad, "integrate_moments", counted)
        code, out, _ = run(["table", "--max-p", "2", "--digits", "20", "--format", "json"], capsys)
        assert code == EXIT_OK
        assert len(calls) == 3 * 2
        rows = {(row["p"], row["representation"]): row for row in json.loads(out)["rows"]}
        for p in (1, 2):
            theorem, corollary = rows[(p, "theorem")], rows[(p, "corollary")]
            assert {**theorem, "representation": "corollary"} == corollary

    def test_theorem_rows_rest_on_the_lemma(self, capsys, monkeypatch):
        def broken(p):
            raise IdentityViolation(f"p={p}: the sine moment is broken")

        def no_quadrature(*args):
            raise AssertionError("a quadrature ran before the lemma")

        # compute, table and verify name the theorem's route and stop before any quadrature
        monkeypatch.setattr(zetarep, "lemma_check", broken)
        monkeypatch.setattr(quad, "integrate_moments", no_quadrature)
        for argv in (["table", "--max-p", "1"], ["compute", "--p", "1", "--rep", "theorem"]):
            code, out, err = run([*argv, "--digits", "15"], capsys)
            assert code == EXIT_USAGE and out == ""
            assert err == "error: theorem, p=1: the sine moment is broken\n"
        code, out, _ = run(["verify", "--max-p", "1", "--digits", "15"], capsys)
        assert code == EXIT_VERIFY_FAILED
        assert verify_rows(out)["representations"].startswith("FAIL theorem, p=1: the sine moment is broken  [")


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


class TestCaps:
    # one cap on --p and --max-p and one on --n, each a DomainError that names
    # it; from p = 779 on, printing P_2p raised a traceback from Python's
    # 4,300-digit limit for int-to-str conversion
    @pytest.mark.parametrize(
        "argv",
        [
            ["poly", "--p", str(cli.MAX_P + 1)],
            ["poly", "--p", "779", "--format", "json"],
            ["poly", "--p", "1000", "--format", "latex"],
            ["compute", "--p", str(cli.MAX_P + 1), "--digits", "30"],
            ["table", "--max-p", str(cli.MAX_P + 1)],
            ["verify", "--max-p", str(cli.MAX_P + 1)],
            ["gammaderiv", "--n", str(cli.MAX_N + 1), "--digits", "30"],
            ["gammaderiv", "--n", "2000", "--digits", "30"],
        ],
    )
    def test_above_the_cap_is_one_error_line(self, argv, capsys, monkeypatch):
        def no_computing(*args, **kwargs):
            raise AssertionError("computed past the cap")

        for module, function in [(cli.expansion, "p_poly"), (zetarep, "zeta_odd"), (cli.gammaderiv, "gamma_derivatives_numeric")]:
            monkeypatch.setattr(module, function, no_computing)
        name = argv[1].removeprefix("--")
        cap = cli.MAX_N if name == "n" else cli.MAX_P
        code, out, err = run(argv, capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {name} must be at most {cap}\n"

    @pytest.mark.parametrize("format", ["text", "json", "latex"])
    def test_poly_at_the_cap(self, format, capsys):
        code, out, err = run(["poly", "--p", str(cli.MAX_P), "--format", format], capsys)
        assert code == EXIT_OK and err == ""
        assert str(2 * cli.MAX_P + 1) in out  # the degree of t in the top term

    def test_compute_at_the_cap(self, capsys):
        code, out, _ = run(["compute", "--p", str(cli.MAX_P), "--digits", "30", "--format", "json"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["diagnostics"]["converged"] is True

    def test_table_and_verify_at_the_cap(self, capsys, monkeypatch):
        # the cap is let through; the 2,800 integrals it would run are stubbed out
        reached = []
        monkeypatch.setattr(zetarep, "zeta_routes", lambda p, precision: reached.append(p) or [])
        code, out, _ = run(["table", "--max-p", str(cli.MAX_P), "--digits", "10"], capsys)
        assert code == EXIT_OK and out.splitlines() == ["p,rep,value,abs_error,evaluations"]
        assert reached == list(range(1, cli.MAX_P + 1))
        monkeypatch.setattr(cli, "_verify_checks", lambda max_p, digits: [("cap", lambda: f"max_p = {max_p}")])
        code, out, _ = run(["verify", "--max-p", str(cli.MAX_P)], capsys)
        assert code == EXIT_OK
        assert verify_rows(out)["cap"].startswith(f"PASS max_p = {cli.MAX_P}  [")

    def test_gammaderiv_at_the_cap_fails_in_the_integral(self, capsys, monkeypatch):
        # the integral runs first and gives up after level 0, so the Bell form's
        # thousand oracle calls are never made
        def no_bell(*args):
            raise AssertionError("Bell form computed before the integral")

        monkeypatch.setattr(cli.gammaderiv, "gamma_nth_derivative_at_1", no_bell)
        code, out, err = run(["gammaderiv", "--n", str(cli.MAX_N), "--digits", "30"], capsys)
        assert code == EXIT_NO_CONVERGENCE
        assert out == ""
        assert err == (
            f"error: Gamma^({cli.MAX_N})(1.0) integral did not converge: "
            f"no tail bound is derived for order {cli.MAX_N} at this precision\n"
        )

    def test_gammaderiv_with_a_tail_bound_prints_it(self, capsys):
        # order 80's tails are bounded, but above the tolerance at 30 digits
        code, out, err = run(["gammaderiv", "--n", "80", "--digits", "30"], capsys)
        assert code == EXIT_NO_CONVERGENCE
        assert out == ""
        assert err == "error: Gamma^(80)(1.0) integral did not converge: error estimate 9.7133e+83 after level 0\n"


class TestVerify:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run(["verify", "--max-p", "2", "--digits", "15"], capsys)
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_json_keys(self, capsys):
        code, out, _ = run(["verify", "--max-p", "1", "--digits", "15", "--format", "json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert set(payload) == VERIFY_KEYS
        assert payload["command"] == "verify"
        assert payload["inputs"] == {"max_p": 1, "digits": 15}
        assert [record["name"] for record in payload["checks"]] == VERIFY_CHECKS
        for record in payload["checks"]:
            assert set(record) == VERIFY_CHECK_KEYS
            assert record["status"] == "PASS" and record["elapsed_s"] >= 0
        assert payload["passed"] == payload["total"] == len(VERIFY_CHECKS)
        assert cli.render_json(payload) == out

    def test_json_matches_text(self, capsys):
        argv = ["verify", "--max-p", "2", "--digits", "15"]
        _, text, _ = run(argv, capsys)
        _, out, _ = run([*argv, "--format", "json"], capsys)
        rows = {name: row.split("  [")[0] for name, row in verify_rows(text).items()}
        payload = json.loads(out)
        assert rows == {r["name"]: f"{r['status']} {r['detail']}" for r in payload["checks"]}
        assert text.splitlines()[-1] == f"{payload['passed']}/{payload['total']} checks passed"

    @pytest.mark.usefixtures("cap_levels")
    def test_json_failure_exit_code(self, capsys):
        code, out, _ = run(["verify", "--max-p", "1", "--digits", "15", "--format", "json"], capsys)
        assert code == EXIT_VERIFY_FAILED
        payload = json.loads(out)
        failed = {r["name"] for r in payload["checks"] if r["status"] == "FAIL"}
        assert failed == {"representations", "digamma-grid", "gamma-derivatives"}
        assert payload["passed"] == payload["total"] - 3

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
        # B_6 moves the z^6 coefficient of csc(pi z) sin(pi z) off 0, which
        # P_6(1) = 0 in p_poly flags
        real = exactnum.bernoulli_number

        def corrupted(n):
            return Fraction(1, 43) if n == 6 else real(n)  # true value is 1/42

        monkeypatch.setattr(exactnum, "bernoulli_number", corrupted)
        code, out, _ = run(["verify", "--max-p", "3", "--digits", "12"], capsys)
        assert code == EXIT_VERIFY_FAILED
        line = next(line for line in out.splitlines() if "series-product" in line)
        assert line.startswith("FAIL  series-product")
        assert "z^6" in line

    def test_corrupted_bernoulli_tail_fails_representations(self, capsys, cold_caches):
        # T_20 doubled where it is stored, and B_40 with it: p_poly's exact
        # checks read only B_2..B_2p, but the end corrections at 100 digits
        # read T_j up to T_37 (E_j, g_j and u_j), and the zeta oracle reads
        # none
        exactnum.tangent_number(20)
        exactnum._zigzag_table()[0][19] *= 2
        code, out, _ = run(["verify", "--max-p", "2", "--digits", "100"], capsys)
        assert code == EXIT_VERIFY_FAILED
        rows = verify_rows(out)
        assert rows["lemma"].startswith("PASS") and rows["series-product"].startswith("PASS")
        assert re.match(r"FAIL worst representation error \S+ exceeds bound  \[", rows["representations"])

    def test_corrupted_bernoulli_tail_leaves_the_oracle(self, capsys, cold_caches):
        # T_20 doubled, inside the end corrections' range at 100 digits: the
        # theorem and the corollary converge off, and the zeta oracle, which reads
        # no tangent or Bernoulli number, keeps every bit, so the representations
        # check fails on the gap
        precision = cli.bits_for_digits(100)
        clean = [reference.zeta_ref(s, precision)._mpf_ for s in range(2, 6)]
        for cached in cold_caches:
            cached.cache_clear()
        exactnum.tangent_number(20)
        exactnum._zigzag_table()[0][19] *= 2
        code, out, _ = run(["verify", "--max-p", "2", "--digits", "100"], capsys)
        assert code == EXIT_VERIFY_FAILED
        assert verify_rows(out)["representations"].startswith("FAIL worst representation error ")
        # the run's oracle values, zeta(2..5) at 100 digits, come from the cache
        assert [reference.zeta_ref(s, precision)._mpf_ for s in range(2, 6)] == clean

    def test_corrupted_bernoulli_tail_fails_digamma_grid(self, capsys, cold_caches):
        # T_20 doubled: the Mikolas integral's t = 1 corrections at 120 digits
        # read T_j beyond T_20, so the grid values converge up to about 1e-88
        # off, which the engine's remainder bound cannot see; Gauss's theorem
        # reads no tangent number, and the comparison with it fails (bound 1e-111)
        exactnum.tangent_number(20)
        exactnum._zigzag_table()[0][19] *= 2
        code, out, _ = run(["verify", "--max-p", "8", "--digits", "120"], capsys)
        assert code == EXIT_VERIFY_FAILED
        line = next(line for line in out.splitlines() if "digamma-grid" in line)
        assert line.startswith("FAIL  digamma-grid")
        assert re.match(r"FAIL digamma grid error \S+ exceeds bound  \[", verify_rows(out)["digamma-grid"])

    def test_corrupted_tangent_number_fails_digamma_grid(self, capsys, cold_caches):
        # T_20 doubled where it is stored, so every reader sees it: E_20, g_20
        # and u_20 (the end series), and B_40.  The Mikolas integral's t = 1
        # corrections at 120 digits read the first three; Gauss's theorem reads none
        # and keeps every bit of its 15 values, so digamma-grid fails on the gap
        precision = cli.bits_for_digits(120)
        clean = [value._mpf_ for value in reference.digamma_gauss(16, precision)]
        b40 = exactnum.bernoulli_number(40)
        for cached in cold_caches:
            cached.cache_clear()
        exactnum.tangent_number(20)
        exactnum._zigzag_table()[0][19] *= 2
        code, out, _ = run(["verify", "--max-p", "8", "--digits", "120"], capsys)
        assert code == EXIT_VERIFY_FAILED
        rows = verify_rows(out)
        assert rows["lemma"].startswith("PASS") and rows["series-product"].startswith("PASS")
        assert re.match(r"FAIL digamma grid error \S+ exceeds bound  \[", rows["digamma-grid"])
        assert exactnum.bernoulli_number(40) == 2 * b40
        assert [value._mpf_ for value in reference.digamma_gauss(16, precision)] == clean

    def test_corrupted_secant_number_fails_representations(self, capsys, cold_caches):
        # |E_8| doubled where it is stored, so every reader sees it: E_8(t),
        # which ck_euler integrates at p = 4, no longer vanishes at t = 1, and
        # the exact pole check refuses it before its quadrature.  No other
        # check reads an Euler number, so the other five pass
        exactnum.euler_number(8)
        exactnum._zigzag_table()[2][4] *= 2
        code, out, _ = run(["verify", "--max-p", "8", "--digits", "120"], capsys)
        assert code == EXIT_VERIFY_FAILED
        rows = verify_rows(out)
        assert re.match(r"FAIL p=4, ck_euler: the polynomial factor is \S+ at t = 1, not 0", rows["representations"])
        assert [name for name, row in rows.items() if row.startswith("PASS")] == [
            name for name in VERIFY_CHECKS if name != "representations"
        ]
        assert exactnum.euler_number(8) == 2 * 1385

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
                    "digamma-grid": r"digamma oracles differ by \S+ at z = 1/16  \[",
                    "gamma-derivatives": r"Gamma derivative mismatch at n=1  \[",
                },
            ),
            (
                "digamma_ref",
                {
                    "digamma-grid": r"digamma oracles differ by \S+ at z = 1/16  \[",
                },
            ),
        ],
    )
    def test_perturbed_oracle_fails_the_numeric_bounds(
        self, oracle, failed, capsys, monkeypatch, cold_caches
    ):
        # one oracle off by a relative 1e-5, far outside the 10^-(digits-8) bounds;
        # the exact checks read no oracle and still pass.  A wrong gamma moves
        # both sides of the Mikolas grid alike (Mikolas's psi and Gauss's
        # theorem both read it), so digamma-grid catches it where it holds
        # Gauss's psi(1/16) to digamma_ref's, which reads no gamma, as it
        # catches a wrong digamma_ref; the Bell form of gamma-derivatives reads gamma
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
