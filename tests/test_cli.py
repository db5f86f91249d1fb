import io
import json
import subprocess
import sys
import time
from math import prod

import pytest
from conftest import child_env, oracle_survives

from sievecycles import cli, make_prime_basis, verify
from sievecycles.verify import CheckResult


def run_cli(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


class TestCount:
    def test_plain(self):
        code, text = run_cli("count", "--n", "4", "--x", "52.5")
        assert code == 0
        assert text == "value: 12\nmethod: legendre\n"

    def test_zero(self):
        code, text = run_cli("count", "--n", "4", "--x", "0")
        assert code == 0
        assert "value: 0" in text

    def test_ten_prime_wave(self):
        code, text = run_cli("count", "--n", "10", "--x", "6469693230",
                             "--method", "legendre")
        assert code == 0
        assert "value: 1021870080" in text

    def test_fraction_and_decimal_spellings_match(self):
        _, a = run_cli("count", "--n", "4", "--x", "52.5")
        _, b = run_cli("count", "--n", "4", "--x", "105/2")
        assert a == b

    def test_json_schema(self):
        code, text = run_cli("count", "--n", "4", "--x", "105/2", "--json")
        doc = json.loads(text)
        assert list(doc) == ["query", "basis", "method", "result"]
        assert doc["basis"] == [2, 3, 5, 7]
        assert doc["method"] == "legendre"
        assert doc["result"] == 12

    def test_csv(self):
        code, text = run_cli("count", "--n", "4", "--x", "35", "--format", "csv")
        assert text.splitlines() == ["value,method", "8,legendre"]

    def test_csv_no_header(self):
        _, text = run_cli("count", "--n", "4", "--x", "35", "--format", "csv",
                          "--no-header")
        assert text.splitlines() == ["8,legendre"]

    def test_all_methods_agree(self):
        values = set()
        for method in ("oracle", "legendre", "meissel", "generalized_meissel",
                       "periodic_reduction"):
            code, text = run_cli("count", "--moduli", "2,3,5", "--x", "209",
                                 "--method", method)
            assert code == 0
            values.add(text.splitlines()[0])
        assert values == {"value: 56"}

    def test_generalized_with_drop(self):
        code, text = run_cli("count", "--n", "4", "--x", "52.5",
                             "--method", "generalized_meissel", "--drop", "5")
        assert code == 0
        assert "value: 12" in text

    def test_generalized_on_empty_basis_is_usage_error(self, capsys):
        code, text = run_cli("count", "--n", "0", "--x", "5",
                             "--method", "generalized_meissel")
        assert (code, text) == (1, "")
        assert "empty basis has no modulus to peel" in capsys.readouterr().err

    def test_drop_without_generalized_is_usage_error(self):
        code, _ = run_cli("count", "--n", "4", "--x", "10", "--drop", "5")
        assert code == 1

    def test_parse_error_exit_code(self, capsys):
        code, _ = run_cli("count", "--n", "4", "--x", "5x2")
        assert code == 1
        assert "exact rational" in capsys.readouterr().err

    def test_basis_required(self):
        code, _ = run_cli("count", "--x", "10")
        assert code == 1

    def test_n_and_moduli_conflict(self):
        code, _ = run_cli("count", "--n", "3", "--moduli", "2,3", "--x", "1")
        assert code == 1

    def test_oracle_cap_flag(self, capsys):
        code, _ = run_cli("count", "--n", "4", "--x", "1000000",
                          "--method", "oracle", "--oracle-cap", "100")
        assert code == 2
        assert "cap" in capsys.readouterr().err


class TestWheelAndList:
    def test_wheel_plain(self):
        code, text = run_cli("wheel", "--n", "3")
        lines = text.splitlines()
        assert lines[0] == "period: 30"
        assert lines[1] == "count: 8"
        assert lines[3:] == ["1", "7", "11", "13", "17", "19", "23", "29"]

    def test_list_defaults_to_one_wave(self):
        code, text = run_cli("list", "--n", "3")
        assert text.split() == ["1", "7", "11", "13", "17", "19", "23", "29"]

    def test_list_spans_waves(self):
        code, text = run_cli("list", "--n", "3", "--lo", "25", "--hi", "65")
        assert text.split() == ["29", "31", "37", "41", "43", "47", "49",
                                "53", "59", "61"]

    def test_a_short_window_under_a_raised_cap_is_struck(self):
        # A wheel of 14 primes would hold a period of 1.3e16 candidates,
        # which no allocator grants; a window of 100 is struck directly.
        code, text = run_cli("list", "--n", "14", "--wheel-cap", str(10**17),
                             "--lo", "1", "--hi", "100")
        primes = make_prime_basis(14).moduli
        assert (code, text.split()) == (0, [str(x) for x in range(1, 101)
                                            if oracle_survives(primes, x)])

    def test_round_trip_wheel_json_into_list(self, tmp_path):
        code, wheel_json = run_cli("wheel", "--n", "4", "--json")
        assert code == 0
        path = tmp_path / "wheel.json"
        path.write_text(wheel_json)
        code, from_wheel = run_cli("list", "--from-wheel", str(path),
                                   "--lo", "1", "--hi", "1000")
        assert code == 0
        _, direct = run_cli("list", "--n", "4", "--lo", "1", "--hi", "1000")
        assert from_wheel == direct

    def test_from_wheel_conflicts_with_basis(self, tmp_path):
        path = tmp_path / "w.json"
        _, wheel_json = run_cli("wheel", "--n", "2", "--json")
        path.write_text(wheel_json)
        code, _ = run_cli("list", "--n", "2", "--from-wheel", str(path))
        assert code == 1

    @pytest.mark.parametrize("period, residues, problem", [
        (30, [1, 2, 3, 4], "4 residues, not the 8"),
        (0, [1, 7, 11, 13, 17, 19, 23, 29], "period 0 is not the basis product 30"),
        (30.0, [1, 7, 11, 13, 17, 19, 23, 29], "period 30.0"),
        (60, [1, 7, 11, 13, 17, 19, 23, 29], "period 60"),
        (30, [1, 7, 11, 13, 17, 19, 23, 25], "residue 25 is divisible"),
        (30, [1, 7, 11, 13, 19, 17, 23, 29], "strictly increasing"),
        (30, [1, 7, 11, 13, 13, 19, 23, 29], "strictly increasing"),
        (30, [-1, 7, 11, 13, 17, 19, 23, 29], "in [0, 30)"),
        (30, [1, 7, 11, 13, 17, 19, 23, 31], "in [0, 30)"),
        (30, [1, 7, 11, 13, 17, 19, 23, 29.0], "must be integers"),
    ])
    def test_from_wheel_rejects_a_wrong_wheel(self, tmp_path, capsys,
                                              period, residues, problem):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"basis": [2, 3, 5], "result": {
            "period": period, "count": len(residues), "residues": residues}}))
        assert run_cli("list", "--from-wheel", str(path), "--lo", "1",
                       "--hi", "40") == (1, "")
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and problem in err

    @pytest.mark.parametrize("text", [
        "[1, 7, 11, 13]",
        # deeper than the JSON parser's recursion limit
        '{"basis": ' + "[" * 5000 + "]" * 5000 + "}",
    ], ids=["list", "nested 5000 deep"])
    def test_from_wheel_rejects_json_that_is_not_a_wheel_object(self, tmp_path,
                                                                 capsys, text):
        path = tmp_path / "w.json"
        path.write_text(text)
        assert run_cli("list", "--from-wheel", str(path)) == (1, "")
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "does not look like wheel JSON" in err

    def test_from_wheel_rejects_a_bare_wheel_object(self, tmp_path, capsys):
        # Only the envelope that `wheel --json` writes is read.
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"basis": [2, 3, 5], "period": 30,
                                    "residues": [1, 7, 11, 13, 17, 19, 23, 29]}))
        assert run_cli("list", "--from-wheel", str(path)) == (1, "")
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "does not look like wheel JSON" in err

    @pytest.mark.parametrize("basis", [None, 0, False, "", "235", {"2": 1}])
    def test_from_wheel_rejects_a_basis_that_is_not_a_list(self, tmp_path, capsys,
                                                           basis):
        # A falsy basis must not pass for the empty one, whose wheel
        # (period 1, residues [0]) would let every integer survive.
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"basis": basis, "result": {
            "period": 1, "count": 1, "residues": [0]}}))
        assert run_cli("list", "--from-wheel", str(path), "--lo", "0",
                       "--hi", "3") == (1, "")
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "is not a list" in err

    @pytest.mark.parametrize("argv", [("--moduli", "4,9,25"), ("--n", "0")])
    def test_from_wheel_accepts_composite_and_empty_wheels(self, tmp_path, argv):
        # Composite moduli leave survivors that share a factor with the
        # period (2 survives 4 and 9): survivorship, not coprimality.
        path = tmp_path / "w.json"
        path.write_text(run_cli("wheel", *argv, "--json")[1])
        _, direct = run_cli("list", *argv, "--lo", "0", "--hi", "1000")
        assert run_cli("list", "--from-wheel", str(path), "--lo", "0",
                       "--hi", "1000") == (0, direct)

    # Output is written in batches of pieces: 5,760 residues or 10,666
    # survivors cross many batch edges, and an empty window streams no
    # item at all.
    def test_wheel_beyond_one_batch(self):
        primes = [2, 3, 5, 7, 11, 13]
        period = prod(primes)
        residues = [r for r in range(period) if oracle_survives(primes, r)]
        assert len(residues) == 5760
        assert run_cli("wheel", "--n", "6") == (0, "".join(
            f"{line}\n" for line in [f"period: {period}", f"count: {len(residues)}",
                                     "residues:", *residues]))
        doc = {"query": {"command": "wheel"}, "basis": primes, "method": None,
               "result": {"period": period, "count": len(residues),
                          "residues": residues}}
        assert run_cli("wheel", "--n", "6", "--json") == (
            0, json.dumps(doc, indent=2) + "\n")

    def test_list_plain_beyond_one_batch(self):
        survivors = [x for x in range(40001) if oracle_survives([2, 3, 5], x)]
        assert len(survivors) == 10666
        assert run_cli("list", "--n", "3", "--lo", "0", "--hi", "40000") == (
            0, "".join(f"{x}\n" for x in survivors))

    @pytest.mark.parametrize("lo, hi", [(1, 30), (0, 40000), (2, 4)])
    def test_list_json_streams_valid_document(self, lo, hi):
        code, text = run_cli("list", "--n", "3", "--lo", str(lo), "--hi", str(hi),
                             "--json")
        survivors = [x for x in range(lo, hi + 1) if oracle_survives([2, 3, 5], x)]
        head = {"query": {"command": "list", "lo": lo, "hi": hi},
                "basis": [2, 3, 5], "method": None}
        # one line per head field, then the survivors on one line
        assert (code, text) == (0, "{\n" + "".join(
            f'  "{key}": {json.dumps(value)},\n' for key, value in head.items())
            + f'  "result": {json.dumps(survivors)}\n}}\n')
        assert json.loads(text) == {**head, "result": survivors}

    @pytest.mark.parametrize("fmt", [("--format", "plain"), ("--format", "csv"),
                                     ("--format", "json"), ("--json",)])
    def test_list_streams_in_every_format(self, fmt):
        # A range of 10**18 returns only if survivors are written as they
        # come: the output gives up after its tenth write.
        class Enough(Exception):
            pass

        class TenWrites(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes > 10:
                    raise Enough
                return super().write(text)

        out = TenWrites()
        with pytest.raises(Enough):
            cli.main(["list", "--n", "3", "--lo", "0", "--hi", str(10**18), *fmt],
                     out=out)
        assert out.writes == 11

    def test_wheel_cap_env_override(self, monkeypatch, capsys):
        monkeypatch.setenv("SIEVECYCLES_WHEEL_CAP", "10")
        code, _ = run_cli("wheel", "--n", "3")
        assert code == 2
        assert "cap" in capsys.readouterr().err

    def test_from_wheel_obeys_the_wheel_cap(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(run_cli("wheel", "--n", "3", "--json")[1])
        assert run_cli("list", "--from-wheel", str(path), "--wheel-cap", "5") == (2, "")
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "exceeds the wheel cap of 5" in err
        assert run_cli("list", "--from-wheel", str(path), "--wheel-cap", "30",
                       "--hi", "10") == (0, "1\n7\n")

    def test_wheel_cap_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("SIEVECYCLES_WHEEL_CAP", "10")
        code, text = run_cli("wheel", "--n", "3", "--wheel-cap", "100")
        assert code == 0
        assert "count: 8" in text

    def test_deterministic_output(self):
        first = run_cli("wheel", "--n", "4", "--json")
        second = run_cli("wheel", "--n", "4", "--json")
        assert first == second


class TestPairsAndTwins:
    def test_twins_census(self):
        code, text = run_cli("twins", "--n", "4")
        assert "predicted: 15" in text

    def test_twins_enumerate(self):
        code, text = run_cli("twins", "--n", "4", "--enumerate")
        tail = text.split("centers:\n", 1)[1]
        assert tail.split() == ["12", "18", "30", "42", "60", "72", "102",
                                "108", "138", "150", "168", "180", "192",
                                "198", "210"]

    def test_pairs_offsets(self):
        code, text = run_cli("pairs", "--n", "4", "--a", "3", "--b", "3")
        assert "predicted: 30" in text

    def test_pairs_csv_is_factor_table(self):
        _, text = run_cli("pairs", "--n", "3", "--format", "csv")
        assert text.splitlines() == ["modulus,forbidden,factor",
                                     "2,1,1", "3,2,1", "5,2,3"]

    def test_pairs_json(self):
        _, text = run_cli("pairs", "--n", "3", "--enumerate", "--json")
        doc = json.loads(text)
        assert doc["result"]["predicted"] == 3
        assert doc["result"]["centers"] == [12, 18, 30]

    def test_negative_offset_rejected(self, capsys):
        assert run_cli("pairs", "--n", "3", "--a", "-1", "--b", "1") == (1, "")
        assert capsys.readouterr().err == "error: offsets must be non-negative\n"


class TestCyclesAndTable:
    def test_cycles_plain(self):
        code, text = run_cli("cycles", "--n", "4", "--chosen", "5")
        assert "interval_length: 52.5" in text
        assert text.splitlines()[-1].split() == ["4", "210", "48", "12"]

    def test_cycles_csv(self):
        _, text = run_cli("cycles", "--n", "4", "--chosen", "7",
                          "--format", "csv")
        rows = text.splitlines()
        assert rows[0] == "k,boundary,cumulative,per_interval"
        assert rows[1] == "1,35,8,8"
        assert rows[-1] == "6,210,48,8"

    def test_cycles_rejects_foreign_modulus(self):
        code, _ = run_cli("cycles", "--n", "4", "--chosen", "11")
        assert code == 1

    def test_table_exact_rows(self):
        _, text = run_cli("table", "--n", "10", "--format", "csv")
        rows = text.splitlines()
        assert "5,4,1617423307.5,255467520" in rows
        assert "19,18,1078282205/3,56770560" in rows
        assert "29,28,231060472.5,36495360" in rows

    def test_table_total(self):
        _, text = run_cli("table", "--n", "10")
        assert text.rstrip().endswith("total_intervals: 119")


class TestPhi:
    def test_primorial(self):
        code, text = run_cli("phi", "--x", "210")
        assert "phi: 48" in text
        assert "matches_count: true" in text

    def test_composite(self):
        _, text = run_cli("phi", "--x", "55660")
        assert "phi: 19360" in text
        assert "prime_divisors: 2 5 11 23" in text

    def test_non_positive_rejected(self):
        code, _ = run_cli("phi", "--x", "0")
        assert code == 1


class TestRing:
    def test_decompose_with_inverse(self):
        code, text = run_cli("ring", "--n", "3", "--x", "7", "--inverse")
        assert "entries: 1 1 2" in text
        assert "inverse_reconstructed: 13" in text

    def test_reconstruct_vector(self):
        _, text = run_cli("ring", "--n", "3", "--vector", "1,2,4")
        assert "reconstructed: 29" in text

    def test_survivor_but_not_unit(self):
        _, text = run_cli("ring", "--moduli", "4,9,25", "--x", "2")
        assert "survivor_vector: true" in text
        assert "unit_vector: false" in text

    def test_inverse_of_non_unit_fails(self):
        code, _ = run_cli("ring", "--n", "3", "--x", "10", "--inverse")
        assert code == 1

    def test_requires_exactly_one_input(self):
        assert run_cli("ring", "--n", "3")[0] == 1
        assert run_cli("ring", "--n", "3", "--x", "1", "--vector", "1,1,1")[0] == 1


class TestVerifyCommand:
    def test_single_check_passes(self):
        code, text = run_cli("verify", "--depth", "small",
                             "--checks", "wheel.symmetry")
        assert code == 0
        assert text.startswith("PASS wheel.symmetry")

    def test_failure_exit_code(self, monkeypatch):
        monkeypatch.setattr(cli, "run_checks",
                            lambda **kw: [CheckResult("fake.check", False, "boom")])
        code, text = run_cli("verify", "--depth", "small")
        assert code == 3
        assert "FAIL fake.check" in text

    def test_a_check_that_raises_fails_and_the_rest_still_run(self, monkeypatch):
        def multiply(u, v):
            raise ValueError("entry 40 out of range for modulus 25")
        monkeypatch.setattr(verify, "multiply", multiply)
        code, text = run_cli("verify", "--depth", "small",
                             "--checks", "ring.product_map,ring.bijection")
        assert code == 3
        passed, failed, total = text.splitlines()  # in CHECKS order
        assert passed.startswith("PASS ring.bijection: ")
        assert failed == ("FAIL ring.product_map: raised ValueError: "
                          "entry 40 out of range for modulus 25")
        assert total == "passed 1/2 at depth small"

    def test_json_report(self):
        code, text = run_cli("verify", "--depth", "small",
                             "--checks", "ring.bijection", "--json")
        doc = json.loads(text)
        assert doc["result"]["failed"] == 0
        assert doc["result"]["results"][0]["name"] == "ring.bijection"

    def test_unknown_check_is_usage_error(self):
        code, _ = run_cli("verify", "--checks", "definitely.not.real")
        assert code == 1

    @pytest.mark.parametrize("checks", [",", " , ,", ""])
    def test_empty_check_list_is_usage_error(self, checks, capsys):
        assert run_cli("verify", "--depth", "small", "--checks", checks) == (1, "")
        assert "no checks selected" in capsys.readouterr().err


class TestUsage:
    def test_unknown_command(self):
        assert run_cli("frobnicate")[0] == 1

    def test_bad_moduli_string(self):
        assert run_cli("wheel", "--moduli", "2;3")[0] == 1

    def test_non_coprime_moduli(self):
        assert run_cli("wheel", "--moduli", "4,6")[0] == 1


class TestNegativeCaps:
    @pytest.mark.parametrize("argv", [
        ("wheel", "--n", "3", "--wheel-cap", "-5"),
        ("list", "--n", "3", "--wheel-cap", "-1"),
        ("twins", "--n", "3", "--enumerate", "--wheel-cap", "-1"),
        ("count", "--n", "3", "--x", "5", "--method", "oracle", "--oracle-cap", "-1"),
        ("phi", "--x", "10", "--factor-cap", "-2"),
        # a cap is checked even on a run that does not use it
        ("pairs", "--n", "3", "--wheel-cap", "-5"),
        ("twins", "--n", "3", "--wheel-cap", "-1"),
        ("count", "--n", "3", "--x", "5", "--oracle-cap", "-5"),
    ])
    def test_flag_is_usage_error(self, argv, capsys):
        assert run_cli(*argv) == (1, "")
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be non-negative" in err

    @pytest.mark.parametrize("env, argv", [
        ("SIEVECYCLES_WHEEL_CAP", ("wheel", "--n", "3")),
        ("SIEVECYCLES_ORACLE_CAP",
         ("count", "--n", "3", "--x", "5", "--method", "oracle")),
        ("SIEVECYCLES_FACTOR_CAP", ("phi", "--x", "10")),
        ("SIEVECYCLES_ORACLE_CAP", ("count", "--n", "3", "--x", "5")),
        ("SIEVECYCLES_WHEEL_CAP", ("pairs", "--n", "3")),
    ])
    def test_env_is_usage_error(self, env, argv, monkeypatch, capsys):
        monkeypatch.setenv(env, "-3")
        assert run_cli(*argv) == (1, "")
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{env} must be non-negative" in err

    def test_zero_cap_still_applies(self, capsys):
        code, _ = run_cli("wheel", "--n", "3", "--wheel-cap", "0")
        assert code == 2
        assert "cap" in capsys.readouterr().err


class TestCapsPastTheIndexRange:
    """A cap above sys.maxsize cannot buy a residue tuple longer than an
    index reaches, or an oracle scan of more integers than that: each run
    is refused before anything is allocated."""

    HUGE = str(10**30)

    @pytest.mark.parametrize("argv", [
        ("wheel", "--n", "17", "--wheel-cap", HUGE),
        ("twins", "--n", "17", "--enumerate", "--wheel-cap", HUGE),
        ("count", "--n", "3", "--x", str(10**26), "--method", "oracle",
         "--oracle-cap", HUGE),
    ])
    def test_capacity_error(self, argv, capsys):
        assert run_cli(*argv) == (2, "")
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"exceeds {sys.maxsize - 1}," in err

    def test_a_long_period_is_given_by_its_digit_count(self, capsys):
        assert run_cli("wheel", "--n", "30") == (2, "")
        digits = len(str(make_prime_basis(30).period))
        assert capsys.readouterr().err == (
            f"capacity error: a period of {digits} digits exceeds the wheel cap "
            "of 100000000 residue candidates\n")


class TestWheelRefusedBeforeItsBasis:
    """With --n, a command that materializes a wheel refuses it on the cap
    in one short line, before any count product or residue is made.  The
    basis is still checked first, so no path skips that check, though it
    costs several times the period's product."""

    REFUSAL = ("capacity error: a period of 151937 digits exceeds the wheel "
               "cap of 100000000 residue candidates\n")

    @pytest.mark.parametrize("argv", [
        ("wheel",), ("list",), ("list", "--lo", "1", "--hi", "100"),
        ("pairs", "--enumerate"), ("twins", "--enumerate"),
    ])
    def test_no_basis_is_built(self, argv, capsys):
        assert run_cli(*argv, "--n", "30", "--wheel-cap", "1000") == (2, "")
        assert "exceeds the wheel cap of 1000" in capsys.readouterr().err

    def test_30000_primes_refused_at_once(self, capsys):
        # The whole process takes 0.38-0.51 s on a 2-core x86-64 host, 0.33 s
        # of it the primes' check and product; a gcd per prime took 2 s.
        start = time.perf_counter()
        assert run_cli("wheel", "--n", "30000") == (2, "")
        assert time.perf_counter() - start < 1.5
        assert capsys.readouterr().err == self.REFUSAL

    def test_a_census_without_a_wheel_still_answers(self):
        code, text = run_cli("pairs", "--n", "30", "--wheel-cap", "1000")
        assert code == 0 and text.startswith("predicted: ")


def run_cli_process(*argv):
    """The CLI in a fresh interpreter, under Python's default digit limit."""
    return subprocess.run([sys.executable, "-m", "sievecycles.cli", *argv],
                          env=child_env(), capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("command", ["wheel", "twins"])
def test_out_of_memory_is_a_capacity_error(command):
    # the cap admits 14 primes, whose period of 1.3e16 candidates no
    # allocator holds, as flags or as the survivors' pointers: refused at
    # once, before a row is rolled
    resource = pytest.importorskip("resource")
    argv = [command, "--n", "14", "--wheel-cap", "100000000000000000"]
    if command == "twins":
        argv.append("--enumerate")
    # 2 GiB of address space: a build that ran out of memory partway fails
    # the test instead of taking the host's memory.  Rolled to that point,
    # each command took 8 s; refused at once, well under one.
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-m", "sievecycles.cli", *argv],
                          env=child_env(), capture_output=True, text=True,
                          timeout=60, preexec_fn=lambda: resource.setrlimit(
                              resource.RLIMIT_AS, (2 << 30, 2 << 30)))
    assert time.monotonic() - start < 5
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith("capacity error: out of memory; a lower cap")
    assert "--wheel-cap" in done.stderr


# Runs the CLI with the rest of its arguments in a child, stdout to
# /dev/null, and prints the child's exit code and ru_maxrss as os.wait4
# reads them.  A child counts the memory of the process it was forked
# from, so the test forks it from this small interpreter, not from pytest.
_MAXRSS = """
import os, sys
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.execv(sys.executable, [sys.executable, "-m", "sievecycles.cli", *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_a_short_window_holds_no_period():
    # The 8-prime wheel, 1,658,880 residues, once took the child to 81 MiB
    # to list 18 survivors; the interpreter and import alone take 16-18.
    pytest.importorskip("resource")
    done = subprocess.run([sys.executable, "-c", _MAXRSS, "list", "--n", "8",
                           "--lo", "1", "--hi", "100"], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    code, maxrss = map(int, done.stdout.split())
    kib = maxrss // 1024 if sys.platform == "darwin" else maxrss
    assert code == 0 and kib < 40 * 1024


def _exhausted(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("name, argv, stderr", [
    # cycles accepts no cap, so no cap is offered
    ("subdivision", ["cycles", "--n", "4", "--chosen", "7"],
     "capacity error: out of memory\n"),
    ("count_legendre", ["count", "--n", "4", "--x", "100", "--method", "legendre"],
     "capacity error: out of memory; a lower cap (--oracle-cap) refuses this "
     "request before allocating\n"),
])
def test_out_of_memory_names_only_the_caps_accepted(name, argv, stderr,
                                                    monkeypatch, capsys):
    monkeypatch.setattr(cli, name, _exhausted)
    assert cli.main(argv, out=io.StringIO()) == 2
    assert capsys.readouterr().err == stderr


# Runs the CLI with the rest of its arguments, with one internal result
# made wrong: every roll yields one residue too many, or, for ``cycles``,
# the third boundary is counted one too high.
_ONE_WRONG_RESULT = """
import sys
from unittest.mock import patch
from sievecycles import basis, cli, counting, cycles

def extra_residue(*args):
    yield from roll(*args)
    yield iter((0,))

def third_high(moduli, ns):
    counts = counting._floor_counts(moduli, ns)
    counts[2] += 1
    return counts

roll = basis._roll
if sys.argv[1] == "cycles":
    wrong = patch.object(cycles, "_floor_counts", third_high)
else:
    wrong = patch.object(basis, "_roll", extra_residue)
with wrong:
    sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python-O"])
@pytest.mark.parametrize("argv, message", [
    (("wheel", "--n", "4"), "a roll made 61 residues, not the 48 the product "
                            "formula requires"),
    (("twins", "--n", "4", "--enumerate"), "a roll made 22 residues, not the 15 "
                                           "the product formula requires"),
    (("cycles", "--n", "4", "--chosen", "7"),
     "interval 3 of modulus 7 holds 9 survivors, not 8"),
], ids=["wheel", "twins", "cycles"])
def test_a_failed_internal_check_exits_3_in_one_line(flags, argv, message):
    done = subprocess.run([sys.executable, *flags, "-c", _ONE_WRONG_RESULT, *argv],
                          env=child_env(), capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == f"verification failure: {message}\n"


# Each writes far more than a pipe holds, so it is still writing when the
# reader goes away.
@pytest.mark.parametrize("argv", [
    ("list", "--n", "3", "--lo", "0", "--hi", "100000000"),
    ("list", "--n", "3", "--lo", "0", "--hi", "100000000", "--json"),
    ("wheel", "--n", "7"),
    ("twins", "--n", "8", "--enumerate"),
])
def test_output_closed_early_exits_1_quietly(argv):
    proc = subprocess.Popen([sys.executable, "-m", "sievecycles.cli", *argv],
                            env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert proc.stdout.read(16)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on int/str conversion")
class TestIntegerSize:
    # 1250 primes have a period of more than 4300 digits, Python's default
    # limit on converting an int to or from text
    @pytest.mark.parametrize("argv", [
        ("table", "--n", "1250"),
        ("table", "--n", "1250", "--format", "csv"),
        ("table", "--n", "1250", "--json"),
        ("ring", "--n", "1250", "--x", "1000003", "--inverse"),
    ])
    def test_outputs_have_no_digit_limit(self, argv):
        done = run_cli_process(*argv)
        assert (done.returncode, done.stderr) == (0, "")

    def test_pair_census_of_1250_primes(self):
        done = run_cli_process("pairs", "--n", "1250")
        assert (done.returncode, done.stderr) == (0, "")
        predicted = prod(p - 2 for p in make_prime_basis(1250) if p != 2)
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            assert len(str(predicted)) > 4300
            assert done.stdout.splitlines()[0] == f"predicted: {predicted}"
        finally:
            sys.set_int_max_str_digits(saved)

    def test_wheel_file_keeps_the_default_limit(self, tmp_path):
        # lifted, int() alone would spend seconds on this one period
        path = tmp_path / "w.json"
        path.write_text('{"basis": [2, 3], "result": {"period": 1'
                        + "0" * 10**6 + ', "residues": [1, 5]}}')
        start = time.perf_counter()
        done = run_cli_process("list", "--from-wheel", str(path))
        assert time.perf_counter() - start < 5
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.count("\n") == 1 and "digits" in done.stderr

    def test_main_restores_the_limit(self):
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(5000)
            assert run_cli("pairs", "--n", "3")[0] == 0
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(saved)


def test_runs_where_python_has_no_digit_limit(monkeypatch, tmp_path):
    # Python releases before 3.10.7 have neither limit nor setter
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    path = tmp_path / "w.json"
    path.write_text(run_cli("wheel", "--n", "3", "--json")[1])
    assert run_cli("list", "--from-wheel", str(path), "--hi", "10") == (0, "1\n7\n")
