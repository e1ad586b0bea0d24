import json
import re
from pathlib import Path

import pytest

import fault_grid
from eisen2 import cli, graded


# past sys.maxsize on any platform, so no list of this length can be made
_HUGE = str(10**20)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_export_series_json(capsys):
    code, out, _ = run_cli(capsys, "export", "E2star", "--order", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "name": "E2star",
        "order": 3,
        "coefficients": ["1", "8", "-8", "32"],
    }


def test_export_tau_csv(capsys):
    code, out, _ = run_cli(capsys, "export", "tau", "--order", "10", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,value"
    assert "1,1" in lines
    assert "2,-24" in lines
    assert "4,-1472" in lines


@pytest.mark.parametrize("name", ["tau", "delta"])
def test_export_tau_at_order_0_is_the_constant_term(capsys, name):
    # tau is the discriminant, so both names print its q^0 coefficient
    code, out, err = run_cli(capsys, "export", name, "--order", "0")
    assert (code, err) == (0, "")
    assert json.loads(out)["coefficients"] == ["0"]


def test_export_theta3_csv(capsys):
    code, out, _ = run_cli(
        capsys, "export", "theta3", "--order", "4", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["n,value", "0,1", "1,2", "2,0", "3,0", "4,2"]


def test_export_rational_series(capsys):
    code, out, _ = run_cli(capsys, "export", "E8star", "--order", "2")
    payload = json.loads(out)
    assert payload["coefficients"] == ["1", "-32/17", "4064/17"]


def test_export_tables(capsys):
    code, out, _ = run_cli(capsys, "export", "delta8", "--order", "3", "--format", "csv")
    assert out.splitlines() == ["n,value", "0,1", "1,8", "2,28", "3,64"]
    code, out, _ = run_cli(capsys, "export", "r4", "--order", "3", "--format", "csv")
    assert out.splitlines() == ["n,value", "0,1", "1,8", "2,24", "3,32"]
    code, out, _ = run_cli(capsys, "export", "sigma3star", "--order", "2")
    assert json.loads(out)["coefficients"] == ["-1/16", "1", "-7"]


def test_export_polynomial(capsys):
    code, out, _ = run_cli(capsys, "export", "E10star_poly")
    assert code == 0
    payload = json.loads(out)
    assert payload["weight"] == 10
    assert payload["terms"] == [[0, 1, 3, "4/31"], [0, 2, 1, "27/31"]]


def test_export_unknown_name(capsys):
    code, _, err = run_cli(capsys, "export", "E7")
    assert code == 2
    assert "unknown export name" in err


def test_export_default_orders(capsys):
    assert cli._default_order("tau") == 1000
    assert cli._default_order("r24") == 1000
    assert cli._default_order("E4") == 64
    code, out, _ = run_cli(capsys, "export", "tau")
    assert len(json.loads(out)["coefficients"]) == 1001


def test_export_to_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(
        capsys, "export", "tau", "--order", "4", "--format", "csv",
        "--output", str(target),
    )
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[-1] == "4,-1472"


def test_verify_single(capsys):
    code, out, _ = run_cli(capsys, "verify", "RAM-DE", "--order", "16")
    assert code == 0
    assert "pass  RAM-DE" in out
    assert "1/1 checks passed" in out


def test_verify_family_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "KS-DE", "--order", "8")
    assert code == 0
    assert out.count("pass  KS-DE") == 11


def test_verify_unknown(capsys):
    code, _, err = run_cli(capsys, "verify", "NOPE")
    assert code == 2
    assert "unknown check id" in err


def test_verify_stdout_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "HAHN-SYS", "--order", "12")
    _, second, _ = run_cli(capsys, "verify", "HAHN-SYS", "--order", "12")
    assert first == second


def test_verify_json_stdout(capsys):
    code, out, _ = run_cli(capsys, "verify", "T5", "--nmax", "16", "--json", "-")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1
    record = payload[0]
    assert record["id"] == "T5"
    assert record["status"] == "pass"
    assert record["first_discrepancy"] is None
    assert isinstance(record["elapsed_ms"], int)


@pytest.mark.parametrize(
    "check_id, n, lhs, rhs, notes",
    [
        ("MINORS-L1", 7, "16368", "16128", None),
        ("GARVAN", 8, "-3626417665428480/691", "-3626417848320000/691", None),
        ("DIS", 7, "-16744", "-200923/12",
         ["eta product against the level-1 route (E4^3-E6^2)/1728"]),
    ],
    ids=["MINORS-L1", "GARVAN", "DIS"],
)
def test_verify_json_reports_a_failure_exactly(capsys, check_id, n, lhs, rhs, notes):
    # a fault-grid case: sigma_3(7) + 1 in the divisor-sum table
    with dict(fault_grid.cases((7,), ()))["sigma(3)[7]+1"]:
        code, out, _ = run_cli(capsys, "verify", check_id, "--order", "32", "--json", "-")
    assert code == 1
    (record,) = json.loads(out)
    assert record["status"] == "fail"
    assert record["first_discrepancy"] == {"n": n, "lhs": lhs, "rhs": rhs}
    assert record.get("notes") == notes


def test_verify_timings_end_each_check_line(capsys):
    code, out, _ = run_cli(capsys, "verify", "KS-DE", "--order", "8", "--timings")
    assert code == 0
    *lines, total = out.splitlines()
    assert len(lines) == 11 and total == "11/11 checks passed"
    assert all(re.fullmatch(r"pass  KS-DE\(\d+\)  \(order 8\)  \[\d+ ms\]", line)
               for line in lines)


def test_verify_timings_end_the_fail_line_not_its_notes(capsys):
    with dict(fault_grid.cases((7,), ()))["sigma_sharp(1)[7]+1"]:
        code, out, _ = run_cli(capsys, "verify", "P4", "--order", "32", "--timings")
    assert code == 1
    fail, note, total = out.splitlines()
    assert re.fullmatch(r"FAIL  P4  \(order 32\) at n=7: -134464 != -134488"
                        r"  \[\d+ ms\]", fail)
    assert note == "      note: series-level rule for B broken"
    assert total == "0/1 checks passed"


@pytest.mark.parametrize(
    "argv",
    [("verify", "L4", "--order", "8", "--json"), ("export", "C", "--output")],
    ids=["json", "output"],
)
def test_a_failed_write_exits_2_with_one_line(capsys, monkeypatch, tmp_path, argv):
    # the path passes the checks made before any work, and open still fails
    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    target = tmp_path / "x"
    code, _, err = run_cli(capsys, *argv, str(target))
    assert code == 2
    assert err == f"cannot write {target}: Permission denied\n"
    assert not target.exists()


def test_verify_json_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "L4", "--order", "12", "--json", str(target)
    )
    assert code == 0
    assert "pass  L4" in out
    payload = json.loads(target.read_text())
    assert payload[0]["id"] == "L4"


def test_decompose_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "E8star", "--weight", "8", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["a,b,c,value", "0,1,2,8/17", "0,2,0,9/17"]


def test_list_subcommand(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    assert "KS-DE(2)" in out
    assert "TABLE2" in out
    assert "E<2k>star" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "all", "--order", "-1"),
        ("verify", "T8", "--nmax", "-5"),
        ("export", "E2star", "--order", "-2"),
        ("export", "tau", "--order", "-1"),
        ("decompose", "E8star", "--weight", "7"),
        ("decompose", "E8star", "--weight", "8", "--order", "1"),
        ("export", "E8star_poly", "--order", "11"),
        ("verify", "all", "--json", "/nonexistent/x.json"),
        ("export", "tau", "--output", "/nonexistent/x.csv"),
        ("verify", "T49", "--json", ""),
        ("export", "C", "--output", ""),
        ("verify", "all", "--order", _HUGE),
        ("verify", "T49", "--mmax", _HUGE),
        ("verify", "C1", "--nmax", _HUGE),
        ("export", "E4", "--order", _HUGE),
        ("decompose", "E4star", "--weight", "4", "--order", _HUGE),
        ("decompose", "E4star", "--weight", "4", "--order", "-1"),
        ("decompose", "bogus", "--weight", "4"),
        ("export", "E2star_poly"),
    ],
)
def test_bad_input_exits_2_with_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.strip()


@pytest.mark.parametrize(
    "argv, named",
    [
        (("verify", "all", "--order", _HUGE), f"--order {_HUGE}"),
        (("verify", "T49", "--mmax", _HUGE), f"--mmax {_HUGE}"),
        (("verify", "C1", "--nmax", _HUGE), f"--nmax {_HUGE}"),
        (("export", "E4", "--order", _HUGE), f"--order {_HUGE}"),
        (("decompose", "E4star", "--weight", "4", "--order", _HUGE), f"--order {_HUGE}"),
        (("export", f"E{_HUGE}star_poly"), f"E{_HUGE}star_poly"),
    ],
)
def test_a_size_past_the_index_range_is_named(capsys, argv, named):
    # no list that long can exist: one line naming the size, not a traceback
    assert run_cli(capsys, *argv) == (2, "", f"{named} is too large for this platform\n")


@pytest.mark.parametrize(
    "argv, named",
    [
        (("verify", "T49", "--mmax", "100000000000000"), "--mmax 100000000000000"),
        (("verify", "all", "--order", "100", "--nmax", "100000000000"),
         "--nmax 100000000000"),
        (("export", "delta", "--order", "100000000000"), "--order 100000000000"),
    ],
)
def test_a_size_past_memory_is_named(capsys, monkeypatch, argv, named):
    # within the index range but past memory: one line naming the size, not
    # a traceback; the work raises MemoryError at once, with no allocation
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli.checks, "run_all", out_of_memory)
    monkeypatch.setattr(cli, "SeriesCatalog", out_of_memory)
    assert run_cli(capsys, *argv) == (
        2, "", f"{named} is too large for this machine's memory\n")


@pytest.mark.parametrize("flag", ["--json", "--output"])
def test_unwritable_output_fails_before_any_work(capsys, monkeypatch, tmp_path, flag):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr(cli.checks, "run_all", refuse)
    monkeypatch.setattr(cli, "SeriesCatalog", refuse)
    command = ("verify", "all") if flag == "--json" else ("export", "tau")
    for path in (tmp_path / "missing" / "x", tmp_path):
        code, out, err = run_cli(capsys, *command, flag, str(path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and str(path) in err
    assert list(tmp_path.iterdir()) == []


def test_decompose_non_modular_reports_one_line(capsys):
    code, out, err = run_cli(capsys, "decompose", "E2star", "--weight", "2")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "not modular" in err


def test_export_of_a_bad_tower_level_reports_one_line(capsys, monkeypatch):
    # the level is judged by its series equation, as T49 judges it: a fault
    # exits 1 with the level, the exponent and both values, and no traceback
    # the tower's normalizer S*_7(0) doubled halves E*_8 and leaves its series alone
    real = graded.divisor_sum_zero
    monkeypatch.setattr(graded, "divisor_sum_zero", lambda kind, s: (
        2 * real(kind, s) if (kind, s) == ("sigma_star", 7) else real(kind, s)))
    code, out, err = run_cli(capsys, "export", "E8star_poly")
    assert (code, out) == (1, "")
    assert err == ("E8star_poly is not certified: E8star polynomial: differential "
                   "recursion against the q-expansion fails at q^0: 1/2 != 1\n")


def test_decompose_resolves_the_export_names(capsys):
    # decompose and export share SeriesCatalog.by_name: S*_3 is E*_4 / 16
    code, out, err = run_cli(
        capsys, "decompose", "sigma3star", "--weight", "4", "--format", "csv"
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == ["a,b,c,value", "0,1,0,-1/16"]
    # theta3^8 is a form on the smaller group Gamma0(4), outside the B, C basis
    code, out, err = run_cli(capsys, "decompose", "r8", "--weight", "4")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "not modular" in err


def test_verify_table_below_its_range(capsys):
    # TABLE2 covers n = 0..4 even when the range checks stop below that
    code, out, _ = run_cli(capsys, "verify", "TABLE2", "--nmax", "3")
    assert code == 0
    assert "pass  TABLE2" in out


def test_verify_all_small_matches_golden_output(capsys):
    # stdout of `eisen2 verify all --order 16 --nmax 40 --mmax 6`, notes and
    # order lines included
    golden = Path(__file__).parent / "data" / "verify_all_small.txt"
    code, out, _ = run_cli(
        capsys, "verify", "all", "--order", "16", "--nmax", "40", "--mmax", "6"
    )
    assert code == 0
    assert out.encode() == golden.read_bytes()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("export", "E80star_poly"), "export_E80star_poly.json"),
        (("export", "E40star_poly", "--format", "csv"), "export_E40star_poly.csv"),
        (("export", "E40star_poly", "--format", "csv", "--order", "64"),
         "export_E40star_poly.csv"),
    ],
)
def test_export_poly_matches_golden_output(capsys, argv, golden):
    # exact polynomial records, generated before GradedPoly moved to integers
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode() == (Path(__file__).parent / "data" / golden).read_bytes()
