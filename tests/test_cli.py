import ast
import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
from argparse import Namespace
from fractions import Fraction

import pytest

from padicslopes import cli
from padicslopes import lemma_checks as lc
from padicslopes.cli import main
from padicslopes.padic import INFINITY, integer_log

from lemma_oracle import recurrence_rows


def run_console(args):
    """``python -m padicslopes.cli`` in a child process that imports the
    package under test."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "padicslopes.cli", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def run_cli(args, out_path=None):
    argv = list(args)
    if out_path is not None:
        argv += ["--out", str(out_path)]
    return main(argv)


class TestSlopesCommand:
    def test_2_12(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(["slopes", "--p", "2", "--k", "12"], out) == 0
        assert out.read_text().splitlines() == ["p,k,slope", "2,12,3"]

    def test_range_and_oracle(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(["slopes", "--p", "5", "--k", "12..24"], out) == 0
        lines = out.read_text().splitlines()
        # direct recomputation of the same cells
        from padicslopes.modforms import slopes
        from padicslopes.padic import format_rational

        expected = ["p,k,slope"]
        for k in range(12, 25, 2):
            for s in slopes(5, k):
                expected.append(f"5,{k},{format_rational(s)}")
        assert lines == expected

    def test_59_16_flagged(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(["slopes", "--p", "59", "--k", "16"], out) == 0
        slope = int(out.read_text().splitlines()[1].split(",")[2])
        assert slope >= 1

    def test_no_floats_without_approx(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli(["slopes", "--p", "2", "--k", "12..36"], out)
        assert "." not in out.read_text()

    def test_approx_marked(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli(["slopes", "--p", "2", "--k", "12", "--approx"], out)
        lines = out.read_text().splitlines()
        assert lines[0].endswith("approx_decimal")
        assert "~" in lines[1]

    def test_exact_values_rendered_by_the_writer(self, tmp_path, monkeypatch):
        # raw INFINITY and Fraction slopes reach _write: JSON renders them through its hook
        monkeypatch.setattr(cli.mf, "slope_table", lambda ps, ks, starmap: {(5, 12): [INFINITY, Fraction(1, 2)]})
        out = tmp_path / "s"
        assert run_cli(["slopes", "--p", "5", "--k", "12", "--format", "json"], out) == 0
        assert json.loads(out.read_text()) == {"records": [{"p": 5, "k": 12, "slopes": ["inf", "1/2"]}]}
        assert run_cli(["slopes", "--p", "5", "--k", "12"], out) == 0
        assert out.read_text().splitlines() == ["p,k,slope", "5,12,inf", "5,12,1/2"]
        assert run_cli(["slopes", "--p", "5", "--k", "12", "--approx"], out) == 0
        assert out.read_text().splitlines()[1:] == ["5,12,inf,~inf", "5,12,1/2,~0.500000"]


class TestMeasureCommand:
    def test_59_16_middle_count(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run_cli(["measure", "--p", "59", "--k", "16"], out) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[:5] == ["59", "16", "2", "0", "2"]

    def test_5_oldforms_sweep_zero(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run_cli(["measure", "--p", "5", "--k", "12..60", "--oldforms"], out) == 0
        for line in out.read_text().splitlines()[1:]:
            assert line.split(",")[4] == "0"

    def test_newform_mass_value(self, tmp_path):
        out = tmp_path / "m.json"
        assert run_cli(
            ["measure", "--p", "5", "--k", "12", "--include-newforms", "--format", "json"], out
        ) == 0
        data = json.loads(out.read_text())
        assert data["rows"][0]["masses"].count("5/11") == 3

    @pytest.mark.parametrize("k", ["3", "13", "1..3"])
    def test_no_even_weight_exit_2(self, k, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert run_cli(["measure", "--p", "5", "--k", k], out) == 2
        assert "no even weights >= 4 in --k" in capsys.readouterr().err
        assert not out.exists()

    def test_resource_guard_loud(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert run_cli(["measure", "--p", "5", "--k", "12..200", "--max-dim", "2"], out) == 0
        assert "cutoff" in out.read_text()
        assert "max_dim guard" in capsys.readouterr().err


class TestLambdaCommand:
    def test_dump(self, tmp_path):
        out = tmp_path / "l.csv"
        assert run_cli(["lambda", "--p", "5", "--R", "1", "--alpha", "7"], out) == 0
        assert out.read_text().splitlines() == ["beta,value", "6,-1/4", "7,11/4"]


class TestVerifyCommand:
    def test_lemma9_small(self, tmp_path):
        out = tmp_path / "v.csv"
        assert run_cli(["verify", "lemma9", "--p", "2,3,5", "--a-max", "120"], out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert all("holds" in ln for ln in lines[1:])

    def test_lemma9_sweep_to_a_million(self, tmp_path):
        # the sweep reports floor(log_p a_max) and walks no row; the pair
        # count stays a(a+3)/2
        out, a_max = tmp_path / "v.json", 10**6
        assert run_cli(["verify", "lemma9", "--p", "2", "--a-max", str(a_max), "--format", "json"], out) == 0
        [record] = json.loads(out.read_text())["records"]
        assert (record["checked"], record["max_valuation"]) == (a_max * (a_max + 3) // 2, 19)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_lemma9_maximum_is_the_log_of_a_max(self, p):
        # at every a_max the sweep's largest v_p(C(a, b)) is the running
        # maximum of the recurrence oracle's rows, floor(log_p a_max),
        # reached at (p^e, 1)
        top = 0
        for a, row in enumerate(recurrence_rows(p, 2000), start=1):
            top = max(top, max(row) // (p - 1))
            assert lc.sweep_lemma9(p, a).max_valuation_seen == top, a
            e = integer_log(p, a)
            assert top == e, a
            if a == p**e:
                assert row[1] == (p - 1) * e

    def test_double_sum_target(self, tmp_path):
        out = tmp_path / "v.csv"
        assert run_cli(["verify", "double-sum", "--p", "5,7", "--r-max", "60"], out) == 0

    def test_det_factorization_note(self, tmp_path):
        out = tmp_path / "v.csv"
        assert run_cli(["verify", "det-factorization", "--p", "5", "--R-max", "10"], out) == 0
        text = out.read_text()
        assert "(p-1)^(R(R-1)/2)" in text

    def test_rho_annihilator_target(self, tmp_path):
        out = tmp_path / "v.csv"
        assert run_cli(["verify", "rho-annihilator", "--p", "5,7,11,13", "--r-max", "100"], out) == 0

    def test_json_format(self, tmp_path):
        out = tmp_path / "v.json"
        assert run_cli(
            ["verify", "lemma13", "--p", "5", "--r-max", "40", "--format", "json"], out
        ) == 0
        data = json.loads(out.read_text())
        assert data["verified"] is True
        assert all(rec["verdict"] in ("holds", "vacuous") for rec in data["records"])

    def test_usage_error_exit_2(self):
        assert run_cli(["verify", "double-sum", "--p", "6"]) == 2
        assert run_cli(["slopes", "--p", "5", "--k", "13"]) == 2

    def test_jobs_determinism(self, tmp_path):
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        for argv in (
            ["lemma10", "--p", "5", "--r-max", "80"],
            ["lemma12", "--p", "5,7", "--r-max", "80", "--format", "json"],
            ["integrality", "--p", "5,7", "--r-max", "80"],
            ["integrality", "--p", "5", "--r-max", "80", "--format", "json"],
        ):
            assert run_cli(["verify", *argv, "--jobs", "3"], a) == 0
            assert run_cli(["verify", *argv, "--jobs", "1"], b) == 0
            assert a.read_bytes() == b.read_bytes()

    def test_lemma_records_built_only_for_json(self, tmp_path, monkeypatch):
        built = []
        record = cli._lemma_record
        monkeypatch.setattr(cli, "_lemma_record", lambda rep: built.append(rep) or record(rep))
        argv = ["verify", "lemma12", "--p", "5", "--r-max", "60"]
        csv_out, json_out = tmp_path / "v.csv", tmp_path / "v.json"
        assert run_cli(argv, csv_out) == 0
        assert built == []
        assert run_cli([*argv, "--format", "json"], json_out) == 0
        cells = [tuple(map(int, line.split(",")[1:4])) for line in csv_out.read_text().splitlines()[1:]]
        assert [(rep.p, rep.r, rep.alpha) for rep in built] == cells
        assert json.loads(json_out.read_text())["records"] == [record(rep) for rep in built]

    def test_lemma_counterexample_reported_in_full(self, tmp_path, capsys, monkeypatch):
        # one lemma cell is made to fail: exit 1, and stderr carries that
        # cell's whole record, witnesses included, though the output is CSV
        target = cli.VERIFY_TARGETS["lemma12"]
        bad_cell = (5, 40, 9)
        bad = dataclasses.replace(lc.verify_lemma(12, *bad_cell), verdict="fails")

        def check(*cell):
            return ("fails", bad.checked, bad.min_margin, bad) if cell == bad_cell else target.check(*cell)

        monkeypatch.setitem(cli.VERIFY_TARGETS, "lemma12", dataclasses.replace(target, check=check))
        out = tmp_path / "v.csv"
        assert run_cli(["verify", "lemma12", "--p", "5", "--r", "39..41"], out) == 1
        record = cli._lemma_record(bad)
        assert len(record["witnesses"]) == bad.checked > 0
        assert capsys.readouterr().err.splitlines() == [f"counterexample: {json.dumps(record, sort_keys=True)}"]
        assert f"lemma12,5,40,9,fails,{bad.min_margin},{bad.checked}" in out.read_text().splitlines()


class TestArgumentBoundary:
    @pytest.mark.parametrize("argv", [
        ["slopes", "--p", "5", "--k", "12..14,16"],
        ["slopes", "--p", "5,x", "--k", "12"],
        ["verify", "lemma10", "--p", "5", "--r", "40..30"],
        ["verify", "lemma10", "--p", "5", "--jobs", "0"],
        ["lambda", "--p", "5", "--R", "1", "--alpha", "7", "--jobs", "2"],
        ["slopes", "--p", ",", "--k", "12"],
        ["verify", "lemma10", "--p", ",", "--r-max", "8"],
        ["slopes", "--p", "5", "--k", "12.."],
        ["verify", "lemma10", "--p", "5", "--r", "40.."],
        ["measure", "--p", "5", "--k", "12", "--max-dim", "-1"],
    ])
    def test_malformed_values_exit_2(self, argv, capsys):
        # argparse exits on a value it cannot parse; main returns 2 on one the library rejects
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("where", ["missing/x.csv", "."])
    def test_unwritable_out_exit_2(self, where, tmp_path, capsys):
        # a missing directory or a directory as the file: a usage error, not the counterexample code 1
        out = tmp_path / where
        assert run_cli(["slopes", "--p", "5", "--k", "12"], out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and len(err.splitlines()) == 1

    def test_malformed_list_exit_2_from_console(self):
        for bad in (["--p", "5", "--k", "12..14,16"], ["--p", "5,x", "--k", "12"], ["--p", ",", "--k", "12"]):
            proc = run_console(["slopes", *bad])
            assert proc.returncode == 2
            assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["verify", "rho-annihilator", "--p", "5", "--alpha", "2", "--r-max", "40"],
        ["verify", "det-factorization", "--p", "5", "--r", "3"],
        ["verify", "lambda-system", "--p", "5", "--alpha", "3"],
        ["verify", "lemma9", "--p", "5", "--r", "10", "--a-max", "10"],
        ["verify", "lemma13", "--p", "5", "--r", "19", "--alpha", "3"],
        ["verify", "hecke", "--p", "5", "--r", "3"],
        ["measure", "--p", "5,7", "--k", "12"],
        ["lambda", "--p", "5,7", "--R", "1", "--alpha", "7"],
        # a window bound the target does not read
        ["verify", "lemma9", "--p", "5", "--r-max", "0"],
        ["verify", "lambda-system", "--p", "5", "--R-max", "1", "--alpha-max", "2", "--r-max", "0"],
        ["verify", "lemma10", "--p", "5", "--r-max", "8", "--a-max", "10"],
        ["verify", "hecke", "--p", "5", "--delta-max", "2", "--R-max", "3"],
        # a pinned --r next to the --r-max it would ignore
        ["verify", "lemma10", "--p", "5", "--r", "40", "--alpha", "9", "--r-max", "0"],
        ["verify", "lemma13", "--p", "5", "--r", "19", "--r-max", "400"],
    ])
    def test_unsupported_pins_and_extra_primes_exit_2(self, argv, capsys):
        assert run_cli(argv) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "lemma13", "--p", "5", "--r-max", "3"],
        ["verify", "lemma10", "--r-max", "0", "--format", "json"],
        ["hecke-check", "--p", "5", "--t-max", "1"],
    ])
    def test_empty_sweep_exit_2(self, argv, tmp_path, capsys):
        # a sweep with no cells verifies nothing, so it is an error, not a pass
        out = tmp_path / "v.out"
        assert run_cli(argv, out) == 2
        assert not out.exists()
        assert "error: no cells" in capsys.readouterr().err

    @pytest.mark.parametrize("a_max", ["0", "-1"])
    def test_lemma9_without_a_values_rejected(self, a_max, tmp_path, capsys):
        csv_out, json_out = tmp_path / "v.csv", tmp_path / "v.json"
        argv = ["verify", "lemma9", "--p", "5", "--a-max", a_max]
        assert run_cli(argv, csv_out) == 2
        assert csv_out.read_text().splitlines()[1:] == [f"lemma9,5,{a_max},,rejected,,0"]
        assert f"invalid cell: [5, {a_max}]" in capsys.readouterr().err
        assert run_cli([*argv, "--format", "json"], json_out) == 2
        payload = json.loads(json_out.read_text())
        (record,) = payload["records"]
        assert record["cell"] == [5, int(a_max)] and "verdict" not in record
        # a JSON reader that ignores the exit code must not read a rejected sweep as verified
        assert payload["verified"] is False

    def test_small_primes_only_where_the_defaults_have_them(self, capsys):
        assert run_cli(["verify", "lemma10", "--p", "3"]) == 2
        assert "needs primes > 3" in capsys.readouterr().err

    def test_rho_annihilator_honours_r(self, tmp_path):
        out = tmp_path / "v.csv"
        assert run_cli(["verify", "rho-annihilator", "--p", "5", "--r", "15"], out) == 0
        assert out.read_text().splitlines()[1:] == ["rho-annihilator,5,15,2,holds,,3"]
        assert run_cli(["verify", "rho-annihilator", "--p", "5", "--r", "16"], out) == 2
        assert "rejected" in out.read_text()

    def test_alpha_without_r_restricts_the_sweep(self, tmp_path):
        out = tmp_path / "v.csv"
        assert run_cli(["verify", "lemma10", "--p", "5", "--alpha", "9", "--r-max", "60"], out) == 0
        got = [tuple(int(x) for x in ln.split(",")[1:4]) for ln in out.read_text().splitlines()[1:]]
        window = cli.VERIFY_TARGETS["lemma10"].cells(5, Namespace(r=None, alpha=None, r_max=60))
        assert got == [cell for cell in window if cell[2] == 9]
        assert got

    def test_repeated_primes_deduplicated(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target, bound in (("lemma10", ["--r-max", "40"]), ("lemma9", ["--a-max", "20"])):
            assert run_cli(["verify", target, "--p", "5,5", *bound], a) == 0
            assert run_cli(["verify", target, "--p", "5", *bound], b) == 0
            assert a.read_bytes() == b.read_bytes()

    def test_pool_size_capped(self, tmp_path, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, tasks, chunksize=1):
                return [fn(*t) for t in tasks]

        monkeypatch.setattr(cli.multiprocessing, "Pool", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        out = tmp_path / "v.csv"
        assert run_cli(["verify", "lemma10", "--p", "5", "--r-max", "60", "--jobs", "8"], out) == 0
        assert run_cli(["verify", "lemma9", "--p", "2,3", "--a-max", "20", "--jobs", "8"], out) == 0
        assert run_cli(["verify", "lemma9", "--p", "2", "--a-max", "20", "--jobs", "8"], out) == 0
        assert sizes == [3, 2]
        # slopes and measure share the pool out by (p, dim S_k) group, and write rows by weight
        serial, pooled = tmp_path / "a.csv", tmp_path / "b.csv"
        for argv, pools in [
            (["slopes", "--p", "2,5", "--k", "12..40", "--approx"], [3]),  # 2 primes x d in 0..3
            (["slopes", "--p", "5", "--k", "24..28"], [2]),  # d = 2, 1, 2
            (["measure", "--p", "59", "--k", "12..20", "--include-newforms"], [2]),  # d in 0..1
            (["measure", "--p", "5", "--k", "12..200", "--max-dim", "2", "--dump-masses"], [3]),
            (["slopes", "--p", "5", "--k", "12", "--format", "json"], []),
        ]:
            sizes.clear()
            assert run_cli([*argv, "--jobs", "1"], serial) == 0
            assert sizes == []
            assert run_cli([*argv, "--jobs", "8"], pooled) == 0
            assert sizes == pools
            assert pooled.read_bytes() == serial.read_bytes()

    def test_pool_leaves_no_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # a real pool even on one CPU
        for argv in (["verify", "lemma12", "--p", "5,7", "--r-max", "60"], ["slopes", "--p", "5", "--k", "12..40"]):
            assert run_cli([*argv, "--jobs", "2"], tmp_path / "out") == 0
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("target", ["integrality", "lemma12", "lemma15"])
    def test_key_groups_same_bytes_on_a_pool(self, target, tmp_path):
        serial, pooled = tmp_path / "a.out", tmp_path / "b.out"
        for fmt in ("csv", "json"):
            argv = ["verify", target, "--p", "5,7,11,13", "--r-max", "200", "--format", fmt]
            assert run_cli([*argv, "--jobs", "1"], serial) == 0
            assert run_cli([*argv, "--jobs", "2"], pooled) == 0
            assert pooled.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("target", ["matrix-entries", "interior-annihilator", "double-sum"])
    def test_diagonal_table_groups_same_bytes_on_a_pool(self, target, tmp_path):
        # the cells of one (p, r) share a diagonal table and go to one worker
        assert cli.VERIFY_TARGETS[target].key((5, 40, 3)) == (5, 40)
        serial, pooled = tmp_path / "a.out", tmp_path / "b.out"
        for fmt in ("csv", "json"):
            argv = ["verify", target, "--p", "5,7,11,13", "--r-max", "80", "--format", fmt]
            assert run_cli([*argv, "--jobs", "1"], serial) == 0
            assert run_cli([*argv, "--jobs", "2"], pooled) == 0
            assert pooled.read_bytes() == serial.read_bytes()

    def test_counterexamples_same_on_a_pool(self, tmp_path, capsys, monkeypatch):
        # one v_p(n_m) of every key table off by one: the pool's workers,
        # forked after the patch, fail the same cells with the same records
        table = lc._lambda_table
        monkeypatch.setattr(lc, "_lambda_table", lambda *key: [v - (m == 1) for m, v in enumerate(table(*key))])
        lines = {}
        for jobs in ("1", "2"):
            assert run_cli(["verify", "lemma12", "--p", "5,7", "--r-max", "60", "--jobs", jobs], tmp_path / "v") == 1
            lines[jobs] = capsys.readouterr().err.splitlines()
        assert lines["1"] == lines["2"]
        assert lines["1"] and all(line.startswith("counterexample: ") for line in lines["1"])

    def test_pool_deals_whole_key_groups(self, monkeypatch):
        dealt = []

        class RecordingPool:
            def __init__(self, size):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, tasks, chunksize=1):
                dealt.extend(group for _, group in tasks)
                return [fn(*t) for t in tasks]

        tasks = [(n, 7) for n in range(40)]  # keys n % 3 interleave in task order
        key = lambda task: task[0] % 3
        serial = [divmod(*t) for t in tasks]
        assert cli._pool_starmap(divmod, tasks, 2, key) == serial  # on a real pool
        monkeypatch.setattr(cli.multiprocessing, "Pool", RecordingPool)
        assert cli._pool_starmap(divmod, tasks, 2, key) == serial
        assert [[key(t) for t in group] for group in dealt] == [[k] * len(group) for k, group in enumerate(dealt)]
        assert sorted(t for group in dealt for t in group) == tasks
        dealt.clear()
        assert cli._pool_starmap(divmod, tasks, 2) == serial  # no key: one task per group
        assert dealt == [[t] for t in tasks]

    @pytest.mark.parametrize("argv", [
        ["measure", "--p", "5", "--k", "12..60", "--dump-masses"],
        ["slopes", "--p", "5,59", "--k", "12..50"],
    ])
    def test_weight_sweeps_same_bytes_on_a_pool(self, argv, tmp_path):
        serial, pooled = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli([*argv, "--jobs", "1"], serial) == 0
        assert run_cli([*argv, "--jobs", "2"], pooled) == 0
        assert pooled.read_bytes() == serial.read_bytes()
        cells = [tuple(map(int, line.split(",")[:2])) for line in serial.read_text().splitlines()[1:]]
        assert cells == sorted(cells)
        assert {k for _, k in cells} >= {26, 38, 50}  # weights where dim S_k dips below its neighbours


class TestHeckeCheckCommand:
    def test_small_grid(self, tmp_path):
        out = tmp_path / "h.csv"
        assert run_cli(["hecke-check", "--p", "5", "--t-max", "4"], out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) > 5
        assert all("holds" in ln for ln in lines[1:])

    def test_alias_targets(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["verify", "eq88", "--p", "5", "--r-max", "30"], a) == 0
        assert run_cli(["verify", "double-sum", "--p", "5", "--r-max", "30"], b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_counterexample_reported_in_full(self, tmp_path, capsys, monkeypatch):
        # one cell's check is made to fail: exit 1, the row and the JSON say
        # so, and stderr carries that cell's whole record
        target = cli.VERIFY_TARGETS["hecke"]
        bad_cell = (5, 3, 1, 1)

        def check(*cell):
            verdict, checked, margin, record = target.check(*cell)
            if cell == bad_cell:
                return "fails", checked, margin, {**record, "holds": False, "mismatch": "injected"}
            return verdict, checked, margin, record

        monkeypatch.setitem(cli.VERIFY_TARGETS, "hecke", dataclasses.replace(target, check=check))
        argv = ["hecke-check", "--p", "5", "--t-max", "3"]
        csv_out, json_out = tmp_path / "h.csv", tmp_path / "h.json"
        assert run_cli(argv, csv_out) == 1
        assert capsys.readouterr().err.splitlines() == [
            'counterexample: {"alpha": 1, "delta": 1, "holds": false, "mismatch": "injected", '
            '"p": 5, "t": 3, "target": "hecke"}'
        ]
        assert "hecke,5,3,1/1,fails,,1" in csv_out.read_text().splitlines()
        assert run_cli([*argv, "--format", "json"], json_out) == 1
        payload = json.loads(json_out.read_text())
        assert payload["verified"] is False
        assert [r for r in payload["records"] if not r["holds"]] == [
            {"target": "hecke", "holds": False, "p": 5, "t": 3, "delta": 1, "alpha": 1, "mismatch": "injected"}
        ]

    def test_pinned_invalid_cell_reported(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        assert run_cli(["verify", "double-sum", "--p", "5", "--r", "14", "--alpha", "2"], out) == 2
        assert "rejected" in out.read_text()
        assert "invalid cell" in capsys.readouterr().err
        # every rejected cell gets its own stderr line
        assert run_cli(["verify", "double-sum", "--p", "5", "--r", "14", "--alpha", "1..3"], out) == 2
        assert out.read_text().splitlines()[1:] == [
            "double-sum,5,14,1,rejected,,0", "double-sum,5,14,2,rejected,,0", "double-sum,5,14,3,holds,,2",
        ]
        assert capsys.readouterr().err.splitlines() == [
            f"invalid cell: [5, 14, {a}]: general variant needs alpha > rho, got alpha={a}, rho=2" for a in (1, 2)
        ]

    @pytest.mark.parametrize("p, r", [(5, 9), (7, 13), (5, 10)])
    def test_interior_annihilator_rejects_alpha_rho(self, p, r, tmp_path, capsys):
        # the target's window is below rho; at alpha = rho the builder would take the rho-annihilator shape
        out = tmp_path / "v.csv"
        assert run_cli(["verify", "interior-annihilator", "--p", str(p), "--r", str(r), "--alpha", "1"], out) == 2
        assert out.read_text().splitlines()[1:] == [f"interior-annihilator,{p},{r},1,rejected,,0"]
        assert capsys.readouterr().err.splitlines() == [
            f"invalid cell: [{p}, {r}, 1]: need 0 <= alpha < rho = 1, got alpha=1"
        ]

    def test_integrality_rho_zero_cell_rejected(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        assert run_cli(["verify", "integrality", "--p", "5", "--r", "1", "--alpha", "0"], out) == 2
        assert out.read_text().splitlines() == [",".join(cli.VERIFY_HEADER), "integrality,5,1,0,rejected,,0"]
        assert "invalid cell: [5, 1, 0]" in capsys.readouterr().err

    def test_matrix_entries_rho_zero_cells_rejected(self, tmp_path, capsys):
        # r < p has rho = 0, so alpha = 0 is the alpha = rho shape, which needs rho >= 1
        out = tmp_path / "v.csv"
        assert run_cli(["verify", "matrix-entries", "--p", "5", "--r", "0..4", "--alpha", "0"], out) == 2
        assert out.read_text().splitlines()[1:] == [f"matrix-entries,5,{r},0,rejected,,0" for r in range(5)]
        assert capsys.readouterr().err.splitlines() == [
            f"invalid cell: [5, {r}, 0]: alpha = rho needs rho >= 1, got r={r}, alpha=0" for r in range(5)
        ]


class TestOneWriter:
    """cli.py is the only module that serializes, and cli._write is the only
    code that reads the output options or writes stdout or an output file."""

    @staticmethod
    def _serialization_uses(path):
        """(use, enclosing function) for every serialization use in a module."""
        uses = []

        def visit(node, func):
            if isinstance(node, ast.Import):
                uses.extend((f"import {a.name}", func) for a in node.names if a.name in ("json", "csv"))
            elif isinstance(node, ast.ImportFrom) and node.module in ("json", "csv"):
                uses.append((f"import {node.module}", func))
            elif isinstance(node, ast.ImportFrom):
                uses.extend(("format_rational", func) for a in node.names if a.name == "format_rational")
            elif isinstance(node, ast.Name) and node.id == "format_rational":
                uses.append(("format_rational", func))
            elif isinstance(node, ast.Attribute) and node.attr in ("format", "out", "environ", "stdout"):
                uses.append((f".{node.attr}", func))
            if isinstance(node, ast.FunctionDef):
                func = node.name
            for child in ast.iter_child_nodes(node):
                visit(child, func)

        with open(path) as fh:
            visit(ast.parse(fh.read()), None)
        return uses

    def test_cli_is_the_only_serializer(self):
        src = os.path.dirname(cli.__file__)
        uses = {f: self._serialization_uses(os.path.join(src, f)) for f in os.listdir(src) if f.endswith(".py")}
        cli_uses = uses.pop("cli.py")
        assert {module: found for module, found in uses.items() if found} == {}
        writer = [(use, func) for use, func in cli_uses if use.startswith(".")]
        assert {func for _, func in writer} == {"_write"}
        assert [use for use, _ in writer].count(".format") == 1
        assert {use for use, _ in cli_uses} >= {"import json", "import csv", "format_rational"}


class TestOutDirEnv:
    def test_relative_out_uses_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PADICSLOPES_OUT_DIR", str(tmp_path))
        assert run_cli(["slopes", "--p", "2", "--k", "12", "--out", "rel.csv"]) == 0
        assert (tmp_path / "rel.csv").exists()


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = run_console(["slopes", "--p", "2", "--k", "12"])
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1] == "2,12,3"
