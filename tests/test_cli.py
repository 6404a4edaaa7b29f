import json
import os
import subprocess
import sys
from argparse import Namespace

import pytest

from padicslopes import cli
from padicslopes.cli import main


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
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["verify", "lemma10", "--p", "5", "--r-max", "80", "--jobs", "3"], a)
        run_cli(["verify", "lemma10", "--p", "5", "--r-max", "80", "--jobs", "1"], b)
        assert a.read_bytes() == b.read_bytes()


class TestArgumentBoundary:
    @pytest.mark.parametrize("argv", [
        ["slopes", "--p", "5", "--k", "12..14,16"],
        ["slopes", "--p", "5,x", "--k", "12"],
        ["verify", "lemma10", "--p", "5", "--r", "40..30"],
        ["verify", "lemma10", "--p", "5", "--jobs", "0"],
        ["lambda", "--p", "5", "--R", "1", "--alpha", "7", "--jobs", "2"],
    ])
    def test_malformed_values_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_malformed_list_exit_2_from_console(self):
        for bad in (["--p", "5", "--k", "12..14,16"], ["--p", "5,x", "--k", "12"]):
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
    ])
    def test_unsupported_pins_and_extra_primes_exit_2(self, argv, capsys):
        assert run_cli(argv) == 2
        assert "error:" in capsys.readouterr().err

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
        for target in ("lemma10", "lemma9"):
            assert run_cli(["verify", target, "--p", "5,5", "--r-max", "40", "--a-max", "20"], a) == 0
            assert run_cli(["verify", target, "--p", "5", "--r-max", "40", "--a-max", "20"], b) == 0
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
        # slopes and measure share the pool out by weight, in sorted order
        serial, pooled = tmp_path / "a.csv", tmp_path / "b.csv"
        for argv, pools in [
            (["slopes", "--p", "2,5", "--k", "12..40", "--approx"], [3]),
            (["measure", "--p", "59", "--k", "12..20", "--include-newforms"], [3]),
            (["measure", "--p", "5", "--k", "12..200", "--max-dim", "2", "--dump-masses"], [3]),
            (["slopes", "--p", "5", "--k", "12", "--format", "json"], []),
        ]:
            sizes.clear()
            assert run_cli([*argv, "--jobs", "1"], serial) == 0
            assert sizes == []
            assert run_cli([*argv, "--jobs", "8"], pooled) == 0
            assert sizes == pools
            assert pooled.read_bytes() == serial.read_bytes()


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

    def test_pinned_invalid_cell_reported(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        assert run_cli(["verify", "double-sum", "--p", "5", "--r", "14", "--alpha", "2"], out) == 2
        assert "rejected" in out.read_text()
        assert "invalid cell" in capsys.readouterr().err


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
