"""Command-line surface: payload shapes, determinism, exit codes."""

import json
import os
import subprocess
import sys
import warnings

import pytest

from salemforge.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_output(capsys):
    code, out, _ = run_cli(capsys, "poly", "--d", "4", "--tuple", "2")
    assert code == 0
    assert json.loads(out) == {"coeffs": ["-1", "-2", "0", "-3", "1"]}


def test_poly_empty_tuple(capsys):
    code, out, _ = run_cli(capsys, "poly", "--d", "4", "--tuple", "")
    assert code == 0
    assert json.loads(out) == {"coeffs": ["-1", "-3", "1"]}


def test_matrix_output(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--d", "4", "--tuple", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 5
    assert payload["labels"][0] == "L"
    assert payload["entries"][0] == ["4", "0", "3", "0", "1"]


def test_charpoly_output(capsys):
    code, out, _ = run_cli(capsys, "charpoly", "--d", "4", "--tuple", "2")
    assert code == 0
    # (X-1)(X^4-3X^3-2X-1) = X^5-4X^4+3X^3-2X^2+X+1... computed exactly below
    from salemforge import polys

    expect = polys.mul((-1, 1), (-1, -2, 0, -3, 1))
    assert json.loads(out) == {"coeffs": [str(c) for c in expect]}


def test_lambda_interval(capsys):
    code, out, _ = run_cli(capsys, "lambda", "--d", "4", "--tuple", "", "--width", "1e-9")
    assert code == 0
    payload = json.loads(out)
    assert payload["decimal"].startswith("3.30277563")
    from salemforge.serialize import str_to_frac

    lo = str_to_frac(payload["interval"]["lo"])
    hi = str_to_frac(payload["interval"]["hi"])
    assert hi - lo <= 1e-9
    assert lo < 3.302775638 < hi or (hi - lo) < 1e-9


def test_census_output(capsys):
    code, out, _ = run_cli(capsys, "census", "--d", "4", "--tuple", "2")
    assert code == 0
    assert json.loads(out) == {"inside": "3", "on": "0", "outside": "1"}


def test_classify_and_cache(capsys, tmp_path):
    cache = str(tmp_path / "c.jsonl")
    code, out, _ = run_cli(capsys, "classify", "--d", "4", "--tuple", "2", "--cache", cache)
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "pisot_like"
    code, out, _ = run_cli(capsys, "cache", "--d", "4", "--tuple", "2", "--cache", cache)
    assert code == 0
    assert json.loads(out)["present"] is True
    code, out, _ = run_cli(capsys, "cache", "--d", "4", "--tuple", "3", "--cache", cache)
    assert json.loads(out)["present"] is False


def test_weyl_output(capsys):
    code, out, _ = run_cli(capsys, "weyl", "--d", "4", "--tuple", "2,3,4,5,6,7")
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True
    assert payload["quadratic_steps"] == 3
    assert all(step["side"] == "left" for step in payload["trace"])


def test_weyl_non_isometry_is_parameter_error(capsys):
    code, _, err = run_cli(capsys, "weyl", "--d", "4", "--tuple", "2")
    assert code == 2
    assert "error" in err


def test_weyl_below_rank_3_exits_2(capsys):
    # d = 4 with no orbit gives a 3 x 3 matrix, a lattice of rank 2
    code, out, err = run_cli(capsys, "weyl", "--d", "4", "--tuple", "")
    assert code == 2 and out == ""
    assert err == "error: membership needs lattice rank n >= 3 (size >= 4), got size 3\n"


def test_spectrum_cache_writes_one_batch_under_one_lock(capsys, tmp_path, monkeypatch):
    from salemforge import cache
    from salemforge.spectrum import enumerate_level_prefix

    argv = ("spectrum", "--d", "4", "--m", "2", "--limit", "4", "--bound", "10")
    per_entry = cache.SpectrumStore(tmp_path / "per_entry.jsonl")
    for entry in enumerate_level_prefix(4, 2, 4, 10):
        per_entry.put(entry)
    locks = []

    class CountingLock(cache._FileLock):
        def __enter__(self):
            locks.append(self.path)
            return super().__enter__()

    monkeypatch.setattr(cache, "_FileLock", CountingLock)
    batch = str(tmp_path / "batch.jsonl")
    code, table, _ = run_cli(capsys, *argv, "--cache", batch)
    assert code == 0 and len(locks) == 1
    with open(batch, encoding="utf-8") as fh:
        assert len(fh.readlines()) == 4
    assert run_cli(capsys, *argv) == (0, table, "")
    for fmt in ("json", "csv"):
        listed = run_cli(capsys, "cache", "--cache", batch, "--format", fmt)
        assert listed == run_cli(capsys, "cache", "--cache", str(per_entry.path), "--format", fmt)
        assert listed[0] == 0


def test_spectrum_table_json(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--d", "4", "--m", "2", "--limit", "3", "--bound", "10"
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["tuple"] for r in rows] == ["2", "3", "4"]
    assert list(rows[0]) == sorted(rows[0])  # sort_keys determinism


def test_spectrum_table_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "spectrum", "--d", "4", "--m", "2", "--limit", "2", "--bound", "10",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,tuple,interval_lo,interval_hi,census,label"
    assert len(lines) == 3


def test_spectrum_bound_too_small_exit(capsys):
    code, _, err = run_cli(
        capsys, "spectrum", "--d", "4", "--m", "2", "--limit", "10", "--bound", "4"
    )
    assert code == 2
    assert "error" in err


def test_spectrum_level_past_the_bound_exits_2_without_recursing(capsys):
    # a level-1500 member's last entry is >= 1500, so none fits under bound 3
    code, out, err = run_cli(
        capsys, "spectrum", "--d", "1000", "--m", "1500", "--limit", "1", "--bound", "3"
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("d, m, bound", [("1000", "1200", "1300"), ("600", "1100", "1100")])
def test_spectrum_level_with_m_below_the_bound_exits_2_without_recursing(capsys, d, m, bound):
    # a level-m member (m >= 3) ends at 2m - 2 or above, so the level is empty below the bound
    code, out, err = run_cli(capsys, "spectrum", "--d", d, "--m", m, "--limit", "1", "--bound", bound)
    assert code == 2 and out == ""
    assert err == f"error: only 0 members of level {m} found with entries <= {bound}\n"


def test_spectrum_has_no_tuple_option(capsys):
    argv = ("spectrum", "--d", "4", "--m", "2", "--limit", "2", "--bound", "10")
    assert usage_exit_code(*argv, "--tuple", "9,9") == 2
    assert "--tuple" in capsys.readouterr().err


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_spectrum_non_positive_limit_exits_2(capsys, limit):
    code, out, err = run_cli(
        capsys, "spectrum", "--d", "4", "--m", "2", "--limit", limit, "--bound", "10"
    )
    assert code == 2 and out == ""
    assert "error" in err


def usage_exit_code(*argv) -> int:
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code


@pytest.mark.parametrize("width", ["--width=0", "--width=-1/2", "--width=0/5"])
def test_non_positive_width_exits_2(capsys, width):
    assert usage_exit_code("lambda", "--d", "4", "--tuple", "2", width) == 2
    assert "positive" in capsys.readouterr().err


def test_width_below_the_digit_limit_exits_2_before_refining(capsys):
    # 1e-5000 used to refine, then fail printing a 5000-digit denominator
    assert usage_exit_code("lambda", "--d", "4", "--tuple", "2", "--width", "1e-5000") == 2
    err = capsys.readouterr().err
    assert "width must be at least 1e-4000" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["poly", "census", "classify", "realize", "lambda"])
def test_csv_on_json_command_exits_2(capsys, command):
    assert usage_exit_code(command, "--d", "4", "--tuple", "2", "--format", "csv") == 2
    code, out, _ = run_cli(capsys, "poly", "--d", "4", "--tuple", "2", "--format", "json")
    assert code == 0 and json.loads(out) == {"coeffs": ["-1", "-2", "0", "-3", "1"]}


@pytest.mark.parametrize("command", ["poly", "matrix", "charpoly", "lambda", "census", "weyl", "realize"])
def test_cache_on_a_command_that_never_reads_it_exits_2(capsys, tmp_path, command):
    # only classify, spectrum and cache read a store
    cache = tmp_path / "c.jsonl"
    assert usage_exit_code(command, "--d", "4", "--tuple", "2", "--cache", str(cache)) == 2
    assert "--cache" in capsys.readouterr().err
    assert not cache.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--d", "4", "--tuple", "2"),
        ("cache",),
        ("cache", "--d", "4", "--tuple", "2"),
        ("spectrum", "--d", "4", "--m", "2", "--limit", "1", "--bound", "5"),
    ],
)
def test_cache_path_that_is_a_directory_exits_2(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv, "--cache", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(tmp_path) in err


def test_cache_line_that_is_not_utf8_is_skipped(capsys, tmp_path):
    cache = tmp_path / "c.jsonl"
    classify = ("classify", "--d", "4", "--tuple", "2", "--cache", str(cache))
    code, first, _ = run_cli(capsys, *classify)
    assert code == 0
    with open(cache, "ab") as fh:
        fh.write(b"\xff\xfe\n")
    # still the final line, so taken for a torn write; the next record follows it
    assert run_cli(capsys, "classify", "--d", "4", "--tuple", "3", "--cache", str(cache))[0] == 0
    with pytest.warns(UserWarning, match=":2: unparseable record skipped"):
        assert run_cli(capsys, *classify) == (0, first, "")
    with pytest.warns(UserWarning, match=":2: unparseable record skipped"):
        code, out, _ = run_cli(capsys, "cache", "--cache", str(cache))
    assert code == 0 and len(json.loads(out)) == 2
    assert cache.read_bytes().count(b"\n") == 3  # the hit appended nothing


def test_cache_line_nested_too_deep_is_skipped(capsys, tmp_path):
    # json.loads raises RecursionError, not ValueError, on 200,000 nested brackets
    cache = tmp_path / "c.jsonl"
    assert run_cli(capsys, "classify", "--d", "4", "--tuple", "2", "--cache", str(cache))[0] == 0
    with open(cache, "a") as fh:
        fh.write("[" * 200_000 + "\n")
    # the final line, so taken for a torn write: skipped without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "cache", "--cache", str(cache))
    assert code == 0 and err == "" and len(json.loads(out)) == 1
    # a middle line once the next record follows it: skipped with a warning
    assert run_cli(capsys, "classify", "--d", "4", "--tuple", "3", "--cache", str(cache))[0] == 0
    with pytest.warns(UserWarning, match=":2: unparseable record skipped"):
        code, out, err = run_cli(capsys, "cache", "--cache", str(cache))
    assert code == 0 and err == "" and len(json.loads(out)) == 2


def test_cache_without_path_exits_2(capsys, monkeypatch):
    monkeypatch.delenv("SALEMFORGE_CACHE", raising=False)
    code, out, err = run_cli(capsys, "cache")
    assert code == 2 and out == ""
    assert "no cache path" in err


@pytest.mark.parametrize("partial", [("--d", "4"), ("--tuple", "2,3"), ("--tuple", "")])
def test_cache_lookup_with_partial_key_exits_2(capsys, tmp_path, partial):
    cache = str(tmp_path / "c.jsonl")
    assert run_cli(capsys, "classify", "--d", "4", "--tuple", "2", "--cache", cache)[0] == 0
    code, out, err = run_cli(capsys, "cache", *partial, "--cache", cache)
    assert code == 2 and out == ""
    assert "both --d and --tuple" in err


def test_cache_lookup_as_csv_exits_2(capsys, tmp_path):
    cache = str(tmp_path / "c.jsonl")
    code, out, err = run_cli(capsys, "cache", "--d", "4", "--tuple", "2", "--cache", cache, "--format", "csv")
    assert code == 2 and out == ""
    assert "error" in err
    code, out, _ = run_cli(capsys, "cache", "--cache", cache, "--format", "csv")
    assert code == 0 and out == "d,tuple,interval_lo,interval_hi,census,label\n"


def test_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "poly", "--d", "5", "--tuple", "2,3")
    _, out2, _ = run_cli(capsys, "poly", "--d", "5", "--tuple", "2,3")
    assert out1 == out2
    _, l1, _ = run_cli(capsys, "lambda", "--d", "4", "--tuple", "2", "--width", "1e-9")
    _, l2, _ = run_cli(capsys, "lambda", "--d", "4", "--tuple", "2", "--width", "1e-9")
    assert l1 == l2


def test_roundtrip_of_json_numbers(capsys):
    code, out, _ = run_cli(capsys, "lambda", "--d", "4", "--tuple", "2,3", "--width", "1/1000000")
    payload = json.loads(out)
    from salemforge.serialize import str_to_frac, strings_to_poly

    poly = strings_to_poly(payload["poly"])
    lo, hi = str_to_frac(payload["interval"]["lo"]), str_to_frac(payload["interval"]["hi"])
    from salemforge import polys

    assert polys.sturm_count(poly, lo, hi) == 1


def test_realize_reports_pass(capsys):
    code, out, _ = run_cli(capsys, "realize", "--d", "4", "--tuple", "2,3,4,5,6,7")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] == "pass"
    assert set(payload["groups"]) == {
        "pairwise-distinct",
        "non-collinear-triples",
        "points-off-lines",
        "points-off-curve",
    }
    assert all(check["pass"] for checks in payload["groups"].values() for check in checks)


def test_realize_invalid_key_exits_2(capsys):
    code, _, err = run_cli(capsys, "realize", "--d", "4", "--tuple", "2,3")
    assert code == 2 and "error" in err


HUGE = "100000000000000000000"  # 10^20 fails before any allocation; lengths near 10^8..2^63 would allocate gigabytes


@pytest.mark.parametrize(
    "argv",
    [(command, "--d", "4", "--tuple", HUGE) for command in ("poly", "matrix", "census", "lambda", "classify", "weyl")]
    + [("realize", "--d", "4", "--tuple", HUGE + ",3,4,5,6,7")],
)
def test_orbit_length_too_large_to_index_exits_2(capsys, monkeypatch, argv):
    monkeypatch.delenv("SALEMFORGE_CACHE", raising=False)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_emit_table_empty():
    from salemforge.cli import emit_table

    assert emit_table([], "csv") == "d,tuple,interval_lo,interval_hi,census,label\n"
    assert json.loads(emit_table([], "json")) == []


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "salemforge.cli", "poly", "--d", "4", "--tuple", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"coeffs": ["-1", "-2", "0", "-3", "1"]}


def test_bad_tuple_argument_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "salemforge.cli", "poly", "--d", "4", "--tuple", "2,x"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv", [("poly", "--d", "4", "--tuple", "2"), ("realize", "--d", "4", "--tuple", "2,3,4,5,6,7")]
)
def test_closed_stdout_exits_141_silently(argv):
    # the reader is gone before the command writes a byte, short output or long
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "salemforge.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def fresh_process_output(*argv) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "salemforge.cli", *argv], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_shared_parser_leaks_no_state(capsys, tmp_path, monkeypatch):
    # main builds its parser once per process; later calls must not see earlier ones
    from salemforge.cli import build_parser

    monkeypatch.delenv("SALEMFORGE_CACHE", raising=False)
    classify = ("classify", "--d", "4", "--tuple", "2,3,4")
    cached = classify + ("--cache", str(tmp_path / "c.jsonl"))
    calls = [
        cached,  # miss
        ("lambda", "--d", "5", "--tuple", "2,3", "--width", "1/1000"),
        cached,  # hit
        ("census", "--d", "4", "--tuple", "2"),
    ]
    outputs = []
    for argv in calls:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        outputs.append(out)
    assert build_parser() is build_parser()
    expect = [fresh_process_output(*classify), fresh_process_output(*calls[1])]
    expect += [expect[0], fresh_process_output(*calls[3])]
    assert outputs == expect
