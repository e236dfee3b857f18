"""CLI v2 behavior: exit codes, baseline modes, cache flags."""

from __future__ import annotations

import json

from tools.sketchlint.baseline import Baseline
from tools.sketchlint.cli import main


def _clean_file(tmp_path, name="clean.py"):
    target = tmp_path / name
    target.write_text("x = 1\n", encoding="utf-8")
    return target


def _bad_file(tmp_path, name="bad.py"):
    target = tmp_path / name
    target.write_text("assert True\n", encoding="utf-8")
    return target


def _run(*argv) -> int:
    return main([str(a) for a in argv])


# --------------------------------------------------------------------- #
# exit codes
# --------------------------------------------------------------------- #
def test_exit_zero_on_clean_tree(tmp_path):
    target = _clean_file(tmp_path)
    assert _run(target, "--no-cache", "--no-baseline") == 0


def test_exit_one_on_violations(tmp_path):
    target = _bad_file(tmp_path)
    assert _run(target, "--no-cache", "--no-baseline") == 1


def test_exit_two_on_missing_path(tmp_path, capsys):
    assert _run(tmp_path / "nope", "--no-cache") == 2
    assert "not found" in capsys.readouterr().err


def test_exit_two_when_no_python_files_match(tmp_path, capsys):
    (tmp_path / "README.md").write_text("docs only\n", encoding="utf-8")
    assert _run(tmp_path, "--no-cache") == 2
    assert "refusing to lint nothing" in capsys.readouterr().err


def test_exit_two_on_unknown_select_code(tmp_path, capsys):
    target = _clean_file(tmp_path)
    assert _run(target, "--select", "SK999", "--no-cache") == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_exit_two_on_parse_error(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def f(:\n", encoding="utf-8")
    assert _run(target, "--no-cache", "--no-baseline") == 2


def test_list_rules_exits_zero(capsys):
    assert main(["--list-rules", "ignored.py"]) == 0
    out = capsys.readouterr().out
    for code in ("SK001", "SK102", "SK104", "SK105"):
        assert code in out


# --------------------------------------------------------------------- #
# baseline modes
# --------------------------------------------------------------------- #
def test_update_baseline_records_findings_and_exits_zero(tmp_path):
    target = _bad_file(tmp_path)
    baseline_path = tmp_path / "baseline.json"
    assert (
        _run(
            target,
            "--baseline",
            baseline_path,
            "--update-baseline",
            "--no-cache",
        )
        == 0
    )
    payload = json.loads(baseline_path.read_text(encoding="utf-8"))
    assert payload["findings"], "the finding must be recorded"
    assert payload["findings"][0]["content"] == "assert True"


def test_baseline_suppresses_recorded_findings(tmp_path, capsys):
    target = _bad_file(tmp_path)
    baseline_path = tmp_path / "baseline.json"
    _run(target, "--baseline", baseline_path, "--update-baseline", "--no-cache")
    capsys.readouterr()

    code = _run(target, "--baseline", baseline_path, "--no-cache")
    assert code == 0
    assert "baselined" in capsys.readouterr().out


def test_no_baseline_reports_grandfathered_findings(tmp_path):
    target = _bad_file(tmp_path)
    baseline_path = tmp_path / "baseline.json"
    _run(target, "--baseline", baseline_path, "--update-baseline", "--no-cache")

    assert (
        _run(target, "--baseline", baseline_path, "--no-baseline", "--no-cache")
        == 1
    )


def test_new_findings_past_the_baseline_count_still_fail(tmp_path):
    target = _bad_file(tmp_path)
    baseline_path = tmp_path / "baseline.json"
    _run(target, "--baseline", baseline_path, "--update-baseline", "--no-cache")

    target.write_text("assert True\nassert True\n", encoding="utf-8")
    assert _run(target, "--baseline", baseline_path, "--no-cache") == 1


def test_update_baseline_preserves_existing_justifications(tmp_path):
    target = _bad_file(tmp_path)
    baseline_path = tmp_path / "baseline.json"
    _run(target, "--baseline", baseline_path, "--update-baseline", "--no-cache")

    loaded = Baseline.load(baseline_path)
    (key,) = loaded.entries
    loaded.entries[key]["justification"] = "accepted legacy assert"
    loaded.save()

    _run(target, "--baseline", baseline_path, "--update-baseline", "--no-cache")
    refreshed = Baseline.load(baseline_path)
    assert refreshed.entries[key]["justification"] == "accepted legacy assert"


def test_corrupt_baseline_is_a_usage_error(tmp_path, capsys):
    target = _bad_file(tmp_path)
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text("{broken", encoding="utf-8")
    assert _run(target, "--baseline", baseline_path, "--no-cache") == 2
    assert "invalid baseline JSON" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# cache flag
# --------------------------------------------------------------------- #
def test_cache_path_flag_writes_the_cache_there(tmp_path):
    target = _clean_file(tmp_path)
    cache_path = tmp_path / "cache.json"
    assert _run(target, "--cache-path", cache_path, "--no-baseline") == 0
    assert cache_path.exists()
    # second run loads the cache cleanly and agrees
    assert _run(target, "--cache-path", cache_path, "--no-baseline") == 0


def test_select_restricts_the_run(tmp_path):
    target = _bad_file(tmp_path)
    # SK002 does not flag bare asserts, so the tree is clean under it
    assert (
        _run(target, "--select", "SK002", "--no-cache", "--no-baseline") == 0
    )
    # SK003 (exception discipline) does
    assert (
        _run(target, "--select", "SK003", "--no-cache", "--no-baseline") == 1
    )
