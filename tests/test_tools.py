"""Smoke tests of the scripts under tools/: their output's keys, not its numbers."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_untested_lists_the_statements_a_run_misses(tmp_path):
    test = tmp_path / "test_one.py"
    test.write_text("from pseudotherm import dynamics\n\n\ndef test_stride():\n    assert dynamics._stride(24) == 2\n")
    out = subprocess.run(
        [sys.executable, str(TOOLS / "untested.py"), "--", "-q", "-p", "no:cacheprovider",
         "-p", "no:hypothesispytest", str(test)],
        capture_output=True, text=True, check=True,
    )
    report = json.loads(out.stdout)
    assert set(report) == {"pytest_exit", "statements", "executed", "untested"}
    assert report["pytest_exit"] == 0
    assert 0 < report["executed"] < report["statements"]
    assert {"cli.py", "dynamics.py", "thermo.py"} <= set(report["untested"])
    missed = {text for line, text in report["untested"]["dynamics.py"]}
    assert all(isinstance(line, int) for line, _ in report["untested"]["dynamics.py"])
    # _stride's body ran, _marks's did not; no nonlocal or global is a statement
    assert "return max(1, n // _CHECKPOINTS)" not in missed
    assert "return np.append(np.arange(_stride(n), n, _stride(n)), n)" in missed
    assert not any(text.startswith(("nonlocal ", "global ")) for text in missed)


def test_ab_inprocess_prints_one_line_of_pair_figures():
    root = TOOLS.parent
    out = subprocess.run(
        [sys.executable, str(TOOLS / "ab_inprocess.py"), str(root), str(root), "--command", "fig2-left",
         "--config", str(root / "src" / "pseudotherm" / "presets" / "fig2_left.json"), "--reps", "1"],
        capture_output=True, text=True, check=True,
    )
    (line,) = out.stdout.splitlines()
    report = json.loads(line)
    assert set(report) == {"parent", "change", "command", "config", "reps", "exit", "median_s", "ratio_median",
                           "change_wins"}
    assert report["exit"] == {"parent": 0, "change": 0}
    assert set(report["median_s"]) == {"parent", "change"}
    assert report["ratio_median"] > 0 and report["change_wins"] in (0, 1)
