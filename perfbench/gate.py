"""Correctness gate: does one `pseudoherm run` process match its recorded outcome?

The gate compares outcomes, not report bytes: the exit code, the task list,
each task's error and each verdict's `ok`. Noise-level report values may
move under a performance change; verdicts may not.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def load_expected() -> dict:
    """workload -> report name -> {"exit_code", "tasks": {task: {verdict: ok}}}."""
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def outcome(report: dict) -> dict:
    """The part of a report the gate compares."""
    return {
        "tasks": {r["task"]: {v["name"]: v["ok"] for v in r["verdicts"]} for r in report["tasks"]},
        "errors": {r["task"]: r["error"] for r in report["tasks"] if r["error"]},
    }


def check_process(exit_code: int, report_path: Path, expected: dict) -> list[str]:
    """Problems with one process; an empty list means it passed the gate."""
    problems = []
    if exit_code not in (0, 1):
        problems.append(f"exit code {exit_code}")
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        got = outcome(report)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return problems + [f"report {report_path.name} unreadable: {type(exc).__name__}: {exc}"]
    for task, err in got["errors"].items():
        problems.append(f"task {task}: {err}")
    if exit_code in (0, 1) and exit_code != expected["exit_code"]:
        problems.append(f"exit code {exit_code}, recorded {expected['exit_code']}")
    if set(got["tasks"]) != set(expected["tasks"]):
        problems.append(f"tasks {sorted(got['tasks'])}, recorded {sorted(expected['tasks'])}")
    for task, verdicts in expected["tasks"].items():
        seen = got["tasks"].get(task, {})
        for name, ok in verdicts.items():
            if seen.get(name) != ok:
                problems.append(f"task {task}: verdict {name} ok={seen.get(name)}, recorded {ok}")
        for name in sorted(set(seen) - set(verdicts)):
            problems.append(f"task {task}: unrecorded verdict {name}")
    return problems
