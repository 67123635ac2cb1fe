"""Self-tests of the benchmark harness: python3 -m pytest -q perfbench/tests"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path


HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _run_spec(spec: Path, out: Path, trace: bool, seed: int = 0) -> dict:
    p = run.run_process(["run", str(spec), "--out", str(out), "--seed", str(seed)], out, trace)
    name = json.loads(spec.read_text(encoding="utf-8"))["name"]
    p["report"] = out / f"{name}_report.json"
    return p


def test_tracing_leaves_cli_small_reports_byte_identical(tmp_path):
    for k, spec in enumerate(workloads.make_specs("cli_small", ROOT, tmp_path)):
        plain = _run_spec(spec, tmp_path / f"plain{k}", trace=False)
        traced = _run_spec(spec, tmp_path / f"traced{k}", trace=True)
        assert traced["trace"]["spans"], "traced run recorded no spans"
        assert plain["exit_code"] == traced["exit_code"] == 0
        assert plain["report"].read_bytes() == traced["report"].read_bytes()


def test_split_generator_is_deterministic():
    a = json.dumps(workloads.split_spec(workloads.SPLIT_DIM, 7))
    b = json.dumps(workloads.split_spec(workloads.SPLIT_DIM, 7))
    assert a == b
    assert a != json.dumps(workloads.split_spec(workloads.SPLIT_DIM, 8))


def test_gate_flags_flipped_verdict_and_crashed_process(tmp_path):
    spec = workloads.shipped_spec(ROOT, "pt_toy_2x2")
    expected = gate.load_expected()["cli_small"]["pt_toy_2x2"]
    p = _run_spec(spec, tmp_path / "ok", trace=False)
    assert gate.check_process(p["exit_code"], p["report"], expected) == []

    report = json.loads(p["report"].read_text(encoding="utf-8"))
    verdict = report["tasks"][0]["verdicts"][0]
    verdict["ok"] = not verdict["ok"]
    flipped = tmp_path / "flipped.json"
    flipped.write_text(json.dumps(report), encoding="utf-8")
    problems = gate.check_process(p["exit_code"], flipped, expected)
    assert any(verdict["name"] in msg for msg in problems)

    # killed by a signal, no report written
    problems = gate.check_process(-9, tmp_path / "missing_report.json", expected)
    assert "exit code -9" in problems
    assert any("unreadable" in msg for msg in problems)

    # a spec the program rejects exits 2 without a report
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "pt_toy_2x2"}', encoding="utf-8")
    p = _run_spec(bad, tmp_path / "bad", trace=False)
    assert p["exit_code"] == 2
    assert gate.check_process(p["exit_code"], p["report"], expected)


def test_gate_counts_the_known_order4_defect(tmp_path):
    # dim 64, seed 4 hits the spurious "source R must be anti-Hermitian"
    # StructureError at order >= 4. When that defect is fixed this run
    # passes and the assertion on the error class must go.
    spec = tmp_path / "split_d64_s4.json"
    spec.write_text(json.dumps(workloads.split_spec(64, 4)), encoding="utf-8")
    p = _run_spec(spec, tmp_path / "out", trace=False)
    expected = gate.load_expected()["split_d256_o5"]["split_d256_s20240"]
    problems = gate.check_process(p["exit_code"], p["report"], expected)
    assert any("perturbative: StructureError" in msg for msg in problems)


def _calls_name(module, name: str) -> bool:
    source = Path(module.__file__).read_text(encoding="utf-8")
    return re.search(rf"(?<![\w.]){re.escape(name)}\(", source) is not None


def test_every_listed_function_is_wrapped_where_it_is_called():
    import numpy as np

    import pseudoherm
    from pseudoherm.operators import Operator

    found = tracer.targets()
    assert {"pipeline.spectral", "perturbation.sylvester_solve", "operators.commutator",
            "config.load_spec", "report.emit", "cli.main"} <= {span for _, _, span in found}
    originals = {fname: getattr(home, fname) for home, fname, _ in found}
    undo = tracer.install(tracer.Tracer())
    try:
        callers = 0
        for m in tracer._package_modules():
            for fname, orig in originals.items():
                assert all(v is not orig for v in vars(m).values()), (m.__name__, fname)
                if m is not pseudoherm and _calls_name(m, fname):
                    callers += 1
                    assert vars(m)[fname].__wrapped__ is orig, (m.__name__, fname)
        assert callers > len(originals) // 2
        for home, fname, span in found:
            assert getattr(home, fname).perfbench_span == span
        assert Operator.__post_init__.perfbench_span == tracer.OPERATOR_INIT
        for p in tracer.LINALG:
            assert getattr(np.linalg, p).perfbench_span == f"linalg.{p}"
    finally:
        undo()
    assert all(getattr(home, fname) is originals[fname] for home, fname, _ in found)
    assert not hasattr(np.linalg.svd, "perfbench_span")


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert set(gate.load_expected()) == {*workloads.WORKLOADS, *workloads.EXTRA}


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_small", "--seed", "1",
                        "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert r.returncode != 0
    assert r.stdout == ""
