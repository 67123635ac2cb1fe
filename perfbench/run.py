"""End-to-end benchmark of `pseudoherm run`, with a traced per-layer mode.

    python3 perfbench/run.py --workload step_n513 --seed 0 --seconds 58 --trace 0
    python3 perfbench/run.py --workload all --seconds 58

Run it from a source checkout: it runs the program in src/ and exits with
code 2, printing no result, when there is none. One operation runs every
spec of the workload (perfbench/workloads.py), each in a fresh
`pseudoherm run` process, one after another; a single client runs
operations in a closed loop, one at a time, for --seconds. Every process
gets BLAS_THREADS BLAS threads. Each process is checked against the
outcome recorded in perfbench/expected.json (perfbench/gate.py).

--trace 0 reports the end-to-end metrics: wall_s (spawn to exit of every
process of an operation, report on disk included), setup_s (spawn until
`import pseudoherm.cli` returns, in every process and in one import-only
process before each operation), peak_rss_mb (largest peak
resident set of the operation's processes), each a median over the run.
--trace 1 alternates traced and untraced operations and reports the
per-layer metrics of the traced ones (perfbench/tracer.py), plus the
tracing overhead with both of its bases.
`--workload all` runs every workload, the unlisted ones (workloads.EXTRA)
included, both ways.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

import gate
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench_work"

# One BLAS thread in every child: the single-thread baseline, never more than
# nproc, and free of the multi-thread cold-start spikes of the first LAPACK call.
BLAS_THREADS = 1
PROCESS_TIMEOUT_S = 100.0

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

TASKS = tuple(tracer.TASK_SPANS.values())
# PseudohermError and every subclass a task can raise (SpecError stops the
# run before any task).
ERROR_CLASSES = (
    "PseudohermError", "ShapeError", "StructureError", "PositivityError",
    "InvertibilityError", "RealityError", "DiagonalizabilityError", "ObstructionError",
    "GaugeError", "ConsistencyError", "ResidualError", "DomainError",
)
# (span, kind): metric "<span>.s" is the span's self time summed over its
# calls, "<span>.calls" the number of calls.
SPAN_METRICS = [
    ("cli.main", "s"),
    ("config.load_spec", "calls"), ("config.load_spec", "s"),
    *[(f"pipeline.{t}", "s") for t in TASKS],
    ("spectral.biorthonormal_eigensystem", "s"),
    ("spectral.spectrum_is_real", "s"),
    ("spectral.pseudo_hermiticity_residual", "calls"), ("spectral.pseudo_hermiticity_residual", "s"),
    ("spectral.equivalent_hermitian", "s"),
    ("spectral.c_operator", "s"),
    ("perturbation.solve_q_series", "s"),
    ("perturbation.order_residual", "calls"), ("perturbation.order_residual", "s"),
    ("perturbation.sylvester_solve", "calls"), ("perturbation.sylvester_solve", "s"),
    ("perturbation.metric_from_series", "calls"), ("perturbation.metric_from_series", "s"),
    ("perturbation.residual_curve", "s"),
    ("perturbation.scaling_exponent", "s"),
    ("wavekernel.discretize_schroedinger", "s"),
    ("wavekernel.kernel_to_matrix", "s"),
    ("wavekernel.offdiagonal_commutator_check", "s"),
    ("wavekernel.hermiticity_defect", "s"),
    ("wavekernel.jump_condition_defect", "s"),
    ("operators.commutator", "calls"), ("operators.commutator", "s"),
    ("operators.classify", "s"),
    ("operators.herm_exp", "calls"),
    ("operators.herm_sqrt_inv", "calls"),
    ("operators.operator_init", "calls"), ("operators.operator_init", "s"),
    ("operators.max_norm", "s"),
    *[(f"linalg.{p}", k) for p in tracer.LINALG for k in ("calls", "s")],
    ("report.emit", "s"),
]
LAYERS = (*tracer.MODULES, "linalg")
TRACE_METRICS = [
    *[(f"{layer}.self_s", "s") for layer in LAYERS],
    ("cli.import_s", "s"),
    ("linalg.first_call_s", "s"),
    ("config.spec_bytes", "bytes"),
    ("pipeline.task_errors", "count"),
    *[(f"pipeline.task_errors.{c}", "count") for c in ERROR_CLASSES],
    ("linalg.distinct_input_share", "ratio"),
    ("report.bytes", "bytes"),
    ("trace.input_hash_s", "s"),
    ("trace.layer_self_s", "s"),
    ("trace.remainder_s", "s"),
    ("trace.wall_traced_s", "s"),
    ("trace.wall_untraced_s", "s"),
    ("trace.overhead_s", "s"),
]
PER_LAYER = [(f"{span}.{k}", "count" if k == "calls" else "s") for span, k in SPAN_METRICS] + TRACE_METRICS


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(stamp: Path, trace: Path | None) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PSEUDOHERM_", "PERFBENCH_"))}
    env.update(
        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
        OMP_NUM_THREADS=str(BLAS_THREADS),
        MKL_NUM_THREADS=str(BLAS_THREADS),
        PYTHONPATH=str(SRC),
        PERFBENCH_SRC=str(SRC),
        PERFBENCH_STAMP=str(stamp),
    )
    if trace is not None:
        env["PERFBENCH_TRACE"] = str(trace)
    return env


def run_process(argv: list[str], out: Path, trace: bool) -> dict:
    """Spawn one child, wait for it, and return its timings and peak RSS."""
    out.mkdir(parents=True)
    stamp, trace_path = out / "stamp.json", (out / "trace.json" if trace else None)
    env = child_env(stamp, trace_path)
    with open(out / "output.txt", "wb") as log:
        t0 = now()
        proc = subprocess.Popen([sys.executable, str(CHILD), *argv], env=env, cwd=out,
                                stdout=log, stderr=subprocess.STDOUT)
    timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        proc.wait()
        t1 = now()
    finally:
        timer.cancel()
        timer.join()
    result = {"exit_code": proc.returncode, "wall_s": t1 - t0,
              "rss_mb": None, "setup_s": None, "trace": None}
    try:
        stamped = json.loads(stamp.read_text())
        result["setup_s"] = stamped["imported"] - t0
        result["rss_mb"] = stamped["peak_rss_kb"] / 1024.0
        if trace_path is not None:
            result["trace"] = json.loads(trace_path.read_text())
    except (OSError, ValueError, KeyError):
        pass  # the gate reports the failed process; it just gives no samples
    return result


def run_operation(specs, expected: dict, seed: int, op_dir: Path, trace: bool) -> dict:
    """Run each (spec path, report name) in its own process and gate it."""
    procs, problems = [], []
    for k, (spec, name) in enumerate(specs):
        out = op_dir / f"p{k}"
        p = run_process(["run", str(spec), "--out", str(out), "--seed", str(seed)], out, trace)
        report = out / f"{name}_report.json"
        p["spec_bytes"] = spec.stat().st_size
        p["report_bytes"] = report.stat().st_size if report.exists() else 0
        problems += [f"{name}: {msg}" for msg in gate.check_process(p["exit_code"], report, expected[name])]
        procs.append(p)
    shutil.rmtree(op_dir)
    return {
        "trace": trace,
        "wall_s": sum(p["wall_s"] for p in procs),
        "setup": [p["setup_s"] for p in procs if p["setup_s"] is not None],
        "rss_mb": max((p["rss_mb"] for p in procs if p["rss_mb"] is not None), default=None),
        "procs": procs,
        "problems": problems,
    }


def layer_metrics(op: dict) -> dict:
    """Per-layer metrics of one traced operation, summed over its processes."""
    self_s, calls, raised = Counter(), Counter(), Counter()
    m = Counter()
    for p in op["procs"]:
        doc = p["trace"]
        if doc is None:
            continue
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), cov in zip(spans, covered):
            self_s[name] += end - start - cov
            calls[name] += 1
        first = next((e - s for n, s, e, _ in spans if n.startswith("linalg.")), 0.0)
        m["linalg.first_call_s"] += first
        m["cli.import_s"] += doc["imported"] - doc["boot"]
        m["linalg.distinct_inputs"] += doc["distinct_inputs"]
        m["config.spec_bytes"] += p["spec_bytes"]
        m["report.bytes"] += p["report_bytes"]
        for key, n in doc["counts"].items():
            span, _, cls = key.partition(".raised.")
            if span in {f"pipeline.{t}" for t in TASKS}:
                raised[cls] += n
    out = {}
    for span, kind in SPAN_METRICS:
        out[f"{span}.{kind}"] = calls[span] if kind == "calls" else self_s[span]
    for key in ("cli.import_s", "linalg.first_call_s", "config.spec_bytes", "report.bytes"):
        out[key] = m[key]
    out["pipeline.task_errors"] = sum(raised.values())
    for c in ERROR_CLASSES:
        out[f"pipeline.task_errors.{c}"] = raised[c]
    linalg_calls = sum(calls[f"linalg.{p}"] for p in tracer.LINALG)
    out["linalg.distinct_input_share"] = m["linalg.distinct_inputs"] / linalg_calls if linalg_calls else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    out["trace.input_hash_s"] = self_s[tracer.HASH_SPAN]
    out["trace.layer_self_s"] = m["cli.import_s"] + sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.remainder_s"] = op["wall_s"] - out["trace.layer_self_s"]
    out["trace.wall_traced_s"] = op["wall_s"]
    return out


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() or None


def source_digest() -> str:
    """sha256 over src/ file paths and contents: identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
        "split_seed": workloads.SPLIT_SEED,
    }


def describe(values: list) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    n = len(values)
    text = f"median of {n}"
    if n >= 20:
        q = int(100 * (1 - 10 / n))
        text += f", p{q} {statistics.quantiles(values, n=100)[q - 1]:.6g}"
    return text


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        specs = [(path, json.loads(path.read_text(encoding="utf-8"))["name"])
                 for path in workloads.make_specs(workload, ROOT, work)]
        expected = gate.load_expected()[workload]
        # The first process compiles src/ to bytecode; users do not pay that
        # on every call, so it is discarded.
        run_process(["--probe"], work / "warmup", False)
        t_begin = now()
        setup, ops = [], []
        while True:
            # One import-only probe before each operation spreads the set-up
            # samples over the whole run, through the same spells of host CPU
            # speed as wall_s.
            p = run_process(["--probe"], work / f"probe{len(ops)}", False)
            if p["setup_s"] is not None:
                setup.append(p["setup_s"])
            traced = trace and len(ops) % 2 == 0
            ops.append(run_operation(specs, expected, seed, work / f"op{len(ops)}", traced))
            typical = statistics.median(o["wall_s"] for o in ops)
            kinds = {o["trace"] for o in ops}
            if now() - t_begin + typical / 2 > seconds and (not trace or len(kinds) == 2):
                break
        if trace:
            # one list per process; each span is [name, start, end, parent, operation id]
            doc = [[span + [i] for span in p["trace"]["spans"]]
                   for i, o in enumerate(ops) if o["trace"] for p in o["procs"] if p["trace"]]
            (WORK / f"trace-{workload}.json").write_text(json.dumps(doc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for o in ops:
        setup += o["setup"]
    return {"ops": ops, "setup": setup}


def summarize(result: dict, trace: bool) -> tuple[dict, list[str]]:
    ops = result["ops"]
    plain = [o for o in ops if not o["trace"]]
    traced = [o for o in ops if o["trace"]]
    lines = []
    failed = sum(1 for o in ops if o["problems"])
    for i, o in enumerate(ops):
        for msg in o["problems"]:
            lines.append(f"FAILED op {i}: {msg}")
    lines.append(f"failed_share {failed}/{len(ops)} = {failed / len(ops):.4g} (operations)")
    metrics = {}
    if not trace:
        walls = [o["wall_s"] for o in ops]
        rss = [o["rss_mb"] for o in ops if o["rss_mb"] is not None]
        values = {"wall_s": walls, "setup_s": result["setup"], "peak_rss_mb": rss}
        for name, unit in END_TO_END:
            v = statistics.median(values[name])
            metrics[name] = {"value": v, "unit": unit}
            lines.append(f"{name} {v:.6g} {unit} ({describe(values[name])})")
        return metrics, lines
    per_op = [layer_metrics(o) for o in traced]
    for name, unit in PER_LAYER:
        if name in ("trace.wall_untraced_s", "trace.overhead_s"):
            continue
        metrics[name] = {"value": statistics.median(d[name] for d in per_op), "unit": unit}
    untraced = statistics.median(o["wall_s"] for o in plain)
    metrics["trace.wall_untraced_s"] = {"value": untraced, "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": metrics["trace.wall_traced_s"]["value"] - untraced, "unit": "s"}
    lines.append(f"traced ops {len(traced)}, untraced ops {len(plain)}; tracing overhead "
                 f"{metrics['trace.overhead_s']['value']:.4g} s = traced "
                 f"{metrics['trace.wall_traced_s']['value']:.4g} s - untraced {untraced:.4g} s")
    for name, unit in PER_LAYER:
        lines.append(f"{name} {metrics[name]['value']:.6g} {unit}")
    return metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, *workloads.EXTRA, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=58.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pseudoherm" / "cli.py").is_file():
        print(f"perfbench: no pseudoherm source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    runs = ([(w, t) for w in (*workloads.WORKLOADS, *workloads.EXTRA) for t in (False, True)]
            if args.workload == "all" else [(args.workload, bool(args.trace))])
    attempted = failed = 0
    metrics = {}
    for workload, trace in runs:
        print(f"== {workload} seed {args.seed} trace {int(trace)} seconds {args.seconds:g}")
        print("provenance " + json.dumps(provenance(workload, args.seed), sort_keys=True))
        result = run_workload(workload, args.seed, args.seconds, trace)
        found, lines = summarize(result, trace)
        for line in lines:
            print(line)
        attempted += len(result["ops"])
        failed += sum(1 for o in result["ops"] if o["problems"])
        prefix = f"{workload}.trace{int(trace)}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in found.items()})
        sys.stdout.flush()
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
