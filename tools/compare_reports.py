"""Compare what two source trees of pseudoherm print and write, byte for byte.

    python tools/compare_reports.py PARENT_TREE CHANGE_TREE [--out DIR]

Each tree is a checkout of this repository; its src/ is put on PYTHONPATH
and every command runs in a fresh process. On each tree, at 1 and at 2 BLAS
threads, the script runs

* `pseudoherm run` with --format json and with --format csv, and
  `pseudoherm validate`, on each of 11 specs: the three shipped specs,
  step_potential at N = 513 and the wave-only N = 2049 spec (the benchmark's
  step_n513 and wave_n2049), perfbench.workloads.split_spec at
  (64, 20240), (256, 20240), (64, 4) and (256, 2), two spectral-only
  specs in a broken PT phase, whose task ends in RealityError: the dimer
  [[2i, 1], [1, -2i]] and step_potential at N = 65 and epsilon = 50 (the one
  run that maps complex eigenvectors back from the PT frame), and
  step_potential at N = 129 and epsilon = 1, still in the unbroken phase,
  whose Newton run on the grid's eigenvalues needs 7 sweeps;
* `pseudoherm orders ELL` for ELL = 1..5;

82 commands per tree in all.

The spec files are written once, from CHANGE_TREE's shipped specs and its
perfbench/workloads.py, so both trees read the same bytes. Each command's
report files go into a directory of their own, next to a console.txt that
holds its exit code, its stdout without the "wrote PATH" lines (the paths
differ between the two sides) and its stderr. The two sides' directories
are then compared with `diff -r`, whose output is printed. Exit status: 0
when nothing differs, 1 when something does.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

THREADS = (1, 2)
ORDERS = range(1, 6)
SPLITS = ((64, 20240), (256, 20240), (64, 4), (256, 2))
SHIPPED = ("pt_toy_2x2", "random_real_spectrum", "step_potential")
BROKEN_DIMER = [[[0.0, 2.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -2.0]]]
# runs pseudoherm's CLI without a second import of pseudoherm.cli as __main__
CLI = "import sys; from pseudoherm.cli import main; sys.exit(main(sys.argv[1:]))"


def _workloads(tree: Path):
    path = tree / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("compare_reports_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_specs(tree: Path, work: Path) -> dict[str, Path]:
    """The spec files both trees run, by name, written into work from tree."""
    workloads = _workloads(tree)
    work.mkdir(parents=True)
    specs = {name: workloads.shipped_spec(tree, name) for name in SHIPPED}
    for workload in ("step_n513", "wave_n2049"):
        (path,) = workloads.make_specs(workload, tree, work)
        specs[workload] = path
    for dim, seed in SPLITS:
        path = work / f"split_{dim}_{seed}.json"
        path.write_text(json.dumps(workloads.split_spec(dim, seed)), encoding="utf-8")
        specs[path.stem] = path
    step = json.loads(workloads.shipped_spec(tree, "step_potential").read_text(encoding="utf-8"))
    step["model"]["schroedinger"].update(N=65, epsilon=50.0)
    for name, doc in (("broken_dimer", {"model": {"matrix": BROKEN_DIMER}}), ("broken_step", step)):
        path = work / f"{name}.json"
        path.write_text(json.dumps({**doc, "name": name, "tasks": [{"kind": "spectral"}]}),
                        encoding="utf-8")
        specs[name] = path
    step["model"]["schroedinger"].update(N=129, epsilon=1.0)
    path = work / "slow_step.json"
    path.write_text(json.dumps({**step, "name": "slow_step"}), encoding="utf-8")
    specs[path.stem] = path
    return specs


def _run(tree: Path, threads: int, args: list[str], out: Path) -> None:
    """One CLI command on tree; its console output goes to out/console.txt."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    env.pop("PSEUDOHERM_OUT_DIR", None)
    done = subprocess.run(
        [sys.executable, "-c", CLI, *args], cwd=out, env=env, capture_output=True, text=True
    )
    stdout = "".join(
        line for line in done.stdout.splitlines(keepends=True) if not line.startswith("wrote ")
    )
    console = f"exit {done.returncode}\n--- stdout\n{stdout}--- stderr\n{done.stderr}"
    (out / "console.txt").write_text(console, encoding="utf-8")


def run_side(tree: Path, specs: dict[str, Path], out: Path) -> None:
    """Every command of the comparison on tree, its outputs under out."""
    for threads in THREADS:
        base = out / f"threads{threads}"
        for name, spec in specs.items():
            for fmt in ("json", "csv"):
                target = base / f"{name}.run-{fmt}"
                _run(tree, threads, ["run", str(spec), "--format", fmt, "--out", str(target)], target)
            _run(tree, threads, ["validate", str(spec)], base / f"{name}.validate")
        for ell in ORDERS:
            _run(tree, threads, ["orders", str(ell)], base / f"orders{ell}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_tree", type=Path)
    p.add_argument("change_tree", type=Path)
    p.add_argument("--out", type=Path, default=None,
                   help="a new directory for the specs and outputs (default: a fresh temporary one)")
    args = p.parse_args(argv)
    out = args.out or Path(tempfile.mkdtemp(prefix="compare_reports_"))
    parent, change = args.parent_tree.resolve(), args.change_tree.resolve()
    specs = write_specs(change, out / "specs")
    for side, tree in (("parent", parent), ("change", change)):
        print(f"running {tree} into {out / side}", flush=True)
        run_side(tree, specs, out / side)
    diff = subprocess.run(["diff", "-r", str(out / "parent"), str(out / "change")],
                          capture_output=True, text=True)
    sys.stdout.write(diff.stdout)
    if diff.returncode > 1:
        sys.stderr.write(diff.stderr)
        return 2
    commands = sum(1 for _ in (out / "parent").rglob("console.txt"))
    verdict = "no difference" if diff.returncode == 0 else "the outputs differ"
    print(f"{commands} commands per tree: {verdict}")
    return diff.returncode


if __name__ == "__main__":
    sys.exit(main())
