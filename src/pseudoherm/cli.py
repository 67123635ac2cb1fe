"""Command-line interface.

    pseudoherm run <spec-file> [--out DIR] [--format json|csv] [--seed N] [--tol ABS]
    pseudoherm validate <spec-file>
    pseudoherm orders <ell>

The default output directory is PSEUDOHERM_OUT_DIR, else the current
directory. Exit codes: 0 all verdicts pass, 1 a task or verdict failed,
2 the spec did not load, an argument is invalid (--seed must be an integer
>= 0; --tol must be finite and >= 0, and not 0 when the spec's rel_tol is
0), the output directory cannot be created or the report cannot be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from .config import load_spec, spec_tolerance
from .errors import DomainError, SpecError
from .operators import max_norm, nested_commutator
from .perturbation import (
    QSeries,
    master_formula_coefficients,
    order_equation_rhs,
    order_residual,
    random_admissible_split,
    solve_q_series,
)
from .pipeline import run_model_spec
from .report import emit

ORDERS_SEED = 20240
ORDERS_DIM = 6


def _abs_tol(text: str) -> float:
    """--tol: a finite number >= 0; anything else exits 2 through argparse."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _seed(text: str) -> int:
    """--seed: an integer >= 0, as numpy's generator needs; anything else exits 2 through argparse."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pseudoherm",
        description="Construct and verify metric operators for pseudo-Hermitian Hamiltonians.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("run", help="run the tasks of a model spec and emit a report")
    r.add_argument("spec_file")
    r.add_argument("--out", default=None, help="output directory (default: $PSEUDOHERM_OUT_DIR or .)")
    r.add_argument("--format", choices=["json", "csv"], default="json")
    r.add_argument("--seed", type=_seed, default=0)
    r.add_argument("--tol", type=_abs_tol, default=None, metavar="ABS",
                   help="override the absolute tolerance")

    v = sub.add_parser("validate", help="check a model spec without running it")
    v.add_argument("spec_file")

    o = sub.add_parser("orders", help="verify the order equations on a built-in random instance")
    o.add_argument("ell", type=int)
    return p


def _cmd_run(args) -> int:
    out_dir = args.out or os.environ.get("PSEUDOHERM_OUT_DIR") or "."
    try:
        spec = load_spec(args.spec_file)
        if args.tol is not None:
            tol = spec_tolerance(args.tol, spec.tolerance.rel_tol, "--tol")
            spec = dataclasses.replace(spec, tolerance=tol)
        os.makedirs(out_dir, exist_ok=True)  # an unusable --out fails before the run
    except (SpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_model_spec(spec, seed=args.seed)
    for record in report["tasks"]:
        status = "ok" if record["ok"] else "FAILED"
        detail = record["error"] if record["error"] else f"{len(record['verdicts'])} verdicts"
        print(f"task {record['task']}: {status} ({detail})")
    try:
        paths = emit(report, out_dir, args.format)
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(f"wrote {path}")
    return 0 if report["all_passed"] else 1


def _cmd_validate(args) -> int:
    try:
        spec = load_spec(args.spec_file)
    except (SpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    kinds = ", ".join(t.kind for t in spec.tasks)
    print(f"OK: {spec.name} ({type(spec.model).__name__}, tasks: {kinds})")
    return 0


def _cmd_orders(args) -> int:
    ell = args.ell
    try:
        if not 1 <= ell <= 5:
            raise DomainError(f"ell must be in [1, 5], got {ell}")
        rng = np.random.default_rng(ORDERS_SEED)
        split = random_admissible_split(ORDERS_DIM, rng, parity=True)
        coeffs = master_formula_coefficients(ell)
        print(f"built-in instance: dim {ORDERS_DIM}, parity-structured, seed {ORDERS_SEED}")
        print("collected [H0,Q]_k weights:",
              "  ".join(f"c_{k + 1} = {c:+.12g}" for k, c in enumerate(coeffs)))
        series = solve_q_series(split, ell)
        for m in range(1, ell + 1):
            lower = QSeries(series.terms[: m - 1]) if m > 1 else None
            rm = order_equation_rhs(split, lower, m)
            post = max_norm(order_residual(split, series, m).mat)
            line = f"order {m}: |R_{m}| = {max_norm(rm.mat):.6e}   residual after solve = {post:.3e}"
            if m == 1:
                line += f"   |R_1 + 2 H1| = {max_norm(rm.mat + 2 * split.H1.mat):.3e}"
            if m == 3:
                ref = (1.0 / 12.0) * nested_commutator(split.H0, series.terms[0], 3).mat
                line += f"   |R_3 - (1/12)[H0,Q1]_3| = {max_norm(rm.mat - ref):.3e}"
            print(line)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "validate":
        return _cmd_validate(args)
    return _cmd_orders(args)


def entry() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entry()
