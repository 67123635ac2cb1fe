"""Reach guard: which public functions no CLI run enters.

The CLI runs every shipped spec (`run` in both formats and `validate`) and
`orders 5` in this process under sys.setprofile; a public function whose code
object never sees a call event is unreached. Unreached code must be there on
purpose, so the set is pinned: a new public function that no run enters, or a
listed one that a run starts to call, fails the test until the list is updated.
"""

import inspect
import sys
from importlib import resources

import pseudoherm
from pseudoherm.cli import main

# Public functions that no `pseudoherm run`, `validate` or `orders` call enters,
# each kept on purpose.
UNREACHED = {
    # cross-checks the tests compare the pipeline's routes against
    "bch_conjugate",  # the truncated series H + sum_k [H,Q]_k / k!
    "equivalent_hermitian",  # public face of the spectral task's _equivalent_hermitian
    "general_kernel",  # the wave kernel's gauge freedom f(x-y) + g(x+y) (claim a)
    "master_formula_rhs",  # the master formula's triple sum, against order_equation_rhs
    "metric_factorization",  # the Cholesky factor O with O^dagger O = eta
    "metric_intertwiner",  # the A with eta2 = A^dagger eta1 A between two metrics (claim a)
    "symmetry_rescaled_metric",  # sum_n s_n |phi_n><phi_n|, another metric of H (claim a)
    "step_potential",  # the toy model's potential, which the shipped spec spells out in JSON
    # a trace target of the benchmark's tracer; the pipeline solves in the H0 eigenbasis
    "sylvester_solve",
}


def shipped_specs():
    specs = resources.files("pseudoherm") / "specs"
    return sorted(str(p) for p in specs.iterdir() if p.name.endswith(".json"))


def test_only_the_listed_public_functions_are_unreached(tmp_path):
    codes = {}
    for name in pseudoherm.__all__:
        obj = getattr(pseudoherm, name)
        if inspect.isfunction(obj):
            codes[name] = obj.__code__
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    specs = shipped_specs()
    assert len(specs) == 3
    exits = []
    sys.setprofile(profile)
    try:
        for spec in specs:
            for fmt in ("json", "csv"):
                exits.append(main(["run", spec, "--out", str(tmp_path), "--format", fmt]))
            exits.append(main(["validate", spec]))
        exits.append(main(["orders", "5"]))
    finally:
        sys.setprofile(None)
    assert exits == [0] * len(exits)
    unreached = {name for name, code in codes.items() if code not in entered}
    assert unreached == UNREACHED
