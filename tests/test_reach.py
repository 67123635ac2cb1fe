"""Reach guard: which public functions and class methods no CLI run enters.

The CLI runs every shipped spec (`run` in both formats and `validate`) and
`orders 5` in this process under sys.setprofile; a function whose code
object never sees a call event is unreached. Unreached code must be there on
purpose, so the sets are pinned: a new public function, or a new method of a
public class, that no run enters, or a listed one that a run starts to call,
fails the test until the list is updated. A backend that no run takes fails
as soon as it is added.
"""

import inspect
import sys
from importlib import resources

import pytest

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
    # (M^1/2, M^-1/2) by eigh: metric_intertwiner's; the spectral metric carries
    # the eigensystem rho is formed from
    "herm_sqrt_inv",
    "symmetry_rescaled_metric",  # sum_n s_n |phi_n><phi_n|, another metric of H (claim a)
    "step_potential",  # the toy model's potential, which the shipped spec spells out in JSON
    # a trace target of the benchmark's tracer; the pipeline solves in the H0 eigenbasis
    "sylvester_solve",
}

# Methods and properties written in the body of a class in __all__ that no run
# enters, each kept on purpose; dataclass-generated methods are not counted.
UNREACHED_METHODS = {
    # symmetry_rescaled_metric's scale count; the pipeline reads the spectrum's length
    "BiorthonormalSystem.dim",
    # psi's singular values, for callers judging conditioning; the cond cap
    # reads them when the system is built
    "BiorthonormalSystem.right_singular_values",
    # general_kernel's Hermiticity constraints on the pair (f, g) (claim a)
    "HomogeneousPair.constraint_defects",
    "HomogeneousPair.is_valid",
}


def shipped_specs():
    specs = resources.files("pseudoherm") / "specs"
    return sorted(str(p) for p in specs.iterdir() if p.name.endswith(".json"))


def public_functions() -> dict:
    """Code object of each public function, by name."""
    codes = {}
    for name in pseudoherm.__all__:
        obj = getattr(pseudoherm, name)
        if inspect.isfunction(obj):
            codes[name] = obj.__code__
    return codes


def class_methods() -> dict:
    """Code object of each method and property getter written in a public class's body.

    By "Class.name". A dataclass compiles the methods it generates from a
    string, so their code objects carry no source file of the package.
    """
    codes = {}
    for name in pseudoherm.__all__:
        cls = getattr(pseudoherm, name)
        if not inspect.isclass(cls):
            continue
        source = sys.modules[cls.__module__].__file__
        for attr, member in vars(cls).items():
            if isinstance(member, property):
                member = member.fget
            elif isinstance(member, (classmethod, staticmethod)):
                member = member.__func__
            if inspect.isfunction(member) and member.__code__.co_filename == source:
                codes[f"{name}.{attr}"] = member.__code__
    return codes


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    """Code objects that see a call event while the CLI runs the shipped specs and `orders 5`."""
    out = str(tmp_path_factory.mktemp("reach"))
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    specs = shipped_specs()
    assert len(specs) == 3
    exits = []
    sys.setprofile(profile)
    try:
        for spec in specs:
            for fmt in ("json", "csv"):
                exits.append(main(["run", spec, "--out", out, "--format", fmt]))
            exits.append(main(["validate", spec]))
        exits.append(main(["orders", "5"]))
    finally:
        sys.setprofile(None)
    assert exits == [0] * len(exits)
    return codes


def test_only_the_listed_public_functions_are_unreached(entered):
    unreached = {name for name, code in public_functions().items() if code not in entered}
    assert unreached == UNREACHED


def test_only_the_listed_methods_are_unreached(entered):
    methods = class_methods()
    # the census holds the grid split's product backends, properties and
    # written dunders, and no dataclass-generated method
    assert {"SplitHamiltonian.adjoint_residual", "SplitHamiltonian.frame_right_multiply",
            "MetricOperator.eig_range", "Operator.__post_init__"} <= methods.keys()
    assert "Operator.__init__" not in methods and "Tolerance.__repr__" not in methods
    unreached = {name for name, code in methods.items() if code not in entered}
    assert unreached == UNREACHED_METHODS
