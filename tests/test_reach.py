"""Reach guard: which public functions and class methods no CLI run enters.

The CLI runs every shipped spec (`run` in both formats and `validate`) and
`orders 5` in this process under sys.setprofile; a function whose code
object never sees a call event is unreached. The census is every
public-named function of every package module, and every method written in
a public-named class, whether or not `pseudoherm.__all__` names it.
Unreached code must be there on purpose, so the sets are pinned: a new
public function or method that no run enters, or a listed one that a run
starts to call, fails the test until the list is updated. A backend that no
run takes fails as soon as it is added.
"""

import importlib
import inspect
import pkgutil
import sys
from importlib import resources

import pytest

import pseudoherm
from pseudoherm.cli import main

# Public functions, by "module.name", that no `pseudoherm run`, `validate` or
# `orders` call enters, each kept on purpose.
UNREACHED = {
    # cross-checks the tests compare the pipeline's routes against
    "operators.bch_conjugate",  # the truncated series H + sum_k [H,Q]_k / k!
    "spectral.equivalent_hermitian",  # public face of the spectral task's _equivalent_hermitian
    "wavekernel.general_kernel",  # the wave kernel's gauge freedom f(x-y) + g(x+y) (claim a)
    # the dense M the tests and API callers compare against; the wave task reads
    # kernel_rows' fill in row blocks and never forms M
    "wavekernel.kernel_to_matrix",
    # the master formula's triple sum, against order_equation_rhs
    "perturbation.master_formula_rhs",
    "spectral.metric_factorization",  # the Cholesky factor O with O^dagger O = eta
    # the A with eta2 = A^dagger eta1 A between two metrics (claim a)
    "spectral.metric_intertwiner",
    # (M^1/2, M^-1/2), and rho = eta^1/2 from the eigensystem a metric carries:
    # metric_intertwiner's and API callers'; no run forms rho
    "operators.herm_sqrt_inv",
    # sum_n s_n |phi_n><phi_n|, another metric of H (claim a)
    "spectral.symmetry_rescaled_metric",
    # the toy model's potential, which the shipped spec spells out in JSON
    "wavekernel.step_potential",
    # a trace target of the benchmark's tracer; the pipeline solves in the H0 eigenbasis
    "perturbation.sylvester_solve",
    "cli.entry",  # the console-script shim around main, which the runs call
    # sqrt(2) S v, the eig's eigenvectors mapped back from the PT frame: only
    # an H in a broken PT phase takes it, and every shipped spectrum is real
    "operators.from_pt_frame_columns",
}

# Methods and properties written in the body of a public-named class, by
# "module.Class.name", that no run enters, each kept on purpose;
# dataclass-generated methods are not counted.
UNREACHED_METHODS = {
    # general_kernel's Hermiticity constraints on the pair (f, g) (claim a)
    "wavekernel.HomogeneousPair.constraint_defects",
    "wavekernel.HomogeneousPair.is_valid",
    # Q(eps) as an Operator, for API callers: metric_from_series sums a
    # graded series' parts itself
    "perturbation.QSeries.summed",
    # the dense J: only _checked_parity reads it, for an eta without an
    # eigensystem in the PT frame, and every metric a run builds on the grid
    # carries one
    "operators.IndexReversal.mat",
    # the dense H at epsilon: only a split_matrix run, which the census does
    # not run, and API callers build it
    "operators.SplitHamiltonian.total",
    # the dense H0, which only .H0 and total() build
    "operators.SplitHamiltonian._h0_matrix",
    # the real H1 head of the grid's chain sums: real mode skips the even
    # orders, and the odd sources that take an H1 head start at order 3,
    # past every shipped spec's order 2
    "operators.SplitHamiltonian.h1_commutator_real",
}


def modules() -> dict:
    """Every module of the package, by its name within the package."""
    return {
        info.name: importlib.import_module(f"pseudoherm.{info.name}")
        for info in pkgutil.iter_modules(pseudoherm.__path__)
    }


def _written_in(module):
    """(name, object) for each public-named function and class defined in module itself."""
    for name, obj in vars(module).items():
        if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def public_functions() -> dict:
    """Code object of each public-named function of each module, by "module.name"."""
    return {
        f"{mod}.{name}": obj.__code__
        for mod, module in modules().items()
        for name, obj in _written_in(module)
        if inspect.isfunction(obj)
    }


def class_methods() -> dict:
    """Code object of each method and property getter written in a public-named class's body.

    By "module.Class.name". A dataclass compiles the methods it generates
    from a string, so their code objects carry no source file of the package.
    """
    codes = {}
    for mod, module in modules().items():
        for name, cls in _written_in(module):
            if not inspect.isclass(cls):
                continue
            for attr, member in vars(cls).items():
                if isinstance(member, property):
                    member = member.fget
                elif isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member) and member.__code__.co_filename == module.__file__:
                    codes[f"{mod}.{name}.{attr}"] = member.__code__
    return codes


def shipped_specs():
    specs = resources.files("pseudoherm") / "specs"
    return sorted(str(p) for p in specs.iterdir() if p.name.endswith(".json"))


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
    functions = public_functions()
    # the census reaches past __all__: the CLI's shim and the frame helpers
    assert {"cli.entry", "cli.main", "operators.from_pt_frame_columns",
            "operators.pt_frame"} <= functions.keys()
    assert not any(name.rsplit(".", 1)[1].startswith("_") for name in functions)
    unreached = {name for name, code in functions.items() if code not in entered}
    assert unreached == UNREACHED


def test_only_the_listed_methods_are_unreached(entered):
    methods = class_methods()
    # the census holds the grid split's product backends, properties and
    # written dunders, and no dataclass-generated method
    assert {"operators.SplitHamiltonian.adjoint_residual", "operators.SplitHamiltonian.frame",
            "spectral.MetricOperator.eig_range", "operators.Operator.__post_init__",
            "operators.IndexReversal.mat"} <= methods.keys()
    assert "operators.Operator.__init__" not in methods
    assert "operators.Tolerance.__repr__" not in methods
    unreached = {name for name, code in methods.items() if code not in entered}
    assert unreached == UNREACHED_METHODS
