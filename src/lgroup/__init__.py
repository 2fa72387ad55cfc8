"""Exact computations on a decidable class of unital lattice-ordered
Abelian groups: ideal lattices, prime spectra with the hull-kernel
topology, evaluation at maximal ideals, semisimplicity invariants, the
unit-interval (many-valued) view, and congruence patching with checked
hypotheses and failure certificates.

Importing the package runs none of its modules, so a command that needs
only the spectrum never compiles the patch solvers.  Each module below is
registered in ``sys.modules`` and bound here as a lazy module
(``importlib.util.LazyLoader``): its body runs on its first import or
attribute access, and then binds its public names here, as an eager
``from .module import ...`` would have; a public name read before that
runs its home module (PEP 562).  So every module and name an eager import
bound is there for code that rebinds a function in each loaded ``lgroup``
namespace (a tracer, a mock) from the start.
"""

import importlib.machinery
import importlib.util
import sys

__version__ = "0.1.0"

# home module -> the public names it exports
_EXPORTS = {
    "core": (
        "Atom",
        "AtomIdeal",
        "Element",
        "Ideal",
        "InternalInvariantViolation",
        "Lex",
        "LexIdeal",
        "LGroupError",
        "NotAStrongUnit",
        "Prod",
        "ProdIdeal",
        "ShapeMismatch",
        "Structure",
        "TooLarge",
        "UnitalGroup",
        "Violation",
        "Z",
        "absval",
        "add",
        "all_ideal",
        "atom_count",
        "check_element",
        "check_ideal",
        "ideal_count",
        "ideal_join",
        "ideal_leq",
        "ideal_meet",
        "is_all_ideal",
        "is_chain",
        "is_proper",
        "is_zero_ideal",
        "join",
        "leq",
        "lex",
        "lt",
        "meet",
        "neg",
        "principal_ideal",
        "prod",
        "scale",
        "sub",
        "unital_group_violations",
        "validate_unital_group",
        "zero",
        "zero_ideal",
    ),
    "crt": (
        "Certificate",
        "CongruenceSystem",
        "Incompatible",
        "IncompatibleOnZeroSets",
        "LengthMismatch",
        "MaxHypothesisViolated",
        "NotInJoin",
        "NotStronglySemisimple",
        "PatchResult",
        "keimel_patch",
        "riesz_split",
        "strong_patch",
        "zero_set_patch",
    ),
    "gallery": ("GALLERY_NAMES", "gallery_instance", "gallery_json"),
    "ideals": (
        "IdealLattice",
        "QuotientResult",
        "canonical_generator",
        "congruent",
        "contains",
        "enumerate_ideals",
        "full_generator",
        "quotient",
    ),
    "laws": ("archimedean_falsify", "dominated", "elements_in_box"),
    "mv": ("GammaAlgebra", "OutOfInterval"),
    "semisimple": (
        "is_semisimple",
        "is_strongly_semisimple",
        "radical",
    ),
    "serialize": (
        "ElementEntry",
        "Instance",
        "ParseError",
        "PatchTask",
        "ZeroSetTask",
        "certificate_to_json",
        "dumps_canonical",
        "element_from_json",
        "element_to_json",
        "ideal_from_json",
        "ideal_to_json",
        "instance_from_json",
        "instance_to_json",
        "loads_instance",
        "structure_from_json",
        "structure_to_json",
    ),
    "spectrum": (
        "SpectrumSpace",
        "UnknownPrime",
        "closure",
        "compute_spectrum",
        "ideal_of_locus",
        "specialization_dot",
        "spectrum_json",
        "vanishing_locus",
    ),
    "yosida": ("NotMaximal", "holder_eval", "principal_zero_set", "yosida_table"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]


class _Publishing:
    """A module's own loader, which also binds the module's public names in
    the package once the module has run."""

    def __init__(self, loader):
        self.loader = loader

    def exec_module(self, module):
        self.loader.exec_module(module)
        home = module.__name__.rpartition(".")[2]
        globals().update((name, getattr(module, name)) for name in _EXPORTS[home])

    def __getattr__(self, attr):
        # get_source, get_code and the rest, for tracebacks and tools
        return getattr(self.loader, attr)


def _lazy(name):
    spec = importlib.machinery.PathFinder.find_spec(f"{__name__}.{name}", __path__)
    spec.loader = importlib.util.LazyLoader(_Publishing(spec.loader))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _EXPORTS:
    globals()[_name] = _lazy(_name)
del _name


def __getattr__(name):
    """Run the home module of a public name, which binds the name here."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *__all__})
