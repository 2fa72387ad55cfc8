"""Exact computations on a decidable class of unital lattice-ordered
Abelian groups: ideal lattices, prime spectra with the hull-kernel
topology, evaluation at maximal ideals, semisimplicity invariants, the
unit-interval (many-valued) view, and congruence patching with checked
hypotheses and failure certificates."""

from .core import (
    Atom,
    Element,
    InternalInvariantViolation,
    Lex,
    LGroupError,
    NotAStrongUnit,
    Prod,
    ShapeMismatch,
    Structure,
    UnitalGroup,
    Violation,
    Z,
    absval,
    add,
    atom_count,
    check_element,
    elements_in_box,
    is_chain,
    join,
    leq,
    lex,
    lt,
    meet,
    neg,
    prod,
    scale,
    sub,
    unital_group_violations,
    validate_unital_group,
    zero,
)
from .crt import (
    Certificate,
    CongruenceSystem,
    Incompatible,
    IncompatibleOnZeroSets,
    LengthMismatch,
    MaxHypothesisViolated,
    NotInJoin,
    NotStronglySemisimple,
    PatchResult,
    keimel_patch,
    riesz_split,
    strong_patch,
    zero_set_patch,
)
from .gallery import GALLERY_NAMES, gallery_instance, gallery_json
from .ideals import (
    AtomIdeal,
    Ideal,
    IdealLattice,
    LexIdeal,
    ProdIdeal,
    QuotientResult,
    all_ideal,
    canonical_generator,
    check_ideal,
    congruent,
    contains,
    enumerate_ideals,
    full_generator,
    ideal_count,
    ideal_join,
    ideal_leq,
    ideal_meet,
    is_all_ideal,
    is_proper,
    is_zero_ideal,
    principal_ideal,
    quotient,
    zero_ideal,
)
from .mv import GammaAlgebra, OutOfInterval
from .semisimple import (
    archimedean_falsify,
    dominated,
    is_semisimple,
    is_strongly_semisimple,
    radical,
)
from .serialize import (
    ElementEntry,
    Instance,
    ParseError,
    PatchTask,
    ZeroSetTask,
    certificate_to_json,
    dumps_canonical,
    element_from_json,
    element_to_json,
    ideal_from_json,
    ideal_to_json,
    instance_from_json,
    instance_to_json,
    loads_instance,
    structure_from_json,
    structure_to_json,
)
from .spectrum import (
    SpectrumSpace,
    UnknownPrime,
    closure,
    compute_spectrum,
    ideal_of_locus,
    specialization_dot,
    spectrum_json,
    vanishing_locus,
)
from .yosida import NotMaximal, holder_eval, principal_zero_set, yosida_table

__version__ = "0.1.0"
