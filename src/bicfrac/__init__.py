"""Finite bicategories, fraction localizations and transfer conditions.

Everything is represented by exhaustive tables over string cell ids, so
every law and every condition is decidable by finite search.  The main
entry points, in the order a typical session uses them:

- `FinBicat`, `validate_bicat`: the data structure and its law checker.
- `vcompose`, `whisker_left`, `whisker_right`, `hcompose2`: composites of
  2-cells by table lookup.
- `WClass`, `check_bf`, `saturate`, `quasi_units`: classes of 1-cells and
  the closure axioms that allow inverting them.
- `PsFun`, `validate_psfun`: pseudofunctors and their law checker.
- `materialize_fractions`, `universal_pseudofunctor`, `induce_g_tilde`: the
  bicategory of fractions as explicit tables, the canonical map into it and
  the induced map between localizations.
- `check_family`, `check_A`, `check_B`, `check_EF`, `check_X`,
  `is_weak_equivalence`, `cross_validate_theorems`: the condition families
  and their known relationships.
- `parse_presentation`, `load_document`, `export_presentation`: the JSON
  document format used by the command line.
"""

from .builders import (
    SuiteCase,
    appendix_toy,
    arrow2,
    build_strict,
    collapse_loop,
    discrete2,
    fold_discrete2,
    iso2,
    iso2_classes,
    point_into_discrete2,
    theorem_suite,
    toy_classes,
    toyq,
    toyq_classes,
    trivial_one,
)
from .conditions import (
    ConditionReport,
    SubCheck,
    TheoremReport,
    WeakEquivalenceReport,
    check_A,
    check_B,
    check_EF,
    check_X,
    check_family,
    cross_validate_theorems,
    is_weak_equivalence,
    recheck_witness,
)
from .core import (
    CompositionError,
    FinBicat,
    InvertibilityError,
    OneCell,
    PreconditionError,
    StructureError,
    TwoCell,
    TypingError,
    ValidationReport,
    Violation,
    hcompose1,
    hcompose2,
    internal_equivalence_witness,
    internal_equivalences,
    inv_cells2,
    is_invertible2,
    structural_violations,
    two_cell_inverse,
    validate_bicat,
    vcompose,
    whisker_left,
    whisker_right,
)
from .fractions import (
    GTildeResult,
    Localization,
    LocalizationError,
    Span,
    TwoCellClass,
    TwoCellRep,
    compose_spans,
    enumerate_spans,
    g_tilde_on_two_cell,
    induce_g_tilde,
    materialize_fractions,
    reps_equivalent,
    span_is_equivalence,
    universal_pseudofunctor,
)
from .presentation import (
    Presentation,
    PresentationError,
    export_presentation,
    load_document,
    parse_presentation,
)
from .psfun import (
    PsFun,
    PsFunReport,
    identity_psfun,
    maps_into,
    structural_psfun_violations,
    validate_psfun,
)
from .wclass import (
    AxiomVerdict,
    BfReport,
    SaturationResult,
    WClass,
    check_bf,
    find_bf3_filler,
    internal_equivalences_class,
    is_saturated,
    quasi_units,
    saturate,
)

__version__ = "0.1.0"
