"""Exact computer algebra for q-deformed Steenrod operators on polynomials.

Everything is computed over Q(q) (or Q at a fixed rational q) with canonical
normal forms, so results are reproducible bit for bit.  The main entry
points: the Weyl algebra (weyl), the deformed power-sum operators and their
straightening (steenrod), graded hit/harmonic spaces (spaces), symmetric
group characters (representations), the n -> n+1 string machinery (strings),
specialization and bad-q detection (specialize), the divided-difference
baseline (schubert), and a CLI (cli).
"""

__version__ = "0.1.0"

from .scalars import (
    FORMAL,
    IntPoly,
    QParam,
    RationalFunction,
    RF_ONE,
    RF_Q,
    RF_ZERO,
    rf_normalize,
)
from .polynomials import (
    Monomial,
    Polynomial,
    factorial_weight,
    monomials_of_degree,
    permute_variables,
    scalar_product,
)
from .linalg import Matrix, echelonize
from .weyl import (
    WeylElement,
    orbit_sum,
    steenrod_square,
    weyl_apply,
    weyl_compose,
    weyl_dual,
    weyl_wedge,
)
from .steenrod import (
    Composition,
    OperatorSpanRank,
    Partition,
    dual_pk,
    make_p_lambda,
    make_pk,
    monomial_expansion,
    monomial_symmetric,
    operator_span_rank,
    partitions_of,
    polynomial_part,
    straighten,
)
from .spaces import (
    GradedSubspace,
    HilbertSeries,
    StaircaseReport,
    StaircaseSet,
    classical_harm_hilbert,
    harm_component,
    hilbert_of,
    hit_component,
    staircase_report,
    truncated_harm_component,
    truncated_hit_component,
    weighted_complement,
)
from .representations import (
    Filling,
    GradedCharacter,
    RegularRepCertificate,
    character_table,
    graded_character,
    is_regular_representation,
    specht_polynomial,
    standard_tableaux,
    vandermonde,
)
from .strings import (
    HarmonicString,
    build_string,
    coefficient_slice,
    is_harmonic_string,
    string_to_polynomial,
    two_variable_harmonics,
)
from .specialize import (
    BadQReport,
    bad_q_candidates,
    content_free_basis,
    minor_gcd,
    specialize_poly,
    specialized_dimension,
)
from .schubert import (
    GradedOperator,
    commutant_search,
    d_sigma,
    divided_difference,
    schubert_polynomial,
)
