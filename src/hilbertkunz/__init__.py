"""Hilbert-Kunz length functions over F_p[x_1..x_v] and their asymptotics."""

from .errors import (
    HilbertKunzError,
    InsufficientSamples,
    MatrixTooLarge,
    NotAPowerOfP,
    NotZeroDimensional,
    OrderMismatch,
    ParseError,
    RankMismatch,
    ResourceLimit,
    RingMismatch,
    SampleMismatch,
    SemanticError,
    TooManyVariables,
)
from .groebner import (
    FreeElement,
    GroebnerBasis,
    buchberger,
    count_standard_monomials,
    default_module_order,
    is_zero_dimensional,
    krull_dimension,
    syzygies,
    unit_vector,
)
from .oracle import oracle_length
from .poly import (
    MonomialOrder,
    PolyRing,
    Polynomial,
    check_power_of_p,
    frobenius_power_poly,
    parse_polynomial,
    ring,
)
from .presentations import (
    IdealSpec,
    ModulePresentation,
    RingSpec,
    cyclic_module,
    direct_sum,
    free_module,
    frobenius_relations,
    ideal_spec,
    length_mod_frobenius,
    maximal_ideal,
    module_presentation,
    present_submodule,
    quotient_presentation,
    ring_spec,
)
from .analysis import (
    AdditiveErrorReport,
    AlphaEstimate,
    AsymptoticReport,
    BoundCheck,
    GeometricTail,
    HKSample,
    HKSeries,
    PeriodicTail,
    PolynomialFit,
    SecondCoefficient,
    additive_error,
    analyze_module_vs_ring,
    analyze_series,
    bounded_by_power,
    check_delta_recursion,
    delta_sequence,
    detect_periodic_tail,
    estimate_beta,
    estimate_tau,
    fit_geometric_tail,
    fit_polynomial,
    geometric_accelerate,
    sample_hk,
)
from .problemfile import ProblemFile, parse_problem, serialize_problem

__version__ = "0.1.0"
