"""Exact arithmetic for Drinfeld modules and characteristic-p L-series.

The package computes with the polynomial ring A = F_r[T] and its
completions: Ore (twisted) polynomials and Drinfeld modules, rank-1
tau-sheaves with Frobenius eigenvalues, Goss-style special polynomials and
Euler products, torsion-point Frobenius oracles, and two modularity
classifiers.  Everything is exact; Laurent series carry explicit
precision.  All values are immutable and every operation is a pure
function, so parallel evaluation over primes or indices is safe.
"""

__version__ = "0.1.0"

from .errors import (
    BadPrime,
    BadReduction,
    BoundExceeded,
    CacheCorrupt,
    DomainMismatch,
    FFZetaError,
    InconsistentFrobenius,
    InsufficientData,
    NonConvergent,
    NotAPower,
    NotAUnitModV,
    NotCyclic,
    NotOneUnit,
    NotPrime,
    ParseError,
    SingularRecursion,
    Unsupported,
    ZeroInput,
)
from .ffield import FiniteField, field_make
from .laurent import INF, Laurent, one_unit_pow, root_pow_r_minus_1
from .lseries import (
    CarlitzObject,
    Classification,
    EigenSystem,
    LocalFactor,
    PowerSumTable,
    SInfinityPoint,
    SpecialPolynomial,
    ZetaA,
    a_pow_s,
    classify_eigen_system,
    euler_product,
    euler_product_symbolic,
    local_factor,
    local_factor_table,
    newton_polygon,
    power_sum,
    power_sum_enumerated,
    special_degree,
    special_polynomial,
    translate_identity_check,
    vadic_congruence_check,
)
from .ore import (
    DrinfeldModule,
    OrePoly,
    TModuleCarlitzPower,
    TorsionModule,
    carlitz,
    drinfeld_rank1,
    drinfeld_rank2,
    exp_coefficients,
    frobenius_charpoly,
    frobenius_on_torsion,
    point_module_annihilator,
    reduce_mod_prime,
    residue_field,
    torsion_points,
)
from .poly import (
    BivPoly,
    Poly,
    RatFunc,
    is_irreducible,
    monic_irreducibles,
    monic_polys,
    poly_from_string,
    ratfunc_from_string,
    resultant,
)
from .sheaf import (
    ClassIResult,
    GaloisCharacterValue,
    TauSheafRank1,
    carlitz_sheaf,
    carlitz_tensor_power,
    chi_beta,
    class_I_test,
    frobenius_eigenvalue,
    sheaf_of_drinfeld_rank1,
    tensor,
    unit_sheaf,
)
