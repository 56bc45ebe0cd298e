"""iwkit: exact p-adic computations for cyclotomic tower invariants.

Modules
-------
padic       arithmetic in Z/p^N, Smith normal form, module invariants
series      Z_p[[X]] truncations, Phi_n / omega_n, Weierstrass preparation
cyclotomic  evaluation at the characters, mod (Phi_m(1+X), p^N)
modules     elementary Lambda-modules, quotient towers, Kobayashi ranks
logmatrix   the logarithmic matrix tower, minors, character condition
growth      stabilized increment formulas, rank ledgers, synthetic verifier
cli         deterministic command-line reports
"""

__version__ = "0.1.0"

from .config import Config
from .errors import (
    DegreeOverflowError,
    InputError,
    IwkitError,
    PrecisionExhaustedError,
    UndefinedResultError,
    ZeroSeriesError,
)
from .padic import PadicInt, SnfResult, module_invariants, snf
from .series import (
    IwasawaSeries,
    WeierstrassFactorization,
    divide_distinguished,
    omega,
    phi,
    weierstrass_prepare,
)
from .cyclotomic import CyclotomicElement, cyclo_eval
from .modules import (
    ElementaryModule,
    TowerLevel,
    TowerReport,
    nabla_brute,
    nabla_closed,
    quotient_presentation,
    rank_phi_omega,
    tower_report,
)
from .logmatrix import (
    FrobeniusData,
    LogMatrix,
    MinorTable,
    c_n,
    change_basis_check,
    condition_character,
    h_n,
    index_sets,
    m_n,
    minors,
)
from .growth import (
    MWShape,
    RankLedger,
    RkOptions,
    SelmerInvariants,
    elliptic_increment,
    final_increment,
    rk_solver,
    synthetic_tower_verify,
)

__all__ = [
    "Config",
    "CyclotomicElement",
    "DegreeOverflowError",
    "ElementaryModule",
    "FrobeniusData",
    "InputError",
    "IwasawaSeries",
    "IwkitError",
    "LogMatrix",
    "MWShape",
    "MinorTable",
    "PadicInt",
    "PrecisionExhaustedError",
    "RankLedger",
    "RkOptions",
    "SelmerInvariants",
    "SnfResult",
    "TowerLevel",
    "TowerReport",
    "UndefinedResultError",
    "WeierstrassFactorization",
    "ZeroSeriesError",
    "c_n",
    "change_basis_check",
    "condition_character",
    "cyclo_eval",
    "divide_distinguished",
    "elliptic_increment",
    "final_increment",
    "h_n",
    "index_sets",
    "m_n",
    "minors",
    "module_invariants",
    "nabla_brute",
    "nabla_closed",
    "omega",
    "phi",
    "quotient_presentation",
    "rank_phi_omega",
    "rk_solver",
    "snf",
    "synthetic_tower_verify",
    "tower_report",
    "weierstrass_prepare",
]
