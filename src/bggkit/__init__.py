"""bggkit: exact block data for highest-weight module categories.

Root and Weyl combinatorics, Chevalley bases with verified integer
structure constants, PBW normal ordering over exact rationals, p-adic
Gauss norms, Harish-Chandra central characters, simple multiplicities
by the radical recursion on Verma modules, Shapovalov forms, and
per-block decomposition/Cartan matrices realizing BGG reciprocity.
"""

from .errors import (BGGKitError, ConsistencyError, DepthOverflowError,
                     DomainError, NotARootError, NotFiniteTypeError,
                     UsageError)
from .rootdata import (STRICT, WIDE, CartanMatrixInput, RootSystem, Weight,
                       WeylElement, WeylGroup, build_root_system,
                       cached_root_system)
from .liealg import (LieAlgebraData, UEAElement, bracket, build_chevalley,
                     casimir)
from .gaussnorm import LogNorm, NormParam, check_submultiplicative, log_norm, vp
from .harish import CentralCharacter, central_character, gamma_twist, hc_psi
from .category import (BlockReport, DecompositionMatrix, VermaModule, VermaSlice,
                       block_report, cartan_matrix, decomposition_matrix,
                       maximal_vectors, projective_filtration_matrix,
                       shapovalov_matrix, simple_weight_mult, verma_is_simple)
from .pbw import KERNEL_IMPL

__version__ = "0.1.0"

__all__ = [
    "BGGKitError", "ConsistencyError", "DepthOverflowError", "DomainError",
    "NotARootError", "NotFiniteTypeError", "UsageError",
    "STRICT", "WIDE", "CartanMatrixInput", "RootSystem", "Weight",
    "WeylElement", "WeylGroup", "build_root_system", "cached_root_system",
    "LieAlgebraData", "UEAElement", "bracket", "build_chevalley", "casimir",
    "LogNorm", "NormParam", "check_submultiplicative", "log_norm", "vp",
    "CentralCharacter", "central_character", "gamma_twist", "hc_psi",
    "BlockReport", "DecompositionMatrix", "VermaModule", "VermaSlice",
    "block_report",
    "cartan_matrix", "decomposition_matrix", "maximal_vectors",
    "projective_filtration_matrix", "shapovalov_matrix", "simple_weight_mult",
    "verma_is_simple",
    "KERNEL_IMPL", "__version__",
]
