"""Quantum tori at roots of unity: exact cocycle calculus, q-Weyl algebras,
finite-lattice duality, and a discrete Fourier-Mukai transform."""

__version__ = "0.1.0"

from .cocycle import (
    BilinearCocycle,
    BoundedCochain,
    CochainTable,
    ExponentWindow,
    Phase,
    WindowError,
    bounding_cochain,
    check_cocycle,
    coboundary,
    normal_order_representative,
)
from .equivariant import (
    EquivariantObject,
    GroupCocycleTable,
    GSet,
    LinearizationReport,
    TwistedAlgebra,
    check_linearization,
    forget,
    free,
    from_module,
    hom_dim,
    hom_space,
    retwist,
    to_module,
    twisted_algebra,
)
from .exprs import (
    ParseError,
    parse_laurent,
    parse_word,
    render_laurent,
    render_word_poly,
    word_side,
    word_to_poly,
)
from .finitefm import (
    BRepresentation,
    DeformedKernel,
    ModuleOnXLambda,
    TorusModel,
    character_projectors,
    character_twist,
    check_fm_ab_equivariance,
    dual_side_product,
    fm_ab,
    fm_ab_equivariance_iso,
    fm_ab_inverse,
    fm_lambda,
    fm_lambda_inverse,
    free_sheaf,
    module_hom_dim,
    module_hom_space,
    random_sheaf,
    star_on_points,
    translate_graded,
    verify_factorization,
)
from .lattice import (
    DualPairData,
    FiniteAbelianGroup,
    GroupBilinearTable,
    QuotientPresentation,
    SublatticeBasis,
    SubgroupPresentation,
    compute_H_hat,
    compute_K_hat,
    descend_cocycle,
    lambda_sharp,
    smith_normal_form,
    subgroup_presentation,
)
from .laurent import (
    LaurentPoly,
    coboundary_transform,
    majorant_norm,
    max_coeff_diff,
    star_mul,
    translate,
)
from .qweyl import (
    Coeff,
    PeriodMatrix,
    PModuleElement,
    QPolynomial,
    gamma_action,
    max_value_diff,
    mul_crossed,
    mul_W,
    pmodule_act_gamma,
    pmodule_act_gammahat,
)
from .verify import PropertyResult, run_battery

