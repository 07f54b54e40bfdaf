"""Numerical identifiability of latent mechanisms observed through decoders.

The library simulates latent dynamics z_{t+1} = m_t(z_t) seen only through
a decoder x = g(z), computes the equivariance and imitator sets that govern
which models are observationally indistinguishable, recovers linear
encoders where those sets are trivial, and tests the stochastic analogue
of equivariance in distribution.

scipy is imported inside the functions that call it, and the thread pool
inside the branch that builds one, so `import mechid` loads numpy alone and
a run pays for a scipy module only when it uses one. Evaluation grids of up
to 32 dimensions are built in numpy from the Joe–Kuo direction numbers
written out in `grids`; the energy test loads only the compiled distance
kernel that `cdist` calls; and signed-permutation comparisons match rows
with an assignment solver of their own. So no shipped fixture loads any
scipy module, no kind ever loads `scipy.spatial`, and `recover` loads no
scipy module at all. What still loads one: the energy test (scipy's
top-level `__init__`), Gaussian and generalized-Laplace noise with alpha
other than 1 (`scipy.special`), the KS test on samples of unequal size or
over 10^4 points, and grids of over 32 dimensions (`scipy.stats`).
"""

__version__ = "0.12.0"

from .dynamics import (
    AffineMechanism,
    LinearDecoder,
    NoiseSpec,
    ScalarMap,
    StructuredDecoder,
    Trajectory,
    additive_noise_mechanism,
    simulate,
)
from .equivariance import (
    AffineMapFamily,
    CheckReport,
    ConditionReport,
    ConditionVerdict,
    EquivarianceFamily,
    LinearSubspaceBasis,
    affine_equivariances,
    check_equivariance,
    exact_recovery_conditions,
    linear_commutant,
    offset_identifiability_check,
    shared_equivariances,
)
from .errors import (
    BudgetExceededError,
    ConfigError,
    DataDeficiencyError,
    DimensionMismatchError,
    DivergedTrajectoryError,
    IllConditionedError,
    MechidError,
    NonFiniteSampleError,
    OffManifoldError,
    ReplayIncompatibilityError,
    SingularMapError,
    ToleranceAmbiguityError,
)
from .grids import GridSpec
from .imitation import (
    CycleReport,
    ImitationRecord,
    ImitatorClosure,
    MechanismClass,
    check_imitation,
    cycle_analysis,
    imitator_closure,
)
from .maps import AffineMap, compose, map_power
from .recovery import (
    ComparisonResult,
    RecoveryProblem,
    RecoveryResult,
    compare_up_to_class,
    recover_linear_encoder,
)
from .rng import stream
from .stochastic import (
    ClassVerdict,
    DistributionalTestSpec,
    JacobianClassReport,
    TestReport,
    TwoSampleResult,
    finite_difference_jacobian,
    jacobian_identifiability_test,
    signed_perm_offset_test,
    stochastic_equivariance_test,
    two_sample_test,
)
from .verify import (
    AuditReport,
    AuditRow,
    CandidateModel,
    membership_equivalence_audit,
)

from types import ModuleType as _ModuleType

# the API names: the submodules the imports above bind are not exported
__all__ = sorted(n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _ModuleType)))
