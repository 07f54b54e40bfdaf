"""Numerical identifiability of latent mechanisms observed through decoders.

The library simulates latent dynamics z_{t+1} = m_t(z_t) seen only through
a decoder x = g(z), computes the equivariance and imitator sets that govern
which models are observationally indistinguishable, recovers linear
encoders where those sets are trivial, and tests the stochastic analogue
of equivariance in distribution.

scipy is imported inside the functions that call it, so `import mechid`
loads numpy alone and a run pays for a scipy module only when it uses one.
Evaluation grids are built in numpy from the Sobol direction numbers scipy
ships as data, and signed-permutation comparisons match rows with an
assignment solver of their own, so no shipped fixture loads `scipy.stats`,
`scipy.special`, `scipy.optimize` or `scipy.spatial`, and `recover` loads
no scipy module at all. What still loads one: Gaussian and
generalized-Laplace noise with alpha other than 1 (`scipy.special`), the
energy test (`scipy.spatial`), and the KS test on samples of unequal size
or over 10^4 points (`scipy.stats`).
"""

__version__ = "0.10.0"

from .dynamics import (
    AffineMechanism,
    GeneralMechanism,
    LinearDecoder,
    NoiseSpec,
    ScalarMap,
    StochasticMechanism,
    StructuredDecoder,
    Trajectory,
    TransformedDecoder,
    additive_noise_mechanism,
    sample_generalized_laplace,
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
    find_affine_intertwiners,
    imitator_closure,
)
from .maps import AffineMap, FunctionBijection, compose, identity_map, map_power
from .recovery import (
    ComparisonResult,
    RecoveryProblem,
    RecoveryResult,
    compare_up_to_class,
    recover_linear_encoder,
    recover_with_multiple_offsets,
)
from .rng import spawn_seeds, stream
from .stochastic import (
    ClassVerdict,
    DistributionalTestSpec,
    JacobianClassReport,
    TestReport,
    TwoSampleResult,
    VolumeReport,
    finite_difference_jacobian,
    jacobian_identifiability_test,
    signed_perm_offset_test,
    stochastic_equivariance_test,
    two_sample_test,
    volume_preservation_test,
)
from .verify import (
    AuditReport,
    AuditRow,
    CandidateModel,
    membership_equivalence_audit,
    verify_identity_unknown_mech,
    verify_observation_identity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
