"""Squeezed and coherent states of boson, su(1,1) and su(2) systems, with
uncertainty-relation reports, minimizer certificates, oscillator dynamics
and an observable-induced distance."""

from .errors import (
    BasisMismatchError,
    DegenerateParameterError,
    InvalidInputError,
    NormalizabilityError,
    NumericError,
    SingularProfileError,
    TruncationError,
    UnsupportedScaleError,
    UrstatesError,
)
from .hilbert import (
    BasisSpec,
    DensityMatrix,
    Operator,
    StateVector,
    basis_state,
    boson_rep,
    fock_basis,
    multimode_basis,
    su2_basis,
    su2_rep,
    su11_basis,
    su11_boson_rep,
    su11_rep,
    su11_sector_indices,
    tensor_rep,
)
from .matrixkit import (
    char_coeffs,
    principal_minor_sum,
    psd_min_eig,
    targeted_eigenvector,
)
from .states import (
    SqueezeParams,
    bg_cs,
    canonical_ss,
    even_odd_cs,
    glauber,
    squeezed_fock,
    su2_cs,
    su11_cs,
    su11_cs_unitary,
    su11_intelligent,
    su11_intelligent_spectrum,
)
from .stateio import load_state, save_state, state_from_dict, state_to_dict
from .moments import (
    MomentReport,
    ObservableSet,
    gaussian_sigma,
    moment_report,
    observable_set,
    uv_moments,
)
from .urcheck import (
    ComplementaryPair,
    OrderGapRecord,
    PairGapRecord,
    URReport,
    char_ur_report,
    complementary,
    one_observable_two_state,
    pair_ur_gaps,
    two_state_schrodinger,
)
from .intelligent import (
    CombinationSpec,
    EigenSolveResult,
    MinimizerCertificate,
    PairCertificate,
    minimizer_certificate,
    solve_at_eigenvalue,
    solve_combination_eigenstates,
)
from .dynamics import (
    ClassicalPhasePoint,
    ClassicalTrajectory,
    EpsilonTrajectory,
    OscillatorProfile,
    classical_flow,
    effective_frequency,
    fock_to_grid,
    integrate_epsilon,
    quadratic_logfit_residual,
    trajectory_table,
    uv_trajectory,
    wavefunction,
)
from .metrics import DistanceResult, g_overlap
from .acceptance import CRITERIA, CriterionResult

__version__ = "1.0.0"
