"""Squeezed and coherent states of boson, su(1,1) and su(2) systems, with
uncertainty-relation reports, minimizer certificates, oscillator dynamics
and an observable-induced distance."""

from .errors import (
    BasisMismatchError,
    InvalidInputError,
    NormalizabilityError,
    NumericError,
    TruncationError,
    UnsupportedScaleError,
    UrstatesError,
)
from .hilbert import (
    BasisSpec,
    Operator,
    StateVector,
    basis_state,
    boson_rep,
    fock_basis,
    multimode_basis,
    su2_basis,
    su2_rep,
    su11_basis,
    su11_rep,
    tensor_rep,
)
from .matrixkit import (
    char_coeffs,
    principal_minor_sum,
    psd_min_eig,
)
from .states import (
    bg_cs,
    canonical_ss,
    even_odd_cs,
    glauber,
    squeeze_pair,
    squeezed_fock,
    su2_cs,
    su11_cs,
    su11_intelligent,
    su11_intelligent_spectrum,
)
from .stateio import load_state, state_from_dict, state_to_dict
from .moments import (
    MomentReport,
    ObservableSet,
    moment_report,
    observable_set,
)
from .urcheck import (
    OrderGapRecord,
    PairGapRecord,
    URReport,
    char_ur_report,
    complementary,
    one_observable_two_state,
    two_state_schrodinger,
)
from .intelligent import MinimizerCertificate, PairCertificate, minimizer_certificate
from .dynamics import (
    ClassicalPhasePoint,
    ClassicalTrajectory,
    EpsilonTrajectory,
    OscillatorProfile,
    classical_flow,
    integrate_epsilon,
    trajectory_table,
    uv_trajectory,
)
from .metrics import DistanceResult, g_overlap

__version__ = "1.0.0"


def __getattr__(name):
    # acceptance holds the scan suites and the self-test criteria, which only
    # `scan` and `selftest` run, so a cold start does not import it
    if name in ("CRITERIA", "CriterionResult"):
        from . import acceptance

        return getattr(acceptance, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
