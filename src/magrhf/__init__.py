"""magrhf: spectral workbench for the reduced Hartree-Fock model with
self-generated magnetic fields.

The package evaluates the magnetic mean-field energy, solves the
coupled orbital/vector-potential stationarity system for molecules in a
periodic box and for crystal unit cells, constructs the analytic
Loss-Yau zero modes that drive the magnetic collapse, estimates the
critical coupling from above through rank-1 zero-mode optimisation, and
verifies the Thomas-Fermi lower-bound chain.
"""

from .constants import C2_DEFAULT, C_LT_CLASSICAL, C_SOBOLEV_SHARP
from .density import (
    DensityMatrix,
    EnergyBreakdown,
    current,
    density,
    kinetic_inequality_report,
    kinetic_laplacian_trace,
    kinetic_terms,
    magnetisation,
    physical_current,
    total_energy,
)
from .fields import (
    Cell,
    CellMismatchError,
    ScalarField,
    SpinorField,
    VectorField,
    curl,
    divergence,
    gradient,
    helmholtz_project,
    inner,
    poisson_potential,
)
from .hamiltonian import (
    PAULI,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    MagneticPotential,
    Nucleus,
    SystemSpec,
    apply_magnetic_laplacian,
    apply_pauli_kinetic,
    apply_sigma_kinetic_root,
    external_potential,
    green_function_GR,
    hartree,
    magnetic_energy,
)
from .scf import (
    AlphaScanRow,
    EigensolveError,
    SCFConfig,
    SCFState,
    concavity_defects,
    eigensolve,
    fermi_fill,
    make_hamiltonian,
    scan_alpha,
    scf_solve,
    update_vector_potential,
)
from .spinless import SpinlessResult, scf_solve_spinless
from .tfbound import (
    ChainLedger,
    RadialGrid,
    TFDensity,
    TFMinimizeResult,
    beta_lower_bound_chain,
    penalised_f,
    tf_energy,
    tf_energy_terms,
    tf_minimize,
)
from .zeromodes import (
    InstabilityScan,
    ZeroModeFamily,
    alpha_c_from_beta,
    beta_rank1_upper_bound,
    dilate,
    f_z,
    grid_residual,
    instability_scan,
    loss_yau,
    sample_on_cell,
)

__version__ = "0.1.0"
