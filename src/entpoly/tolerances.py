"""Every numerical tolerance of the package; imports nothing, so any module can use it."""

LIMIT_TOL = 1e-9       # parameter band around r = 1 and s = 0 that triggers limit dispatch
PSD_TOL = 1e-9         # eigenvalues below -PSD_TOL mean the input is not a density
TRACE_TOL = 1e-9       # |Tr rho - 1| above this means the input is not a density
NORM_TOL = 1e-9        # |norm - 1| above this means the amplitudes are not normalized
NORM_LOAD_TOL = 1e-6   # acceptance band for user-supplied amplitude vectors (renormalized)
HERMITIAN_TOL = 1e-10  # largest entry of |A - A^H| accepted as Hermitian
RANK_TOL = 1e-9        # rank counts eigenvalues above this
EIG_RANK_EPS = 2.0**-52  # dense eigenvalues <= dim * this * max are zero (as numpy's matrix_rank)
LOG_EPS = 1e-12        # eigenvalues at or below this are dropped inside logarithms
DEFAULT_TOL = 1e-9     # default slack of an inequality check: satisfied when margin >= -tol
