"""Entanglement measures and polygon inequalities for multipartite qudit states.

Compute parameterized entanglement measures (q-concurrence, unified-(r,s),
Renyi, Tsallis and von Neumann entanglement, concurrence, negativity) of
pure multi-qudit states and structured network states, check the polygon,
triangle and bipartition inequalities they satisfy, evaluate the associated
indicators, and run seeded randomized searches for counterexamples.
"""

from .entropies import (
    EntropyParams,
    f_q,
    renyi,
    renyi0,
    tsallis,
    unified_entropy,
    von_neumann,
)
from .errors import InvalidInputError, UnsupportedMeasureError
from .inequalities import (
    IndicatorResult,
    InequalityResult,
    bipartition_check,
    default_tau_hat_cuts,
    eof_product_test,
    polygon_check,
    product_structure_oracle,
    renyi_mixed_check,
    tau_hat_indicator,
    tau_indicator,
    triangle_check,
)
from .measures import (
    Bipartition,
    MeasureSpec,
    marginal_vector,
    measure_network,
    measure_pure,
    network_marginal_vector,
    total_entanglement,
)
from .search import (
    SearchConfig,
    ViolationReport,
    WorstState,
    fuzz_polygon,
    grid_scan,
    mix64,
    report_from_json,
    report_to_json,
)
from .states import (
    MultiQuditState,
    NetworkSpec,
    NetworkState,
    Resource,
    compose_network,
    epr,
    from_amplitudes,
    generalized_ghz3,
    ghz,
    haar_random,
    load_state,
    save_state,
    star4,
    state_from_dict,
    state_to_dict,
    w_qutrit,
)
from .tensor import (
    hermitian_eigensystem,
    hermitian_eigenvalues,
    kron,
    partial_trace,
    partial_transpose,
    reduced_of_pure,
    schmidt_spectrum,
    trace_power,
)

__version__ = "0.1.0"
