"""Finite-dimensional paving, dilation and partition toolkit.

Frames are synthesis matrices (vectors as columns).  Every search returns
a certificate (a partition, a subset, a witness) that can be re-priced
independently of the search that found it; the report layer makes those
certificates durable and re-verifiable from disk.
"""

__version__ = "0.1.0"

from .core import (
    BudgetExceeded,
    ContractViolation,
    Frame,
    enumerate_partitions,
    frame_from_json,
    frame_to_json,
    gen_harmonic_frame,
    gen_random_projection,
    gen_random_unit_frame,
    matrix_from_json,
    matrix_to_json,
    numeric_rank,
    operator_norm,
)
from .frames import (
    frame_operator,
    gram_matrix,
    parseval_normalize,
    spectral_summary,
)
from .dilation import dilate_operator, naimark_dilate
from .paving import (
    delta_diag,
    pave_matrix_check,
    pave_projection_check,
    weaver_check,
    wkhb_partition,
)
from .decomposition import (
    Subspace,
    decomposition_vectors,
    epsilon_riesz_partition,
    feichtinger_partition,
    is_large,
    is_r_decomposable,
    mixed_norm,
    rado_horn_check,
    restricted_isometry,
    tp1_partition,
)
from .harmonic import (
    GridFunction,
    ap_blocks,
    christensen_bounds,
    distribution_check,
    example_e1_set,
    grid_indicator,
    kadec_bounds,
    kadec_empirical_check,
    montgomery_vaughan_theta,
    toeplitz_section,
    translate_average,
    tt3_identity_check,
    uniform_feichtinger_criterion,
    uniform_paving_criterion,
)
from .erasures import erasure_robustness, phase_retrieval_check
from .reports import load_report, make_report, verify, write_report
