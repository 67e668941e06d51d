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
    Partition,
    count_partitions,
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
    refine_partition,
)
from .frames import (
    SpectralSummary,
    analysis_matrix,
    canonical_dual,
    frame_bounds,
    frame_operator,
    frames_equivalent,
    gram_matrix,
    is_frame_sequence,
    parseval_normalize,
    project_frame,
    spectral_summary,
    subframe,
)
from .dilation import DilationResult, dilate_operator, naimark_dilate, parseval_complete
from .paving import (
    PavingReport,
    delta_diag,
    diagonal_projection,
    pave_matrix_check,
    pave_projection_check,
    paving_norm,
    weaver_check,
    wkhb_partition,
)
from .decomposition import (
    RieszReport,
    Subspace,
    Tp1Report,
    decomposition_vectors,
    epsilon_riesz_partition,
    feichtinger_partition,
    is_large,
    is_r_decomposable,
    mixed_norm,
    rado_horn_check,
    rado_horn_partition,
    restricted_isometry,
    restricted_isometry_sampled,
    riesz_bounds,
    tp1_partition,
)
from .harmonic import (
    GridFunction,
    ap_blocks,
    christensen_bounds,
    deviation_profile,
    distribution_check,
    example_e1_set,
    gk_component,
    gk_component_by_mask,
    grid_indicator,
    kadec_bounds,
    kadec_empirical_check,
    montgomery_vaughan_theta,
    shift_covariance_residual,
    toeplitz_section,
    translate,
    translate_average,
    tt3_identity_check,
    uniform_feichtinger_criterion,
    uniform_paving_criterion,
)
from .erasures import (
    ErasureReport,
    cc_partition_search,
    ccc_partition_search,
    erasure_robustness,
    phase_retrieval_check,
)
from .reports import load_report, make_report, payload_hash, verify, write_report
