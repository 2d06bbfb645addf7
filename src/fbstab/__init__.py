"""Iterated dyadic filter banks: construction, stability certificates, and
exact finite-order frame bounds."""

from .seqcore import (
    FiniteSeq,
    Grid,
    convolve,
    delta,
    downsample,
    dtft_at,
    inner,
    involute,
    norm_sq,
    seq,
    seq_close,
    translate,
    upsample,
    zero_seq,
)
from .filters import (
    FactoredLowpass,
    FactorizationError,
    FilterError,
    FilterPair,
    assemble,
    burt_adelson,
    factor,
    higher_order,
    orthogonal_highpass,
)
from .iterate import (
    AnalysisOutput,
    ContractionCertificate,
    IteratedFilters,
    TransferMatrix,
    analyze,
    contraction_certificate,
    energy_profile,
    iterate_filters,
    lowpass_residual_norms,
    transfer_matrix,
)
from .stability import (
    BesselCertificate,
    BoundTransferReport,
    ExpandCertificate,
    GramianReport,
    GridTooCoarseError,
    SpanCertificate,
    bessel_certificate,
    bound_transfer_check,
    default_grid_size,
    downsample_annulus_check,
    expand_certificate,
    gramian_bounds,
    gramian_dense,
    gramian_fibers,
    mstar_m_eigenfunctions,
    sine_product_check,
    sine_product_values,
    span_certificate,
    std_expand_profile,
)

__version__ = "0.1.0"
