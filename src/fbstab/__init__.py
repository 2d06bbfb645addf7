"""Iterated dyadic filter banks: construction, stability certificates, and
exact finite-order frame bounds."""

from .seqcore import (
    FiniteSeq,
    Grid,
    convolve,
    delta,
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
    analyze,
    contraction_certificate,
    energy_profile,
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
    expand_certificate,
    gramian_bounds,
    gramian_profile,
    mstar_m_eigenfunctions,
    sine_product_values,
    span_certificate,
    std_expand_profile,
)

__version__ = "0.1.0"
