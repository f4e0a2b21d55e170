"""framelab: finite-scale calculus for frames, semi-frames and reproducing pairs.

The package models a measure space as atoms plus density segments, renders it
finite through equal-mass quadrature, and provides the full operator calculus
of vector families over the resulting node sets: analysis and synthesis maps,
frame bounds and duals, redundancy accounting, splitting into discrete and
strictly continuous parts, reproducing kernels of analysis ranges, and the
resolution-operator machinery of reproducing pairs.  A gallery of named
constructions and a CLI make the bound-trend and refinement experiments
reproducible.
"""

from .errors import (
    DimensionMismatchError,
    FramelabError,
    InvalidSpecError,
    NonSquareError,
    NotAFrameError,
    NotHermitianError,
    NotInjectiveError,
    NotInvertibleError,
    NotOrthonormalError,
    NotSurjectiveError,
    NumericalRefusal,
    OutOfRangeError,
    PairDegenerateError,
    SpaceMismatchError,
    ValidationError,
)
from .frames import (
    Classification,
    FrameReport,
    VectorFamily,
    analysis,
    analysis_matrix,
    canonical_dual,
    classify_trend,
    frame_bounds,
    frame_operator,
    kernel_matrix,
    redundancy,
    semiframe_trend,
    split,
    synthesis,
)
from .gallery import GalleryKind, GallerySpec, build, truncation_sequence
from .measure import (
    Atom,
    Density,
    DiscretizedSpace,
    MeasureSpace,
    Node,
    Provenance,
    Segment,
    SpaceKind,
    classify,
    counting_space,
    decompose,
    discretize,
    sierpinski_subset,
    unit_segment_space,
)
from .numerics import hermitian_eig, pinv, rank
from .pairs import (
    FrameTransferReport,
    ResolutionReport,
    bessel_bound,
    frame_transfer,
    induced_inner,
    induced_kernel,
    lower_semiframe_dual,
    pair_verdict,
    range_kernel,
    reproducing_partner,
    resolution_operator,
)
from .rkhs import (
    KernelTable,
    PairKernelReport,
    PointEvalBound,
    PointwiseVerdict,
    bessel_pointwise_check,
    blowup_experiment,
    function_matrix,
    kernel_from_onb,
    kernel_from_pair_report,
    kernel_of_span,
    mu_orthonormal_basis,
    point_evaluation_bounds,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
