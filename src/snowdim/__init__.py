"""Low-distortion dimension reduction for doubling subsets of l1/l2/l-inf.

The pipeline: normalize a finite point set, build single-scale embeddings
whose image distances track a saturating transform of the source distance,
stack geometrically spaced scales into a snowflake embedding whose image
tracks d**alpha in a dimension independent of the number of points, and
derive compact distance labels from the result.  Every construction ships
with an audit that measures all pairs against its declared bounds.
"""

from .errors import (BadParams, ClusterTooLarge, DuplicatePoints,
                     DuplicateSources, EmptyInput, ExtensionDidNotConverge,
                     HeaderMismatch, NotEuclidean, PaddingUnachievable,
                     SnowdimError, UnknownKind)
from .points import (DoublingEstimate, Net, PointSet, estimate_doubling,
                     generate, greedy_net, normalize)
from .transforms import (cut_decomposition, euclidean_realization,
                         gaussian_transform, laplace_transform,
                         threshold_transform)
from .decomposition import (PaddedDecomposition, build_decomposition,
                            padding_audit)
from .extension import kirszbraun_extend, lipschitz_constant
from .projection import exact_reduce, jl_dimension, jl_project
from .report import DistortionReport, from_pairs
from .single_scale import (SingleScaleEmbedding, SingleScaleParams,
                           build_single_scale, contract_audit,
                           theory_dimension)
from .snowflake import (SnowflakeEmbedding, SnowflakePlan, band_center,
                        build_snowflake, compute_M, distortion_audit,
                        scale_count, scale_plan)
from .labeling import (DistanceLabel, LabelHeader, LabelSet, dls_build,
                       dls_query, dumps_labels, loads_labels,
                       measured_label_bits, quantization_slack,
                       theory_label_bits)

__version__ = "0.1.0"

__all__ = [
    "BadParams", "ClusterTooLarge", "DuplicatePoints", "DuplicateSources",
    "EmptyInput", "ExtensionDidNotConverge", "HeaderMismatch",
    "NotEuclidean", "PaddingUnachievable", "SnowdimError", "UnknownKind",
    "DoublingEstimate", "Net", "PointSet", "estimate_doubling", "generate",
    "greedy_net", "normalize",
    "cut_decomposition", "euclidean_realization", "gaussian_transform",
    "laplace_transform", "threshold_transform",
    "PaddedDecomposition", "build_decomposition", "padding_audit",
    "kirszbraun_extend", "lipschitz_constant",
    "exact_reduce", "jl_dimension", "jl_project",
    "DistortionReport", "from_pairs",
    "SingleScaleEmbedding", "SingleScaleParams", "build_single_scale",
    "contract_audit", "theory_dimension",
    "SnowflakeEmbedding", "SnowflakePlan", "band_center", "build_snowflake",
    "compute_M", "distortion_audit", "scale_count", "scale_plan",
    "DistanceLabel", "LabelHeader", "LabelSet", "dls_build", "dls_query",
    "dumps_labels", "loads_labels", "measured_label_bits",
    "quantization_slack", "theory_label_bits",
    "__version__",
]
