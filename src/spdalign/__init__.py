"""Second-order domain adaptation with SPD scatter alignment.

Library surface: symmetric-matrix primitives (:mod:`spdalign.spd`), squared
distances between SPD matrices and their gradients (:mod:`spdalign.distances`),
feature blocks, the one per-class mean and scatter builder that training,
checks and bench share, and its chain rule back to the features
(:mod:`spdalign.scatter`), the exact isometric reduction
(:mod:`spdalign.nystrom`), the full two-stream objective
(:mod:`spdalign.align`), a desk-scale trainer on synthetic shifted data
(:mod:`spdalign.trainer`), and ranked-retrieval metrics
(:mod:`spdalign.metrics`). The CLI lives in :mod:`spdalign.cli`.
"""

from .align import (
    AlignConfig,
    AlignmentResult,
    Classifier,
    ObjectiveResult,
    alignment_loss,
    proximity,
    softmax_ce,
    total_objective,
)
from .distances import DistanceKind, dist_sq, grad_dist_sq
from .errors import (
    ConfigError,
    DimensionError,
    DivergenceError,
    EmptyClassError,
    FormatError,
    LabelError,
    NumericalError,
    ParameterError,
    SingularityError,
    SpdAlignError,
)
from .metrics import (
    RankedCase,
    avg_top_kk,
    factor_breakdown,
    load_cases,
    parse_case_line,
    top_k,
    top_k_n,
)
from .nystrom import Projection, backproject_grad, isometric_project, nystrom_map
from .scatter import FeatureBlock, mean_and_scatter
from .spd import SymMatrix, eig_sym, logdet, regularize, spd_fn, symmetrize
from .trainer import (
    DomainShift,
    Encoder,
    EvalReport,
    SynthSpec,
    TwoStreamModel,
    evaluate,
    init_two_stream,
    run_adaptation_benchmark,
    synth_domain_pair,
    train,
    train_single_stream,
)

__version__ = "0.1.0"
