"""Hypergraph-regularized dictionary learning with sparse attention weighting."""

from .attention import (
    AdmmParams,
    AttentionBatch,
    AttentionSolution,
    soft_threshold,
    solve_attention,
    solve_attention_batch,
)
from .data import (
    DatasetBundle,
    apply_mask,
    load_binmat,
    load_csv,
    load_features,
    make_synthetic,
    save_binmat,
    save_csv,
)
from .dictlearn import (
    INDUCTIVE,
    TRANSDUCTIVE,
    Classifier,
    DictLearnParams,
    TrainedModel,
    encode_test,
    fit_classifier,
    init_dictionary,
    objective,
    predict,
    train,
    train_pipeline,
    update_codes,
    update_dictionary,
)
from .errors import (
    FormatError,
    InputError,
    InternalError,
    NumericalError,
    ParameterError,
)
from .harness import (
    ExperimentConfig,
    RunReport,
    ablation_suite,
    mask_sweep,
    run,
    score_predictions,
)
from .hypergraph import (
    LB,
    SAF,
    UNLABELED,
    DegreePair,
    Hypergraph,
    HypergraphConfig,
    build_laplacian,
    build_lb_hypergraph,
    build_saf_hypergraph,
    degrees,
    fuse,
    knn_neighbors,
    laplacian,
)

__version__ = "0.1.0"
