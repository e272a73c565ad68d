"""Edge-drop robustness benchmark for graph classifiers.

Implements ResidualGCN and an Exphormer-style sparse graph transformer over
connectome-style graphs on a small reverse-mode autodiff core, plus synthetic
dataset generators with controllable label provenance and a probabilistic
edge-dropping harness for measuring how much predictions depend on graph
structure versus node features.
"""

from .autodiff import (
    BlockAdjacency,
    IndexPlan,
    Tape,
    Tensor,
    backward,
    concat_cols,
    concat_rows,
    cross_entropy,
    dropout,
    matmul,
    mean_pool_rows,
    relu,
    softmax_segments,
    sparse_aggregate,
    sum_all,
)
from .data import (
    ConnectomeGraph,
    Dataset,
    DatasetSplits,
    SyntheticSpec,
    build_graph,
    deserialize_dataset,
    drop_edges,
    generate_synthetic,
    graphs_equal,
    pearson_correlation,
    serialize_dataset,
    split_dataset,
)
from .errors import (
    ConfigError,
    ContractError,
    DatasetError,
    DatasetParseError,
    DegenerateSeriesError,
    DivergenceError,
    EmptySplitError,
    ShapeError,
)
from .models import (
    AttnResidualGCN,
    AttnVariantConfig,
    Exphormer,
    ExphormerConfig,
    InteractionGraph,
    ResidualGCN,
    ResidualGCNConfig,
    build_expander,
    build_interaction_graph,
    build_model,
)
from .optim import AdamState, adam_step, zero_grads
from .rng import seeded_rng
from .training import (
    EpochMetrics,
    ExperimentResult,
    Run,
    RunResult,
    TrainConfig,
    aggregate_accuracy,
    evaluate,
    lr_at,
    run_experiment,
    train_epoch,
)

__version__ = "0.1.0"
