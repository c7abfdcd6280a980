"""Environment-aware mixture-of-expert GNNs for node classification
under distribution shift, with synthetic shift-dataset generation and an
ID/OOD evaluation harness."""

__version__ = "0.1.0"

from .config import TrainConfig
from .graphdata import (
    Dataset,
    Graph,
    SplitSpec,
    build_norm_adj,
    load_dataset,
    load_graph,
    save_dataset,
    save_graph,
    split_random,
)
from .metrics import MetricsReport, accuracy, macro_f1, roc_auc
from .model import (
    ForwardOutput,
    ParamSet,
    env_probs,
    export_branch_weights,
    forward,
    gumbel_sample,
    init_params,
    prepare_graph,
)
from .rng import Rng
from .shiftgen import (
    PlantedConfig,
    SpuriousGenConfig,
    gen_planted_dataset,
    gen_spurious_dataset,
)
from .sparse import SparseAdj
from .trainer import (
    TrainAbort,
    TrainResult,
    eval_report,
    regularizer,
    sweep,
    total_loss,
    train,
)

__all__ = [
    "TrainConfig",
    "Dataset",
    "Graph",
    "SplitSpec",
    "build_norm_adj",
    "load_dataset",
    "load_graph",
    "save_dataset",
    "save_graph",
    "split_random",
    "MetricsReport",
    "accuracy",
    "macro_f1",
    "roc_auc",
    "ForwardOutput",
    "ParamSet",
    "env_probs",
    "export_branch_weights",
    "forward",
    "gumbel_sample",
    "init_params",
    "prepare_graph",
    "Rng",
    "PlantedConfig",
    "SpuriousGenConfig",
    "gen_planted_dataset",
    "gen_spurious_dataset",
    "SparseAdj",
    "TrainAbort",
    "TrainResult",
    "eval_report",
    "regularizer",
    "sweep",
    "total_loss",
    "train",
]
