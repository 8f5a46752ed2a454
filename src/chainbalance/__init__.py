"""Imbalance-aware classifier chain ensembles for multi-label learning."""

from .chain import ChainModel, ChainSpec, train_chain
from .dataset import (
    DatasetSummary,
    LabelImbalanceStats,
    MultiLabelDataset,
    all_label_stats,
    load_mulan,
    load_mulan_files,
    reduce_features_by_frequency,
    summarize,
)
from .ensemble import (
    METHODS,
    ClassifierBudget,
    EnsembleModel,
    EnsembleSpec,
    compute_classifier_budget,
    predict_relevance_batch,
    train_ensemble,
)
from .learner import BinaryDataset, BinaryModel, TreeSpec, fit_tree, predict_batch
from .metrics import (
    BinaryConfusion,
    auc_pr,
    auc_roc,
    average_ranks,
    build_report,
    imr_bucket_report,
    mean_defined,
    point_metric,
    select_threshold,
)
from .sampling import (
    RngStream,
    bootstrap,
    iterative_stratified_kfold,
    random_undersample,
)
from .simulate import (
    ExploitationQuery,
    exploitation_probability,
    exploitation_probability_mc,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryConfusion",
    "BinaryDataset",
    "BinaryModel",
    "ChainModel",
    "ChainSpec",
    "ClassifierBudget",
    "DatasetSummary",
    "EnsembleModel",
    "EnsembleSpec",
    "ExploitationQuery",
    "LabelImbalanceStats",
    "METHODS",
    "MultiLabelDataset",
    "RngStream",
    "TreeSpec",
    "all_label_stats",
    "auc_pr",
    "auc_roc",
    "average_ranks",
    "bootstrap",
    "build_report",
    "compute_classifier_budget",
    "exploitation_probability",
    "exploitation_probability_mc",
    "fit_tree",
    "imr_bucket_report",
    "iterative_stratified_kfold",
    "load_mulan",
    "load_mulan_files",
    "mean_defined",
    "point_metric",
    "predict_batch",
    "predict_relevance_batch",
    "random_undersample",
    "reduce_features_by_frequency",
    "select_threshold",
    "summarize",
    "sweep",
    "train_chain",
    "train_ensemble",
]
