"""Budget-constrained sparse feature and group selection for linear classification.

Training alternates an exact worst-case search for the most violated
budgeted unit set with an accelerated proximal solve over all stored
selections, yielding certified bounds and controlled support sizes.
Selection units can be raw features, disjoint groups, hierarchy nodes, or
implicit degree-2 polynomial interactions scored without materializing the
quadratic feature space.
"""

from .blocks import ColumnCache
from .dataset import (FormatError, GroundTruth, GroupStructure, SparseDataset, TreeStructure,
                      compute_scaling_prior, generate_synthetic, generate_test_set,
                      load_ground_truth, load_groups, load_libsvm, load_tree,
                      write_ground_truth, write_libsvm)
from .loss import LOGISTIC, SQUARED_HINGE, LossKind, eval_loss, recover_duals
from .subsolver import ApgResult, NumericalError, apg_solve, moreau_projection, regularizer
from .worstcase import (PolyMap, poly_columns, poly_dim, poly_variant, score_features,
                        score_polynomial_streamed, score_tree_pruned, select_top_b)
from .engine import (Model, ModelEntry, SolverConfig, TraceRecord, eval_bounds,
                     evaluate_recovery, fgm_train, load_model, predict, save_model)
from .baseline import (SweepResult, dense_to_model, l1_prox_train, l2_full_train,
                       retrain_unbiased, sweep_to_support)
from .bench import fgm_target_support, run_config, setting_id

__version__ = "0.1.0"

__all__ = [
    "ApgResult", "ColumnCache", "FormatError", "GroundTruth",
    "GroupStructure", "LOGISTIC", "LossKind", "Model", "ModelEntry", "NumericalError",
    "PolyMap", "SQUARED_HINGE", "SolverConfig", "SparseDataset", "SweepResult",
    "TraceRecord", "TreeStructure", "apg_solve", "compute_scaling_prior",
    "dense_to_model", "eval_bounds", "eval_loss", "evaluate_recovery",
    "fgm_target_support", "fgm_train", "generate_synthetic", "generate_test_set",
    "l1_prox_train", "l2_full_train", "load_ground_truth", "load_groups", "load_libsvm",
    "load_model", "load_tree", "moreau_projection", "poly_columns", "poly_dim",
    "poly_variant", "predict", "recover_duals", "regularizer",
    "retrain_unbiased", "run_config", "save_model", "score_features",
    "score_polynomial_streamed", "score_tree_pruned", "select_top_b", "setting_id",
    "sweep_to_support", "write_ground_truth", "write_libsvm",
]
