"""Determinant-based feature-diversity regularization, end to end: a
numpy autodiff tape, conv/attention ops, the RBF-similarity determinant
score, two model families that train against it, and a CLI harness."""

from .autodiff import (ShapeMismatch, Tensor, accumulate, add, backward, concat, grad_check,
                       mul, narrow, neg, no_grad, relu, reshape, sigmoid, tmean)
from .config import ConfigError, ExperimentConfig, MODEL_FAMILIES
from .data import (Dataset, DatasetFormatError, GeneratorConfig, batches, class_template,
                   generate, load_dataset, nearest_template, save_dataset)
from .diversity import (DiversityScore, auto_gamma, channel_pool, det_gradient, det_t,
                        diversity_of_pooled, lu_det, measure_diversity, similarity_matrix,
                        similarity_matrix_t, spatial_pool, unit_normalize)
from .models import (AttentionMaps, CapacityError, CheckpointFormatError, DualBranchModel,
                     DualForward, EnsembleBranch, EnsembleModel, SharedBase, add_branch,
                     build_dual_branch, build_ensemble, dual_predict, ensemble_predict,
                     load_checkpoint, patchify, save_checkpoint, softmax_probs, unpatchify)
from .nn import (AttentionBlock, ConvLayer, DenseLayer, attention_apply, broadcast_mul,
                 conv2d, global_avg_pool, linear, reduce_max, softmax_cross_entropy)
from .training import (SGD, BranchAddCheck, EpochRecord, EvalReport, LossBreakdown,
                       NonFiniteLossError, TrainResult, accuracy, esr_loss, evaluate,
                       manet_loss, predict_dataset, train)

__all__ = [name for name in dir() if not name.startswith("_")]
