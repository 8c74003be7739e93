"""Desk-scale robust ensembling networks for unsupervised domain adaptation.

A student MLP trains adversarially against a domain discriminator on
synthetic shift benchmarks while a teacher copy tracks it through weight
averaging; conditional adversarial terms and a consistency penalty couple
the pair.  Everything runs on a small built-in reverse-mode tape and is
deterministic per seed.
"""

from .exceptions import (ConfigError, ContractError, NonFiniteError,
                         RenlabError, ShapeError)
from .tensor import Graph, GradCheckReport, Tensor, finite_diff_check
from .networks import DualNet, NetSpec, ParamSet, ema_update, init_params
from .conditioning import PredEmaState, pred_ema
from .losses import LossBreakdown, consistency, cross_entropy, total_loss
from .datasets import (Batch, DataSpec, DomainDataset, apply_shift, batches,
                       make_blobs, make_two_moons, standard_benchmark)
from .trainer import (VARIANTS, RunResult, TrainConfig, Trainer, alpha_theta_ramp,
                      grl_lambda, lr_schedule, run_ablation, sgd_momentum_step)
from .evaluation import MetricsRecord, ablation_report, accuracy, stability

__version__ = "0.1.0"

__all__ = [
    "Batch", "ConfigError", "ContractError", "DataSpec", "DomainDataset", "DualNet",
    "Graph", "GradCheckReport", "LossBreakdown", "MetricsRecord", "NetSpec",
    "NonFiniteError", "ParamSet", "PredEmaState", "RenlabError", "RunResult",
    "ShapeError", "Tensor", "TrainConfig", "Trainer", "VARIANTS",
    "ablation_report", "accuracy", "alpha_theta_ramp", "apply_shift",
    "batches", "consistency", "cross_entropy", "ema_update",
    "finite_diff_check", "grl_lambda", "init_params", "lr_schedule",
    "make_blobs", "make_two_moons", "pred_ema", "run_ablation",
    "sgd_momentum_step", "stability", "standard_benchmark", "total_loss",
]
