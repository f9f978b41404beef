"""driftkit: one-step action-chunk policies trained by drift-field regression,
fine-tuned online with exact-likelihood PPO."""

from .actor import ActorOutput, GaussianActor, prefix_entropy, prefix_log_prob
from .autodiff import Tensor, backward
from .drift import (DriftConfig, DriftFieldTensors, build_reference_pool,
                    compute_drift_field, fixed_point_loss, drift_loss)
from .envs import (ImitationDataset, PointMassEnv, VecPointMassEnv, mode_coverage,
                   synth_multimodal)
from .generator import ChunkSpec, Generator, executed_prefix, sample_hypotheses
from .ppo import (Critic, PPOConfig, RolloutBuffer, collect_rollouts, compute_gae,
                  finetune, ppo_update, evaluate_policy)
from .training import AdamW, TrainConfig, drift_train_step, train

__all__ = [
    "ActorOutput", "AdamW", "ChunkSpec", "Critic", "DriftConfig",
    "DriftFieldTensors", "GaussianActor", "Generator",
    "ImitationDataset", "PPOConfig", "PointMassEnv",
    "RolloutBuffer", "Tensor", "TrainConfig", "VecPointMassEnv", "backward",
    "build_reference_pool", "collect_rollouts", "compute_drift_field",
    "compute_gae", "fixed_point_loss", "ppo_update", "drift_loss", "drift_train_step",
    "evaluate_policy", "executed_prefix", "finetune", "mode_coverage",
    "prefix_entropy", "prefix_log_prob", "sample_hypotheses",
    "synth_multimodal", "train",
]
