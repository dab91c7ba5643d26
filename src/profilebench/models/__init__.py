from profilebench.models.baseline import BaselineConfig, BaselineModel, train_baseline
from profilebench.models.checkpoint import (
    POOL_ATTENTION,
    POOL_LAST,
    POOL_MULTI,
    Checkpoint,
    init_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from profilebench.models.training import (
    Batch,
    TrainConfig,
    forward_batch,
    loss_fn,
    neutral_correction,
    train,
    train_step,
)

__all__ = [
    "BaselineConfig",
    "BaselineModel",
    "Batch",
    "Checkpoint",
    "POOL_ATTENTION",
    "POOL_LAST",
    "POOL_MULTI",
    "TrainConfig",
    "forward_batch",
    "init_checkpoint",
    "load_checkpoint",
    "loss_fn",
    "neutral_correction",
    "save_checkpoint",
    "train",
    "train_baseline",
    "train_step",
]
