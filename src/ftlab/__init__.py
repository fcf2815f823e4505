"""ftlab: layer-wise learning-rate finetuning experiments at desk scale."""

from .data import (LabeledDataset, PartitionedDomain, SyntheticDomainSpec,
                   gen_synthetic_domain, images_per_label, load_dataset,
                   partition_domain, save_dataset, split_train_val)
from .experiment import (FinetuneTask, GraduatedSpec, GridSpec,
                         RecommenderConfig, RunRecord, alpha, beta,
                         graduated_schedule, most_frequent_best_scale,
                         percent_gain, recommend_multipliers, run_il_ll_grid,
                         run_ll_experiment, scale_sweep)
from .model import (Checkpoint, CheckpointError, LayerSpec, StagedModel,
                    StageSpec, arch_digest, build_staged_network,
                    load_checkpoint, mini_staged_spec, model_from_checkpoint,
                    save_checkpoint, transfer_init)
from .nn_core import backward, forward, grad_check, softmax_cross_entropy
from .optim import (LrPolicy, MultiplierSchedule, SgdState, effective_lr,
                    evaluate, lr_at, sgd_step, train, uniform_schedule)

__version__ = "0.1.0"
