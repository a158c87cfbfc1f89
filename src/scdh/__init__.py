"""Semantic-cluster hash learning toolkit.

Supervised and semi-supervised training of binary hash codes with a unary
cluster loss, numerical certification of the unary upper bounds on the
triplet ranking loss, and bit-packed Hamming retrieval with the standard
evaluation metrics.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    LabeledCodeSet,
    ToyConfig,
    multilabel_bound_check,
    toy_lambda_grid,
    unary_upper_bound,
    unary_upper_bounds,
)
from .data import (
    Dataset,
    SyntheticConfig,
    balance_upsample,
    labels_from_sets,
    load_dataset,
    save_dataset,
)
from .losses import (
    SculBatch,
    TripletLossKind,
    margin_loss,
    require_negative_class,
    scul_batch,
    softmax_loss,
)
from .meanteacher import (
    consistency_losses,
    ema_update,
    perturb,
    train_mt_scdh,
)
from .model import (
    EmbeddingModel,
    Hyperparams,
    TrainReport,
    init_model,
    load_checkpoint,
    save_checkpoint,
    warmup_project,
)
from .retrieval import (
    CodeIndex,
    HashCode,
    evaluate,
    load_codes,
    save_codes,
    search,
)
