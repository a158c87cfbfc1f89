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
    brute_force_triplet_loss,
    estimate_lambda,
    multilabel_bound_check,
    multilabel_brute_force_loss,
    toy_lambda_grid,
    unary_upper_bound,
    unary_upper_bounds,
)
from .data import (
    Dataset,
    SyntheticConfig,
    balance_upsample,
    gen_gaussian_clusters,
    gen_multilabel,
    labels_from_sets,
    load_csv_dataset,
    load_dataset,
    save_dataset,
)
from .losses import (
    SculBatch,
    SculGradients,
    TripletLossKind,
    classification_loss,
    euclidean_distance,
    margin_loss,
    neg_dist_softmax,
    quantization_gradient,
    quantization_loss,
    require_negative_class,
    scul_batch,
    scul_gradients,
    scul_loss,
    scul_multilabel_gradients,
    scul_multilabel_loss,
    softmax_loss,
    triplet_ranking_loss,
)
from .meanteacher import (
    SemiDataset,
    TeacherState,
    consistency_losses,
    ema_update,
    perturb,
    train_mt_scdh,
    train_scdh,
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
    RetrievalMetrics,
    binarize,
    evaluate,
    hamming,
    load_codes,
    mean_average_precision,
    precision_at_radius,
    save_codes,
    search,
    topk_precision_curve,
)
