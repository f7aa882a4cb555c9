"""Multi-label relation classification with a moving NA threshold.

The library trains a small grouped-bilinear head over entity-pair features
with a combined objective: pairwise moving-threshold classification,
entropy sharpening of each (relation vs threshold) distribution, a
multi-label long-tail-aware supervised contrastive term, and optional
negative-label sampling for robustness to false-negative annotations.
"""

__version__ = "0.1.0"

from .core import (
    Bucket,
    Corpus,
    LabelSource,
    Mention,
    PairExample,
    RelationVocabulary,
    bucket_relations,
    build_pair_index,
    load_corpus,
    save_corpus,
)
from .errors import (
    ConfigError,
    ContractError,
    DataFormatError,
    DocrelError,
    DuplicatePairError,
    NonFiniteLossError,
    NumericError,
    ShapeError,
)
from .head import (
    BatchForward,
    HeadParams,
    head_backward,
    head_forward,
    init_head_params,
    load_checkpoint,
    logsumexp_pool,
    save_checkpoint,
)
from .losses import BatchLossOutput, LossConfig, batch_loss
from .batching import (
    Batch,
    assemble_batches,
    attach_negative_samples,
    compute_positive_sets,
    sample_negative_labels,
)
from .datagen import (
    Regime,
    SyntheticConfig,
    assemble_regime,
    generate_regime_splits,
    generate_synthetic_corpus,
    load_regime,
    relabel_as_na,
    save_regime,
)
from .evaluation import EvalReport, evaluate, predict_labels, train_fact_set
from .training import TrainConfig, TrainResult, train

__all__ = [name for name in dir() if not name.startswith("_")]
