"""Multi-label relation classification with a moving NA threshold.

The library trains a small grouped-bilinear head over entity-pair features
with a combined objective: pairwise moving-threshold classification,
entropy sharpening of each (relation vs threshold) distribution, a
multi-label long-tail-aware supervised contrastive term, and optional
negative-label sampling for robustness to false-negative annotations.

``import docrel`` loads no submodule but ``docrel._heap``. Each public name
in ``__all__`` is resolved on first use (``docrel.train``, ``from docrel
import Corpus``): the module ``__getattr__`` imports the one submodule that
defines it, so a program loads only the modules it uses. The submodules
themselves are not in ``__all__``; import them as ``docrel.<module>``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# on glibc, keeps freed heap mapped so that training steps do not fault it in again
from . import _heap  # noqa: E402,F401

# public name -> the submodule that defines it
_SOURCE = {
    **dict.fromkeys(["Bucket", "Corpus", "LabelSource", "Mention", "PairExample",
                     "RelationVocabulary", "bucket_relations", "load_corpus",
                     "logsumexp_pool", "save_corpus"], "core"),
    **dict.fromkeys(["ConfigError", "ContractError", "DataFormatError", "DocrelError",
                     "NonFiniteLossError", "NumericError", "ShapeError"], "errors"),
    **dict.fromkeys(["BatchForward", "HeadParams", "head_backward", "head_forward",
                     "init_head_params", "load_checkpoint", "save_checkpoint"], "head"),
    **dict.fromkeys(["BatchLossOutput", "LossConfig", "batch_loss"], "losses"),
    **dict.fromkeys(["Batch", "assemble_batches", "attach_negative_samples",
                     "sample_negative_sets"], "batching"),
    **dict.fromkeys(["Regime", "SyntheticConfig", "assemble_regime", "generate_regime_splits",
                     "generate_synthetic_corpus", "load_regime", "relabel_as_na",
                     "save_regime"], "datagen"),
    **dict.fromkeys(["EvalReport", "evaluate", "predict_labels", "train_fact_set"],
                    "evaluation"),
    **dict.fromkeys(["TrainConfig", "TrainResult", "train"], "training"),
}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this call
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
