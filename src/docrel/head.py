"""Trainable classification head: grouped bilinear pair embedding and logits.

The head maps each entity pair of a batch to a pair embedding and a logit
vector. It starts from the pair's pooled inputs, which have no parameters
and which :class:`~docrel.core.Corpus` derives once per corpus
(``head_rows``, ``tail_rows``, ``context_rows``):

    h_head = logsumexp-pool of head mention embeddings
    h_tail = logsumexp-pool of tail mention embeddings
    z_h = tanh(W_h h_head + W_c1 context)
    z_t = tanh(W_t h_tail + W_c2 context)
    x   = concat over groups p of (z_h^p outer z_t^p), flattened row-major
    f   = W_o x + b_o

``x`` (raw) feeds the logits; its L2-normalized copy ``x_unit`` feeds the
contrastive losses. A batch runs as one pass with pairs as rows, one matrix
product per step. The backward pass is closed-form reverse mode over the
same graph, including the normalization Jacobian (I - uu^T)/||x||, and
returns the parameter gradients as one vector laid out like the parameters'
``flat``: no input has a trainable encoder, so no gradient flows past the
pooled rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataFormatError, ShapeError

__all__ = [
    "HeadParams",
    "BatchForward",
    "head_forward",
    "head_backward",
    "init_head_params",
    "save_checkpoint",
    "load_checkpoint",
]

_PARAM_NAMES = ("W_h", "W_t", "W_c1", "W_c2", "W_o", "b_o")


@dataclass(frozen=True, eq=False)
class HeadParams:
    """Learnable parameters of the head.

    W_h, W_t, W_c1, W_c2 are (d1, d); W_o is (num_logits, d_x) with
    d_x = d1^2 / group_count; b_o is (num_logits,). The constructor checks
    them and copies the six arrays into one float64 vector, ``flat``, in
    ``_PARAM_NAMES`` order; the named attributes are views of it.
    """

    W_h: np.ndarray
    W_t: np.ndarray
    W_c1: np.ndarray
    W_c2: np.ndarray
    W_o: np.ndarray
    b_o: np.ndarray
    group_count: int
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d1, d = self.W_h.shape
        _check_dims(d, d1, self.group_count, len(self.b_o))
        for name in ("W_t", "W_c1", "W_c2"):
            if getattr(self, name).shape != (d1, d):
                raise ShapeError(f"{name} shape {getattr(self, name).shape} != ({d1}, {d})")
        if self.W_o.shape != (self.b_o.shape[0], self.pair_dim):
            raise ShapeError(
                f"W_o shape {self.W_o.shape} != ({self.b_o.shape[0]}, {self.pair_dim})"
            )
        flat = np.concatenate(list(self.tensors().values()), axis=None, dtype=float)
        object.__setattr__(self, "flat", flat)
        shapes = tuple(a.shape for a in self.tensors().values())
        vars(self).update(_views(flat, shapes), _shapes=shapes)
        if not np.logical_and.reduce(np.isfinite(flat)):
            bad = next(name for name, a in self.tensors().items() if not np.isfinite(a).all())
            raise ConfigError(f"{bad} contains non-finite values")

    @property
    def pair_dim(self) -> int:
        d1 = self.W_h.shape[0]
        return (d1 * d1) // self.group_count

    @property
    def num_logits(self) -> int:
        return self.b_o.shape[0]

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _PARAM_NAMES}

    def split(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Named views of a vector laid out like ``flat``, such as a gradient."""
        return _views(vector, self._shapes)

    def copy(self) -> "HeadParams":
        """Parameters with a vector of their own, bit-equal to these and not checked again."""
        new, flat = object.__new__(HeadParams), self.flat.copy()
        vars(new).update(vars(self), flat=flat, **self.split(flat))
        return new


def _check_dims(input_dim: int, hidden_dim: int, group_count: int, num_logits: int) -> None:
    if min(input_dim, hidden_dim, num_logits, group_count) < 1:
        raise ShapeError(
            f"head dimensions must be >= 1: input {input_dim}, hidden {hidden_dim}, "
            f"logits {num_logits}, group count {group_count}"
        )
    if hidden_dim % group_count != 0:
        raise ConfigError(
            f"hidden dim {hidden_dim} not divisible by group count {group_count}"
        )


def _views(vector: np.ndarray, shapes) -> dict[str, np.ndarray]:
    """``vector`` cut into consecutive blocks of ``shapes``, named in ``_PARAM_NAMES`` order."""
    views, start = {}, 0
    for name, shape in zip(_PARAM_NAMES, shapes):
        stop = start + math.prod(shape)
        views[name] = vector[start:stop].reshape(shape)
        start = stop
    return views


class BatchForward:
    """Forward-pass outputs, one row per pair, and what the backward pass reads: the
    pooled input rows and the activations ``z_h``/``z_t``. The norms of ``x`` and the
    unit embeddings ``x_unit`` are built on first read, so reading ``f`` alone skips them."""

    def __init__(self, x, x_unit, f, h_head=None, h_tail=None, context=None, z_h=None, z_t=None):
        self.x, self.f, self.h_head, self.h_tail = x, f, h_head, h_tail
        self.context, self.z_h, self.z_t = context, z_h, z_t
        if x_unit is not None:
            self.x_unit = x_unit

    @cached_property
    def norm(self) -> np.ndarray:
        return np.sqrt(np.einsum("ij,ij->i", self.x, self.x))

    @cached_property
    def x_unit(self) -> np.ndarray:
        # a zero pair embedding gets a zero unit vector
        return _divide_rows(self.x, self.norm)


def _divide_rows(a: np.ndarray, norm: np.ndarray, out=None) -> np.ndarray:
    """``a / norm`` row by row, with zero rows where ``norm`` is 0."""
    if np.logical_and.reduce(norm):  # no norm is 0
        return np.divide(a, norm[:, None], out=out)
    zero = norm == 0.0
    out = np.divide(a, np.where(zero, 1.0, norm)[:, None], out=out)
    out[zero] = 0.0
    return out


def head_forward(
    h_head: np.ndarray,
    h_tail: np.ndarray,
    context: np.ndarray,
    params: HeadParams,
) -> BatchForward:
    """Pair embeddings and logits from pooled rows, one row per pair.

    ``h_head``, ``h_tail`` and ``context`` are ``(n, d)``: each pair's
    pooled head and tail mentions and its context, as gathered from a
    corpus's ``head_rows``, ``tail_rows`` and ``context_rows``.
    """
    n, (d1, d) = len(h_head), params.W_h.shape
    if not h_head.shape == h_tail.shape == context.shape == (n, d):
        raise ShapeError(
            f"head_forward: inputs {h_head.shape}, {h_tail.shape} and {context.shape}: "
            f"expected ({n}, {d}) each, for head input dim {d}"
        )
    z_h = np.tanh(h_head @ params.W_h.T + context @ params.W_c1.T)
    z_t = np.tanh(h_tail @ params.W_t.T + context @ params.W_c2.T)

    P = params.group_count
    g = d1 // P
    # per-group outer products, flattened row-major and concatenated
    x = np.einsum("npi,npj->npij", z_h.reshape(n, P, g), z_t.reshape(n, P, g))
    x = x.reshape(n, P * g * g)
    f = x @ params.W_o.T + params.b_o
    return BatchForward(x, None, f, h_head, h_tail, context, z_h, z_t)


def head_backward(
    forward: BatchForward,
    grad_x_unit: np.ndarray,
    grad_f: np.ndarray,
    params: HeadParams,
) -> np.ndarray:
    """Reverse-mode pass for a batch.

    ``grad_x_unit`` (n, d_x) is the loss gradient w.r.t. the normalized
    pair embeddings, ``grad_f`` (n, num_logits) w.r.t. the logits. Returns
    the parameter gradients summed over the batch, as one vector laid out
    like ``params.flat``.
    """
    x, u = forward.x, forward.x_unit
    n = x.shape[0]

    # the tangent part of grad_x_unit over ||x||; none flows from a zero embedding
    tangent = np.einsum("ij,ij->i", u, grad_x_unit)[:, None] * u
    np.subtract(grad_x_unit, tangent, out=tangent)
    grad_x = grad_f @ params.W_o + _divide_rows(tangent, forward.norm, out=tangent)

    P = params.group_count
    g = params.W_h.shape[0] // P
    z_h, z_t = forward.z_h, forward.z_t
    gx = grad_x.reshape(n, P, g, g)
    grad_z_h = np.einsum("npij,npj->npi", gx, z_t.reshape(n, P, g)).reshape(n, -1)
    grad_z_t = np.einsum("npij,npi->npj", gx, z_h.reshape(n, P, g)).reshape(n, -1)

    grad_a_h = grad_z_h * (1.0 - z_h * z_h)
    grad_a_t = grad_z_t * (1.0 - z_t * z_t)

    grads = np.empty_like(params.flat)
    out = params.split(grads)
    np.matmul(grad_a_h.T, forward.h_head, out=out["W_h"])
    np.matmul(grad_a_t.T, forward.h_tail, out=out["W_t"])
    np.matmul(grad_a_h.T, forward.context, out=out["W_c1"])
    np.matmul(grad_a_t.T, forward.context, out=out["W_c2"])
    np.matmul(grad_f.T, x, out=out["W_o"])
    np.add.reduce(grad_f, axis=0, out=out["b_o"])
    return grads


def init_head_params(
    input_dim: int,
    hidden_dim: int,
    group_count: int,
    num_logits: int,
    rng: np.random.Generator,
) -> HeadParams:
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)]; zero output bias.

    Raises ``ShapeError``/``ConfigError`` as ``HeadParams`` does, before any draw."""
    _check_dims(input_dim, hidden_dim, group_count, num_logits)
    bound = 1.0 / np.sqrt(input_dim)
    pair_dim = hidden_dim * hidden_dim // group_count
    bound_o = 1.0 / np.sqrt(pair_dim)

    # W_h, W_t, W_c1 and W_c2 from one draw, then W_o: the stream's order
    return HeadParams(
        *rng.uniform(-bound, bound, size=(4, hidden_dim, input_dim)),
        W_o=rng.uniform(-bound_o, bound_o, size=(num_logits, pair_dim)),
        b_o=np.zeros(num_logits),
        group_count=group_count,
    )


# ---------------------------------------------------------------------------
# Checkpoint format: one text header line, one JSON metadata line, then the
# parameter vector ``flat`` as raw little-endian float64, that is the tensors
# in ``_PARAM_NAMES`` order.

_CKPT_MAGIC = b"DOCREL-CKPT 1\n"


def save_checkpoint(params: HeadParams, path) -> None:
    meta = {
        "group_count": params.group_count,
        "tensors": [
            {"name": name, "shape": list(arr.shape)} for name, arr in params.tensors().items()
        ],
    }
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write((json.dumps(meta) + "\n").encode("utf-8"))
        fh.write(params.flat.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> HeadParams:
    """Read a checkpoint; a file that cannot be read, or any malformed,
    missing, extra, reordered or trailing content, raises DataFormatError
    naming the path."""
    try:
        with open(path, "rb") as fh:
            if fh.readline() != _CKPT_MAGIC:
                raise DataFormatError(f"{path}: not a checkpoint file (bad magic)")
            try:
                meta = json.loads(fh.readline().decode("utf-8"))
                group_count = meta["group_count"]
                specs = [(s["name"], tuple(s["shape"])) for s in meta["tensors"]]
            except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
                raise DataFormatError(f"{path}: bad metadata line: {exc}") from exc
            payload = fh.read()
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read checkpoint file: {exc}") from exc
    names = [name for name, _ in specs]
    if names != list(_PARAM_NAMES):
        raise DataFormatError(
            f"{path}: tensors {names}; expected {list(_PARAM_NAMES)} in that order"
        )
    if type(group_count) is not int:
        raise DataFormatError(f"{path}: group count {group_count!r} is not an integer")
    for name, shape in specs:
        if len(shape) != (1 if name == "b_o" else 2) or any(
            type(k) is not int or k < 0 for k in shape
        ):
            raise DataFormatError(f"{path}: bad shape {list(shape)} for {name}")
    shapes = [shape for _, shape in specs]
    excess = len(payload) - 8 * sum(math.prod(shape) for shape in shapes)
    if excess < 0:
        raise DataFormatError(f"{path}: truncated payload, {-excess} bytes short")
    if excess > 0:
        raise DataFormatError(f"{path}: {excess} bytes after the last tensor")
    try:
        return HeadParams(**_views(np.frombuffer(payload, "<f8"), shapes), group_count=group_count)
    except (ConfigError, ShapeError) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
