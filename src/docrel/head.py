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
returns the parameter gradients: no input has a trainable encoder, so no
gradient flows past the pooled rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, DataFormatError, ShapeError

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
    d_x = d1^2 / group_count; b_o is (num_logits,).
    """

    W_h: np.ndarray
    W_t: np.ndarray
    W_c1: np.ndarray
    W_c2: np.ndarray
    W_o: np.ndarray
    b_o: np.ndarray
    group_count: int

    def __post_init__(self):
        d1, d = self.W_h.shape
        if d1 % self.group_count != 0:
            raise ConfigError(
                f"hidden dim {d1} not divisible by group count {self.group_count}"
            )
        for name in ("W_t", "W_c1", "W_c2"):
            if getattr(self, name).shape != (d1, d):
                raise ShapeError(f"{name} shape {getattr(self, name).shape} != ({d1}, {d})")
        if self.W_o.shape != (self.b_o.shape[0], self.pair_dim):
            raise ShapeError(
                f"W_o shape {self.W_o.shape} != ({self.b_o.shape[0]}, {self.pair_dim})"
            )
        self._check_finite()

    def _check_finite(self) -> None:
        for name in _PARAM_NAMES:
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"{name} contains non-finite values")

    @property
    def input_dim(self) -> int:
        return self.W_h.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.W_h.shape[0]

    @property
    def pair_dim(self) -> int:
        d1 = self.W_h.shape[0]
        return (d1 * d1) // self.group_count

    @property
    def num_logits(self) -> int:
        return self.b_o.shape[0]

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _PARAM_NAMES}

    def copy(self) -> "HeadParams":
        """Parameters with arrays of their own. A copy has this instance's
        shapes, so only its values are checked again."""
        copy = object.__new__(HeadParams)
        vars(copy).update(
            {name: getattr(self, name).copy() for name in _PARAM_NAMES},
            group_count=self.group_count,
        )
        copy._check_finite()
        return copy


@dataclass(eq=False)
class BatchForward:
    """Forward-pass outputs, one row per pair, plus the cache the backward pass needs."""

    x: np.ndarray
    x_unit: np.ndarray
    f: np.ndarray
    cache: dict | None = field(default=None, repr=False)


def head_forward(
    h_head: np.ndarray,
    h_tail: np.ndarray,
    context: np.ndarray,
    params: HeadParams,
    keep_cache: bool = True,
) -> BatchForward:
    """Pair embeddings and logits from pooled rows, one row per pair.

    ``h_head``, ``h_tail`` and ``context`` are ``(n, d)``: each pair's
    pooled head and tail mentions and its context, as gathered from a
    corpus's ``head_rows``, ``tail_rows`` and ``context_rows``.
    """
    n, d = len(h_head), params.input_dim
    if any(rows.shape != (n, d) for rows in (h_head, h_tail, context)):
        raise ShapeError(
            f"head_forward: inputs {h_head.shape}, {h_tail.shape} and {context.shape}: "
            f"expected ({n}, {d}) each, for head input dim {d}"
        )
    if n == 0:
        empty = np.zeros((0, params.pair_dim))
        return BatchForward(x=empty, x_unit=empty, f=np.zeros((0, params.num_logits)))

    z_h = np.tanh(h_head @ params.W_h.T + context @ params.W_c1.T)
    z_t = np.tanh(h_tail @ params.W_t.T + context @ params.W_c2.T)

    P = params.group_count
    g = params.hidden_dim // P
    # per-group outer products, flattened row-major and concatenated
    x = (z_h.reshape(n, P, g, 1) * z_t.reshape(n, P, 1, g)).reshape(n, -1)

    norm = np.sqrt(np.einsum("ij,ij->i", x, x))
    # a zero pair embedding gets a zero unit vector
    x_unit = np.divide(x, norm[:, None], out=np.zeros_like(x), where=norm[:, None] > 0.0)

    f = x @ params.W_o.T + params.b_o

    cache = None
    if keep_cache:
        cache = {
            "h_head": h_head,
            "h_tail": h_tail,
            "context": context,
            "z_h": z_h,
            "z_t": z_t,
            "norm": norm,
        }
    return BatchForward(x=x, x_unit=x_unit, f=f, cache=cache)


def head_backward(
    forward: BatchForward,
    grad_x_unit: np.ndarray,
    grad_f: np.ndarray,
    params: HeadParams,
) -> dict[str, np.ndarray]:
    """Reverse-mode pass for a batch.

    ``grad_x_unit`` (n, d_x) is the loss gradient w.r.t. the normalized
    pair embeddings, ``grad_f`` (n, num_logits) w.r.t. the logits. Returns
    the parameter gradients summed over the batch.
    """
    if forward.cache is None:
        raise ContractError("head_backward: forward pass was run without cache")
    cache = forward.cache
    x, u = forward.x, forward.x_unit
    n = x.shape[0]

    grad_x = grad_f @ params.W_o
    norm = cache["norm"]
    radial = np.einsum("ij,ij->i", u, grad_x_unit)[:, None] * u
    # norm == 0: the unit branch emitted a constant zero; no gradient flows
    grad_x += np.divide(
        grad_x_unit - radial, norm[:, None], out=np.zeros_like(x), where=norm[:, None] > 0.0
    )

    P = params.group_count
    g = params.hidden_dim // P
    z_h, z_t = cache["z_h"], cache["z_t"]
    gx = grad_x.reshape(n, P, g, g)
    grad_z_h = np.einsum("npij,npj->npi", gx, z_t.reshape(n, P, g)).reshape(n, -1)
    grad_z_t = np.einsum("npij,npi->npj", gx, z_h.reshape(n, P, g)).reshape(n, -1)

    grad_a_h = grad_z_h * (1.0 - z_h * z_h)
    grad_a_t = grad_z_t * (1.0 - z_t * z_t)

    c = cache["context"]
    return {
        "W_h": grad_a_h.T @ cache["h_head"],
        "W_t": grad_a_t.T @ cache["h_tail"],
        "W_c1": grad_a_h.T @ c,
        "W_c2": grad_a_t.T @ c,
        "W_o": grad_f.T @ x,
        "b_o": grad_f.sum(axis=0),
    }


def init_head_params(
    input_dim: int,
    hidden_dim: int,
    group_count: int,
    num_logits: int,
    rng: np.random.Generator,
) -> HeadParams:
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)]; zero output bias."""
    bound = 1.0 / np.sqrt(input_dim)
    pair_dim = hidden_dim * hidden_dim // group_count
    bound_o = 1.0 / np.sqrt(pair_dim)

    def u(shape, b):
        return rng.uniform(-b, b, size=shape)

    return HeadParams(
        W_h=u((hidden_dim, input_dim), bound),
        W_t=u((hidden_dim, input_dim), bound),
        W_c1=u((hidden_dim, input_dim), bound),
        W_c2=u((hidden_dim, input_dim), bound),
        W_o=u((num_logits, pair_dim), bound_o),
        b_o=np.zeros(num_logits),
        group_count=group_count,
    )


# ---------------------------------------------------------------------------
# Checkpoint format: one text header line, one JSON metadata line, then the
# tensors as raw little-endian float64 in declaration order.

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
        for arr in params.tensors().values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> HeadParams:
    """Read a checkpoint; a file that cannot be read, or any malformed,
    missing, extra or trailing content, raises DataFormatError naming the path."""
    try:
        with open(path, "rb") as fh:
            if fh.readline() != _CKPT_MAGIC:
                raise DataFormatError(f"{path}: not a checkpoint file (bad magic)")
            try:
                meta = json.loads(fh.readline().decode("utf-8"))
                group_count = int(meta["group_count"])
                specs = [
                    (str(s["name"]), tuple(int(k) for k in s["shape"])) for s in meta["tensors"]
                ]
            except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
                raise DataFormatError(f"{path}: bad metadata line: {exc}") from exc
            payload = fh.read()
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read checkpoint file: {exc}") from exc
    names = [name for name, _ in specs]
    if sorted(names) != sorted(_PARAM_NAMES) or group_count < 1:
        raise DataFormatError(
            f"{path}: tensors {names} with group count {group_count}; expected each of "
            f"{list(_PARAM_NAMES)} once and a positive group count"
        )
    arrays, offset = {}, 0
    for name, shape in specs:
        if len(shape) != (1 if name == "b_o" else 2) or any(k < 0 for k in shape):
            raise DataFormatError(f"{path}: bad shape {list(shape)} for {name}")
        size = 8 * math.prod(shape)
        if offset + size > len(payload):
            raise DataFormatError(f"{path}: truncated payload for {name}")
        arrays[name] = np.frombuffer(payload, "<f8", size // 8, offset).reshape(shape).copy()
        offset += size
    if offset != len(payload):
        raise DataFormatError(f"{path}: {len(payload) - offset} bytes after the last tensor")
    try:
        return HeadParams(**arrays, group_count=group_count)
    except (ConfigError, ShapeError) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
