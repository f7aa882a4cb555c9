"""Built-in verification suites: gradient checks, oracle equivalence, invariants.

These run from the CLI (`docrel selftest`) and from the test suite. The
gradient checker compares every analytic gradient, all of which come from
``batch_loss`` and ``head_backward``, against central finite differences
(step 1e-5) of the same code's own value: ``batch_loss``'s total (its
``em`` part for the entropy term's share), and the forward pass for the
head. A component passes when
``|analytic - numeric| <= 1e-4 * max(|analytic|, |numeric|)`` or the
absolute difference is below 1e-8 (floor for vanishing gradients). The
values themselves are checked against :mod:`docrel.oracle`, the independent
reference: every loss instance of the gradient checks records the kernel's
total against ``oracle.batch_total``, and the oracle-equivalence suite does
so over random batches; each derives the in-batch positives from the
cases' label sets. The invariant suite reads properties such as
``p + q = 1``, entropy bounds and shift or permutation invariance from the
kernel's two row functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .batching import Batch
from .core import RelationVocabulary, label_mask
from .evaluation import _prf, predict_labels
from .head import BatchForward, HeadParams, head_backward, head_forward
from .losses import LossConfig, _contrastive_rows, _threshold_rows, batch_loss
from .rng import stream

__all__ = [
    "SuiteResult",
    "run_gradient_checks",
    "run_oracle_equivalence",
    "run_invariant_suite",
    "run_all",
]

FD_STEP = 1e-5
REL_TOL = 1e-4
ABS_FLOOR = 1e-8
ORACLE_TOL = 1e-10  # bound on a kernel value's relative error against the oracle

P_SIZES = (0, 1, 5, 95)
LOGIT_SCALES = (0.1, 1.0, 10.0)
BATCH_SIZES = (2, 4, 16)


@dataclass(eq=False)
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, label: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(label)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = "" if self.passed else f" ({len(self.failures)} failures)"
        return f"[{status}] {self.name}: {self.checks} checks{extra}"


def finite_difference(fn, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of a scalar function over a flat array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        up = fn()
        flat[i] = keep - step
        down = fn()
        flat[i] = keep
        out[i] = (up - down) / (2.0 * step)
    return grad


def gradients_close(
    analytic: np.ndarray, numeric: np.ndarray, ref: float = 0.0
) -> bool:
    """Relative tolerance with an absolute floor for vanishing components.

    The floor grows with the checked function's magnitude: central
    differences cannot resolve gradients below ``|f| * eps / (2 step)``,
    the rounding noise of the two function evaluations.
    """
    floor = max(ABS_FLOOR, abs(ref) * 5e-11)
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    return bool(np.all((diff <= REL_TOL * scale) | (diff <= floor)))


def _random_logits(rng, n_logits: int, scale: float) -> np.ndarray:
    return rng.normal(scale=scale, size=n_logits)


def _unit_rows(rng, n: int, dim: int) -> np.ndarray:
    m = rng.normal(size=(n, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# gradient checks


def _loss_case(labels, logits, emb, cfg, bp=(), sampled=None):
    """``batch_loss`` and its oracle value on a batch given by its parts.

    NA positions are the unlabeled ones, ``bp`` the contrastive anchors and
    ``sampled`` the NA positions' sampled sets as a batch's ``sampled_mask``.
    Both callables read ``logits`` and ``emb`` when called, so finite
    differences that perturb those arrays in place move both values.
    """
    n = len(labels)
    na_positions = [i for i, labels_i in enumerate(labels) if not labels_i]
    batch = Batch(
        example_indices=np.arange(n),
        bp_indices=np.array(bp, dtype=np.intp),
        bn_indices=np.array(na_positions, dtype=np.intp),
        sampled_mask=sampled,
    )
    sampled_sets = {} if sampled is None else dict(zip(na_positions, map(np.flatnonzero, sampled)))
    vocab = RelationVocabulary.from_relations([f"r{k}" for k in range(logits.shape[1] - 1)])
    mask = label_mask(labels, vocab.num_relations)
    forward = _forwards_for(logits, emb)

    def kernel():
        return batch_loss(mask, batch, forward, vocab, cfg)

    def reference() -> float:
        return oracle.batch_total(
            labels, vocab.num_relations, vocab.na_index, logits, emb, batch.bp_indices,
            sampled_sets, cfg.temperature, cfg.contrastive_weight,
            cfg.entropy_norm, cfg.use_entropy, cfg.use_contrastive, cfg.use_neg_sampling,
        )

    return kernel, reference


def _oracle_close(value: float, expected: float) -> bool:
    return abs(value - expected) < ORACLE_TOL * max(1.0, abs(value), abs(expected))


def _check_case(result: SuiteResult, label: str, case, wrt, part=None, minus=None) -> None:
    """Record a finite-difference check of a loss case's gradients, then its oracle value.

    ``wrt`` maps ``grad_logits``/``grad_embeddings`` to the array that
    gradient is taken over. The numeric side is the central difference of
    the kernel's total, or of ``parts[part]``; the kernel gradients of the
    case ``minus`` are taken off the analytic side, which leaves a term's
    share.
    """
    kernel, reference = case
    out = kernel()
    base = None if minus is None else minus[0]()

    def value() -> float:
        return kernel().total if part is None else kernel().parts[part]

    ref = value()
    ok = True
    for name, array in wrt.items():
        analytic = getattr(out, name)
        if base is not None:
            analytic = analytic - getattr(base, name)
        ok = ok and gradients_close(analytic, finite_difference(value, array), ref)
    result.record(ok, label)
    expected = reference()
    result.record(_oracle_close(out.total, expected), f"oracle {label}: {out.total} vs {expected}")


THRESHOLD_ONLY = LossConfig(use_entropy=False, use_contrastive=False)
NO_EMBEDDING = np.zeros((1, 1))


def _check_threshold_terms(result: SuiteResult, seed: int) -> None:
    n_rel = 96
    for p_size in P_SIZES:
        for scale in LOGIT_SCALES:
            for mode in ("unit", "set_size"):
                for rep in range(2):
                    rng = stream(seed, "grad-pmt", p_size, int(scale * 10), mode, rep)
                    f = _random_logits(rng, n_rel + 1, scale)[None, :]
                    positives = [frozenset(int(r) for r in rng.permutation(n_rel)[:p_size])]
                    cfg = LossConfig(entropy_norm=mode, use_contrastive=False)

                    pmt = _loss_case(positives, f, NO_EMBEDDING, THRESHOLD_ONLY)
                    wrt = {"grad_logits": f}
                    _check_case(result, f"pmt P={p_size} scale={scale}", pmt, wrt)
                    # the entropy term's share of the kernel gradient
                    both = _loss_case(positives, f, NO_EMBEDDING, cfg)
                    label = f"em P={p_size} scale={scale} {mode}"
                    _check_case(result, label, both, wrt, part="em", minus=pmt)


def _check_entropy(result: SuiteResult, seed: int) -> None:
    rng = stream(seed, "grad-entropy")
    cfg = LossConfig(use_contrastive=False)
    for gap in (0.0, 0.5, -0.5, 2.0, -2.0, 5.0, -5.0, 8.0, -8.0):
        base = float(rng.normal())
        f = np.array([[base + gap, base]])
        pmt = _loss_case([frozenset()], f, NO_EMBEDDING, THRESHOLD_ONLY)
        case = _loss_case([frozenset()], f, NO_EMBEDDING, cfg)
        wrt = {"grad_logits": f}
        _check_case(result, f"entropy gap={gap}", case, wrt, part="em", minus=pmt)


def _check_sampled(result: SuiteResult, seed: int) -> None:
    n_rel = 96
    for ratio in (0.05, 0.5, 1.0):
        for mode in ("unit", "set_size"):
            for scale in LOGIT_SCALES:
                rng = stream(seed, "grad-sampled", int(ratio * 100), mode, int(scale * 10))
                f = _random_logits(rng, n_rel + 1, scale)[None, :]
                size = max(1, round(ratio * n_rel))
                drawn = rng.choice(n_rel, size=size, replace=False)
                cfg = LossConfig(entropy_norm=mode, use_contrastive=False, use_neg_sampling=True)
                sampled = label_mask([drawn], n_rel)
                case = _loss_case([frozenset()], f, NO_EMBEDDING, cfg, sampled=sampled)
                label = f"sampled ratio={ratio} {mode} scale={scale}"
                _check_case(result, label, case, {"grad_logits": f})


def _embedding_case(emb: np.ndarray, bp, positives, tau: float):
    """A contrastive case at weight 1 over unit embeddings ``emb``: the
    anchors ``bp`` and ``positives`` carry relation 0, the rest are NA."""
    n = emb.shape[0]
    cfg = LossConfig(temperature=tau, use_entropy=False)
    labels = [frozenset({0} if i in bp or i in positives else ()) for i in range(n)]
    return _loss_case(labels, np.zeros((n, 2)), emb, cfg, bp)


def _check_contrastive(result: SuiteResult, seed: int) -> None:
    for n in BATCH_SIZES:
        for dim in (4, 8):
            for tau in (0.2, 1.0, 2.0):
                rng = stream(seed, "grad-scl", n, dim, int(tau * 10))
                emb = _unit_rows(rng, n, dim)
                anchor = int(rng.integers(n))
                others = [i for i in range(n) if i != anchor]
                k = int(rng.integers(1, len(others) + 1))
                positives = frozenset(int(i) for i in rng.choice(others, size=k, replace=False))
                wrt = {"grad_embeddings": emb}
                case = _embedding_case(emb, (anchor,), positives, tau)
                _check_case(result, f"scl n={n} d={dim} tau={tau}", case, wrt)
                case = _embedding_case(emb, (anchor,), (), tau)
                _check_case(result, f"lt n={n} d={dim} tau={tau}", case, wrt)

    for n in BATCH_SIZES:
        for tau in (0.5, 1.5):
            rng = stream(seed, "grad-l2", n, int(tau * 10))
            emb = _unit_rows(rng, n, 6)
            bp = tuple(i for i in range(n) if rng.random() < 0.7) or (0,)
            positives = tuple(i for i in range(n) if i not in bp and rng.random() < 0.5)
            case = _embedding_case(emb, bp, positives, tau)
            _check_case(result, f"l2 n={n} tau={tau}", case, {"grad_embeddings": emb})


def _tiny_instance(rng, n_rel: int, n: int, dim: int, sampling: bool):
    """Random labels, batch structure, logits, embeddings for a tiny batch."""
    labels = []
    for _ in range(n):
        if rng.random() < 0.4:
            labels.append(frozenset())
        else:
            k = int(rng.integers(1, min(2, n_rel) + 1))
            labels.append(frozenset(int(r) for r in rng.choice(n_rel, size=k, replace=False)))
    if n >= 2 and all(not l for l in labels):
        labels[0] = frozenset({0})  # keep at least one anchor
    bp = [i for i, l in enumerate(labels) if l]
    bn = [i for i, l in enumerate(labels) if not l]
    draws = [rng.choice(n_rel, size=int(rng.integers(1, n_rel + 1)), replace=False)
             for _ in (bn if sampling else ())]  # a set of 1 to n_rel relations per NA position
    sampled = label_mask(draws, n_rel) if sampling else None
    batch = Batch(
        example_indices=np.arange(n),
        bp_indices=np.array(bp, dtype=np.intp),
        bn_indices=np.array(bn, dtype=np.intp),
        sampled_mask=sampled,
    )
    logits = rng.normal(scale=1.5, size=(n, n_rel + 1))
    emb = _unit_rows(rng, n, dim)
    return labels, batch, logits, emb


def _forwards_for(logits: np.ndarray, emb: np.ndarray) -> BatchForward:
    return BatchForward(x=emb, x_unit=emb, f=logits)


def _check_batch_loss(result: SuiteResult, seed: int) -> None:
    for n in (2, 4, 6):
        for scale_idx, lam in enumerate((0.0, 0.5, 2.0)):
            for sampling in (False, True):
                rng = stream(seed, "grad-batch", n, scale_idx, int(sampling))
                n_rel = int(rng.integers(3, 6))
                labels, batch, logits, emb = _tiny_instance(rng, n_rel, n, 5, sampling)
                cfg = LossConfig(
                    temperature=0.8,
                    contrastive_weight=lam,
                    entropy_norm="set_size" if n % 2 else "unit",
                    use_neg_sampling=sampling,
                )
                case = _loss_case(labels, logits, emb, cfg, batch.bp_indices, batch.sampled_mask)
                wrt = {"grad_logits": logits, "grad_embeddings": emb}
                _check_case(result, f"batch n={n} lam={lam} sampling={sampling}", case, wrt)


def _random_head(rng, d: int, d1: int, groups: int, n_logits: int) -> HeadParams:
    def u(shape, b):
        return rng.uniform(-b, b, size=shape)

    return HeadParams(
        W_h=u((d1, d), 0.8),
        W_t=u((d1, d), 0.8),
        W_c1=u((d1, d), 0.8),
        W_c2=u((d1, d), 0.8),
        W_o=u((n_logits, d1 * d1 // groups), 0.8),
        b_o=u((n_logits,), 0.5),
        group_count=groups,
    )


HEAD_SIZES = ((2, 2, 1), (3, 4, 2), (4, 4, 4), (3, 6, 3))


def _head_gradients_close(params, inputs, g_x, g_f) -> bool:
    """Compare ``head_backward`` with finite differences of ``g_f . f + g_x . x_unit``
    over every parameter, from the pooled rows ``inputs`` (head, tail, context)."""

    def loss() -> float:
        fw = head_forward(*inputs, params)
        return float(np.sum(g_f * fw.f) + np.sum(g_x * fw.x_unit))

    grads = params.split(head_backward(head_forward(*inputs, params), g_x, g_f, params))
    ref = loss()
    return all(
        gradients_close(grads[name], finite_difference(loss, tensor), ref)
        for name, tensor in params.tensors().items()
    )


def _check_head(result: SuiteResult, seed: int) -> None:
    for size_idx, (d, d1, groups) in enumerate(HEAD_SIZES):
        for rep in range(5):
            rng = stream(seed, "grad-head", size_idx, rep)
            n_logits = 4
            params = _random_head(rng, d, d1, groups, n_logits)
            inputs = rng.normal(size=(3, 1, d))  # pooled head, pooled tail, context
            g_f = rng.normal(size=(1, n_logits))
            g_x = rng.normal(size=(1, params.pair_dim))
            ok = _head_gradients_close(params, inputs, g_x, g_f)
            result.record(ok, f"head d={d} d1={d1} P={groups} rep={rep}")


def _check_head_batch(result: SuiteResult, seed: int) -> None:
    """One batch of pairs per head size.

    The last pair's pooled head and context are zero, so ``z_h`` and the
    pair embedding are exactly zero, and stay so when a parameter moves:
    its unit embedding takes the zero branch, whose gradient is zero.
    """
    for size_idx, (d, d1, groups) in enumerate(HEAD_SIZES):
        rng = stream(seed, "grad-head-batch", size_idx)
        n_logits = 4
        params = _random_head(rng, d, d1, groups, n_logits)
        n = 4
        head, tail, context = rng.normal(size=(3, n, d))
        head[-1] = context[-1] = 0.0
        g_f = rng.normal(size=(n, n_logits))
        g_x = rng.normal(size=(n, params.pair_dim))
        ok = _head_gradients_close(params, (head, tail, context), g_x, g_f)
        norms = head_forward(head, tail, context, params).norm
        ok = ok and norms[-1] == 0.0 and bool(np.all(norms[:-1] > 0.0))
        result.record(ok, f"head batch d={d} d1={d1} P={groups}")


def run_gradient_checks(seed: int = 0) -> SuiteResult:
    result = SuiteResult("gradient checks")
    _check_threshold_terms(result, seed)
    _check_entropy(result, seed)
    _check_sampled(result, seed)
    _check_contrastive(result, seed)
    _check_batch_loss(result, seed)
    _check_head(result, seed)
    _check_head_batch(result, seed)
    return result


# ---------------------------------------------------------------------------
# oracle equivalence


def run_oracle_equivalence(seed: int = 0, instances: int = 50) -> SuiteResult:
    """Compare batch_loss against the naive direct transcription."""
    result = SuiteResult("oracle equivalence")
    for case in range(instances):
        rng = stream(seed, "oracle", case)
        n_rel = int(rng.integers(2, 6))
        n = int(rng.integers(2, 7))
        dim = int(rng.integers(2, 9))
        sampling = bool(rng.random() < 0.5)
        labels, batch, logits, emb = _tiny_instance(rng, n_rel, n, dim, sampling)
        cfg = LossConfig(
            temperature=float(rng.uniform(0.2, 2.0)),
            contrastive_weight=float(rng.choice([0.0, 0.5, 2.0])),
            entropy_norm=str(rng.choice(["unit", "set_size"])),
            use_neg_sampling=sampling,
        )
        kernel, reference = _loss_case(
            labels, logits, emb, cfg, batch.bp_indices, batch.sampled_mask
        )
        out = kernel()
        expected = reference()
        result.record(
            _oracle_close(out.total, expected), f"case {case}: got {out.total}, oracle {expected}"
        )

        recombined = (
            out.parts["pmt"]
            + out.parts["em"]
            + out.parts["sampled_neg"]
            + cfg.contrastive_weight * (out.parts["scl"] + out.parts["lt"])
        )
        rel_parts = abs(recombined - out.total) / max(1.0, abs(out.total))
        result.record(rel_parts < 1e-9, f"case {case}: parts do not recombine")
    return result


# ---------------------------------------------------------------------------
# invariants


def _entropy_at(gaps) -> np.ndarray:
    """The kernel's pairwise entropy at each gap: the em row of one negative."""
    column = np.asarray(gaps, dtype=np.float64)[:, None]
    negative = np.ones(column.shape, dtype=bool)
    return _threshold_rows(column, ~negative, negative, LossConfig())[1]


def _contrastive_values(emb: np.ndarray, anchors, labels, tau) -> np.ndarray:
    """The kernel's contrastive value of each anchor over a batch with label sets ``labels``."""
    anchors = np.asarray(anchors, dtype=np.intp)
    mask = label_mask(labels, 1 + max((r for l in labels for r in l), default=0))
    return _contrastive_rows(emb[anchors] @ emb.T / tau, mask, anchors)[0]


def run_invariant_suite(seed: int = 0) -> SuiteResult:
    result = SuiteResult("invariants")
    rng = stream(seed, "invariants")

    # two-way probabilities sum to one, up to the rounding of their separate
    # branches; the threshold-only gap gradient is -q on a label, p on a negative
    draws = np.array([rng.normal(scale=5, size=2) for _ in range(200)])
    gaps = np.tile(draws[:, 0] - draws[:, 1], (2, 1))
    on_label = np.zeros(gaps.shape, dtype=bool)
    on_label[0] = True
    _, _, grad = _threshold_rows(gaps, on_label, ~on_label, THRESHOLD_ONLY)
    for (f_r, f_eta), q, p in zip(draws.tolist(), (-grad[0]).tolist(), grad[1].tolist()):
        result.record(abs(p + q - 1.0) <= 2.0**-52, f"p+q != 1 at ({f_r}, {f_eta})")

    # entropy bounds, symmetry, monotonicity
    ln2 = math.log(2.0)
    gaps = np.sort(np.abs(rng.normal(scale=4, size=50)))
    values = _entropy_at(gaps)
    for g, h, sym in zip(gaps.tolist(), values.tolist(), _entropy_at(-gaps).tolist()):
        result.record(0.0 <= h <= ln2 + 1e-15, f"entropy out of bounds at gap {g}")
        result.record(abs(h - sym) < 1e-12, f"entropy asymmetric at gap {g}")
    result.record(
        bool(np.all(values[:-1] >= values[1:] - 1e-12)), "entropy not decreasing in |gap|"
    )
    result.record(abs(_entropy_at([0.0])[0] - ln2) < 1e-12, "entropy maximum")

    # logit-shift invariance of pairwise losses and predictions: each draw
    # is a row pair (f, f + shift) of one padded gap matrix
    shifts = 25
    gaps = np.zeros((2 * shifts, 7))
    labels = np.zeros(gaps.shape, dtype=bool)
    negatives = np.zeros(gaps.shape, dtype=bool)
    for i in range(shifts):
        n_rel = int(rng.integers(2, 8))
        f = rng.normal(scale=2, size=n_rel + 1)
        shift = float(rng.normal(scale=20))
        perm = rng.permutation(n_rel)
        k = int(rng.integers(0, n_rel + 1))
        both = np.stack([f, f + shift])
        gaps[2 * i : 2 * i + 2, :n_rel] = both[:, :n_rel] - both[:, n_rel:]
        labels[2 * i : 2 * i + 2, perm[:k]] = True
        negatives[2 * i : 2 * i + 2, perm[k:]] = True
        result.record(
            predict_labels(f, n_rel) == predict_labels(f + shift, n_rel),
            "prediction not shift invariant",
        )
    pmt, em, _ = _threshold_rows(gaps, labels, negatives, LossConfig())
    for name, rows in (("pmt", pmt), ("em", em)):
        for a, b in rows.reshape(shifts, 2).tolist():
            result.record(abs(a - b) <= 1e-9 * max(1.0, abs(a)), f"{name} not shift invariant")

    # contrastive batch-permutation invariance
    for _ in range(10):
        n = int(rng.integers(3, 7))
        labels, batch, _, emb = _tiny_instance(rng, 4, n, 5, False)
        value = float(np.sum(_contrastive_values(emb, batch.bp_indices, labels, 0.5)))
        perm = rng.permutation(n)
        labels_p = [labels[i] for i in perm]
        bp_p = tuple(i for i, l in enumerate(labels_p) if l)
        value_p = float(np.sum(_contrastive_values(emb[perm], bp_p, labels_p, 0.5)))
        result.record(
            abs(value - value_p) <= 1e-12 * max(1.0, abs(value)),
            "l2 not permutation invariant",
        )

    # identical-embedding batches: scl is log(n-1) independent of temperature;
    # one anchor row per temperature
    taus = (0.1, 1.0, 3.0)
    for n in (2, 3, 5, 9):
        base = _unit_rows(rng, 1, 6)[0]
        emb = np.tile(base, (n, 1))
        labels = [frozenset({0})] * 2 + [frozenset()] * (n - 2)
        rows = _contrastive_values(emb, (0,) * len(taus), labels, np.array(taus)[:, None])
        for tau, v in zip(taus, rows.tolist()):
            result.record(
                abs(v - math.log(n - 1)) < 1e-9, f"identical batch scl n={n} tau={tau}"
            )

    # micro-F1 identity: evaluation's F1 equals 2tp / (2tp + fp + fn)
    for _ in range(50):
        tp, fp, fn = (int(x) for x in rng.integers(0, 20, size=3))
        expected = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
        result.record(abs(_prf(tp, fp, fn)[2] - expected) < 1e-12, "micro F1 identity")

    return result


def run_all(seed: int = 0) -> list[SuiteResult]:
    return [
        run_gradient_checks(seed),
        run_oracle_equivalence(seed),
        run_invariant_suite(seed),
    ]
