import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrel.core import Corpus, LabelSource, PairExample, RelationVocabulary, logsumexp_pool
from docrel.errors import ConfigError, ContractError, DataFormatError, DocrelError, ShapeError
from docrel.head import (
    HeadParams,
    head_backward,
    head_forward,
    init_head_params,
    load_checkpoint,
    save_checkpoint,
)
from docrel.rng import stream


def pair(head_vecs, tail_vecs, context):
    """One pair's head inputs: its pooled head and tail rows and its context, each (1, d)."""
    return (
        logsumexp_pool(np.asarray(head_vecs, float))[None],
        logsumexp_pool(np.asarray(tail_vecs, float))[None],
        np.asarray(context, float)[None],
    )


def stack(*pairs):
    """The head inputs of a batch of pairs, one row per pair."""
    return tuple(np.concatenate(rows) for rows in zip(*pairs))


def zero_params(d, d1, groups, n_logits, b_o=None):
    return HeadParams(
        W_h=np.zeros((d1, d)),
        W_t=np.zeros((d1, d)),
        W_c1=np.zeros((d1, d)),
        W_c2=np.zeros((d1, d)),
        W_o=np.zeros((n_logits, d1 * d1 // groups)),
        b_o=np.zeros(n_logits) if b_o is None else np.asarray(b_o, float),
        group_count=groups,
    )


class TestLogsumexpPool:
    def test_singleton_is_identity(self):
        v = np.array([0.3, -2.0, 5.0])
        assert np.allclose(logsumexp_pool([v]), v)

    def test_two_identical_mentions_add_ln2(self):
        v = np.array([1.0, -1.0])
        assert np.allclose(logsumexp_pool([v, v]), v + math.log(2))

    def test_frozen_two_mention_value(self):
        # componentwise log(e^0 + e^2)
        out = logsumexp_pool([np.array([0.0]), np.array([2.0])])
        assert abs(out[0] - 2.1269280110429727) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            logsumexp_pool([])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises((ShapeError, ValueError)):
            logsumexp_pool([np.zeros(2), np.zeros(3)])

    def test_overflow_safe(self):
        out = logsumexp_pool([np.array([900.0]), np.array([901.0])])
        assert np.isfinite(out).all()

    @given(st.lists(st.lists(st.floats(-50, 50), min_size=3, max_size=3), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_pool_bounds_and_permutation(self, rows):
        mat = [np.array(r) for r in rows]
        out = logsumexp_pool(mat)
        stacked = np.stack(mat)
        assert np.all(out >= stacked.max(axis=0) - 1e-12)
        perm = list(reversed(mat))
        assert np.allclose(out, logsumexp_pool(perm), rtol=1e-12, atol=1e-12)


class TestForward:
    def test_zero_params_give_bias_logits(self):
        params = zero_params(3, 4, 2, 5, b_o=[1, 2, 3, 4, 5])
        fw = head_forward(*pair([[1, 2, 3]], [[0, 1, 0]], [2, 2, 2]), params)
        assert np.array_equal(fw.f, np.array([[1.0, 2, 3, 4, 5]]))
        assert np.array_equal(fw.x, np.zeros((1, 8)))
        assert np.array_equal(fw.x_unit, np.zeros((1, 8)))

    def test_single_group_outer_product(self):
        # d=2, d1=2, P=1, identity projections, no context mixing
        params = zero_params(2, 2, 1, 3)
        params.W_h[:, :] = np.eye(2)
        params.W_t[:, :] = np.eye(2)
        a, b, c, e = 0.3, -1.2, 0.8, 0.5
        fw = head_forward(*pair([[a, b]], [[c, e]], [0, 0]), params)
        zh, zt = np.tanh([a, b]), np.tanh([c, e])
        expected = np.array(
            [zh[0] * zt[0], zh[0] * zt[1], zh[1] * zt[0], zh[1] * zt[1]]
        )
        assert np.allclose(fw.x[0], expected, atol=1e-15)
        assert np.allclose(fw.f, 0.0)

    def test_group_per_dimension_is_elementwise(self):
        # P = d1: each group has size 1, so x is the elementwise product
        d, d1 = 3, 4
        rng = stream(0, "t")
        params = HeadParams(
            W_h=rng.normal(size=(d1, d)),
            W_t=rng.normal(size=(d1, d)),
            W_c1=rng.normal(size=(d1, d)),
            W_c2=rng.normal(size=(d1, d)),
            W_o=np.zeros((2, d1)),
            b_o=np.zeros(2),
            group_count=d1,
        )
        head, tail, context = pair([rng.normal(size=d)], [rng.normal(size=d)], rng.normal(size=d))
        fw = head_forward(head, tail, context, params)
        zh = np.tanh(params.W_h @ head[0] + params.W_c1 @ context[0])
        zt = np.tanh(params.W_t @ tail[0] + params.W_c2 @ context[0])
        assert fw.x.shape == (1, d1)
        assert np.allclose(fw.x[0], zh * zt, atol=1e-15)

    def test_unit_norm(self):
        params = init_head_params(4, 4, 2, 3, stream(1, "init"))
        fw = head_forward(*pair([[1, 0, 0, 1]], [[0, 1, 1, 0]], [1, 1, 0, 0]), params)
        assert abs(np.linalg.norm(fw.x_unit[0]) - 1.0) < 1e-9

    def test_forward_determinism_bitwise(self):
        params = init_head_params(4, 4, 2, 3, stream(1, "init"))
        inputs = pair([[1, 0, 0, 1], [2, 1, 0, 0]], [[0, 1, 1, 0]], [1, 1, 0, 0])
        a = head_forward(*inputs, params)
        b = head_forward(*inputs, params)
        assert np.array_equal(a.f, b.f) and np.array_equal(a.x, b.x)

    def test_shape_mismatch(self):
        params = zero_params(3, 4, 2, 5)
        with pytest.raises(ShapeError):
            head_forward(*pair([[1, 2]], [[1, 2]], [1, 2]), params)
        head, tail, context = pair([[1, 2, 3]], [[1, 2, 3]], [1, 2, 3])
        with pytest.raises(ShapeError):
            head_forward(head, np.concatenate([tail, tail]), context, params)

    def test_side_without_mentions_names_the_pair(self):
        # a side is one pooled (d,) row: an empty one, or a stack of
        # mentions left unpooled, is named with its pair
        def example(tail, head_vectors):
            return PairExample("d", 0, tail, np.asarray(head_vectors, float), np.ones(2),
                               np.ones(2), frozenset())

        for bad, shape in ((np.zeros(0), r"\(0,\)"), ([[1, 2]], r"\(1, 2\)")):
            examples = (example(1, [1, 2]), example(2, bad))
            corpus = Corpus(RelationVocabulary.from_relations(["r"]), examples, LabelSource.GOLD,
                            2)
            with pytest.raises(ShapeError,
                               match=rf"pair d/0/2: head_vectors of shape {shape}, expected \(2,\)"):
                corpus.head_rows


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        params = init_head_params(3, 4, 2, 5, stream(2, "init"))
        fw = head_forward(*pair([[1, 0, 2]], [[0, 1, 0]], [1, 1, 1]), params)
        grads = head_backward(fw, np.zeros((1, 8)), np.zeros((1, 5)), params)
        assert grads.shape == params.flat.shape
        assert np.all(grads == 0.0)

    def test_zero_embedding_routes_zero_normalization_grad(self):
        params = zero_params(2, 2, 1, 3, b_o=[0.5, 0, 0])
        fw = head_forward(*pair([[1, 1]], [[1, 1]], [0, 0]), params)
        assert fw.norm[0] == 0.0
        grads = head_backward(fw, np.ones((1, 4)), np.zeros((1, 3)), params)
        # only W_o/b_o touch f; x-side gradient vanished with the zero vector
        assert np.all(params.split(grads)["W_h"] == 0.0)

    def test_zero_row_in_a_mixed_batch(self):
        # the last pair's tail side cancels its context (W_c2 = W_t, pooled
        # tail = -context), so z_t and its pair embedding are exactly zero,
        # while its inputs and z_h are not
        rng = stream(6, "mixed")
        params = init_head_params(3, 4, 2, 5, rng)
        params.W_c2[:] = params.W_t
        head, tail, context = rng.normal(size=(3, 4, 3))
        tail[-1] = -context[-1]
        fw = head_forward(head, tail, context, params)
        assert fw.norm[-1] == 0.0 and np.all(fw.norm[:-1] > 0.0)
        assert np.all(fw.z_h[-1] != 0.0)
        assert fw.x_unit[-1].tobytes() == np.zeros(8).tobytes()
        assert np.allclose(np.linalg.norm(fw.x_unit[:-1], axis=1), 1.0, rtol=1e-12)
        # the zero row's unit-embedding gradient reaches no parameter
        g_x, g_f = rng.normal(size=(4, 8)), rng.normal(size=(4, 5))
        cut = g_x.copy()
        cut[-1] = 0.0
        grads = head_backward(fw, g_x, g_f, params)
        assert grads.tobytes() == head_backward(fw, cut, g_f, params).tobytes()

    def test_gradient_blocks_follow_the_parameter_layout(self):
        params = init_head_params(3, 4, 2, 5, stream(2, "init"))
        fw = head_forward(*pair([[1, 0, 2]], [[0, 1, 0]], [1, 1, 1]), params)
        g_f = np.arange(5.0)[None]
        grads = params.split(head_backward(fw, np.ones((1, 8)), g_f, params))
        assert list(grads) == list(params.tensors())
        assert all(grads[name].shape == arr.shape for name, arr in params.tensors().items())
        assert np.array_equal(grads["b_o"], g_f[0])
        assert np.array_equal(grads["W_o"], g_f.T @ fw.x)

    def test_matches_finite_differences(self):
        # spot check; the selftest suite covers many more configurations
        from docrel.selftest import SuiteResult, _check_head

        result = SuiteResult("head")
        _check_head(result, seed=123)
        assert result.passed, result.failures

    def test_accumulation_across_examples(self):
        # parameter gradients of a batch are the sum over its examples
        params = init_head_params(3, 4, 2, 5, stream(3, "init"))
        ex = pair([[1, 0, 2]], [[0, 1, 0]], [1, 1, 1])
        once = head_backward(head_forward(*ex, params), np.ones((1, 8)), np.ones((1, 5)), params)
        twice = head_backward(
            head_forward(*stack(ex, ex), params), np.ones((2, 8)), np.ones((2, 5)), params
        )
        assert np.allclose(twice, 2 * once, rtol=1e-12)

    def test_packed_batch_matches_finite_differences(self):
        # a four-pair batch whose last pair has a zero pair embedding
        from docrel.selftest import SuiteResult, _check_head_batch

        result = SuiteResult("head batch")
        _check_head_batch(result, seed=123)
        assert result.checks == 4 and result.passed, result.failures

    def test_batch_rows_equal_single_pair_passes(self):
        rng = stream(4, "rows")
        params = init_head_params(3, 4, 2, 5, rng)
        pairs = [
            pair(rng.normal(size=(k, 3)), rng.normal(size=(4 - k, 3)), rng.normal(size=3))
            for k in (1, 2, 3)
        ]
        batch = head_forward(*stack(*pairs), params)
        g_x, g_f = rng.normal(size=(3, 8)), rng.normal(size=(3, 5))
        grads = head_backward(batch, g_x, g_f, params)
        summed = np.zeros_like(grads)
        for i, inputs in enumerate(pairs):
            single = head_forward(*inputs, params)
            for name in ("x", "x_unit", "f"):
                assert np.allclose(getattr(single, name)[0], getattr(batch, name)[i], rtol=1e-12)
            summed += head_backward(single, g_x[i : i + 1], g_f[i : i + 1], params)
        assert np.allclose(summed, grads, rtol=1e-12)

    def test_empty_batch(self):
        params = init_head_params(3, 4, 2, 5, stream(5, "init"))
        fw = head_forward(*np.zeros((3, 0, 3)), params)
        assert fw.f.shape == (0, 5) and fw.x_unit.shape == (0, 8)


class TestParamsAndCheckpoint:
    def test_group_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            zero_params(3, 5, 2, 4)
        with pytest.raises(ConfigError, match="not divisible by group count 3"):
            init_head_params(4, 4, 3, 5, stream(0, "init"))

    def test_non_finite_rejected(self):
        params = zero_params(2, 2, 1, 3)
        params.W_h[0, 0] = np.nan
        with pytest.raises(ConfigError):
            HeadParams(
                W_h=params.W_h,
                W_t=params.W_t,
                W_c1=params.W_c1,
                W_c2=params.W_c2,
                W_o=params.W_o,
                b_o=params.b_o,
                group_count=1,
            )
        # a copy takes the bits as they are, without checking them again
        assert np.isnan(params.copy().W_h[0, 0])

    def test_copy_holds_equal_arrays_of_its_own(self):
        params = init_head_params(6, 4, 2, 3, stream(0, "init"))
        copy = params.copy()
        assert type(copy) is HeadParams and copy.group_count == params.group_count
        assert copy.flat.tobytes() == params.flat.tobytes()
        assert not np.shares_memory(copy.flat, params.flat)
        for name, array in params.tensors().items():
            assert copy.tensors()[name].tobytes() == array.tobytes()
            assert np.shares_memory(copy.tensors()[name], copy.flat)
        # independent both ways: an update to either leaves the other as it was
        before = params.flat.copy()
        np.add(copy.flat, 1.0, out=copy.flat)
        assert params.flat.tobytes() == before.tobytes()
        params.W_o[0, 0] = 7.0
        assert copy.W_o[0, 0] == params.split(before)["W_o"][0, 0] + 1.0

    def test_tensors_are_views_of_one_vector_in_name_order(self):
        given = init_head_params(3, 4, 2, 5, stream(0, "init")).tensors()
        params = HeadParams(**given, group_count=2)
        assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
        assert np.array_equal(params.flat, np.concatenate([a.ravel() for a in given.values()]))
        for name, view in params.tensors().items():
            assert np.shares_memory(view, params.flat) and not np.shares_memory(view, given[name])
        params.flat[:] = np.arange(params.flat.size)
        assert params.W_h[0, 1] == 1.0 and params.b_o[-1] == params.flat.size - 1
        vector = np.arange(params.flat.size, dtype=float)
        views = params.split(vector)
        assert list(views) == list(params.tensors())
        for name, view in views.items():
            assert view.shape == getattr(params, name).shape
            assert np.shares_memory(view, vector)
            assert np.array_equal(view, getattr(params, name))

    @pytest.mark.parametrize("d, d1, n_logits", [(0, 4, 5), (3, 0, 5), (3, 4, 0)],
                             ids=["input", "hidden", "logits"])
    def test_zero_dimension_rejected(self, d, d1, n_logits):
        with pytest.raises(ShapeError, match="head dimensions must be >= 1"):
            zero_params(d, d1, 2, n_logits)

    def test_zero_group_count_rejected(self):
        tensors = zero_params(3, 4, 1, 5).tensors()
        with pytest.raises(ShapeError, match="group count 0"):
            HeadParams(**tensors, group_count=0)

    def test_init_bounds_and_determinism(self):
        a = init_head_params(16, 8, 2, 5, stream(7, "init"))
        b = init_head_params(16, 8, 2, 5, stream(7, "init"))
        assert np.array_equal(a.W_h, b.W_h)
        assert np.all(np.abs(a.W_h) <= 1.0 / 4.0)
        assert np.all(a.b_o == 0.0)

    def test_checkpoint_round_trip(self, tmp_path):
        params = init_head_params(4, 4, 2, 6, stream(9, "init"))
        path = tmp_path / "params.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.group_count == params.group_count
        for name, arr in params.tensors().items():
            assert np.array_equal(arr, loaded.tensors()[name])

    def test_saved_bytes_are_pinned(self, tmp_path):
        # header, metadata line and the tensors' raw float64 in name order
        path = tmp_path / "params.ckpt"
        save_checkpoint(init_head_params(4, 4, 2, 6, stream(9, "init")), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "b4a567ae02d152f0caccda854d7a525d3fa94f96e04f9b631f716f4e40f7560f"


class TestCheckpointFailsClosed:
    def saved(self, tmp_path):
        path = tmp_path / "params.ckpt"
        save_checkpoint(init_head_params(4, 4, 2, 6, stream(9, "init")), path)
        return path, path.read_bytes()

    def rewrite_meta(self, data, edit):
        magic, meta, payload = data.split(b"\n", 2)
        import json

        obj = json.loads(meta)
        edit(obj)
        return b"\n".join([magic, json.dumps(obj).encode(), payload])

    def assert_rejected(self, path, data, match):
        path.write_bytes(data)
        with pytest.raises(DataFormatError, match=match) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_truncated_meta_line(self, tmp_path):
        path, data = self.saved(tmp_path)
        magic_end = data.index(b"\n") + 1
        self.assert_rejected(path, data[: magic_end + 20], "metadata")

    def test_garbled_meta_line(self, tmp_path):
        path, data = self.saved(tmp_path)
        magic_end = data.index(b"\n") + 1
        garbled = data[:magic_end] + b"{not json" + data[data.index(b"\n", magic_end) :]
        self.assert_rejected(path, garbled, "metadata")

    def test_missing_tensor(self, tmp_path):
        path, data = self.saved(tmp_path)

        def drop_b_o(meta):
            meta["tensors"] = [t for t in meta["tensors"] if t["name"] != "b_o"]

        self.assert_rejected(path, self.rewrite_meta(data, drop_b_o)[: -6 * 8], "b_o")

    def test_extra_tensor(self, tmp_path):
        path, data = self.saved(tmp_path)

        def add(meta):
            meta["tensors"].append({"name": "W_x", "shape": [1]})

        self.assert_rejected(path, self.rewrite_meta(data, add) + bytes(8), "W_x")

    def test_trailing_bytes(self, tmp_path):
        path, data = self.saved(tmp_path)
        self.assert_rejected(path, data + b"\0", "after the last tensor")

    def test_truncated_payload(self, tmp_path):
        path, data = self.saved(tmp_path)
        self.assert_rejected(path, data[:-1], "truncated")

    def test_non_finite_payload(self, tmp_path):
        path, data = self.saved(tmp_path)
        self.assert_rejected(path, data[:-8] + np.array([np.nan], "<f8").tobytes(),
                             "b_o contains non-finite values")

    def test_tensor_shapes_that_disagree(self, tmp_path):
        path, data = self.saved(tmp_path)

        def reshape_w_t(meta):
            meta["tensors"][1]["shape"] = [2, 8]  # W_t: W_h is [4, 4]

        self.assert_rejected(path, self.rewrite_meta(data, reshape_w_t), r"W_t shape \(2, 8\)")

    def test_tensors_out_of_order(self, tmp_path):
        path, data = self.saved(tmp_path)

        def swap(meta):
            meta["tensors"][0], meta["tensors"][1] = meta["tensors"][1], meta["tensors"][0]

        self.assert_rejected(path, self.rewrite_meta(data, swap), "in that order")

    @pytest.mark.parametrize("value", [2.9, 2.0, "2", True, None, [2]])
    def test_group_count_not_an_integer(self, tmp_path, value):
        path, data = self.saved(tmp_path)
        self.assert_rejected(path, self.rewrite_meta(data, lambda m: m.update(group_count=value)),
                             "group count .* is not an integer")

    @pytest.mark.parametrize("shape", [[4.7, 8], [4, 4.0], ["4", 4], [True, 4], [4, None]])
    def test_shape_entry_not_an_integer(self, tmp_path, shape):
        path, data = self.saved(tmp_path)

        def reshape_w_h(meta):
            meta["tensors"][0]["shape"] = shape

        self.assert_rejected(path, self.rewrite_meta(data, reshape_w_h), "bad shape .* for W_h")

    def test_zero_hidden_dim(self, tmp_path):
        # every tensor but b_o (6 zeros) is empty, so the payload is consistent
        path, data = self.saved(tmp_path)

        def empty_hidden(meta):
            for spec in meta["tensors"][:4]:
                spec["shape"] = [0, 4]
            meta["tensors"][4]["shape"] = [6, 0]

        magic, meta, _ = self.rewrite_meta(data, empty_hidden).split(b"\n", 2)
        self.assert_rejected(path, b"\n".join([magic, meta, bytes(48)]),
                             "head dimensions must be >= 1")

    def test_group_count_not_dividing_the_hidden_dim(self, tmp_path):
        path, data = self.saved(tmp_path)
        self.assert_rejected(path, self.rewrite_meta(data, lambda m: m.update(group_count=3)),
                             "not divisible by group count 3")

    @pytest.mark.parametrize("make", [lambda p: None, lambda p: p.mkdir()],
                             ids=["missing", "directory"])
    def test_unreadable_path(self, tmp_path, make):
        path = tmp_path / "params.ckpt"
        make(path)
        with pytest.raises(DataFormatError, match="cannot read checkpoint file") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    cuts=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), min_size=1, max_size=3),
    truncate=st.booleans(),
)
def test_corrupted_checkpoint_loads_or_raises_docrel_error(tmp_path_factory, cuts, truncate):
    """Flipped bytes and truncation end in a load or a DocrelError, never a raw exception."""
    path = tmp_path_factory.mktemp("mutate") / "params.ckpt"
    save_checkpoint(init_head_params(4, 4, 2, 6, stream(9, "init")), path)
    data = bytearray(path.read_bytes())
    for position, value in cuts:
        data[position % len(data)] = value
    if truncate:
        data = data[: cuts[0][0] % len(data)]
    path.write_bytes(bytes(data))
    try:
        load_checkpoint(path)
    except DocrelError:
        pass
