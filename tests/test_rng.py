import hashlib

import numpy as np
import pytest

from docrel.rng import stream


def text_code(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4], "little")


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63 + 5, -1])
@pytest.mark.parametrize("tags, codes", [
    ((), []),
    (("init",), [text_code("init")]),
    (("negsample", 3, 0), [text_code("negsample"), 3, 0]),
    ((2**32 + 7, -1, True), [7, 2**32 - 1, 1]),
])
def test_stream_is_seed_sequence_of_seed_and_tag_words(seed, tags, codes):
    expected = np.random.default_rng([seed & (2**64 - 1), *codes])
    assert stream(seed, *tags).bit_generator.state == expected.bit_generator.state


def test_numpy_integers_are_integers():
    assert stream(np.int64(5), "x").random() == stream(5, "x").random()
    assert stream(np.uint64(2**63 + 5)).random() == stream(2**63 + 5).random()
    assert stream(4, "t", np.int64(3)).random() == stream(4, "t", 3).random()
    assert stream(4, "t", np.int64(3)).random() != stream(4, "t", "3").random()


@pytest.mark.parametrize("tag", [1.0, None, b"t", (1,)], ids=["float", "none", "bytes", "tuple"])
def test_tag_neither_integer_nor_str_refused(tag):
    with pytest.raises(TypeError, match="neither an integer nor a str"):
        stream(0, tag)


def test_float_seed_refused():
    with pytest.raises(TypeError):
        stream(1.0, "t")
