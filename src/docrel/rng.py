"""Reproducible random-number streams.

Streams are keyed by (seed, *tags) so that independent purposes (document
shuffling, negative-label sampling, data generation, ...) never share a
generator. The seed and the tags are given to ``np.random.SeedSequence`` as
one array of 32-bit entropy words: first the seed, taken modulo 2**64 and
split as ``SeedSequence`` splits an int (one word below 2**32, else the low
word then the high word), then one word per tag. A tag is an integer (any
type with ``__index__``: ``int``, ``bool``, a NumPy integer), taken modulo
2**32, or a ``str``, whose word is the first four bytes of its SHA-256, so
a stream's identity does not depend on Python's salted ``hash()`` and is
stable across processes and platforms. Any other tag is refused.
"""

from __future__ import annotations

import hashlib
import operator
from functools import cache

import numpy as np

_WORD = 0xFFFFFFFF


def _tag_code(tag: int | str) -> int:
    if isinstance(tag, str):
        return _text_code(tag)
    try:
        return operator.index(tag) & _WORD
    except TypeError:
        raise TypeError(f"stream tag {tag!r} is neither an integer nor a str") from None


@cache  # the first four bytes of the text's SHA-256, once per text (a few fixed names)
def _text_code(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4], "little")


def stream(seed: int, *tags: int | str) -> np.random.Generator:
    """Return a Generator derived deterministically from seed and tags."""
    seed = operator.index(seed) & 0xFFFFFFFFFFFFFFFF
    words = [seed & _WORD, seed >> 32] if seed >> 32 else [seed]
    words += [_tag_code(t) for t in tags]
    return np.random.default_rng(np.array(words, dtype=np.uint32))
