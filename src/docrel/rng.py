"""Reproducible random-number streams.

Streams are keyed by (seed, *tags) so that independent purposes (document
shuffling, negative-label sampling, data generation, ...) never share a
generator. Tags may be ints or strings; strings are hashed with SHA-256,
so a stream's identity does not depend on Python's salted `hash()` and is
stable across processes and platforms.
"""

from __future__ import annotations

import hashlib
from functools import cache

import numpy as np


def _tag_code(tag: int | str) -> int:
    if isinstance(tag, bool):  # bool is an int subclass; be explicit
        return int(tag)
    if isinstance(tag, int):
        return tag & 0xFFFFFFFF
    return _text_code(str(tag))


@cache  # the first four bytes of the text's SHA-256, once per text (a few fixed names)
def _text_code(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4], "little")


def stream(seed: int, *tags: int | str) -> np.random.Generator:
    """Return a Generator derived deterministically from seed and tags."""
    entropy = [seed & 0xFFFFFFFFFFFFFFFF] + [_tag_code(t) for t in tags]
    return np.random.default_rng(entropy)
