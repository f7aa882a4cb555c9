"""Keep freed heap mapped between training steps, on glibc.

Each training step allocates and frees the same temporaries. By default
glibc hands freed memory at the top of the heap back to the kernel, so the
next step faults those pages in again and the kernel zeroes each one.
Padding the heap top by ``TOP_PAD`` keeps that much freed heap mapped;
trimming above it still happens, so a large one-off load is still returned.

Setting the pad also turns off glibc's dynamic mmap threshold for the whole
process (mallopt(3)): it stays at 128 KiB, so a block above that size which
the heap top cannot serve is mapped fresh on every allocation, where glibc
would otherwise raise the threshold once such a block is freed.
"""

from __future__ import annotations

import os

TOP_PAD = 32 << 20  # bytes of freed heap glibc may keep mapped
_M_TOP_PAD = -2  # mallopt's parameter number, from glibc's <malloc.h>
# glibc's own malloc settings; where the user set any, the allocator is theirs
_GLIBC_SETTINGS = ("MALLOC_TOP_PAD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_")


def glibc_version() -> str | None:
    """glibc's version, e.g. ``"2.36"``, or None if the C library is not glibc."""
    try:
        name = os.confstr("CS_GNU_LIBC_VERSION")  # "glibc 2.36"
    except (AttributeError, ValueError, OSError):  # no os.confstr off Unix
        return None
    return name.split()[-1] if name else None


def pad_heap(environ=os.environ, libc=None) -> int | None:
    """Set glibc's ``M_TOP_PAD`` to ``TOP_PAD`` through ``libc`` (default: this
    process's C library); return the pad set, or None if the allocator was
    left alone: not glibc, a glibc malloc setting in ``environ``, or a failed call."""
    if glibc_version() is None or any(name in environ for name in _GLIBC_SETTINGS):
        return None
    if "glibc.malloc." in environ.get("GLIBC_TUNABLES", ""):
        return None
    try:
        import ctypes

        mallopt = (libc or ctypes.CDLL(None)).mallopt
    except (ImportError, OSError, AttributeError):  # no ctypes, no C library, or no mallopt
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return TOP_PAD if mallopt(_M_TOP_PAD, TOP_PAD) == 1 else None  # mallopt returns 1 on success


top_pad = pad_heap()  # what importing docrel set, recorded in run manifests
