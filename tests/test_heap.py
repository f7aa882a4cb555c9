"""docrel keeps freed heap mapped on glibc, so training steps stop faulting memory in."""

import os
import subprocess
import sys

import pytest

from docrel import _heap

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
on_glibc = pytest.mark.skipif(_heap.glibc_version() is None, reason="needs glibc")


class FakeLibc:
    """A C library whose ``mallopt`` records its calls and returns ``result``."""

    def __init__(self, result=1):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return result

        self.mallopt = mallopt


@pytest.fixture
def glibc(monkeypatch):
    monkeypatch.setattr(_heap, "glibc_version", lambda: "2.36")


def test_pad_set_when_environment_is_empty(glibc):
    libc = FakeLibc()
    assert _heap.pad_heap({}, libc) == _heap.TOP_PAD == 32 << 20
    assert libc.calls == [(-2, 32 << 20)]  # M_TOP_PAD


def test_other_tunables_leave_the_pad_on(glibc):
    assert _heap.pad_heap({"GLIBC_TUNABLES": "glibc.pthread.rseq=0"}, FakeLibc()) == _heap.TOP_PAD


@pytest.mark.parametrize(
    "name, value",
    [*((name, "65536") for name in _heap._GLIBC_SETTINGS),
     ("GLIBC_TUNABLES", "glibc.pthread.rseq=0:glibc.malloc.top_pad=0")],
)
def test_glibc_malloc_settings_leave_the_allocator_alone(glibc, name, value):
    libc = FakeLibc()
    assert _heap.pad_heap({name: value}, libc) is None
    assert libc.calls == []


@pytest.mark.parametrize("libc", [object(), FakeLibc(result=0)], ids=["no-mallopt", "refused"])
def test_failed_call_returns_none(glibc, libc):
    assert _heap.pad_heap({}, libc) is None


def test_missing_ctypes_returns_none(glibc, monkeypatch):
    monkeypatch.setitem(sys.modules, "ctypes", None)  # makes ``import ctypes`` raise ImportError
    assert _heap.pad_heap({}) is None


def test_no_confstr_means_no_glibc(monkeypatch):
    """Python has ``os.confstr`` only on Unix; elsewhere the import must still succeed."""
    monkeypatch.delattr(os, "confstr")
    assert _heap.glibc_version() is None
    assert _heap.pad_heap({}) is None


def test_other_libc_is_left_alone(monkeypatch):
    monkeypatch.setattr(_heap, "glibc_version", lambda: None)
    libc = FakeLibc()
    assert _heap.pad_heap({}, libc) is None
    assert libc.calls == []


def _python(code, **env):
    """Run ``code`` in a fresh interpreter that imports docrel from this tree,
    with none of glibc's malloc settings but those in ``env``; return stdout."""
    settings = (*_heap._GLIBC_SETTINGS, "GLIBC_TUNABLES")
    clean = {k: v for k, v in os.environ.items() if k not in settings}
    clean["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**clean, **env}
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@on_glibc
def test_import_pads_the_heap():
    assert _python("import docrel; print(docrel._heap.top_pad)") == f"{_heap.TOP_PAD}\n"


def test_import_respects_glibc_tunables():
    code = "import docrel; print(docrel._heap.top_pad)"
    assert _python(code, GLIBC_TUNABLES="glibc.malloc.top_pad=0") == "None\n"


SECOND_TRAIN_FAULTS = """
import resource
from docrel import SyntheticConfig, TrainConfig, generate_synthetic_corpus, train

corpus = generate_synthetic_corpus(SyntheticConfig(
    num_relations=96, num_documents=4, pairs_per_document=(200, 220), na_fraction=0.9))
config = TrainConfig(epochs=1, batch_size=2)
train(corpus, corpus, config)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(corpus, corpus, config)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@on_glibc
def test_second_training_run_reuses_the_heap():
    """~800 pairs in batches of ~420: the second run reuses the first's freed
    heap. Without the pad it faults about 3,000 pages in; with it, about 30.
    A fresh process, because a long-lived one may have grown its heap already."""
    faults = int(_python(SECOND_TRAIN_FAULTS))
    assert faults < 200, f"{faults} minor page faults in the second train call"
