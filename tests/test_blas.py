import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import needs_openblas

import fluctlab
from fluctlab import blas

OPENBLAS = blas._openblas()


@pytest.fixture
def rescan():
    """`_openblas`'s cached scan cleared before and after the test, so a
    patched fallback is seen and later tests scan the real maps again."""
    blas._openblas.cache_clear()
    yield
    blas._openblas.cache_clear()


@needs_openblas
def test_one_thread_pins_then_restores(two_threads):
    get_threads = OPENBLAS[1]
    with blas.one_thread():
        assert get_threads() == 1
    assert get_threads() == two_threads


@needs_openblas
def test_one_thread_restores_after_an_exception(two_threads):
    get_threads = OPENBLAS[1]
    with pytest.raises(KeyError):
        with blas.one_thread():
            assert get_threads() == 1
            raise KeyError("inside the block")
    assert get_threads() == two_threads


def test_one_thread_runs_the_block_without_openblas(monkeypatch):
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    ran = []
    with blas.one_thread():
        ran.append(True)
    assert ran == [True]
    assert blas.corename() is None


def test_corename_alone_finds_the_loaded_kernel():
    """Imported alone in a fresh interpreter, blas still finds numpy's
    OpenBLAS: it reports the kernel this process runs, not None."""
    paths = [str(Path(fluctlab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    probe = [sys.executable, "-c", "from fluctlab.blas import corename; print(corename())"]
    loaded = subprocess.run(probe, check=True, capture_output=True, text=True, env=env, timeout=60)
    assert loaded.stdout.strip() == str(blas.corename())


def test_unreadable_maps_give_no_openblas(monkeypatch, rescan):
    def unreadable(*args):
        raise PermissionError("/proc/self/maps")

    monkeypatch.setattr(blas, "open", unreadable, raising=False)
    assert blas._openblas() is None


def test_a_library_that_fails_to_load_is_passed_over(monkeypatch, rescan):
    def unloadable(path):
        raise OSError(f"{path}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", unloadable)
    assert blas._openblas() is None


def test_a_library_without_the_known_symbols_is_passed_over(monkeypatch, rescan):
    """Each loaded library offers no set/get/corename triple, so the scan
    ends with None rather than a partial or wrong set of functions."""
    monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
    assert blas._openblas() is None
