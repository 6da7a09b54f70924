import ctypes
import io
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import fresh_process_env, needs_openblas

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
    env = fresh_process_env()
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


def test_an_openblas_with_64_bit_integers_is_found(monkeypatch, rescan):
    """An OpenBLAS that exports only the "64_"-suffixed openblas_* names, as
    the one numpy 1.2x wheels bundle does, is found and pinned."""
    names = ("openblas_set_num_threads64_", "openblas_get_num_threads64_", "openblas_get_corename64_")
    lib = SimpleNamespace(**{name: SimpleNamespace() for name in names})
    maps = "7f0000000000-7f0000001000 r-xp 00000000 00:00 0 /wheel/libopenblas64_p-r0.so\n"
    monkeypatch.setattr(blas, "open", lambda *args: io.StringIO(maps), raising=False)
    monkeypatch.setattr(ctypes, "CDLL", lambda path: lib)
    assert blas._openblas() == tuple(getattr(lib, name) for name in names)


def _numpy_blas() -> str:
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


@pytest.mark.skipif("openblas" not in _numpy_blas(), reason="numpy names no OpenBLAS as its BLAS")
def test_the_openblas_numpy_names_is_found():
    """Where numpy's build names an OpenBLAS as its BLAS, the scan finds it,
    so the pin is not silently skipped."""
    assert blas._openblas() is not None
