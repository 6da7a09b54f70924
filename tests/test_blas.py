import os
import subprocess
import sys
from pathlib import Path

import pytest

import fluctlab
from fluctlab import blas

OPENBLAS = blas._openblas()
needs_openblas = pytest.mark.skipif(OPENBLAS is None, reason="numpy has loaded no OpenBLAS")


@pytest.fixture
def two_threads():
    """OpenBLAS set to 2 threads, so a restored count differs from the pinned
    one; the count the test found is set back afterwards."""
    set_threads, get_threads, _ = OPENBLAS
    found = get_threads()
    set_threads(2)
    yield get_threads()
    set_threads(found)


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
