import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TESTS_DIR = Path(__file__).parent
if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))


@pytest.fixture(scope="session")
def sanitized(tmp_path_factory) -> tuple[Path, dict[str, str]]:
    """``_kernel.SOURCE`` built with AddressSanitizer and UBSan, and the environment of a child that loads it.

    The child preloads ``libasan``, so every ``malloc`` of the child, NumPy's
    buffers included, is an exact-size block whose overrun is reported.
    Skips without ``cc`` or without its ``libasan``.
    """
    from wordfuse import _kernel

    if shutil.which("cc") is None:
        pytest.skip("no C compiler 'cc' on PATH")
    libasan = subprocess.run(["cc", "-print-file-name=libasan.so"], capture_output=True, text=True,
                             timeout=60).stdout.strip()
    if not os.path.isabs(libasan):  # cc prints the bare name when it has no such file
        pytest.skip("cc has no libasan")
    library = tmp_path_factory.mktemp("sanitized") / "sanitized.so"
    sanitize = ["-fsanitize=address,undefined", "-fno-sanitize-recover=undefined"]
    built = subprocess.run(["cc", *_kernel.FLAGS, *sanitize, "-x", "c", "-", "-o", str(library)],
                           input=_kernel.SOURCE, capture_output=True, text=True, timeout=300)
    assert built.returncode == 0, built.stderr
    env = dict(os.environ, PYTHONPATH=str(TESTS_DIR.parent / "src"), LD_PRELOAD=libasan,
               ASAN_OPTIONS="detect_leaks=0")
    return library, env


@pytest.fixture(scope="session")
def golden() -> Path:
    return TESTS_DIR / "golden"


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture()
def no_library(monkeypatch) -> None:
    """Hide the compiled library, as on a machine without ``cc``: every caller takes its Python path."""
    from wordfuse import _kernel, numerics

    no_library = _kernel.Kernel(None, "no library: the Python paths alone")
    monkeypatch.setattr(numerics, "matmul_kernel", lambda: no_library)


@pytest.fixture(params=[True, False], ids=["forked", "inline"])
def forked(request, monkeypatch) -> bool:
    """Run the test as is, then with os.fork hidden so the fork helper runs inline."""
    if not request.param:
        monkeypatch.delattr(os, "fork")
    return request.param


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no children at all
        return
    pytest.fail(f"the test left a child process behind ({f'pid {pid}, exited' if pid else 'still running'})")
