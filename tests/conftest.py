import os
import sys
from pathlib import Path

import numpy as np
import pytest

TESTS_DIR = Path(__file__).parent
if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))


@pytest.fixture(scope="session")
def golden() -> Path:
    return TESTS_DIR / "golden"


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


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
