"""Run one function in a forked child process while the caller works on.

``fuse`` parses the weight bundle this way while it reads its other
inputs, and ``save_bundle`` formats half of the bundle's numbers this way
while it formats the other half.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import warnings


def _outcome(fn, args) -> tuple:
    try:
        return fn(*args), None
    except Exception as err:  # noqa: BLE001 - raised again where the result is read
        return None, err


def _result(outcome: tuple):
    value, err = outcome
    if err is not None:
        raise err
    return value


@contextlib.contextmanager
def _in_child(fn, *args):
    """Start ``fn(*args)`` in a forked child; yield a function returning its result.

    The child inherits ``fn``, so closures work: only the result, or the
    exception ``fn`` raised, is pickled back through a pipe, and reading the
    result raises that exception here.  A child that ends without a result
    is a RuntimeError.  Leaving the block kills and reaps the child.  Where
    ``os.fork`` does not exist, ``fn`` runs at once and its exception waits
    until the result is read, so errors are reported in the same order.
    """
    if not hasattr(os, "fork"):
        outcome = _outcome(fn, args)
        yield lambda: _result(outcome)
        return
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns about forking while BLAS threads exist; the child
        # never calls BLAS and leaves through os._exit
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(_outcome(fn, args), pickle.HIGHEST_PROTOCOL))
        finally:
            os._exit(0)  # skip the parent's cleanup handlers and buffered output
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:

        def result():
            try:
                outcome = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"{fn.__name__} ended in a child process without a result") from None
            return _result(outcome)

        try:
            yield result
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
