import ctypes
import json
import math
import os
import shutil
import stat
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from wordfuse import _kernel, check, numerics
from wordfuse.check import naive_matmul

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Published reference outputs for SplitMix64 seeded with 0.
SPLITMIX64_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
)

# Frozen from the first release; any change here is a compatibility break.
INIT_2X2_SEED42 = [
    0.34162432775212503,
    -0.4809593348155971,
    -0.3131052842872572,
    -0.22034760183590596,
]
UNIT_SEED1234 = [0.730666524540624, 0.5928898580149862, 0.20213287431010984]


class TestSplitMix64:
    def test_matches_published_reference_stream(self):
        rng = numerics.SplitMix64(0)
        assert tuple(rng.next_u64() for _ in range(4)) == SPLITMIX64_SEED0

    def test_unit_doubles_frozen(self):
        rng = numerics.SplitMix64(1234)
        assert [rng.next_unit() for _ in range(3)] == UNIT_SEED1234

    def test_unit_doubles_in_half_open_interval(self):
        rng = numerics.SplitMix64(99)
        for _ in range(10_000):
            u = rng.next_unit()
            assert 0.0 <= u < 1.0

    def test_same_seed_same_stream(self):
        a = numerics.SplitMix64(7)
        b = numerics.SplitMix64(7)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_seed_wraps_to_64_bits(self):
        assert numerics.SplitMix64(2**64 + 5).next_u64() == numerics.SplitMix64(5).next_u64()


class TestInitMatrix:
    def test_frozen_values(self):
        m = numerics.init_matrix(numerics.SplitMix64(42), 2, 2)
        assert m.ravel().tolist() == INIT_2X2_SEED42

    def test_bound_is_inverse_sqrt_cols(self):
        m = numerics.init_matrix(numerics.SplitMix64(3), 40, 9)
        assert np.all(np.abs(m) <= 1.0 / 3.0)

    def test_row_major_consumption(self):
        m = numerics.init_matrix(numerics.SplitMix64(5), 2, 3)
        fresh = numerics.SplitMix64(5)
        bound = 1.0 / math.sqrt(3)
        want = [(fresh.next_unit() * 2.0 - 1.0) * bound for _ in range(6)]
        assert m.ravel().tolist() == want

    def test_consumes_exactly_rows_times_cols_draws(self):
        shared = numerics.SplitMix64(5)
        numerics.init_matrix(shared, 2, 3)
        fresh = numerics.SplitMix64(5)
        for _ in range(6):
            fresh.next_u64()
        assert shared.next_u64() == fresh.next_u64()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 2022])
    @pytest.mark.parametrize(("rows", "cols"), [(1, 1), (7, 13), (317, 331)])
    def test_matches_scalar_stream_bitwise(self, seed, rows, cols):
        vectorised = numerics.SplitMix64(seed)
        got = numerics.init_matrix(vectorised, rows, cols)
        scalar = numerics.SplitMix64(seed)
        bound = 1.0 / math.sqrt(cols)
        want = np.array([(scalar.next_unit() * 2.0 - 1.0) * bound for _ in range(rows * cols)])
        assert np.array_equal(bits(got.ravel()), bits(want))
        assert vectorised.state == scalar.state


# signed zeros, subnormals and magnitudes whose products stay finite
MATMUL_EDGE_VALUES = np.array([*_kernel.EDGE_VALUES, 1.0, -3.5])


def bits(m) -> np.ndarray:
    """The IEEE bit patterns, so -0.0 and +0.0 compare unequal."""
    return np.asarray(m, dtype=np.float64).view(np.uint64)


def edge_operand(rng, shape) -> np.ndarray:
    values = rng.standard_normal(shape) * 10.0 ** rng.choice([-150, 0, 150], size=shape)
    pick = rng.uniform(size=shape) < 0.5
    values[pick] = rng.choice(MATMUL_EDGE_VALUES, size=int(pick.sum()))
    return values


FMA_FLAGS = tuple("-ffp-contract=fast" if f == "-ffp-contract=off" else f for f in _kernel.FLAGS)
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler 'cc' on PATH")


# Multiplies operands of each shape in argv[2] (JSON) with the library at argv[1], through the
# wrapper ``_kernel._bind`` makes, and compares the bits with ``matmul_numpy``.  Under ASan every
# NumPy buffer is an exact-size block of the intercepted malloc, so a read or write one double past
# an operand, the output or the pack buffer is reported.  With argv[3] == "short" it calls the
# kernel itself with a pack buffer one double short, which ASan must report.
SANITIZED_MATMUL = """
import ctypes, json, sys
from pathlib import Path
import numpy as np
from wordfuse import _kernel, numerics
library, shapes = Path(sys.argv[1]), json.loads(sys.argv[2])
matmul = _kernel._bind(library)["matmul"]
rng = np.random.default_rng(5)
for rows, inner, cols in shapes:
    a, b = rng.standard_normal((rows, inner)), rng.standard_normal((inner, cols))
    if sys.argv[3] == "short":
        raw = ctypes.CDLL(str(library))
        raw.wordfuse_matmul.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64] * 3 + [ctypes.c_void_p]
        strip = ctypes.c_int64.in_dll(raw, "wordfuse_matmul_strip").value
        out, pack = np.empty((rows, cols)), np.empty(inner * strip - 1)
        raw.wordfuse_matmul(a.ctypes.data, b.ctypes.data, out.ctypes.data, rows, inner, cols, pack.ctypes.data)
    got, want = matmul(a, b), numerics.matmul_numpy(a, b)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (rows, inner, cols)
# one pipeline at the paper's width: the two attention branches call the library on two threads at once
from wordfuse import attention, lexicon, segvote
from wordfuse.fusion import FusionConfig
kernel = _kernel.Kernel(**_kernel._bind(library), detail=str(library))
numerics.matmul_kernel = lambda: kernel
sentence = "abcdefghijklmnop"
seg = segvote.vote(sentence, [["ab", "c", "defg", "hij", "klmnop"]])
table = lexicon.EmbeddingTable(dim=8, vectors={w: rng.standard_normal(8) for w in seg.words}, unk=np.zeros(8))
bundle = lexicon.init_bundle(5, 8, 768)
result = attention.pipeline_forward(rng.standard_normal((16, 768)), seg, table, bundle, FusionConfig(heads=12))
h1 = attention.attend(result.mixed, bundle["Wq1"], bundle["Wk1"], bundle["Wv1"], 12)
h2 = attention.attend(result.mixed, bundle["Wq2"], bundle["Wk2"], bundle["Wv2"], 12,
                      attention.MaskSpec(16, frozenset(result.omega)))
assert result.h1.tobytes() == h1.tobytes() and result.h2.tobytes() == h2.tobytes()
print("ok")
"""


def load_in_child(cache_dir) -> subprocess.Popen:
    """A child process printing what ``_kernel.load`` finds in ``cache_dir``; a bad library can only kill it."""
    script = ("import sys; from wordfuse import _kernel, numerics; _kernel.CACHE_DIR = sys.argv[1]; "
              "print(_kernel.load(numerics.matmul_numpy))")
    return subprocess.Popen([sys.executable, "-c", script, str(cache_dir)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=SRC))


def run_load(cache_dir) -> tuple[int, str, str]:
    child = load_in_child(cache_dir)
    out, err = child.communicate(timeout=300)
    return child.returncode, out, err


def all_kernels_agree(a, b, oracle_rows=None) -> None:
    """C (when loaded), NumPy and the triple loop give the same bits.

    ``oracle_rows`` limits the slow triple loop to those rows; rows are
    independent, so their entries must still match bit for bit.
    """
    numpy_bits = bits(numerics.matmul_numpy(a, b))
    assert np.array_equal(bits(numerics.matmul(a, b)), numpy_bits), str(numerics.matmul_kernel())
    rows = range(a.shape[0]) if oracle_rows is None else oracle_rows
    want = np.array(naive_matmul(np.asarray(a)[list(rows)].tolist(), np.asarray(b).tolist()))
    assert np.array_equal(numpy_bits[list(rows)], bits(want))


class TestMatmul:
    def test_bitwise_equal_to_triple_loop(self, rng):
        for _ in range(25):
            n, k, m = rng.integers(1, 9, size=3)
            a = rng.standard_normal((n, k))
            b = rng.standard_normal((k, m))
            got = numerics.matmul(a, b)
            want = np.array(naive_matmul(a.tolist(), b.tolist()))
            assert np.array_equal(bits(got), bits(want)), "accumulation order must match the naive loop"

    def test_bitwise_equal_on_zeros_subnormals_and_extremes(self, rng):
        # up to 25 rows and 80 columns: three 8-row tiles of the C kernel and remainder rows, up to
        # three 24-column blocks and tails (4-row tiles and 12- or 6-column blocks without AVX-512)
        for _ in range(200):
            n, k, m = int(rng.integers(1, 26)), int(rng.integers(1, 41)), int(rng.integers(1, 81))
            a = edge_operand(rng, (n, k))
            b = edge_operand(rng, (k, m))
            assert np.isfinite(numerics.matmul_numpy(a, b)).all()
            all_kernels_agree(a, b)

    def test_all_negative_zero_products_sum_to_positive_zero(self):
        got = numerics.matmul(np.array([[-0.0, 0.0]]), np.array([[1.0], [-1.0]]))
        assert bits(got).tolist() == [[0]]

    def test_stacked_rows_and_columns_match_separate_products(self, rng):
        a = edge_operand(rng, (6, 5))
        b = edge_operand(rng, (5, 4))
        whole = bits(numerics.matmul(a, b))
        for i in range(6):
            assert np.array_equal(whole[i], bits(numerics.matmul(a[i : i + 1], b))[0])
        for j in range(4):
            assert np.array_equal(whole[:, j], bits(numerics.matmul(a, b[:, j : j + 1]))[:, 0])

    def test_non_contiguous_operands(self, rng):
        a = rng.standard_normal((7, 9))[::2, 1::2]
        b = rng.standard_normal((8, 6)).T[:4]
        want = np.array(naive_matmul(a.tolist(), b.tolist()))
        assert np.array_equal(bits(numerics.matmul(a, b)), bits(want))

    def test_identity(self, rng):
        a = rng.standard_normal((5, 5))
        assert np.array_equal(numerics.matmul(a, np.eye(5)), a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            numerics.matmul(np.ones((2, 3)), np.ones((4, 2)))


class TestMatmulKernels:
    def test_c_kernel_runs_whenever_cc_is_on_path(self):
        kernel = numerics.matmul_kernel()
        if shutil.which("cc") is None:
            assert (kernel.name, kernel.detail) == ("NumPy", "no C compiler: 'cc' is not on PATH")
        else:
            assert kernel.name == "C", f"cc is on PATH but the C kernel did not load: {kernel}"
            assert kernel.parse_rows is not None, f"cc is on PATH but the number parser did not load: {kernel}"
            assert kernel.format_rows is not None, f"cc is on PATH but the number printer did not load: {kernel}"

    def test_threads_whose_first_calls_meet_load_the_library_once(self, monkeypatch):
        kernel, loads, got = numerics.matmul_kernel(), [], []
        meet = threading.Barrier(2)

        def load(reference):
            loads.append(reference)
            time.sleep(0.2)  # the other thread's first call arrives meanwhile
            return kernel

        def first_call():
            meet.wait()
            got.append(numerics.matmul_kernel())

        monkeypatch.setattr(_kernel, "load", load)
        numerics._library.cache_clear()
        threads = [threading.Thread(target=first_call) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(loads) == 1 and got == [kernel, kernel]

    def test_known_operands_cover_tiles_widths_and_edge_values(self):
        a, b = _kernel.known_operands()
        assert a.shape == (23, 37) and b.shape == (37, 41) and _kernel.KNOWN_ROWS == (1, 7, 23)
        present = set(bits(np.concatenate([a.ravel(), b.ravel()])).tolist())
        assert set(bits(_kernel.EDGE_VALUES).tolist()) <= present
        for rows in _kernel.KNOWN_ROWS:
            all_kernels_agree(a[-rows:], b)

    @pytest.mark.parametrize("n", [16, 37, 64, 128, 512])
    def test_paper_shapes(self, n):
        rng = np.random.default_rng(n)
        h, w = rng.standard_normal((n, 768)), rng.standard_normal((768, 768)) / 28.0
        all_kernels_agree(h, w, oracle_rows=[n - 1])

    @pytest.mark.parametrize("omega", [1, 5, 23, 25])
    def test_narrow_attention_products(self, omega):
        # the masked branch's scores q @ k.T and output p @ v, with |omega| below and above a column block
        rng = np.random.default_rng(omega)
        q = rng.standard_normal((37, 768))
        k, v = rng.standard_normal((2, omega, 768))
        p = numerics.softmax_rows(rng.standard_normal((37, omega)))
        all_kernels_agree(q, k.T, oracle_rows=[0, 36])
        all_kernels_agree(p, v, oracle_rows=[0, 36])

    def test_head_slices_of_attention(self):
        # the operands attention._head_probabilities passes: column slices, one transposed
        rng = np.random.default_rng(11)
        q, k = rng.standard_normal((13, 24)), rng.standard_normal((7, 24))
        for cols in (slice(0, 8), slice(8, 16), slice(16, 24)):
            assert not k[:, cols].T.flags.c_contiguous
            all_kernels_agree(q[:, cols], k[:, cols].T)

    def test_no_cc_on_path_falls_back(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path)
        kernel = _kernel.load(numerics.matmul_numpy)
        assert (kernel.matmul, kernel.detail) == (None, "no C compiler: 'cc' is not on PATH")
        assert str(kernel).startswith("NumPy (")

    @needs_cc
    def test_build_error_falls_back(self, tmp_path, monkeypatch):
        blocked = tmp_path / "not-a-directory"
        blocked.write_text("", encoding="utf-8")
        monkeypatch.setattr(_kernel, "CACHE_DIR", blocked)
        kernel = _kernel.load(numerics.matmul_numpy)
        assert kernel.matmul is None and kernel.detail.startswith("build error: ")
        monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path)
        monkeypatch.setattr(_kernel, "SOURCE", "not C")
        kernel = _kernel.load(numerics.matmul_numpy)
        assert kernel.matmul is None and kernel.detail.startswith("build error: cc exited ")
        assert list(tmp_path.iterdir()) == [blocked]  # no temporary file left behind

    @needs_cc
    @pytest.mark.parametrize("symbol", ["wordfuse_matmul_strip", "wordfuse_parse_rows"])
    def test_library_without_a_symbol_falls_back(self, tmp_path, monkeypatch, symbol):
        # ctypes raises ValueError for a missing variable, AttributeError for a missing function
        renamed = _kernel.SOURCE.replace(symbol, f"{symbol}_renamed")
        assert renamed != _kernel.SOURCE
        monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path)
        monkeypatch.setattr(_kernel, "SOURCE", renamed)
        kernel = _kernel.load(numerics.matmul_numpy)
        assert kernel.matmul is None and kernel.detail.startswith("build error: ") and symbol in kernel.detail

    @needs_cc
    @pytest.mark.skipif("fma" not in _kernel._cpu_flags().split(), reason="the CPU has no FMA unit")
    def test_fma_build_fails_the_known_answer_check_and_the_property(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path)
        monkeypatch.setattr(_kernel, "FLAGS", FMA_FLAGS)
        kernel = _kernel.load(numerics.matmul_numpy)
        assert kernel.matmul is None and kernel.detail.startswith("known-answer mismatch: ")
        # the bitwise property of ``wordfuse check`` catches the same library on its own
        (library,) = tmp_path.glob("*.so")
        fma = _kernel.Kernel(**_kernel._bind(library), detail=str(library))
        monkeypatch.setattr(numerics, "matmul_kernel", lambda: fma)
        results = {r.name: r for r in check.run_checks(cases=20)}
        failure = results["matmul matches the naive triple loop bit-for-bit"].failure
        assert failure is not None and failure.startswith("C kernel, ")
        assert sum(not r.passed for r in results.values()) == 1

    @needs_cc
    @pytest.mark.parametrize("build", ["default target", "byte-at-a-time digits"])
    def test_builds_this_cpu_does_not_use_pass_the_known_answer_checks(self, tmp_path, monkeypatch, build):
        # the SSE2 tile of a build without -march=native, and the digit loop of big-endian targets
        if build == "default target":
            monkeypatch.setattr(_kernel, "FLAGS", tuple(f for f in _kernel.FLAGS if f != "-march=native"))
        else:
            swar = "#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__"
            assert _kernel.SOURCE.count(swar) == 1
            monkeypatch.setattr(_kernel, "SOURCE", _kernel.SOURCE.replace(swar, "#if 0"))
        monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path)
        kernel = _kernel.load(numerics.matmul_numpy)
        assert kernel.name == "C" and kernel.detail.startswith(str(tmp_path)), kernel.detail

    @needs_cc
    def test_source_compiles_without_warnings(self):
        # for the default target and for the build's: each picks its own tile and vector width
        for flags in ((), _kernel.FLAGS):
            done = subprocess.run(["cc", "-Wall", "-Wextra", "-Werror", *flags, "-fsyntax-only", "-x", "c", "-"],
                                  input=_kernel.SOURCE, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, (flags, done.stderr)

    def test_c_source_is_package_data(self):
        # an install without _kernel.c could not import wordfuse at all
        tomllib = pytest.importorskip("tomllib")
        config = tomllib.loads((Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8"))
        assert config["tool"]["setuptools"]["package-data"][Path(_kernel.__file__).parent.name] == ["_kernel.c"]

    def test_matmul_under_address_and_undefined_behaviour_sanitizers(self, sanitized):
        library, env = sanitized
        # row tiles with and without remainder rows, column blocks with and without a tail, zero sizes
        shapes = [[23, 37, 41], [16, 5, 48], [13, 9, 30], [1, 1, 1], [1, 37, 41], [3, 37, 41], [7, 37, 41],
                  [9, 768, 25], [25, 40, 80], [8, 3, 7], [3, 0, 5], [0, 3, 5], [3, 5, 0], [0, 0, 0]]

        def run(mode, shapes):
            return subprocess.run([sys.executable, "-c", SANITIZED_MATMUL, str(library), json.dumps(shapes), mode],
                                  capture_output=True, text=True, env=env, timeout=300)

        done = run("whole", shapes)
        assert (done.returncode, done.stdout) == (0, "ok\n"), done.stderr[-4000:]
        short = run("short", [[9, 37, 41]])
        assert short.returncode != 0, short.stdout
        assert "AddressSanitizer: heap-buffer-overflow" in short.stderr, short.stderr[-4000:]

    @pytest.mark.skipif(numerics.matmul_kernel().format_rows is None, reason="the compiled library did not load")
    @pytest.mark.parametrize(("shape", "sep", "end"), [((1, 37), ", ", ""), ((5, 7), " ", "\n"), ((9, 1), " ", "\n")],
                             ids=["list", "rows", "column"])
    def test_longest_texts_fill_the_printer_buffer_exactly(self, monkeypatch, shape, sep, end):
        # the text takes 24 bytes a number plus separators and row ends, and the buffer 8 bytes more,
        # wordfuse_format_slack: the C's fixed-size copies may run past the text's end
        longest = -2.2250738585072014e-308
        assert len(repr(longest)) == 24
        kernel = numerics.matmul_kernel()
        slack = ctypes.c_int64.in_dll(ctypes.CDLL(kernel.detail), "wordfuse_format_slack").value
        assert slack == 8
        sizes = []

        class RecordingNumPy:
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, size, dtype):
                sizes.append(size)
                return np.empty(size, dtype)

        monkeypatch.setattr(_kernel, "np", RecordingNumPy())
        m = np.full(shape, longest)
        text, out = kernel.format_rows(m.ravel(), 0, shape[1], sep, end, None)
        assert bytes(text) == "".join(sep.join(map(repr, row)) + end for row in m.tolist()).encode()
        assert sizes == [len(text) + slack] and len(out) == sizes[0]
        # the buffer is reused while it holds the piece, and replaced when it does not
        assert kernel.format_rows(m.ravel()[1:], 1, shape[1], sep, end, out)[1] is out
        kernel.format_rows(m.ravel(), 0, shape[1], sep, end, out[:-1])
        assert sizes == [len(text) + slack] * 2

    @needs_cc
    def test_truncated_or_garbage_library_is_rebuilt(self, tmp_path):
        code, first, err = run_load(tmp_path)
        assert code == 0 and first.startswith("C ("), first + err
        (library,) = tmp_path.glob("*.so")
        whole = library.read_bytes()
        for damaged in (whole[: len(whole) // 2], b"garbage", whole[:-1] + bytes([whole[-1] ^ 1])):
            library.write_bytes(damaged)
            code, out, err = run_load(tmp_path)
            assert (code, out) == (0, first), err
            assert _kernel._intact(library)

    @needs_cc
    def test_concurrent_first_builds_both_load_c(self, tmp_path):
        procs = [load_in_child(tmp_path) for _ in range(2)]
        outs = [p.communicate(timeout=300) for p in procs]
        assert [p.returncode for p in procs] == [0, 0], outs
        assert all(out.startswith("C (") for out, _ in outs), outs
        assert [p.name for p in tmp_path.iterdir()] == [Path(outs[0][0].strip()[3:-1]).name]


    @needs_cc
    def test_fresh_build_prunes_stale_libraries(self, tmp_path):
        stale = tmp_path / "wordfuse_matmul-0123456789abcdef0123456789abcdef.so"
        stale.write_bytes(b"the library of an earlier source")
        building = tmp_path / f".{stale.name}.1a2b3c4d.tmp"
        building.write_bytes(b"another process's build in progress")
        code, out, err = run_load(tmp_path)
        assert code == 0 and out.startswith("C ("), out + err
        current = Path(out.strip()[3:-1]).name
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([current, building.name])
        # a cached load builds nothing, so it prunes nothing either
        stale.write_bytes(b"the library of an earlier source")
        assert run_load(tmp_path)[:2] == (0, out)
        assert stale.exists()

    @needs_cc
    def test_stale_library_that_cannot_be_removed_is_kept(self, tmp_path, monkeypatch):
        stale = tmp_path / "wordfuse_matmul-0123456789abcdef0123456789abcdef.so"
        stale.write_bytes(b"the library of an earlier source")

        def read_only(path, missing_ok=False):
            raise PermissionError(13, "Read-only file system", str(path))

        monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path)
        monkeypatch.setattr(Path, "unlink", read_only)
        kernel = _kernel.load(numerics.matmul_numpy)
        assert kernel.name == "C", str(kernel)
        assert stale.exists()


class TestSoftmaxRows:
    def test_frozen_triple(self):
        got = numerics.softmax_rows(np.array([[1.0, 2.0, 3.0]]))
        assert got.tolist() == [
            [0.09003057317038046, 0.24472847105479764, 0.6652409557748218]
        ]

    def test_against_extended_precision(self, rng):
        mpmath.mp.dps = 50
        for _ in range(20):
            row = rng.standard_normal(6) * 10.0
            got = numerics.softmax_rows(row[None, :])[0]
            exps = [mpmath.exp(mpmath.mpf(float(v))) for v in row]
            total = sum(exps)
            want = [float(e / total) for e in exps]
            assert got == pytest.approx(want, rel=1e-14, abs=1e-300)

    def test_rows_sum_to_one(self, rng):
        m = rng.standard_normal((30, 7)) * 50.0
        sums = numerics.softmax_rows(m).sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)

    def test_large_logits_do_not_overflow(self):
        got = numerics.softmax_rows(np.array([[1000.0, 1000.0, -1000.0]]))
        assert np.all(np.isfinite(got))
        assert got[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_minus_inf_gives_exact_zero(self):
        got = numerics.softmax_rows(np.array([[0.0, -np.inf, 1.0]]))
        assert got[0, 1] == 0.0

    def test_shift_invariance(self, rng):
        row = rng.standard_normal((1, 5))
        a = numerics.softmax_rows(row)
        b = numerics.softmax_rows(row + 123.456)
        assert a == pytest.approx(b, abs=1e-12)


class TestCosine:
    def test_frozen_value(self):
        got = numerics.cosine(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
        assert got == 0.9746318461970762

    def test_matches_direct_formula(self, rng):
        for _ in range(50):
            a = rng.standard_normal(8)
            b = rng.standard_normal(8)
            assert numerics.cosine(a, b) == pytest.approx(
                oracles.cosine_direct(a.tolist(), b.tolist()), abs=1e-12
            )

    @settings(max_examples=50, deadline=None)
    @given(
        scale=st.floats(min_value=1e-3, max_value=1e3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_scale_invariance(self, scale, seed):
        r = np.random.default_rng(seed)
        a = r.standard_normal(6) + 0.1
        b = r.standard_normal(6) + 0.1
        assert numerics.cosine(a * scale, b) == pytest.approx(
            numerics.cosine(a, b), abs=1e-9
        )

    def test_degenerate_norm_returns_zero(self):
        assert numerics.cosine(np.zeros(4), np.ones(4)) == 0.0
        assert numerics.cosine(np.full(4, 1e-300), np.ones(4)) == 0.0

    def test_parallel_and_orthogonal(self):
        v = np.array([3.0, 4.0])
        assert numerics.cosine(v, 2.0 * v) == pytest.approx(1.0, abs=1e-15)
        assert numerics.cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    @pytest.mark.parametrize(("u", "v", "want"), [(1e200, 1.0, 1.0), (1e160, 1e160, 1.0), (1.7e308, -0.5, -1.0),
                                                  (-1e300, 1e-300, 0.0)])
    def test_squared_norm_past_the_double_range(self, u, v, want):
        # the squared norms overflow; the last pair's v is degenerate, compared before any scaling
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert numerics.cosine(np.full(4, u), np.full(4, v)) == want

    def test_power_of_two_scaling_keeps_the_bits(self, rng):
        # magnitudes in [1, 100): 2**k keeps every entry, product and norm normal for k in [-38, 1016]
        for _ in range(5):
            a, b = (rng.uniform(1, 100, size=(2, 7)) * rng.choice([-1.0, 1.0], size=(2, 7)))
            want = numerics.cosine(a, b).hex()
            for k in range(-38, 1017):
                assert numerics.cosine(np.ldexp(a, k), b).hex() == want, k
                assert numerics.cosine(a, np.ldexp(b, k)).hex() == want, k
                assert numerics.cosine(np.ldexp(a, k), np.ldexp(b, 978 - k)).hex() == want, k


class TestMatrixIO:
    def test_roundtrip_is_value_exact(self, tmp_path, rng):
        m = rng.standard_normal((7, 5)) * np.logspace(-12, 12, 5)
        path = tmp_path / "m.txt"
        numerics.write_matrix(m, path)
        assert np.array_equal(numerics.read_matrix(path), m)

    def test_second_write_is_byte_identical(self, tmp_path, rng):
        m = rng.standard_normal((4, 6))
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        numerics.write_matrix(m, p1)
        numerics.write_matrix(numerics.read_matrix(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_shape_enforced(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 3\n1.0 2.0 3.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected 2 data rows"):
            numerics.read_matrix(p)

    def test_wrong_column_count_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 2\n1.0 2.0\n3.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3"):
            numerics.read_matrix(p)

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("two three\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            numerics.read_matrix(p)

    def test_non_finite_value_rejected_on_read(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2\nnan 1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            numerics.read_matrix(p)

    def test_non_finite_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError):
            numerics.write_matrix(np.array([[np.inf]]), tmp_path / "x.txt")

    @pytest.mark.parametrize("shape", [(2, 0), (0, 3), (0, 0)])
    def test_no_rows_or_columns_refused_before_writing(self, tmp_path, shape):
        # read_matrix refuses such a header: "dimensions must be positive"
        with pytest.raises(ValueError) as info:
            numerics.write_matrix(np.zeros(shape), tmp_path / "x.txt")
        assert str(info.value) == f"matrix is {shape[0]}x{shape[1]}: dimensions must be positive"
        assert list(tmp_path.iterdir()) == []


class TestWriteAtomic:
    def test_replaces_content_with_plain_create_mode(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n", encoding="utf-8")
        os.chmod(path, 0o600)
        old_umask = os.umask(0o027)
        try:
            numerics.write_atomic(path, [b"new ", b"text\n"])
        finally:
            os.umask(old_umask)
        assert path.read_text(encoding="utf-8") == "new text\n"
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_writes_through_a_symlink(self, tmp_path):
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "out.txt"
        target.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        numerics.write_atomic(link, [b"new\n"])
        assert link.is_symlink()
        assert target.read_text(encoding="utf-8") == "new\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["link.txt", "out.txt", "real"]

    @pytest.mark.parametrize("exists", [True, False], ids=["replace", "create"])
    def test_failure_leaves_old_file_and_no_temp_file(self, tmp_path, exists):
        path = tmp_path / "out.txt"
        if exists:
            path.write_text("old\n", encoding="utf-8")

        def pieces():
            yield b"partial"
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            numerics.write_atomic(path, pieces())
        assert [p.name for p in tmp_path.iterdir()] == (["out.txt"] if exists else [])
        if exists:
            assert path.read_text(encoding="utf-8") == "old\n"

    def test_pipe_written_in_place(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            numerics.write_atomic(fifo, [b"through ", b"the pipe\n"])
            assert os.read(reader, 100) == b"through the pipe\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["fifo"]

    @pytest.mark.parametrize("form", ["/dev/fd/{}", "/proc/self/fd/{}", "link"])
    def test_open_file_appended_to_not_replaced(self, tmp_path, form):
        log = tmp_path / "log.txt"
        log.write_text("earlier\n", encoding="utf-8")
        fd = os.open(log, os.O_WRONLY | os.O_APPEND)
        try:
            path = form.format(fd)
            if form == "link":
                path = tmp_path / "out.txt"
                path.symlink_to(f"/dev/fd/{fd}")
            inode = log.stat().st_ino
            numerics.write_atomic(path, [b"new ", b"text\n"])
        finally:
            os.close(fd)
        assert log.read_text(encoding="utf-8") == "earlier\nnew text\n"
        assert log.stat().st_ino == inode
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["log.txt"] + ["out.txt"] * (form == "link"))

    def test_directory_refused(self, tmp_path):
        with pytest.raises(IsADirectoryError) as info:
            numerics.write_atomic(tmp_path, [b"x"])
        assert str(info.value) == f"[Errno 21] Is a directory: {str(tmp_path)!r}"
        assert list(tmp_path.iterdir()) == []

    def test_os_error_names_the_output(self, tmp_path):
        path = tmp_path / "absent" / "out.txt"
        with pytest.raises(FileNotFoundError) as info:
            numerics.write_atomic(path, [b"x"])
        assert str(info.value) == f"[Errno 2] No such file or directory: {str(path)!r}"


class TestReadText:
    def test_same_text_as_read_text(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes("a\r\nb\rc\u2028d\n".encode("utf-8"))
        assert numerics.read_text(path) == path.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        ("data", "line"),
        [(b"\xff", 1), (b"ab\ncd\n\xff\n", 3), (b"a\r\nb\r\nc\xe4\n", 3), (b"a\rb\rc\xff", 3)],
    )
    def test_invalid_utf8_names_path_and_line(self, tmp_path, data, line):
        path = tmp_path / "t.txt"
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            numerics.read_text(path)
        reason = "invalid continuation byte" if b"\xe4\n" in data else "invalid start byte"
        assert str(info.value) == f"{path}: line {line}: not valid UTF-8: {reason}"

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_lines_counted_as_the_caller_splits_them(self, tmp_path, char):
        path = tmp_path / "t.txt"
        path.write_bytes(f"a{char}b\r\nc\n".encode() + b"\xff")
        with pytest.raises(ValueError, match=": line 3: not valid UTF-8"):
            numerics.read_text(path)  # at "\n", after CRLF and CR have become "\n"
        with pytest.raises(ValueError, match=": line 4: not valid UTF-8"):
            numerics.read_text(path, splitlines=True)  # as str.splitlines() splits

    def test_matrix_reader_names_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"2 1\n0.5\n\xff\n")
        with pytest.raises(ValueError, match=r"m\.txt: line 3: not valid UTF-8"):
            numerics.read_matrix(path)


class TestRequireFinite:
    def test_passes_through(self):
        m = np.ones((2, 2))
        assert numerics.require_finite(m, "m") is m

    def test_names_the_argument(self):
        with pytest.raises(ValueError, match="hidden"):
            numerics.require_finite(np.array([[np.nan]]), "hidden")
