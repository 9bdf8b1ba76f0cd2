import math
import os
import stat

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from wordfuse import numerics

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

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            numerics.init_matrix(numerics.SplitMix64(1), 0, 4)

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
MATMUL_EDGE_VALUES = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e-150, -1e-150, 1e150, -1e150, 1.0, -3.5]
)


def bits(m) -> np.ndarray:
    """The IEEE bit patterns, so -0.0 and +0.0 compare unequal."""
    return np.asarray(m, dtype=np.float64).view(np.uint64)


def edge_operand(rng, shape) -> np.ndarray:
    values = rng.standard_normal(shape) * 10.0 ** rng.choice([-150, 0, 150], size=shape)
    pick = rng.uniform(size=shape) < 0.5
    values[pick] = rng.choice(MATMUL_EDGE_VALUES, size=int(pick.sum()))
    return values


class TestMatmul:
    def test_bitwise_equal_to_triple_loop(self, rng):
        for _ in range(25):
            n, k, m = rng.integers(1, 9, size=3)
            a = rng.standard_normal((n, k))
            b = rng.standard_normal((k, m))
            got = numerics.matmul(a, b)
            want = np.array(oracles.matmul_triple_loop(a.tolist(), b.tolist()))
            assert np.array_equal(bits(got), bits(want)), "accumulation order must match the naive loop"

    def test_bitwise_equal_on_zeros_subnormals_and_extremes(self, rng):
        for _ in range(200):
            n, k, m = rng.integers(1, 9, size=3)
            a = edge_operand(rng, (n, k))
            b = edge_operand(rng, (k, m))
            got = numerics.matmul(a, b)
            want = np.array(oracles.matmul_triple_loop(a.tolist(), b.tolist()))
            assert np.isfinite(want).all()
            assert np.array_equal(bits(got), bits(want))

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
        want = np.array(oracles.matmul_triple_loop(a.tolist(), b.tolist()))
        assert np.array_equal(bits(numerics.matmul(a, b)), bits(want))

    def test_identity(self, rng):
        a = rng.standard_normal((5, 5))
        assert np.array_equal(numerics.matmul(a, np.eye(5)), a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            numerics.matmul(np.ones((2, 3)), np.ones((4, 2)))


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

    def test_fully_masked_row_is_an_error(self):
        bad = np.array([[1.0, 2.0], [-np.inf, -np.inf]])
        with pytest.raises(ValueError, match="fully masked row 1"):
            numerics.softmax_rows(bad)

    def test_rejects_nan_and_positive_inf(self):
        with pytest.raises(ValueError):
            numerics.softmax_rows(np.array([[np.nan, 0.0]]))
        with pytest.raises(ValueError):
            numerics.softmax_rows(np.array([[np.inf, 0.0]]))

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


class TestWriteAtomic:
    def test_replaces_content_with_plain_create_mode(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n", encoding="utf-8")
        os.chmod(path, 0o600)
        old_umask = os.umask(0o027)
        try:
            numerics.write_atomic(path, ["new ", "text\n"])
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
        numerics.write_atomic(link, ["new\n"])
        assert link.is_symlink()
        assert target.read_text(encoding="utf-8") == "new\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["link.txt", "out.txt", "real"]

    @pytest.mark.parametrize("exists", [True, False], ids=["replace", "create"])
    def test_failure_leaves_old_file_and_no_temp_file(self, tmp_path, exists):
        path = tmp_path / "out.txt"
        if exists:
            path.write_text("old\n", encoding="utf-8")

        def pieces():
            yield "partial"
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
            numerics.write_atomic(fifo, ["through ", "the pipe\n"])
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
            numerics.write_atomic(path, ["new ", "text\n"])
        finally:
            os.close(fd)
        assert log.read_text(encoding="utf-8") == "earlier\nnew text\n"
        assert log.stat().st_ino == inode
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["log.txt"] + ["out.txt"] * (form == "link"))

    def test_directory_refused(self, tmp_path):
        with pytest.raises(IsADirectoryError) as info:
            numerics.write_atomic(tmp_path, ["x"])
        assert str(info.value) == f"[Errno 21] Is a directory: {str(tmp_path)!r}"
        assert list(tmp_path.iterdir()) == []

    def test_os_error_names_the_output(self, tmp_path):
        path = tmp_path / "absent" / "out.txt"
        with pytest.raises(FileNotFoundError) as info:
            numerics.write_atomic(path, ["x"])
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
