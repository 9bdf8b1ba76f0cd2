import re
import threading
import warnings
from contextlib import nullcontext

import numpy as np
import pytest

import oracles
from wordfuse import attention, fusion, lexicon, numerics
from wordfuse.attention import MaskSpec
from wordfuse.check import naive_attend
from wordfuse.fusion import FusionConfig
from wordfuse.segvote import Segmentation


def random_weight_set(rng, d_h):
    return (
        rng.standard_normal((d_h, d_h)),
        rng.standard_normal((d_h, d_h)),
        rng.standard_normal((d_h, d_h)),
    )


@pytest.fixture
def stage_inputs_asserted(monkeypatch) -> list[str]:
    """Wrap ``softmax_rows`` and ``cosine`` where the stages call them, asserting the inputs each assumes.

    The stages rely on ``pipeline_forward``'s checks instead of checking
    these inputs again, so a wrong input is an AssertionError here, not a
    wrong result.  The returned list gets one name per call.
    """
    calls: list[str] = []
    real_softmax, real_cosine = attention.softmax_rows, fusion.cosine

    def softmax_rows(m):
        assert isinstance(m, np.ndarray) and m.dtype == np.float64 and m.ndim == 2, m
        assert not np.isnan(m).any() and not np.isposinf(m).any(), "softmax input holds NaN or +inf"
        assert np.isfinite(m).any(axis=1).all(), "softmax input has a row without a finite entry"
        calls.append("softmax_rows")
        return real_softmax(m)

    def cosine(u, v):
        for x in (u, v):
            assert isinstance(x, np.ndarray) and x.dtype == np.float64 and x.ndim == 1, x
        assert u.shape == v.shape, (u.shape, v.shape)
        calls.append("cosine")
        return real_cosine(u, v)

    monkeypatch.setattr(attention, "softmax_rows", softmax_rows)
    monkeypatch.setattr(fusion, "cosine", cosine)
    return calls


class TestMaskSpec:
    def test_mask_matrix_pattern(self):
        mask = np.array(oracles.mask_matrix(4, {0, 2}))
        for j in range(4):
            col = mask[:, j]
            if j in (0, 2):
                assert np.all(col == 0.0)
            else:
                assert np.all(np.isneginf(col))


class TestAttend:
    def test_matches_naive_oracle(self, rng):
        for _ in range(20):
            n, d_h = int(rng.integers(1, 10)), int(rng.integers(1, 9))
            h = rng.standard_normal((n, d_h))
            wq, wk, wv = random_weight_set(rng, d_h)
            got = attention.attend(h, wq, wk, wv)
            want = np.array(naive_attend(h.tolist(), wq.tolist(), wk.tolist(), wv.tolist()))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_masked_matches_naive_oracle(self, rng):
        for _ in range(20):
            n, d_h = int(rng.integers(2, 10)), int(rng.integers(1, 9))
            h = rng.standard_normal((n, d_h))
            wq, wk, wv = random_weight_set(rng, d_h)
            omega = set(
                rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()
            )
            got = attention.attend(h, wq, wk, wv, mask=MaskSpec(n, frozenset(omega)))
            want = np.array(
                naive_attend(
                    h.tolist(), wq.tolist(), wk.tolist(), wv.tolist(), omega=omega
                )
            )
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_single_position_output_is_value_projection(self, rng):
        d_h = 5
        h = rng.standard_normal((1, d_h))
        wq, wk, wv = random_weight_set(rng, d_h)
        got = attention.attend(h, wq, wk, wv)
        assert np.array_equal(got, numerics.matmul(h, wv))
        masked = attention.attend(h, wq, wk, wv, mask=MaskSpec(1, frozenset({0})))
        assert np.array_equal(masked, numerics.matmul(h, wv))

    def test_vacuous_mask_bitwise_equals_plain(self, rng):
        for heads in (1, 2, 4):
            h = rng.standard_normal((6, 8))
            wq, wk, wv = random_weight_set(rng, 8)
            plain = attention.attend(h, wq, wk, wv, heads=heads)
            vacuous = attention.attend(
                h, wq, wk, wv, heads=heads, mask=MaskSpec(6, frozenset(range(6)))
            )
            assert np.array_equal(plain, vacuous)

    def test_probabilities_zero_on_masked_columns(self, rng):
        # with H = I and Wv = I the attention output IS the probability matrix
        n = 6
        h = np.eye(n)
        wq, wk = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        omega = frozenset({1, 4})
        probs = attention.attend(h, wq, wk, np.eye(n), mask=MaskSpec(n, omega))
        for j in range(n):
            if j in omega:
                assert np.all(probs[:, j] > 0.0)
            else:
                assert np.all(probs[:, j] == 0.0)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(n), rtol=0, atol=1e-12)

    def test_plain_rows_are_stochastic(self, rng):
        n = 7
        probs = attention.attend(
            np.eye(n), rng.standard_normal((n, n)), rng.standard_normal((n, n)), np.eye(n)
        )
        assert np.all(probs > 0.0)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(n), rtol=0, atol=1e-12)

    def test_heads_partition_columns(self, rng):
        # h constant across positions: every attention row is uniform, so the
        # output equals h @ wv for any head count; heads only slice columns
        d_h = 8
        h = np.tile(rng.standard_normal(d_h), (4, 1))
        wq, wk, wv = random_weight_set(rng, d_h)
        for heads in (1, 2, 4, 8):
            got = attention.attend(h, wq, wk, wv, heads=heads)
            np.testing.assert_allclose(got, numerics.matmul(h, wv), rtol=0, atol=1e-12)

    def test_scale_uses_full_width(self, rng):
        # doubling with zero wq makes logits 0 regardless; instead compare a
        # 2-head run against a manual column-sliced computation
        n, d_h, heads = 5, 6, 2
        h = rng.standard_normal((n, d_h))
        wq, wk, wv = random_weight_set(rng, d_h)
        got = attention.attend(h, wq, wk, wv, heads=heads)
        q = numerics.matmul(h, wq)
        k = numerics.matmul(h, wk)
        v = numerics.matmul(h, wv)
        width = d_h // heads
        parts = []
        for i in range(heads):
            cols = slice(i * width, (i + 1) * width)
            logits = numerics.matmul(q[:, cols], k[:, cols].T) / np.sqrt(d_h)
            parts.append(numerics.matmul(numerics.softmax_rows(logits), v[:, cols]))
        np.testing.assert_allclose(got, np.hstack(parts), rtol=0, atol=1e-12)


def attend_full_mask(h, wq, wk, wv, heads, spec):
    """The uncompacted masked branch: n x n scores plus the oracle's mask matrix."""
    n, d_h = h.shape
    q, k, v = numerics.matmul(h, wq), numerics.matmul(h, wk), numerics.matmul(h, wv)
    width = d_h // heads
    probs, outs = [], []
    for i in range(heads):
        cols = slice(i * width, (i + 1) * width)
        scores = numerics.matmul(q[:, cols], k[:, cols].T) / np.sqrt(d_h)
        p = numerics.softmax_rows(scores + np.array(oracles.mask_matrix(spec.n, spec.omega)))
        probs.append(p)
        outs.append(numerics.matmul(p, v[:, cols]))
    return np.concatenate(outs, axis=1), np.stack(probs)


class TestMaskedCompaction:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_full_mask_path_bitwise(self, rng, heads):
        for case in range(30):
            n = int(rng.integers(1, 10))
            d_h = heads * int(rng.integers(1, 4))
            h = rng.standard_normal((n, d_h)) * 10.0 ** rng.integers(-2, 3)
            if case % 5 == 0:
                h[int(rng.integers(0, n))] = 0.0
            wq, wk, wv = random_weight_set(rng, d_h)
            sizes = {1, n, int(rng.integers(1, n + 1))}
            for size in sorted(sizes):
                spec = MaskSpec(n, frozenset(rng.choice(n, size=size, replace=False).tolist()))
                want_out, want_probs = attend_full_mask(h, wq, wk, wv, heads, spec)
                got_out = attention.attend(h, wq, wk, wv, heads, mask=spec)
                got_probs = attention.masked_attention_weights(h, wq, wk, heads, spec)
                assert got_out.tobytes() == want_out.tobytes()
                assert got_probs.tobytes() == want_probs.tobytes()

    def test_overflow_only_outside_omega_is_ignored(self):
        # row 1's key and value overflow to inf; row 1 is outside omega, so
        # it carries zero weight and is no longer computed at all
        h = np.array([[1.0, 0.5], [1e200, 1e200], [0.5, -1.0]])
        wq, wk, wv = np.eye(2) * 1e-200, np.eye(2) * 1e200, np.eye(2) * 1e200
        spec = MaskSpec(3, frozenset({0, 2}))
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(numerics.matmul(h, wk)[1]).any()
        out = attention.attend(h, wq, wk, wv, mask=spec)
        assert np.isfinite(out).all()


class TestFuseHeadsOutput:
    def test_mu_one_returns_first_branch(self, rng):
        h1, h2 = rng.standard_normal((4, 5)), rng.standard_normal((4, 5))
        assert np.array_equal(attention.fuse_heads_output(h1, h2, 1.0), h1)

    def test_mu_zero_returns_second_branch(self, rng):
        h1, h2 = rng.standard_normal((4, 5)), rng.standard_normal((4, 5))
        assert np.array_equal(attention.fuse_heads_output(h1, h2, 0.0), h2)

    def test_mu_half_is_elementwise_mean(self, rng):
        h1, h2 = rng.standard_normal((4, 5)), rng.standard_normal((4, 5))
        got = attention.fuse_heads_output(h1, h2, 0.5)
        np.testing.assert_allclose(got, (h1 + h2) / 2.0, rtol=0, atol=1e-15)

    def test_linear_in_mu(self, rng):
        h1, h2 = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        for mu in (0.25, 0.6):
            got = attention.fuse_heads_output(h1, h2, mu)
            np.testing.assert_allclose(got, mu * h1 + (1 - mu) * h2, rtol=0, atol=0)


class TestPipelineForward:
    def make_setup(self, rng, n=5, d_w=3, d_h=4):
        sentence = "abcde"[:n]
        seg = Segmentation(sentence, (0, 2, n))
        entries = {
            sentence[0:2]: rng.standard_normal(d_w),
            sentence[2:n]: rng.standard_normal(d_w),
        }
        table = lexicon.EmbeddingTable(
            dim=d_w, vectors=entries, unk=np.zeros(d_w), duplicates=0
        )
        bundle = lexicon.init_bundle(17, d_w, d_h)
        h = rng.standard_normal((n, d_h))
        return h, seg, table, bundle

    def test_composition_matches_manual_steps(self, rng):
        from wordfuse import fusion

        h, seg, table, bundle = self.make_setup(rng)
        cfg = FusionConfig()
        result = attention.pipeline_forward(h, seg, table, bundle, cfg)

        mixed, omega = fusion.fuse_sequence(h, seg, lexicon.project_words(table, seg.words, bundle), cfg)
        mask = MaskSpec(h.shape[0], frozenset(omega))
        h1 = attention.attend(mixed, bundle["Wq1"], bundle["Wk1"], bundle["Wv1"], heads=cfg.heads)
        h2 = attention.attend(mixed, bundle["Wq2"], bundle["Wk2"], bundle["Wv2"], heads=cfg.heads, mask=mask)
        fused = attention.fuse_heads_output(h1, h2, cfg.mu)

        assert np.array_equal(result.mixed, mixed)
        assert result.omega == tuple(sorted(omega))
        assert np.array_equal(result.h1, h1)
        assert np.array_equal(result.h2, h2)
        assert np.array_equal(result.fused, fused)

    def test_matches_end_to_end_oracle(self, rng):
        h, seg, table, bundle = self.make_setup(rng)
        cfg = FusionConfig()
        result = attention.pipeline_forward(h, seg, table, bundle, cfg)

        oracle_bundle = {k: [list(r) for r in v] for k, v in bundle.items()}
        oracle_bundle["H"] = [list(r) for r in h]
        embeddings = {w: table.vectors[w].tolist() for w in table.vectors}
        fused, omega, mixed, h1, h2 = oracles.pipeline_naive(
            seg.sentence,
            [(s.start, s.end) for s in seg.spans],
            embeddings,
            [0.0] * 3,
            oracle_bundle,
            cfg.lam,
            cfg.mu,
        )
        np.testing.assert_allclose(result.fused, np.array(fused), rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.mixed, np.array(mixed), rtol=0, atol=1e-12)
        assert list(result.omega) == omega

    def test_result_shapes_and_types(self, rng):
        h, seg, table, bundle = self.make_setup(rng)
        result = attention.pipeline_forward(h, seg, table, bundle, FusionConfig())
        assert result.fused.shape == h.shape
        assert result.h1.shape == h.shape and result.h2.shape == h.shape
        assert isinstance(result.omega, tuple)
        assert list(result.omega) == sorted(result.omega)

    def test_input_not_mutated(self, rng):
        h, seg, table, bundle = self.make_setup(rng)
        snapshot = h.copy()
        attention.pipeline_forward(h, seg, table, bundle, FusionConfig())
        assert np.array_equal(h, snapshot)

    @pytest.mark.parametrize(
        ("stage", "h_value", "tensors"),
        [
            ("word projection", 1.0, {"W1": np.tile([[1e300], [-1e300], [0.0]], (1, 4))}),
            ("word injection and mixing", 1e308, {}),
            ("plain attention scores", 1e200, {}),
            ("plain attention output", 10.0, {"Wv1": np.full((4, 4), 1e308)}),
            ("masked attention scores", 1.0, {"Wq2": np.eye(4) * 1e200, "Wk2": np.eye(4) * 1e200}),
            ("masked attention output", 10.0, {"Wv2": np.full((4, 4), 1e308)}),
        ],
    )
    def test_overflow_names_first_stage_without_warnings(self, rng, stage_inputs_asserted, stage, h_value, tensors):
        h, seg, table, bundle = self.make_setup(rng)
        h = np.full_like(h, h_value)
        if "W1" in tensors:
            # x W1 steps to +inf, then adds -inf: NaN
            table.vectors = {word: np.array([1e10, 1e10, 0.0]) for word in table.vectors}
        bundle = dict(bundle, **tensors)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would escape as an exception
            with pytest.raises(ValueError, match=f"^overflow in {stage}: "):
                attention.pipeline_forward(h, seg, table, bundle, FusionConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_hidden_matrix_is_named(self, rng, bad):
        # not an overflow in the first stage, whose input it would be
        h, seg, table, bundle = self.make_setup(rng)
        h[3, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^hidden matrix contains non-finite entries$"):
                attention.pipeline_forward(h, seg, table, bundle, FusionConfig())

    def test_complex_hidden_matrix_is_refused(self, rng, no_stage):
        h, seg, table, bundle = self.make_setup(rng, d_h=8)
        with pytest.raises(ValueError, match="^hidden matrix must be real, got complex entries$"):
            attention.pipeline_forward(h + 1j, seg, table, bundle, FusionConfig())

    @pytest.mark.parametrize("name", ["ab", "<unk>"])
    def test_non_finite_table_row_is_named_not_blamed_on_the_projection(self, rng, name):
        h, seg, table, bundle = self.make_setup(rng, d_h=8)
        if name == "<unk>":
            del table.vectors["cde"]
            table.unk = np.array([0.0, np.nan, 0.0])
        else:
            table.vectors["ab"][1] = np.nan
        with pytest.raises(ValueError, match=f"^embedding of '{name}' contains non-finite entries$"):
            attention.pipeline_forward(h, seg, table, bundle, FusionConfig())

    @pytest.mark.parametrize("row, got", [(np.zeros(2), "float64 array of shape (2,)"), ([0.0, 1.0, 2.0], "list")])
    def test_table_row_that_is_not_dim_numbers_is_named(self, rng, row, got):
        h, seg, table, bundle = self.make_setup(rng, d_h=8)
        table.vectors["cde"] = row
        with pytest.raises(ValueError, match=rf"^embedding of 'cde': expected 3 real numbers, got {re.escape(got)}$"):
            attention.pipeline_forward(h, seg, table, bundle, FusionConfig())

    def test_stages_get_the_inputs_they_assume(self, rng, stage_inputs_asserted):
        # random sentences, some with hidden states large enough that the attention scores overflow
        for _ in range(40):
            n, heads = int(rng.integers(1, 65)), int(rng.choice([1, 2, 4]))
            d_w, d_h = int(rng.integers(1, 9)), heads * int(rng.integers(1, 9))
            sentence = "".join(chr(0x4E00 + int(c)) for c in rng.integers(0, 40, size=n))
            cuts = np.flatnonzero(rng.uniform(size=n - 1) < 0.5) + 1
            bounds = [0, *cuts.tolist(), n]
            seg = Segmentation(sentence, tuple(bounds))
            table = lexicon.EmbeddingTable(
                dim=d_w, vectors={w: rng.standard_normal(d_w) for w in seg.words}, unk=np.zeros(d_w), duplicates=0
            )
            bundle = lexicon.init_bundle(int(rng.integers(2**32)), d_w, d_h)
            h = rng.standard_normal((n, d_h)) * rng.choice([1e-8, 1.0, 1e200])
            cfg = FusionConfig(lam=float(rng.uniform()), mu=float(rng.uniform()), heads=heads)
            stage_inputs_asserted.clear()
            try:
                attention.pipeline_forward(h, seg, table, bundle, cfg)
            except ValueError as err:
                assert str(err).startswith("overflow in "), err
                continue
            assert sorted(stage_inputs_asserted) == ["cosine"] * n + ["softmax_rows"] * (2 * heads)

    @pytest.mark.parametrize("library", [True, False], ids=["library", "no library"])
    def test_masked_overflow_alone_is_named_without_warnings(self, rng, request, library):
        # NumPy's loop warns where the C kernel does not: the masked branch's own thread must silence it
        if not library:
            request.getfixturevalue("no_library")
        h, seg, table, bundle = self.make_setup(rng)
        bundle = dict(bundle, Wq2=np.eye(4) * 1e200, Wk2=np.eye(4) * 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^overflow in masked attention scores: "):
                attention.pipeline_forward(h, seg, table, bundle, FusionConfig())

    @pytest.mark.parametrize("library", [True, False], ids=["library", "no library"])
    @pytest.mark.parametrize("stage", ["word projection", "word injection and mixing",
                                       "plain attention scores", "masked attention scores"])
    def test_each_stage_silences_its_own_overflow_on_a_fresh_thread(self, rng, request, stage, library):
        # a new thread starts from NumPy's default error state, which warns on overflow
        if not library:
            request.getfixturevalue("no_library")
        h, seg, table, bundle = self.make_setup(rng)
        if stage == "word projection":
            # x W1 steps to +inf, then adds -inf: NaN
            table.vectors = {word: np.array([1e10, 1e10, 0.0]) for word in table.vectors}
            bundle = dict(bundle, W1=np.tile([[1e300], [-1e300], [0.0]], (1, 4)))
            fn, args = lexicon.project_words, (table, seg.words, bundle)
        elif stage == "word injection and mixing":
            vectors = lexicon.project_words(table, seg.words, bundle)
            fn, args = fusion.fuse_sequence, (np.full_like(h, 1e308), seg, vectors, FusionConfig())
        else:
            big = np.eye(4) * 1e200
            mask = MaskSpec(5, frozenset({0, 3})) if stage.startswith("masked") else None
            fn, args = attention.attend, (h, big, big, np.eye(4), 1, mask)
        raised = []

        def run():
            try:
                fn(*args)
            except Exception as err:  # noqa: BLE001 - handed back to the test's thread
                raised.append(err)

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would be the exception raised
            thread = threading.Thread(target=run)
            thread.start()
            thread.join()
        assert len(raised) == 1 and type(raised[0]) is ValueError, raised
        assert str(raised[0]).startswith(f"overflow in {stage}: ")

    @pytest.mark.parametrize("fails", [None, "plain", "masked"])
    def test_no_thread_is_left_running(self, rng, fails):
        h, seg, table, bundle = self.make_setup(rng)
        if fails:
            bundle = dict(bundle, **{f"Wv{1 + (fails == 'masked')}": np.full((4, 4), 1e308)})
            h = np.full_like(h, 10.0)
        before = threading.enumerate()
        with pytest.raises(ValueError, match=f"^overflow in {fails} attention output: ") if fails else nullcontext():
            attention.pipeline_forward(h, seg, table, bundle, FusionConfig())
        assert threading.enumerate() == before

    def test_masked_branch_runs_off_the_main_thread(self, rng, monkeypatch):
        # a wrapper such as a tracer installs is called where pipeline_forward looks attend up
        calls, real = [], attention.attend

        def wrapped(*args, **kwargs):
            calls.append((kwargs.get("mask", args[5] if len(args) > 5 else None) is None, threading.current_thread()))
            return real(*args, **kwargs)

        monkeypatch.setattr(attention, "attend", wrapped)
        h, seg, table, bundle = self.make_setup(rng)
        attention.pipeline_forward(h, seg, table, bundle, FusionConfig())
        threads = dict(calls)
        assert len(calls) == len(threads) == 2
        assert threads[True] is threading.main_thread() and threads[False] is not threading.main_thread()

    def test_bytes_equal_the_branches_in_turn_without_the_library(self, rng, no_library):
        h, seg, table, bundle = self.make_setup(rng, d_h=8)
        cfg = FusionConfig(lam=0.3, mu=0.7, heads=2)
        got = attention.pipeline_forward(h, seg, table, bundle, cfg)
        mask = MaskSpec(h.shape[0], frozenset(got.omega))
        h1 = attention.attend(got.mixed, bundle["Wq1"], bundle["Wk1"], bundle["Wv1"], cfg.heads)
        h2 = attention.attend(got.mixed, bundle["Wq2"], bundle["Wk2"], bundle["Wv2"], cfg.heads, mask)
        assert got.h1.tobytes() == h1.tobytes() and got.h2.tobytes() == h2.tobytes()
        assert got.fused.tobytes() == attention.fuse_heads_output(h1, h2, cfg.mu).tobytes()

    def test_missing_tensor_is_a_value_error(self, rng):
        h, seg, table, bundle = self.make_setup(rng)
        del bundle["Wk2"]
        with pytest.raises(ValueError, match="^weight bundle: Wk2 is missing$"):
            attention.pipeline_forward(h, seg, table, bundle, FusionConfig())

    @pytest.fixture()
    def no_stage(self, monkeypatch):
        def no_stage(*args):
            raise AssertionError("fuse_sequence ran on inputs pipeline_forward should refuse")

        monkeypatch.setattr(attention, "fuse_sequence", no_stage)

    def test_indivisible_heads_fail_before_any_stage(self, rng, no_stage):
        h, seg, table, bundle = self.make_setup(rng, d_h=8)
        with pytest.raises(ValueError, match="^d_h=8 is not divisible by heads=3$"):
            attention.pipeline_forward(h, seg, table, bundle, FusionConfig(heads=3))

    def test_empty_hidden_fails_before_any_stage(self, rng, no_stage):
        _, seg, table, bundle = self.make_setup(rng)
        with pytest.raises(ValueError, match="^hidden matrix has no rows$"):
            attention.pipeline_forward(np.zeros((0, 4)), seg, table, bundle, FusionConfig())

    def test_row_count_mismatch_fails_before_any_stage(self, rng, no_stage):
        h, seg, table, bundle = self.make_setup(rng)
        with pytest.raises(ValueError, match="^hidden matrix has 6 rows, sentence has 5 characters$"):
            attention.pipeline_forward(np.vstack([h, h[:1]]), seg, table, bundle, FusionConfig())
