import dataclasses
import hashlib
import math

import numpy as np
import pytest

import oracles
from wordfuse import fusion, lexicon, numerics
from wordfuse.fusion import FusionConfig, WordAnalysis
from wordfuse.segvote import Segmentation, WordSpan, vote


# SHA-256 of fuse_sequence's mixed bytes, then its sorted omega as int64, on
# paper_shape_inputs(); frozen from the whole-matrix implementation
FUSED_512_SHA256 = "ee6c2a90bdb1fd445b90807d405681575375d21496b6190c68548cba5c122df1"


def paper_shape_inputs():
    """n = 512 seeded hidden states at d_h = 768, a segmentation of 1- to
    4-character words over 12 characters, and a d_w = 200 table missing
    about a fifth of its words."""
    rng = np.random.default_rng(512)
    alphabet = [chr(0x4E00 + i) for i in range(12)]
    words, n = [], 0
    while n < 512:
        length = min(int(rng.integers(1, 5)), 512 - n)
        words.append("".join(rng.choice(alphabet, size=length)))
        n += length
    known = [w for w in sorted(set(words)) if rng.uniform() < 0.8]
    table = lexicon.EmbeddingTable(
        dim=200, vectors={w: rng.standard_normal(200) for w in known}, unk=rng.standard_normal(200)
    )
    h = rng.standard_normal((512, 768))
    return h, vote("".join(words), [words]), table


def random_analysis(rng, n, d_h, start, length):
    span = WordSpan(start, start + length - 1)
    v = rng.standard_normal(d_h)
    scores = np.abs(rng.standard_normal(length)) + 0.05
    key = start + int(np.argmax(scores))
    return span, WordAnalysis(span=span, v=v, scores=scores, key=key)


class TestFusionConfig:
    def test_defaults(self):
        cfg = FusionConfig()
        assert cfg.lam == 0.9 and cfg.mu == 0.5 and cfg.heads == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": -0.1},
            {"lam": 1.1},
            {"mu": -0.1},
            {"mu": 1.5},
            {"heads": 0},
        ],
    )
    def test_validate_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            FusionConfig(**kwargs).validate(8)

    def test_heads_must_divide_hidden_width(self):
        with pytest.raises(ValueError):
            FusionConfig(heads=3).validate(8)

    def test_validate_returns_self(self):
        cfg = FusionConfig()
        assert cfg.validate(8) is cfg

    def test_only_lam_mu_and_heads_are_settable(self):
        assert [f.name for f in dataclasses.fields(FusionConfig)] == ["lam", "mu", "heads"]
        for removed in ("d_w", "d_h", "eps_denom"):
            with pytest.raises(TypeError):
                FusionConfig(**{removed: 1})
        assert FusionConfig().eps_denom == FusionConfig.eps_denom == 1e-6


class TestScoreAndKey:
    def test_scores_are_per_row_cosine(self, rng):
        rows = rng.standard_normal((4, 6))
        v = rng.standard_normal(6)
        got = fusion.analyze_word(rows, WordSpan(0, 3), v).scores
        want = [numerics.cosine(rows[i], v) for i in range(4)]
        assert got.tolist() == want

    @staticmethod
    def key_of(cosines, start=3):
        """The key analyze_word picks for rows with these cosines against the first unit vector."""
        rows = np.array([[c, math.sqrt(1.0 - c * c)] for c in cosines])
        wa = fusion.analyze_word(rows, WordSpan(start, start + len(cosines) - 1), np.array([1.0, 0.0]))
        assert wa.scores == pytest.approx(cosines, abs=1e-15)
        return wa.key - start

    def test_key_is_argmax(self):
        assert self.key_of([0.1, 0.9, 0.3]) == 1

    def test_key_first_max_on_tie(self):
        assert self.key_of([0.5, 0.5, 0.2]) == 0

    def test_analyze_word_key_is_absolute(self, rng):
        h = rng.standard_normal((6, 4))
        span = WordSpan(2, 4)
        wa = fusion.analyze_word(h[2:5], span, rng.standard_normal(4))
        assert len(wa.scores) == len(span)
        assert span.start <= wa.key <= span.end
        assert wa.key == span.start + int(np.argmax(wa.scores))


class TestInjectWord:
    def test_matches_straight_line_oracle(self, rng):
        cfg = FusionConfig()
        for _ in range(30):
            n, d_h = int(rng.integers(2, 9)), int(rng.integers(1, 8))
            start = int(rng.integers(0, n - 1))
            length = int(rng.integers(1, n - start + 1))
            span, wa = random_analysis(rng, n, d_h, start, length)
            rows = rng.standard_normal((length, d_h))
            got = fusion.inject_word(rows, wa, cfg)
            want_rows = oracles.inject_straight_line(
                rows.tolist(), wa.scores.tolist(), wa.v.tolist(), eps=cfg.eps_denom
            )
            np.testing.assert_allclose(got, np.array(want_rows), rtol=0, atol=1e-15)

    def test_span_delta_sums_to_v(self, rng):
        cfg = FusionConfig()
        span, wa = random_analysis(rng, 6, 5, 1, 4)
        rows = rng.standard_normal((4, 5))
        delta = (fusion.inject_word(rows, wa, cfg) - rows).sum(axis=0)
        assert delta == pytest.approx(wa.v.tolist(), abs=1e-9)

    def test_rows_outside_span_untouched(self, rng):
        cfg = FusionConfig()
        span, wa = random_analysis(rng, 7, 4, 2, 3)
        h = rng.standard_normal((7, 4))
        snapshot = h.copy()
        out = fusion.inject_word(h[2:5], wa, cfg)
        assert out.shape == (3, 4)
        assert np.array_equal(h, snapshot)

    def test_input_not_mutated(self, rng):
        cfg = FusionConfig()
        span, wa = random_analysis(rng, 5, 4, 0, 3)
        h = rng.standard_normal((3, 4))
        snapshot = h.copy()
        fusion.inject_word(h, wa, cfg)
        assert np.array_equal(h, snapshot)

    def test_near_zero_total_uses_uniform_shares(self, rng):
        cfg = FusionConfig()
        v = rng.standard_normal(3)
        wa = WordAnalysis(
            span=WordSpan(0, 1), v=v, scores=np.array([1e-9, -1e-9]), key=0
        )
        h = np.zeros((2, 3))
        out = fusion.inject_word(h, wa, cfg)
        assert out[0].tolist() == pytest.approx((0.5 * v).tolist(), abs=1e-15)
        assert out[1].tolist() == pytest.approx((0.5 * v).tolist(), abs=1e-15)


class TestMixWord:
    def test_matches_straight_line_oracle(self, rng):
        for _ in range(30):
            n, d_h = int(rng.integers(2, 9)), int(rng.integers(1, 8))
            start = int(rng.integers(0, n - 1))
            length = int(rng.integers(1, n - start + 1))
            key_rel = int(rng.integers(0, length))
            lam = float(rng.uniform(0.0, 1.0))
            rows = rng.standard_normal((length, d_h))
            span = WordSpan(start, start + length - 1)
            got = fusion.mix_word(rows, span, start + key_rel, lam)
            want_rows = oracles.mix_straight_line(rows.tolist(), key_rel, lam)
            np.testing.assert_allclose(got, np.array(want_rows), rtol=0, atol=1e-15)

    def test_column_sums_preserved(self, rng):
        h = rng.standard_normal((5, 6))
        span = WordSpan(0, 4)
        out = fusion.mix_word(h, span, 2, 0.7)
        assert out.sum(axis=0) == pytest.approx(h.sum(axis=0).tolist(), abs=1e-9)

    def test_lambda_one_is_exact_identity(self, rng):
        h = rng.standard_normal((4, 3))
        out = fusion.mix_word(h, WordSpan(0, 3), 1, 1.0)
        assert np.array_equal(out, h)

    def test_single_character_span_unchanged(self, rng):
        h = rng.standard_normal((1, 4))
        out = fusion.mix_word(h, WordSpan(1, 1), 1, 0.3)
        assert np.array_equal(out, h) and out is not h

    def test_translation_equivariance(self, rng):
        h = rng.standard_normal((4, 4))
        shift = 3.25
        span = WordSpan(1, 4)
        a = fusion.mix_word(h + shift, span, 2, 0.6)
        b = fusion.mix_word(h, span, 2, 0.6) + shift
        assert a == pytest.approx(b, abs=1e-9)

    def test_retention_decays_as_lambda_drops(self, rng):
        h = rng.standard_normal((4, 5))
        span = WordSpan(0, 3)
        dist = [
            float(np.linalg.norm(fusion.mix_word(h, span, 1, lam)[1] - h[1]))
            for lam in (0.1, 0.4, 0.7, 1.0)
        ]
        assert dist == sorted(dist, reverse=True)
        assert dist[-1] == 0.0

    def test_keep_share_weights(self):
        # a one-hot key row makes the mixing weights directly readable
        h = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        out = fusion.mix_word(h, WordSpan(0, 2), 0, 0.9)
        keep = math.exp(0.9 - 1.0)
        share = (1.0 - keep) / 2.0
        assert out[0, 0] == keep
        assert out[1, 0] == share and out[2, 0] == share


class TestFuseSequence:
    def setup_method(self):
        entries = {
            "ab": np.array([1.0, -0.5, 0.25]),
            "c": np.array([-0.25, 0.75, 0.5]),
            "\u0107": np.array([0.5, 0.125, -1.0]),
        }
        self.table = lexicon.EmbeddingTable(
            dim=3, vectors=entries, unk=np.zeros(3), duplicates=0
        )
        rng = np.random.default_rng(7)
        self.bundle = {
            "W1": rng.standard_normal((3, 4)),
            "b1": rng.standard_normal((1, 4)),
            "W2": rng.standard_normal((4, 4)),
            "b2": rng.standard_normal((1, 4)),
        }
        self.seg = Segmentation("abc", (0, 2, 3))
        self.cfg = FusionConfig()

    def vectors(self, seg):
        return lexicon.project_words(self.table, seg.words, self.bundle)

    def per_word_reference(self, h, seg):
        want = h.copy()
        omega = set()
        for span in seg.spans:
            word = seg.sentence[span.start : span.end + 1]
            v = lexicon.project_rows(lexicon.lookup(self.table, word)[None, :], self.bundle)[0]
            rows = want[span.start : span.end + 1]
            wa = fusion.analyze_word(rows, span, v)
            omega.add(wa.key)
            rows = fusion.inject_word(rows, wa, self.cfg)
            want[span.start : span.end + 1] = fusion.mix_word(rows, span, wa.key, self.cfg.lam)
        return want, omega

    def test_composition_matches_manual_steps(self, rng):
        h = rng.standard_normal((3, 4))
        got, omega = fusion.fuse_sequence(h, self.seg, self.vectors(self.seg), self.cfg)
        want, expect_omega = self.per_word_reference(h, self.seg)
        assert np.array_equal(got, want)
        assert omega == expect_omega

    @pytest.mark.parametrize(
        "words",
        [
            ["ab", "c", "ab", "ab", "c"],  # repeated words
            ["\u00e9", "c", "e\u0301", "ab"],  # NFC-equivalent spellings of one OOV word
            ["c\u0301", "ab", "c", "\u0107"],  # c + combining acute and precomposed c-acute
            ["zz", "q", "zz"],  # repeated out-of-vocabulary words
        ],
    )
    def test_batched_projection_matches_per_word(self, rng, words):
        sentence = "".join(words)
        seg = vote(sentence, [words])
        h = rng.standard_normal((len(sentence), 4))
        got, omega = fusion.fuse_sequence(h, seg, self.vectors(seg), self.cfg)
        want, expect_omega = self.per_word_reference(h, seg)
        assert got.tobytes() == want.tobytes()
        assert omega == expect_omega

    def test_omega_one_key_per_word(self, rng):
        h = rng.standard_normal((3, 4))
        _, omega = fusion.fuse_sequence(h, self.seg, self.vectors(self.seg), self.cfg)
        assert len(omega) == len(self.seg.spans)
        for key, span in zip(sorted(omega), self.seg.spans):
            assert span.start <= key <= span.end

    def test_paper_shape_bytes_frozen(self):
        h, seg, table = paper_shape_inputs()
        assert len(seg.spans) == 193 and any(w not in table for w in seg.words)
        bundle = lexicon.init_bundle(2022, 200, 768)
        mixed, omega = fusion.fuse_sequence(h, seg, lexicon.project_words(table, seg.words, bundle), FusionConfig())
        digest = hashlib.sha256(mixed.tobytes() + np.array(sorted(omega), dtype=np.int64).tobytes())
        assert digest.hexdigest() == FUSED_512_SHA256

    def test_input_matrix_not_mutated(self, rng):
        h = rng.standard_normal((3, 4))
        snapshot = h.copy()
        fusion.fuse_sequence(h, self.seg, self.vectors(self.seg), self.cfg)
        assert np.array_equal(h, snapshot)
