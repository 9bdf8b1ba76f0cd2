"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Every test prints a single PASS line (via the `announce` fixture) so the
gate's verdict is readable straight from the pytest log.  Tolerances here
are contractual; do not loosen them to make a change pass.
"""

import itertools
import json
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest

import oracles
from wordfuse import attention, fusion, numerics, segvote
from wordfuse.attention import MaskSpec
from wordfuse.check import naive_attend
from wordfuse.fusion import FusionConfig, WordAnalysis
from wordfuse.segvote import WordSpan


@pytest.fixture()
def announce(capsys):
    def _announce(message):
        with capsys.disabled():
            print(f"\nACCEPTANCE PASS: {message}", end="  ")

    return _announce


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "wordfuse.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        encoding="utf-8",
    )


def compositions(sentence):
    n = len(sentence)
    out = []
    for cuts in range(2 ** (n - 1)):
        words, start = [], 0
        for i in range(n - 1):
            if cuts >> i & 1:
                words.append(sentence[start : i + 1])
                start = i + 1
        words.append(sentence[start:])
        out.append(words)
    return out


def test_vote_reproduces_three_tokenizer_merge(golden, announce):
    start = time.perf_counter()
    res = run_cli("vote", "--input", golden / "vote_record.jsonl")
    elapsed = time.perf_counter() - start
    assert res.returncode == 0, res.stderr
    record = json.loads(res.stdout.splitlines()[0])
    assert record["words"] == ["重庆", "人和中学"]
    assert record["spans"] == [[0, 1], [2, 5]]
    assert elapsed < 1.0, f"vote took {elapsed:.3f}s, budget is 1s"
    announce(f"three-tokenizer merge reproduced in {elapsed:.3f}s (< 1s)")


def test_vote_agrees_with_brute_force_everywhere(announce):
    start = time.perf_counter()
    checked = 0
    for n in range(1, 6):
        for bits in range(2**n):
            sentence = "".join("ab"[bits >> i & 1] for i in range(n))
            opts = compositions(sentence)
            for triple in itertools.product(opts, repeat=3):
                got = segvote.vote(sentence, triple).words
                want = oracles.vote_brute_force(sentence, list(triple))
                assert got == want, f"divergence on {sentence!r} {triple}"
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"sweep took {elapsed:.1f}s, budget is 30s"
    announce(
        f"voting matches brute force on all {checked} tokenization triples "
        f"(length <= 5) in {elapsed:.1f}s (< 30s)"
    )


def test_injection_conserves_word_vector(announce):
    rng = np.random.default_rng(4257)
    cfg = FusionConfig()
    cases = 0
    while cases < 1000:
        d_h = int(rng.integers(1, 33))
        length = int(rng.integers(1, 7))
        n = length + int(rng.integers(0, 4))
        start = int(rng.integers(0, n - length + 1))
        span = WordSpan(start, start + length - 1)
        scores = rng.uniform(-1.0, 1.0, size=length)
        if abs(float(scores.sum())) <= cfg.eps_denom:
            continue
        v = rng.standard_normal(d_h)
        wa = WordAnalysis(span=span, v=v, scores=scores, key=start + int(np.argmax(scores)))
        rows = rng.standard_normal((n, d_h))[start : start + length]
        delta = (fusion.inject_word(rows, wa, cfg) - rows).sum(axis=0)
        np.testing.assert_allclose(delta, v, rtol=0, atol=1e-9)
        cases += 1
    announce(f"injection deltas sum to the word vector within 1e-9 on {cases} cases")


def test_mixing_conserves_and_hits_endpoints(announce):
    rng = np.random.default_rng(90210)
    for _ in range(1000):
        d_h = int(rng.integers(1, 17))
        length = int(rng.integers(1, 7))
        h = rng.standard_normal((length, d_h))
        key = int(rng.integers(0, length))
        lam = float(rng.uniform(0.0, 1.0))
        out = fusion.mix_word(h, WordSpan(0, length - 1), key, lam)
        np.testing.assert_allclose(
            out.sum(axis=0), h.sum(axis=0), rtol=0, atol=1e-9,
            err_msg="column sums not preserved",
        )

    h = rng.standard_normal((5, 8))
    assert np.array_equal(fusion.mix_word(h, WordSpan(0, 4), 2, 1.0), h)
    assert np.array_equal(fusion.mix_word(h[2:3], WordSpan(2, 2), 2, 0.3), h[2:3])

    probe = np.array([[1.0, 0.0], [0.0, 0.0]])
    keep = fusion.mix_word(probe, WordSpan(0, 1), 0, 0.9)[0, 0]
    mpmath.mp.dps = 60
    exact = mpmath.exp(mpmath.mpf(-1) / 10)
    err = abs(mpmath.mpf(keep) - exact)
    assert err <= mpmath.mpf("1e-15"), f"retention factor off by {float(err):.2e}"
    announce(
        "mixing conserves column sums (1e-9, 1000 cases); lambda=1 and "
        "single-character words are exact; retention e^(-0.1) within 1e-15"
    )


def test_attention_matches_naive_oracle(announce):
    rng = np.random.default_rng(31415)
    for case in range(200):
        n = int(rng.integers(1, 17))
        d_h = int(rng.integers(1, 33))
        h = rng.standard_normal((n, d_h))
        wq = rng.standard_normal((d_h, d_h))
        wk = rng.standard_normal((d_h, d_h))
        wv = rng.standard_normal((d_h, d_h))
        if case % 2 and n > 1:
            omega = set(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            got = attention.attend(h, wq, wk, wv, mask=MaskSpec(n, frozenset(omega)))
            want = naive_attend(h.tolist(), wq.tolist(), wk.tolist(), wv.tolist(), omega=omega)
        else:
            got = attention.attend(h, wq, wk, wv)
            want = naive_attend(h.tolist(), wq.tolist(), wk.tolist(), wv.tolist())
        np.testing.assert_allclose(got, np.array(want), rtol=0, atol=1e-12)

    # probability-level guarantees, read off via H = I, Wv = I
    n = 16
    eye = np.eye(n)
    wq, wk = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    omega = frozenset({0, 5, 9})
    probs = attention.attend(eye, wq, wk, eye, mask=MaskSpec(n, omega))
    masked_cols = [j for j in range(n) if j not in omega]
    assert np.all(probs[:, masked_cols] == 0.0), "masked columns must be exactly zero"
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(n), rtol=0, atol=1e-12)
    plain = attention.attend(eye, wq, wk, eye)
    np.testing.assert_allclose(plain.sum(axis=1), np.ones(n), rtol=0, atol=1e-12)

    h = rng.standard_normal((7, 8))
    wq, wk, wv = (rng.standard_normal((8, 8)) for _ in range(3))
    vacuous = attention.attend(h, wq, wk, wv, mask=MaskSpec(7, frozenset(range(7))))
    assert np.array_equal(vacuous, attention.attend(h, wq, wk, wv)), (
        "an all-position mask must reproduce plain attention bit-for-bit"
    )
    announce(
        "attention matches the naive oracle within 1e-12 on 200 cases; masked "
        "probability columns are exact zeros, rows sum to 1 within 1e-12, "
        "all-position mask is bitwise plain"
    )


def test_branch_fusion_endpoints_and_mean(announce):
    rng = np.random.default_rng(2718)
    h1, h2 = rng.standard_normal((9, 12)), rng.standard_normal((9, 12))
    assert np.array_equal(attention.fuse_heads_output(h1, h2, 1.0), h1)
    assert np.array_equal(attention.fuse_heads_output(h1, h2, 0.0), h2)
    np.testing.assert_allclose(
        attention.fuse_heads_output(h1, h2, 0.5), (h1 + h2) / 2.0, rtol=0, atol=1e-15
    )
    announce("branch fusion: mu endpoints exact, mu=0.5 is the elementwise mean (1e-15)")


def test_cli_pipeline_deterministic_and_matches_golden(golden, tmp_path, announce):
    seg_path = tmp_path / "seg.jsonl"
    res = run_cli("vote", "--input", golden / "vote_record.jsonl", "--output", seg_path)
    assert res.returncode == 0, res.stderr

    outputs = []
    for name in ("a.txt", "b.txt"):
        out = tmp_path / name
        res = run_cli(
            "fuse",
            "--embeddings", golden / "toy_embeddings.txt",
            "--weights", golden / "bundle_seed42.json",
            "--hidden", golden / "hidden_6x8.txt",
            "--segmentation", seg_path,
            "--output", out,
            "--debug-intermediates",
        )
        assert res.returncode == 0, res.stderr
        outputs.append(out)
    assert outputs[0].read_bytes() == outputs[1].read_bytes(), (
        "repeated runs must be byte-identical"
    )

    got = numerics.read_matrix(outputs[0])
    want = numerics.read_matrix(golden / "expected_fused.txt")
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    omega = json.loads((tmp_path / "a.txt.omega.json").read_text())
    expected_omega = json.loads((golden / "expected_omega.json").read_text())
    assert omega == expected_omega
    announce(
        "fuse output byte-identical across runs and within 1e-12 of the "
        "oracle-generated golden (key set matches exactly)"
    )


def test_runtime_check_suite_green(announce):
    start = time.perf_counter()
    res = run_cli("check", "--cases", 120)
    elapsed = time.perf_counter() - start
    assert res.returncode == 0, res.stdout + res.stderr
    rows = [l for l in res.stdout.splitlines() if "  PASS" in l or "  FAIL" in l]
    assert rows and all("  PASS" in l for l in rows)
    assert elapsed < 60.0, f"check took {elapsed:.1f}s, budget is 60s"
    announce(
        f"runtime check suite: {len(rows)} properties x 120 cases all PASS "
        f"in {elapsed:.1f}s (< 60s)"
    )
