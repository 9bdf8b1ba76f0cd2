import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from wordfuse import lexicon, numerics

BUNDLE_SEED42_SHA256 = "9f8414b535eb633ed1e72a46ff343d79a019f89a2219fd93c3abb9597d83f1a9"


def run_cli(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "wordfuse.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        encoding="utf-8",
        **kwargs,
    )


@pytest.fixture()
def fuse_files(golden, tmp_path):
    """Paths for a full fuse run: golden inputs plus a scratch output."""
    seg = tmp_path / "seg.json"
    seg.write_text(
        json.dumps({"sentence": "重庆人和中学", "spans": [[0, 1], [2, 5]]}, ensure_ascii=False)
        + "\n",
        encoding="utf-8",
    )
    return {
        "embeddings": golden / "toy_embeddings.txt",
        "weights": golden / "bundle_seed42.json",
        "hidden": golden / "hidden_6x8.txt",
        "segmentation": seg,
        "output": tmp_path / "fused.txt",
    }


def fuse_args(files, **extra):
    argv = ["fuse"]
    for key in ("embeddings", "weights", "hidden", "segmentation", "output"):
        argv += [f"--{key}", files[key]]
    for key, value in extra.items():
        argv += [f"--{key}", value]
    return argv


class TestVote:
    def test_headline_record(self, golden, tmp_path):
        out = tmp_path / "out.jsonl"
        res = run_cli("vote", "--input", golden / "vote_record.jsonl", "--output", out)
        assert res.returncode == 0, res.stderr
        record = json.loads(out.read_text(encoding="utf-8"))
        assert record["sentence"] == "重庆人和中学"
        assert record["words"] == ["重庆", "人和中学"]
        assert record["spans"] == [[0, 1], [2, 5]]

    def test_output_keeps_cjk_unescaped(self, golden):
        res = run_cli("vote", "--input", golden / "vote_record.jsonl")
        assert res.returncode == 0
        assert "重庆" in res.stdout
        assert "\\u" not in res.stdout

    def test_stdout_default(self, golden):
        res = run_cli("vote", "--input", golden / "vote_record.jsonl")
        assert res.returncode == 0
        assert json.loads(res.stdout.splitlines()[0])["words"] == ["重庆", "人和中学"]

    def test_empty_input_empty_output(self, tmp_path):
        src = tmp_path / "empty.jsonl"
        src.write_text("", encoding="utf-8")
        res = run_cli("vote", "--input", src)
        assert res.returncode == 0
        assert res.stdout == ""

    def test_blank_lines_skipped(self, tmp_path):
        src = tmp_path / "in.jsonl"
        rec = {"sentence": "ab", "tokenizations": [["ab"]]}
        src.write_text("\n" + json.dumps(rec) + "\n\n", encoding="utf-8")
        res = run_cli("vote", "--input", src)
        assert res.returncode == 0
        assert len(res.stdout.splitlines()) == 1

    def test_malformed_json_names_line(self, tmp_path):
        src = tmp_path / "in.jsonl"
        good = json.dumps({"sentence": "ab", "tokenizations": [["ab"]]})
        src.write_text(good + "\n{not json\n", encoding="utf-8")
        res = run_cli("vote", "--input", src)
        assert res.returncode == 1
        assert "line 2" in res.stderr

    def test_bad_tokenization_names_line(self, tmp_path):
        src = tmp_path / "in.jsonl"
        bad = json.dumps({"sentence": "abc", "tokenizations": [["ab", "x"]]})
        src.write_text(bad + "\n", encoding="utf-8")
        res = run_cli("vote", "--input", src)
        assert res.returncode == 1
        assert "line 1" in res.stderr

    def test_missing_input_file(self, tmp_path):
        res = run_cli("vote", "--input", tmp_path / "nope.jsonl")
        assert res.returncode == 1
        assert "error:" in res.stderr

    def test_multiple_records(self, tmp_path):
        src = tmp_path / "in.jsonl"
        recs = [
            {"sentence": "abcd", "tokenizations": [["ab", "cd"], ["ab", "cd"], ["abcd"]]},
            {"sentence": "xy", "tokenizations": [["x", "y"]]},
        ]
        src.write_text("".join(json.dumps(r) + "\n" for r in recs), encoding="utf-8")
        res = run_cli("vote", "--input", src)
        words = [json.loads(line)["words"] for line in res.stdout.splitlines()]
        assert words == [["ab", "cd"], ["x", "y"]]

    def test_input_file_not_mutated(self, golden):
        before = (golden / "vote_record.jsonl").read_bytes()
        run_cli("vote", "--input", golden / "vote_record.jsonl")
        assert (golden / "vote_record.jsonl").read_bytes() == before

    @pytest.mark.parametrize("alias", ["same path", "hard link"])
    def test_output_that_is_the_input_refused(self, golden, tmp_path, alias):
        src = tmp_path / "v.jsonl"
        src.write_bytes((golden / "vote_record.jsonl").read_bytes())
        out = src
        if alias == "hard link":
            out = tmp_path / "link.jsonl"
            os.link(src, out)
        before = src.read_bytes()
        res = run_cli("vote", "--input", src, "--output", out)
        assert res.returncode == 1, res.stderr
        assert "inputs are never overwritten" in res.stderr
        assert src.read_bytes() == before


class TestInitWeights:
    def test_deterministic_and_checksum(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        r1 = run_cli("init-weights", "--seed", 42, "--dw", 4, "--dh", 8, "--output", p1)
        r2 = run_cli("init-weights", "--seed", 42, "--dw", 4, "--dh", 8, "--output", p2)
        assert r1.returncode == 0 and r2.returncode == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert hashlib.sha256(p1.read_bytes()).hexdigest() == BUNDLE_SEED42_SHA256

    def test_matches_library_bundle(self, tmp_path):
        p = tmp_path / "w.json"
        run_cli("init-weights", "--seed", 9, "--dw", 3, "--dh", 6, "--output", p)
        loaded = lexicon.load_bundle(p)
        direct = lexicon.init_bundle(9, 3, 6)
        assert all(np.array_equal(loaded[k], direct[k]) for k in lexicon.BUNDLE_TENSORS)

    def test_rejects_indivisible_heads(self, tmp_path):
        res = run_cli(
            "init-weights", "--dw", 4, "--dh", 8, "--heads", 3, "--output", tmp_path / "w.json"
        )
        assert res.returncode == 1
        assert "divisible" in res.stderr

    def test_rejects_non_positive_dims(self, tmp_path):
        res = run_cli("init-weights", "--dw", 0, "--dh", 8, "--output", tmp_path / "w.json")
        assert res.returncode == 1


class TestFuse:
    def test_matches_library_pipeline(self, fuse_files):
        from wordfuse import attention
        from wordfuse.fusion import FusionConfig
        from wordfuse.segvote import Segmentation, WordSpan

        res = run_cli(*fuse_args(fuse_files))
        assert res.returncode == 0, res.stderr
        got = numerics.read_matrix(fuse_files["output"])

        hidden = numerics.read_matrix(fuse_files["hidden"])
        table = lexicon.load_embeddings(fuse_files["embeddings"])
        bundle = lexicon.load_bundle(fuse_files["weights"])
        seg = Segmentation("重庆人和中学", (WordSpan(0, 1), WordSpan(2, 5)))
        result = attention.pipeline_forward(
            hidden, seg, table, bundle, FusionConfig(d_w=4, d_h=8)
        )
        assert np.array_equal(got, result.fused)

    def test_two_runs_byte_identical(self, fuse_files, tmp_path):
        other = tmp_path / "fused2.txt"
        r1 = run_cli(*fuse_args(fuse_files))
        files2 = dict(fuse_files, output=other)
        r2 = run_cli(*fuse_args(files2))
        assert r1.returncode == 0 and r2.returncode == 0
        assert fuse_files["output"].read_bytes() == other.read_bytes()

    def test_matches_oracle_golden(self, fuse_files, golden):
        run_cli(*fuse_args(fuse_files))
        got = numerics.read_matrix(fuse_files["output"])
        want = numerics.read_matrix(golden / "expected_fused.txt")
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_segmentation_words_form_accepted(self, fuse_files, tmp_path):
        seg = tmp_path / "segw.json"
        seg.write_text(
            json.dumps({"sentence": "重庆人和中学", "words": ["重庆", "人和中学"]}, ensure_ascii=False),
            encoding="utf-8",
        )
        files = dict(fuse_files, segmentation=seg)
        out2 = tmp_path / "fused_w.txt"
        run_cli(*fuse_args(fuse_files))
        run_cli(*fuse_args(dict(files, output=out2)))
        assert fuse_files["output"].read_bytes() == out2.read_bytes()

    def test_debug_intermediates(self, fuse_files):
        res = run_cli(*fuse_args(fuse_files), "--debug-intermediates")
        assert res.returncode == 0
        out = fuse_files["output"]
        omega = json.loads((out.parent / (out.name + ".omega.json")).read_text())
        assert omega == [1, 3]
        for suffix in (".mixed", ".h1", ".h2"):
            m = numerics.read_matrix(out.parent / (out.name + suffix))
            assert m.shape == (6, 8)

    def test_mu_endpoints_select_branches(self, fuse_files, tmp_path):
        res = run_cli(*fuse_args(fuse_files, mu="1.0"), "--debug-intermediates")
        assert res.returncode == 0
        out = fuse_files["output"]
        fused = numerics.read_matrix(out)
        h1 = numerics.read_matrix(out.parent / (out.name + ".h1"))
        assert np.array_equal(fused, h1)

        files0 = dict(fuse_files, output=tmp_path / "mu0.txt")
        res = run_cli(*fuse_args(files0, mu="0.0"), "--debug-intermediates")
        assert res.returncode == 0
        fused0 = numerics.read_matrix(files0["output"])
        h2 = numerics.read_matrix(tmp_path / "mu0.txt.h2")
        assert np.array_equal(fused0, h2)

    def test_flag_overrides_config(self, fuse_files, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"lambda": 0.5}), encoding="utf-8")

        default_out = tmp_path / "default.txt"
        run_cli(*fuse_args(dict(fuse_files, output=default_out)))

        overridden = tmp_path / "overridden.txt"
        res = run_cli(
            *fuse_args(dict(fuse_files, output=overridden)),
            "--config", config, "--lambda", "0.9",
        )
        assert res.returncode == 0, res.stderr
        assert overridden.read_bytes() == default_out.read_bytes()

        config_only = tmp_path / "config_only.txt"
        run_cli(*fuse_args(dict(fuse_files, output=config_only)), "--config", config)
        assert config_only.read_bytes() != default_out.read_bytes()

    def test_config_can_carry_paths(self, fuse_files, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps({key: str(fuse_files[key]) for key in
                        ("embeddings", "weights", "hidden", "segmentation", "output")}),
            encoding="utf-8",
        )
        res = run_cli("fuse", "--config", config)
        assert res.returncode == 0, res.stderr
        assert fuse_files["output"].exists()

    @pytest.mark.parametrize(
        ("record", "field"),
        [
            ({"sentence": "重庆人和中学", "spans": 5}, "spans"),
            ({"sentence": 5, "spans": [[0, 1], [2, 5]]}, "sentence"),
            ({"sentence": "ab", "words": "ab"}, "words"),
        ],
    )
    def test_mistyped_segmentation_field_exits_one(self, fuse_files, tmp_path, record, field):
        seg = tmp_path / "bad_seg.json"
        seg.write_text(json.dumps(record, ensure_ascii=False), encoding="utf-8")
        res = run_cli(*fuse_args(dict(fuse_files, segmentation=seg)))
        assert res.returncode == 1, res.stderr
        assert f"{seg}: {field}: " in res.stderr
        assert not fuse_files["output"].exists()

    def test_multi_record_segmentation_rejected(self, fuse_files, tmp_path):
        record = json.dumps({"sentence": "重庆人和中学", "spans": [[0, 1], [2, 5]]}, ensure_ascii=False)
        seg = tmp_path / "two.jsonl"
        seg.write_text(f"{record}\n{record}\n", encoding="utf-8")
        res = run_cli(*fuse_args(dict(fuse_files, segmentation=seg)))
        assert res.returncode == 1, res.stderr
        assert "2 records" in res.stderr
        assert not fuse_files["output"].exists()

    def test_config_debug_flag_must_be_boolean(self, fuse_files, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"debug_intermediates": "false"}), encoding="utf-8")
        res = run_cli(*fuse_args(fuse_files), "--config", config)
        assert res.returncode == 1, res.stderr
        assert "debug_intermediates" in res.stderr
        assert not fuse_files["output"].exists()
        assert not (fuse_files["output"].parent / "fused.txt.mixed").exists()

    @pytest.mark.parametrize(
        ("config", "named"),
        [
            ({"heads": 2.7}, "heads: expected a JSON integer, got 2.7"),
            ({"heads": True}, "heads: expected a JSON integer, got true"),
            ({"mu": "0.5"}, 'mu: expected a JSON number, got "0.5"'),
            ({"lambda": False}, "lambda: expected a JSON number, got false"),
            ({"output": 5}, "output: expected a JSON string, got 5"),
            ({"mu": 10**400}, "mu: expected a JSON number, got 1000"),
            ({"lamda": 0.1}, "unknown config keys: lamda"),
        ],
        ids=["fractional-heads", "boolean-heads", "string-mu", "boolean-lambda", "numeric-output",
             "huge-integer-mu", "unknown-key"],
    )
    def test_config_values_strictly_typed(self, fuse_files, tmp_path, config, named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        res = run_cli(*fuse_args(fuse_files), "--config", path)
        assert res.returncode == 1, res.stderr
        assert f"{path}: {named}" in res.stderr
        assert not fuse_files["output"].exists()

    @pytest.mark.parametrize(
        ("mutate", "field"),
        [
            (lambda t: t["data"].__setitem__(0, None), "data"),
            (lambda t: t.__setitem__("data", 5), "data"),
            (lambda t: t.__setitem__("rows", None), "rows"),
            (lambda t: t.__setitem__("data", [[v] for v in t["data"]]), "data"),
            (lambda t: t["data"].__setitem__(3, "0.5"), "data"),
            (lambda t: t["data"].__setitem__(5, True), "data"),
            (lambda t: t.__setitem__("rows", 8.9), "rows"),
        ],
        ids=["null-element", "data-number", "rows-null", "nested-data", "string-element",
             "boolean-element", "fractional-rows"],
    )
    def test_malformed_bundle_tensor_exits_one(self, fuse_files, tmp_path, mutate, field):
        bundle = json.loads(fuse_files["weights"].read_text(encoding="utf-8"))
        mutate(bundle["W2"])
        bad = tmp_path / "bad_bundle.json"
        bad.write_text(json.dumps(bundle), encoding="utf-8")
        res = run_cli(*fuse_args(dict(fuse_files, weights=bad)))
        assert res.returncode == 1, res.stderr
        assert f"bundle tensor 'W2': {field}: " in res.stderr
        assert not fuse_files["output"].exists()

    @pytest.mark.parametrize("debug", [False, True])
    def test_output_that_is_an_input_refused(self, fuse_files, debug):
        # with --debug-intermediates, the .mixed side output must not land on an input either
        out = fuse_files["output"]
        hidden = out.parent / (out.name + ".mixed") if debug else out
        hidden.write_bytes(fuse_files["hidden"].read_bytes())
        before = hidden.read_bytes()
        res = run_cli(*fuse_args(dict(fuse_files, hidden=hidden)), *(["--debug-intermediates"] if debug else []))
        assert res.returncode == 1, res.stderr
        assert "inputs are never overwritten" in res.stderr
        assert hidden.read_bytes() == before

    def test_missing_settings_listed(self):
        res = run_cli("fuse")
        assert res.returncode == 1
        assert "missing required settings" in res.stderr

    def test_dimension_mismatch_names_artifact(self, fuse_files, tmp_path):
        bad = tmp_path / "bad_bundle.json"
        lexicon.save_bundle(lexicon.init_bundle(42, 4, 16), bad)
        res = run_cli(*fuse_args(dict(fuse_files, weights=bad)))
        assert res.returncode == 1
        assert "weight bundle" in res.stderr

    def test_corrupt_hidden_names_artifact(self, fuse_files, tmp_path):
        bad = tmp_path / "bad_hidden.txt"
        bad.write_text("2 2\n1.0 2.0\noops 4.0\n", encoding="utf-8")
        res = run_cli(*fuse_args(dict(fuse_files, hidden=bad)))
        assert res.returncode == 1
        assert "hidden states" in res.stderr and "line 3" in res.stderr

    def test_indivisible_heads_rejected(self, fuse_files):
        res = run_cli(*fuse_args(fuse_files, heads="3"))
        assert res.returncode == 1

    def test_input_files_not_mutated(self, fuse_files, golden):
        before = {
            key: fuse_files[key].read_bytes()
            for key in ("embeddings", "weights", "hidden", "segmentation")
        }
        run_cli(*fuse_args(fuse_files))
        after = {key: fuse_files[key].read_bytes() for key in before}
        assert before == after


class TestCheck:
    def test_passes_with_default_budget(self):
        res = run_cli("check", "--cases", 40)
        assert res.returncode == 0, res.stdout + res.stderr
        assert "FAIL" not in res.stdout
        lines = [l for l in res.stdout.splitlines() if "  PASS" in l]
        assert len(lines) >= 15
        assert "0 failed" in res.stdout

    def test_corrupt_softmax_caught(self):
        res = run_cli("check", "--cases", 10, "--corrupt", "softmax")
        assert res.returncode == 1
        assert "FAIL" in res.stdout
        assert "softmax" in res.stdout

    def test_seed_changes_are_still_green(self):
        res = run_cli("check", "--cases", 15, "--seed", 777)
        assert res.returncode == 0, res.stdout

    def test_rejects_non_positive_cases(self):
        res = run_cli("check", "--cases", 0)
        assert res.returncode == 1


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        res = run_cli("frobnicate")
        assert res.returncode == 2  # argparse usage errors exit 2

    def test_user_data_errors_exit_one(self, tmp_path):
        res = run_cli("vote", "--input", tmp_path / "absent.jsonl")
        assert res.returncode == 1
