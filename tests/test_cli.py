import dataclasses
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import threading

import numpy as np
import pytest

import oracles
from oracles import BUNDLE_SEED42_SHA256
from wordfuse import _kernel, check, cli, lexicon, numerics, segvote

# fuse output on the golden inputs (fuse_files below), frozen byte for byte
FUSED_GOLDEN_SHA256 = "60635a410daf94ab588a407eb1190d709367cc3e96a1e154e3a1e4cafdd2b6ec"


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


def run_main(argv, capsys):
    """Exit code and stderr of an in-process ``cli.main``."""
    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr().err


# characters str.strip() takes for whitespace that JSON does not
NON_JSON_SPACE = ["\xa0", "\u3000", "\u2028", "\x0b", "\x0c", "\x1f"]
NON_JSON_SPACE_IDS = ["NBSP", "U+3000", "U+2028", "VT", "FF", "U+001F"]


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

    @pytest.mark.parametrize(
        ("record", "problem"),
        [
            ('{"tokenizations": [["ab"]]}', "sentence: missing"),
            ('{"sentence": "ab"}', "tokenizations: missing"),
            ('[["ab"]]', "expected a JSON object, got list"),
            ('"ab"', 'expected a JSON object, got "ab"'),
            ('{"sentence": 12, "tokenizations": [["ab"]]}', "sentence: expected a JSON string, got 12"),
            ('{"sentence": "ab", "tokenizations": ["ab"]}',
             "tokenizations: expected a JSON list of word lists, got list"),
            ('{"sentence": "abc", "tokenizations": [["ab"]]}',
             "tokenizations: tokenization diverges from sentence at character index 2"),
            ('{"sentence": "abc", "tokenizations": [["abc"], ["ab", "", "c"]]}',
             "tokenizations: empty word at character index 2"),
            ('{"sentence": "abc", "tokenizations": [["ab", "cd"]]}',
             "tokenizations: tokenization diverges from sentence at character index 3"),
            ('{"sentence": "abcd", "tokenizations": [["a", "bxd"]]}',
             "tokenizations: tokenization diverges from sentence at character index 2"),
            ('{"sentence": "ab", "tokenizations": []}', "tokenizations: vote needs at least one tokenization"),
            ("[" * 100000 + "]" * 100000, "JSON nested too deeply"),
        ],
        ids=["no-sentence", "no-tokenizations", "list", "string", "numeric-sentence",
             "flat-tokenizations", "diverging", "empty-word", "past-the-end", "diverging-inside-a-word",
             "no-voters", "deep"],
    )
    def test_bad_record_names_line_and_field(self, tmp_path, capsys, record, problem):
        src = tmp_path / "v1.jsonl"
        good = json.dumps({"sentence": "ab", "tokenizations": [["ab"]]})
        src.write_text(good + "\n" + record + "\n", encoding="utf-8")
        code, err = run_main(["vote", "--input", src], capsys)
        assert (code, err) == (1, f"error: {src}: line 2: {problem}\n")

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"], ids=["U+2028", "U+2029", "U+0085"])
    def test_unicode_line_separator_stays_inside_its_record(self, golden, fuse_files, tmp_path, capsys, separator):
        # JSON lines end at "\n" alone; these characters may stand raw in a JSON string
        word = f"a{separator}b"
        src, voted = tmp_path / "in.jsonl", tmp_path / "voted.jsonl"
        record = json.dumps({"sentence": word, "tokenizations": [[word]]}, ensure_ascii=False)
        src.write_text((golden / "vote_record.jsonl").read_text(encoding="utf-8") + record + "\n", encoding="utf-8")
        assert run_main(["vote", "--input", src, "--output", voted], capsys) == (0, "")
        golden_line, line, end = voted.read_text(encoding="utf-8").split("\n")
        assert separator in line and end == ""
        assert json.loads(line) == {"sentence": word, "words": [word], "spans": [[0, 2]]}
        # fuse counts records by the same rule, and the golden record still fuses to the golden digest
        code, err = run_main(fuse_args(dict(fuse_files, segmentation=voted)), capsys)
        assert (code, err) == (1, f"error: segmentation: {voted}: 2 records, fuse takes exactly one\n")
        voted.write_text(golden_line + "\n", encoding="utf-8")
        code, err = run_main(fuse_args(dict(fuse_files, segmentation=voted)), capsys)
        assert (code, err) == (0, f"wrote {fuse_files['output']}\n")
        assert hashlib.sha256(fuse_files["output"].read_bytes()).hexdigest() == FUSED_GOLDEN_SHA256

    def test_output_bytes_match_the_word_span_route(self, tmp_path, capsys):
        # each record as written through Segmentation.spans, one WordSpan per word
        rand = random.Random(2027)
        alphabet = "重庆人和中学ab \u2028\U00020000\U0001F600"  # astral, and U+2028 inside a record
        records = [{"sentence": "", "tokenizations": [[]]}]
        for _ in range(300):
            sentence = "".join(rand.choice(alphabet) for _ in range(rand.randint(1, 12)))
            voters = []
            for _ in range(rand.randint(1, 5)):
                p = rand.choice([0.0, 0.3, 0.6, 1.0])  # 1.0: single-character words only
                cuts = [0, *(i for i in range(1, len(sentence)) if rand.random() < p), len(sentence)]
                voters.append([sentence[a:b] for a, b in zip(cuts, cuts[1:])])
            records.append({"sentence": sentence, "tokenizations": voters})
        src, voted = tmp_path / "in.jsonl", tmp_path / "voted.jsonl"
        src.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")
        assert run_main(["vote", "--input", src, "--output", voted], capsys) == (0, "")
        want = []
        for r in records:
            seg = segvote.vote(r["sentence"], r["tokenizations"])
            want.append(json.dumps({"sentence": r["sentence"], "words": seg.words,
                                    "spans": [[s.start, s.end] for s in seg.spans]}, ensure_ascii=False) + "\n")
        assert voted.read_bytes() == "".join(want).encode("utf-8")

    @pytest.mark.parametrize("char", NON_JSON_SPACE, ids=NON_JSON_SPACE_IDS)
    def test_line_of_non_json_whitespace_is_not_valid_json(self, golden, tmp_path, capsys, char):
        # JSON whitespace is space, tab, CR and LF alone: a line of anything else is not a blank line
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        record = (golden / "vote_record.jsonl").read_text(encoding="utf-8")
        src.write_text(record + f" {char}\t\r\n" + record, encoding="utf-8")
        code, err = run_main(["vote", "--input", src, "--output", out], capsys)
        assert code == 1 and err.startswith(f"error: {src}: line 2: not valid JSON: "), err
        assert not out.exists()

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

    def test_rejects_non_positive_dims(self, tmp_path):
        out = tmp_path / "w.json"
        res = run_cli("init-weights", "--dw", 0, "--dh", 8, "--output", out)
        assert (res.returncode, res.stderr) == (1, "error: dimensions must be positive, got d_w=0 d_h=8\n")
        assert not out.exists()

    def test_bundle_larger_than_memory_refused_before_allocating(self, tmp_path, capsys):
        # 8e17 bytes: refused before any allocation, on any host
        out = tmp_path / "w.json"
        code, err = run_main(["init-weights", "--dw", 10**8, "--dh", 10**8, "--output", out], capsys)
        assert code == 1
        assert err.startswith("error: a bundle with d_w=100000000 d_h=100000000 takes 8e+08 GB, more than the ")
        assert err.endswith(" GB of physical memory\n")
        assert not out.exists()

    def test_bundle_bound_reads_physical_memory(self, monkeypatch):
        # 30 pages of 4 KiB hold the 103,040 bytes of tensors at d_w = d_h = 40, not 25,600 more of draws
        monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 30, "SC_PAGE_SIZE": 4096}.__getitem__)
        with pytest.raises(ValueError, match=r"^a bundle with d_w=40 d_h=40 takes 0\.000129 GB, "
                                             r"more than the 0\.000123 GB of physical memory$"):
            lexicon.init_bundle(1, 40, 40)
        assert lexicon.init_bundle(1, 4, 8)["W1"].shape == (4, 8)

    @pytest.mark.parametrize("command", ["init-weights", "fuse", "vote"])
    def test_memory_error_exits_one_naming_the_command(self, command, fuse_files, golden, tmp_path, capsys,
                                                       monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        argv = {
            "init-weights": ["init-weights", "--dw", 4, "--dh", 8, "--output", tmp_path / "w.json"],
            "fuse": fuse_args(fuse_files),
            "vote": ["vote", "--input", golden / "vote_record.jsonl"],
        }[command]
        monkeypatch.setattr(lexicon, "init_bundle", no_memory)
        monkeypatch.setattr(cli, "pipeline_forward", no_memory)
        monkeypatch.setattr(cli.segvote, "vote", no_memory)
        code, err = run_main(argv, capsys)
        assert (code, err) == (1, f"error: {command}: out of memory\n")


class TestFuse:
    def test_matches_library_pipeline(self, fuse_files):
        from wordfuse import attention
        from wordfuse.fusion import FusionConfig
        from wordfuse.segvote import Segmentation

        res = run_cli(*fuse_args(fuse_files))
        assert res.returncode == 0, res.stderr
        got = numerics.read_matrix(fuse_files["output"])

        hidden = numerics.read_matrix(fuse_files["hidden"])
        table = lexicon.load_embeddings(fuse_files["embeddings"])
        bundle = lexicon.load_bundle(fuse_files["weights"])
        seg = Segmentation("重庆人和中学", (0, 2, 6))
        result = attention.pipeline_forward(hidden, seg, table, bundle, FusionConfig())
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
            ({"sentence": "重庆人和中学", "spans": [[0, 1], [2, 5]], "words": ["x"]}, "words"),
        ],
    )
    def test_mistyped_segmentation_field_exits_one(self, fuse_files, tmp_path, record, field):
        seg = tmp_path / "bad_seg.json"
        seg.write_text(json.dumps(record, ensure_ascii=False), encoding="utf-8")
        res = run_cli(*fuse_args(dict(fuse_files, segmentation=seg)))
        assert res.returncode == 1, res.stderr
        assert f"{seg}: {field}: " in res.stderr
        assert not fuse_files["output"].exists()

    def test_vote_output_fuses_to_golden(self, fuse_files, golden, tmp_path):
        # vote writes words and spans side by side; they agree, so fuse takes the record
        seg = tmp_path / "voted.jsonl"
        assert run_cli("vote", "--input", golden / "vote_record.jsonl", "--output", seg).returncode == 0
        res = run_cli(*fuse_args(dict(fuse_files, segmentation=seg)))
        assert res.returncode == 0, res.stderr
        assert hashlib.sha256(fuse_files["output"].read_bytes()).hexdigest() == FUSED_GOLDEN_SHA256

    def test_multi_record_segmentation_rejected(self, fuse_files, tmp_path):
        record = json.dumps({"sentence": "重庆人和中学", "spans": [[0, 1], [2, 5]]}, ensure_ascii=False)
        seg = tmp_path / "two.jsonl"
        seg.write_text(f"{record}\n{record}\n", encoding="utf-8")
        res = run_cli(*fuse_args(dict(fuse_files, segmentation=seg)))
        assert res.returncode == 1, res.stderr
        assert "2 records" in res.stderr
        assert not fuse_files["output"].exists()

    @pytest.mark.parametrize("char", NON_JSON_SPACE, ids=NON_JSON_SPACE_IDS)
    def test_trailing_non_json_whitespace_is_not_valid_json(self, fuse_files, capsys, char):
        seg = fuse_files["segmentation"]
        seg.write_text(seg.read_text(encoding="utf-8") + f"\t{char} \n", encoding="utf-8")
        code, err = run_main(fuse_args(fuse_files), capsys)
        assert code == 1 and err.startswith(f"error: segmentation: {seg}: not valid JSON: Extra data: line 2 "), err
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
            ({"heads": 2.7}, "heads: expected a JSON positive integer, got 2.7"),
            ({"heads": True}, "heads: expected a JSON positive integer, got true"),
            ({"mu": "0.5"}, 'mu: expected a JSON number in [0, 1], got "0.5"'),
            ({"lambda": False}, "lambda: expected a JSON number in [0, 1], got false"),
            ({"output": 5}, "output: expected a JSON string, got 5"),
            ({"mu": 10**400}, "mu: expected a JSON number in [0, 1], got 1000"),
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
        ("config", "named"),
        [({"lambda": 4.3}, "lambda: expected a JSON number in [0, 1], got 4.3"),
         ({"mu": -0.25}, "mu: expected a JSON number in [0, 1], got -0.25"),
         ({"heads": 0}, "heads: expected a JSON positive integer, got 0")],
        ids=["lambda", "mu", "heads"],
    )
    def test_config_setting_out_of_range_refused_before_any_input_loads(
            self, fuse_files, tmp_path, monkeypatch, capsys, config, named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        loads = []
        monkeypatch.setattr(lexicon, "load_bundle", lambda *args: loads.append(args))
        code, err = run_main([*fuse_args(fuse_files), "--config", path], capsys)
        assert (code, err) == (1, f"error: {path}: {named}\n")
        assert not fuse_files["output"].exists()
        assert loads == []

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
        assert f"weight bundle: {bad}: W2: {field}: " in res.stderr
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

    @pytest.mark.parametrize("side_file", [False, True], ids=["output", "debug-side-file"])
    def test_output_that_is_the_config_refused(self, fuse_files, tmp_path, capsys, side_file):
        # the config names the output; with --debug-intermediates, .omega.json lands beside it
        out = tmp_path / "run.txt"
        config = tmp_path / ("run.txt.omega.json" if side_file else "cfg.json")
        settings = {key: str(fuse_files[key]) for key in ("embeddings", "weights", "hidden", "segmentation")}
        settings.update(output=str(out if side_file else config), debug_intermediates=side_file)
        config.write_text(json.dumps(settings), encoding="utf-8")
        before = config.read_bytes()
        code, err = run_main(["fuse", "--config", config], capsys)
        assert (code, err) == (1, f"error: {cli._FUSE_CLASH.format(config, config)}\n")
        assert config.read_bytes() == before
        assert not out.exists()

    def test_output_that_is_a_bundle_matrix_file_refused(self, fuse_files, tmp_path):
        # a bundle may store a tensor as a path to a matrix file: that file is an input too
        bundle = json.loads(fuse_files["weights"].read_text(encoding="utf-8"))
        w1 = tmp_path / "w1.txt"
        numerics.write_matrix(lexicon.load_bundle(fuse_files["weights"])["W1"], w1)
        bundle["W1"] = "w1.txt"
        weights = tmp_path / "bundle.json"
        weights.write_text(json.dumps(bundle), encoding="utf-8")
        res = run_cli(*fuse_args(dict(fuse_files, weights=weights)))
        assert res.returncode == 0, res.stderr
        assert hashlib.sha256(fuse_files["output"].read_bytes()).hexdigest() == FUSED_GOLDEN_SHA256

        before = w1.read_bytes()
        res = run_cli(*fuse_args(dict(fuse_files, weights=weights, output=w1)))
        assert res.returncode == 1, res.stderr
        assert res.stderr == f"error: output {w1} is the input file {w1}; inputs are never overwritten\n"
        assert w1.read_bytes() == before

    def test_overflow_named_at_its_stage(self, fuse_files, tmp_path):
        huge = tmp_path / "huge.txt"
        huge.write_text("6 8\n" + (" ".join(["1e300"] * 8) + "\n") * 6, encoding="utf-8")
        res = run_cli(*fuse_args(dict(fuse_files, hidden=huge)))
        assert res.returncode == 1
        # one line: no RuntimeWarning text before it
        assert res.stderr == "error: overflow in plain attention scores: result has inf or NaN entries\n"
        assert not fuse_files["output"].exists()

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

    @pytest.mark.parametrize(
        ("setting", "message"),
        [({"lambda": "1.5"}, "lambda must be in [0, 1], got 1.5"),
         ({"mu": "-0.25"}, "mu must be in [0, 1], got -0.25"),
         ({"heads": "0"}, "heads must be >= 1, got 0"),
         ({"heads": "3"}, "d_h=8 is not divisible by heads=3")],
        ids=["lambda", "mu", "no-heads", "indivisible-heads"],
    )
    def test_bad_setting_named_with_exit_one(self, fuse_files, capsys, setting, message):
        code, err = run_main(fuse_args(fuse_files, **setting), capsys)
        assert (code, err) == (1, f"error: {message}\n")
        assert not fuse_files["output"].exists()

    def test_input_files_not_mutated(self, fuse_files, golden):
        before = {
            key: fuse_files[key].read_bytes()
            for key in ("embeddings", "weights", "hidden", "segmentation")
        }
        run_cli(*fuse_args(fuse_files))
        after = {key: fuse_files[key].read_bytes() for key in before}
        assert before == after


def perturbed_spans(rng, n):
    """A partition of n characters into [start, end] pairs, then up to two edits that may break it."""
    bounds = [0, *sorted(rng.sample(range(1, n), rng.randint(0, n - 1))), n] if n else [0]
    spans = [[a, b - 1] for a, b in zip(bounds, bounds[1:])]
    for _ in range(rng.randint(0, 2)):
        kind, at = rng.randrange(4), rng.randint(0, len(spans))
        if kind == 0 and at < len(spans):  # move one end
            spans[at][rng.randrange(2)] += rng.choice([-2, -1, 1, 2])
        elif kind == 1 and at < len(spans):
            del spans[at]
        elif kind == 2:
            spans.insert(at, [rng.randint(-1, n + 1), rng.randint(-1, n + 1)])
        elif at < len(spans):  # swap with the next span, or the first
            other = (at + 1) % len(spans)
            spans[at], spans[other] = spans[other], spans[at]
    return spans


class TestSegmentationSpans:
    """A segmentation file's spans are refused with the first problem, in order."""

    @pytest.mark.parametrize(
        ("spans", "problem"),
        [
            ([[0, 1], [3, 5]], "spans are not a contiguous partition at index 2"),
            ([[0, 2], [2, 5]], "spans are not a contiguous partition at index 3"),
            ([[0, 1], [2, 1], [2, 5]], "spans are not a contiguous partition at index 2"),
            ([[0, 1], [2, 1], [2, 3], [5, 5]], "spans are not a contiguous partition at index 2"),
            ([[0, 1], [2, 4]], "spans cover 5 characters, sentence has 6"),
            ([[0, 1], [2, 7]], "spans cover 8 characters, sentence has 6"),
            ([], "spans cover 0 characters, sentence has 6"),
        ],
        ids=["gap", "overlap", "inverted", "inverted-then-gap", "short", "overrun", "none"],
    )
    def test_bad_spans_exit_one_with_the_first_problem(self, fuse_files, tmp_path, capsys, spans, problem):
        seg = tmp_path / "bad_seg.json"
        seg.write_text(json.dumps({"sentence": "重庆人和中学", "spans": spans}, ensure_ascii=False), encoding="utf-8")
        code, err = run_main(fuse_args(dict(fuse_files, segmentation=seg)), capsys)
        assert (code, err) == (1, f"error: segmentation: {seg}: spans: {problem}\n")
        assert not fuse_files["output"].exists()

    def test_reader_agrees_with_the_span_walk(self, tmp_path):
        rng = random.Random(26)
        path = tmp_path / "seg.json"
        outcomes = {"read": 0, "refused": 0}
        for _ in range(1500):
            sentence = "".join(rng.choice("ab重庆") for _ in range(rng.randint(0, 8)))
            spans = perturbed_spans(rng, len(sentence))
            path.write_text(json.dumps({"sentence": sentence, "spans": spans}, ensure_ascii=False), encoding="utf-8")
            problem = oracles.span_partition_error(sentence, spans)
            if problem is None:
                seg = cli._read_segmentation(str(path))
                assert [list(s) for s in seg.spans] == spans
                assert seg.words == [sentence[start : end + 1] for start, end in spans]
                outcomes["read"] += 1
            else:
                with pytest.raises(ValueError) as err:
                    cli._read_segmentation(str(path))
                assert str(err.value) == f"{path}: spans: {problem}", spans
                outcomes["refused"] += 1
        assert min(outcomes.values()) >= 300, outcomes


def altered(m, how):
    """``m`` with one row too many, one column too many, or a NaN, +inf or -inf in its first entry."""
    if how == "row":
        return np.vstack([m, m[:1]])
    if how == "column":
        return np.hstack([m, m[:, :1]])
    m = m.copy()
    m[0, 0] = float(how)
    return m


class TestCheckBundle:
    """One bad tensor is named the same way by the library and by ``fuse``."""

    @pytest.mark.parametrize("how", ["row", "column", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", lexicon.BUNDLE_TENSORS)
    def test_each_tensor_checked_once(self, fuse_files, tmp_path, capsys, name, how):
        from wordfuse import attention
        from wordfuse.fusion import FusionConfig
        from wordfuse.segvote import Segmentation

        bundle = lexicon.load_bundle(fuse_files["weights"])
        bad = altered(bundle[name], how)
        weights = tmp_path / "bad_bundle.json"
        rows, cols = bundle[name].shape
        if how in ("nan", "inf", "-inf"):
            want = f"weight bundle: {name} contains non-finite entries"
            # the loader refuses a non-finite tensor before the pipeline sees it
            cli_want = f"weight bundle: {weights}: {name}: data: contains non-finite entries"
        else:
            got = f"{bad.shape[0]}x{bad.shape[1]}"
            want = cli_want = f"weight bundle: {name} is {got}, expected {rows}x{cols}"

        hidden = numerics.read_matrix(fuse_files["hidden"])
        table = lexicon.load_embeddings(fuse_files["embeddings"])
        seg = Segmentation("重庆人和中学", (0, 2, 6))
        with pytest.raises(ValueError) as info:
            attention.pipeline_forward(hidden, seg, table, dict(bundle, **{name: bad}), FusionConfig())
        assert str(info.value) == want

        raw = json.loads(fuse_files["weights"].read_text(encoding="utf-8"))
        raw[name] = {"rows": bad.shape[0], "cols": bad.shape[1], "data": bad.ravel().tolist()}
        weights.write_text(json.dumps(raw), encoding="utf-8")  # NaN, Infinity and -Infinity as such
        code, err = run_main(fuse_args(dict(fuse_files, weights=weights)), capsys)
        assert (code, err) == (1, f"error: {cli_want}\n")
        assert not fuse_files["output"].exists()

    @pytest.mark.parametrize(("name", "at"), [("W1", (2, 3)), ("b1", (0, 3))])
    def test_inf_that_tanh_hides_is_named(self, fuse_files, name, at):
        """An +inf in x W1 + b1 becomes 1 under tanh, so no stage result shows it; it is still named."""
        from wordfuse import attention, fusion
        from wordfuse.fusion import FusionConfig
        from wordfuse.segvote import Segmentation

        bundle = lexicon.load_bundle(fuse_files["weights"])
        table = lexicon.load_embeddings(fuse_files["embeddings"])
        hidden = numerics.read_matrix(fuse_files["hidden"])
        seg = Segmentation("重庆人和中学", (0, 2, 6))
        # column 2 of both words' embeddings is positive: x W1 steps to +inf in column 3, never NaN
        assert (np.array([table.vectors[w] for w in seg.words])[:, 2] > 0).all()
        bad = bundle[name].copy()
        bad[at] = np.inf
        bundle = dict(bundle, **{name: bad})
        with np.errstate(over="ignore"):
            vectors = lexicon.project_words(table, seg.words, bundle)
            mixed, _ = fusion.fuse_sequence(hidden, seg, vectors, FusionConfig())
        assert np.isfinite(mixed).all()
        with pytest.raises(ValueError) as info:
            attention.pipeline_forward(hidden, seg, table, bundle, FusionConfig())
        assert str(info.value) == f"weight bundle: {name} contains non-finite entries"


class TestFuseBundleOnThread:
    """fuse parses the weight bundle on a second thread while it reads the other inputs."""

    def test_library_loads_once_for_both_threads(self, fuse_files, tmp_path, capsys, monkeypatch):
        # the bundle thread and the main one load (or build) the library once between them
        loads, real = tmp_path / "loads", _kernel.load

        def load(reference):
            with open(loads, "a", encoding="utf-8") as f:
                f.write(f"{os.getpid()}\n")
            return real(reference)

        monkeypatch.setattr(_kernel, "load", load)
        numerics._library.cache_clear()
        try:
            assert run_main(fuse_args(fuse_files), capsys) == (0, f"wrote {fuse_files['output']}\n")
        finally:
            numerics._library.cache_clear()
        assert loads.read_text(encoding="utf-8") == f"{os.getpid()}\n"

    def test_embeddings_error_reported_before_bundle_error(self, fuse_files, tmp_path, capsys, threaded):
        embeddings = tmp_path / "bad_vecs.txt"
        embeddings.write_text("2 x\n", encoding="utf-8")
        weights = tmp_path / "bad_bundle.json"
        weights.write_text("{not json", encoding="utf-8")
        code, err = run_main(fuse_args(dict(fuse_files, embeddings=embeddings, weights=weights)), capsys)
        assert code == 1
        assert err == f"error: embeddings: {embeddings}: line 1: non-integer header '2 x'\n"

    @pytest.mark.parametrize("case", ["missing", "not-json", "bad-tensor"])
    def test_bundle_errors_unchanged(self, fuse_files, tmp_path, capsys, threaded, case):
        weights = tmp_path / "bundle.json"
        if case == "not-json":
            weights.write_text("{not json", encoding="utf-8")
        elif case == "bad-tensor":
            bundle = json.loads(fuse_files["weights"].read_text(encoding="utf-8"))
            bundle["W2"]["data"][0] = None
            weights.write_text(json.dumps(bundle), encoding="utf-8")
        # the messages the sequential loader gave, word for word, each after the input's role
        want = {
            "missing": f"error: weight bundle: [Errno 2] No such file or directory: {str(weights)!r}\n",
            "not-json": f"error: weight bundle: {weights}: not valid JSON: Expecting property name "
                        "enclosed in double quotes: line 1 column 2 (char 1)\n",
            "bad-tensor": f"error: weight bundle: {weights}: W2: data: element 0: expected a JSON number, got null\n",
        }[case]
        code, err = run_main(fuse_args(dict(fuse_files, weights=weights)), capsys)
        assert (code, err) == (1, want)
        assert not fuse_files["output"].exists()

    @pytest.mark.parametrize(
        ("case", "code"),
        [("ok", 0), ("hidden", 1), ("segmentation", 1), ("embeddings", 1), ("bundle", 1),
         ("missing-bundle", 1), ("matrix-file-output", 1), ("dimensions", 1), ("heads", 1)],
    )
    def test_no_thread_left_on_any_return(self, fuse_files, tmp_path, capsys, case, code):
        bad = tmp_path / "bad"
        bad.write_text("{oops", encoding="utf-8")
        files, extra = dict(fuse_files), {}
        if case in ("hidden", "segmentation", "embeddings"):
            files[case] = bad
        elif case == "bundle":
            files["weights"] = bad
        elif case == "missing-bundle":
            files["weights"] = tmp_path / "absent.json"
        elif case == "matrix-file-output":
            files["weights"] = tmp_path / "bundle.json"
            bundle = json.loads(fuse_files["weights"].read_text(encoding="utf-8"))
            bundle["b1"] = "b1.txt"
            files["weights"].write_text(json.dumps(bundle), encoding="utf-8")
            files["output"] = tmp_path / "b1.txt"
            numerics.write_matrix(np.zeros((1, 8)), files["output"])
        elif case == "dimensions":
            files["weights"] = tmp_path / "wide.json"
            lexicon.save_bundle(lexicon.init_bundle(42, 4, 16), files["weights"])
        elif case == "heads":
            extra["heads"] = 3
        before = threading.enumerate()
        got, err = run_main(fuse_args(files, **extra), capsys)
        assert got == code, err
        assert threading.enumerate() == before

    def test_bundle_loads_off_the_main_thread(self, fuse_files, capsys, monkeypatch):
        # a wrapper such as a tracer installs is called where the CLI looks the loader up
        threads, real = [], lexicon.load_bundle

        def wrapped(*args, **kwargs):
            threads.append(threading.current_thread())
            return real(*args, **kwargs)

        monkeypatch.setattr(lexicon, "load_bundle", wrapped)
        code, err = run_main(fuse_args(fuse_files), capsys)
        assert (code, err) == (0, f"wrote {fuse_files['output']}\n")
        assert hashlib.sha256(fuse_files["output"].read_bytes()).hexdigest() == FUSED_GOLDEN_SHA256
        assert len(threads) == 1 and threads[0] is not threading.main_thread()

    def test_out_of_memory_in_the_bundle_load(self, fuse_files, capsys, monkeypatch):
        def load_bundle(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(lexicon, "load_bundle", load_bundle)
        assert run_main(fuse_args(fuse_files), capsys) == (1, "error: fuse: out of memory\n")
        assert not fuse_files["output"].exists()

    def test_bug_in_the_bundle_load_is_internal_error(self, fuse_files, capsys, monkeypatch):
        def load_bundle(*args, **kwargs):
            raise RuntimeError("a bug")

        monkeypatch.setattr(lexicon, "load_bundle", load_bundle)
        assert run_main(fuse_args(fuse_files), capsys) == (2, "internal error: RuntimeError('a bug')\n")
        assert not fuse_files["output"].exists()

    def test_success_prints_only_the_written_path(self, fuse_files):
        # -W always prints every DeprecationWarning the run gives, and there must be none
        res = subprocess.run(
            [sys.executable, "-W", "always::DeprecationWarning", "-m", "wordfuse.cli",
             *map(str, fuse_args(fuse_files))],
            capture_output=True, text=True, encoding="utf-8",
        )
        assert (res.returncode, res.stderr) == (0, f"wrote {fuse_files['output']}\n")
        assert hashlib.sha256(fuse_files["output"].read_bytes()).hexdigest() == FUSED_GOLDEN_SHA256


def with_entries(golden_embeddings, entries: bytes, count: int):
    """The golden embeddings text with ``entries``, ``count`` entry lines of ``不用`` not in the sentence, first."""
    header, body = golden_embeddings.read_bytes().split(b"\n", 1)
    total, dim = map(int, header.split())
    return f"{total + count} {dim}\n".encode() + entries + body


class TestFuseKeepsTheSentenceRows:
    """fuse keeps the embeddings of its sentence's words alone, but reads and checks every entry."""

    @pytest.mark.parametrize(
        ("entry", "problem"),
        [(b"\xe4\xb8\x8d\xe7\x94\xa8 0.5 1e400 0.25 0.125\n", "non-finite value in vector"),
         (b"\xe4\xb8\x8d\xe7\x94\xa8 0.5 0.25 0.125\n", "expected a word and 4 values, got 4 fields"),
         (b"\xe4\xb8\x8d\xff 0.5 0.25 0.125 1.0\n", "not valid UTF-8: invalid start byte")],
        ids=["1e400", "field count", "bad UTF-8 word"],
    )
    def test_a_bad_entry_of_an_unused_word_is_refused(self, fuse_files, tmp_path, capsys, threaded, entry, problem):
        embeddings = tmp_path / "vecs.txt"
        embeddings.write_bytes(with_entries(fuse_files["embeddings"], entry, 1))
        with pytest.raises(ValueError) as full:
            lexicon.load_embeddings(embeddings)
        assert str(full.value) == f"{embeddings}: line 2: {problem}"
        code, err = run_main(fuse_args(dict(fuse_files, embeddings=embeddings)), capsys)
        assert (code, err) == (1, f"error: embeddings: {full.value}\n")
        assert not fuse_files["output"].exists()

    def test_duplicates_of_an_unused_word_are_still_logged(self, fuse_files, tmp_path, capsys, caplog):
        embeddings = tmp_path / "vecs.txt"
        embeddings.write_bytes(with_entries(fuse_files["embeddings"], "不用 0.5 0.25 0.125 1.0\n".encode() * 2, 2))
        code, err = run_main(fuse_args(dict(fuse_files, embeddings=embeddings)), capsys)
        assert code == 0, err
        assert [r.getMessage() for r in caplog.records if r.name == lexicon.log.name] == [
            f"{embeddings}: 1 duplicate words, last occurrence kept"]
        assert hashlib.sha256(fuse_files["output"].read_bytes()).hexdigest() == FUSED_GOLDEN_SHA256


EDGE_PATHS = ["directory", "/dev/null", "empty file", "missing file"]


def edge_path(tmp_path, case):
    """The path of an EDGE_PATHS case, or of a "file in a missing directory", made ready under tmp_path."""
    path = {"directory": tmp_path / "dir", "/dev/null": os.devnull, "empty file": tmp_path / "empty",
            "missing file": tmp_path / "missing", "file in a missing directory": tmp_path / "nodir" / "out"}[case]
    if case == "directory":
        path.mkdir()
    elif case == "empty file":
        path.write_bytes(b"")
    return path


# how fuse's messages name each input
ROLES = {"hidden": "hidden states", "segmentation": "segmentation", "embeddings": "embeddings",
         "weights": "weight bundle"}


class TestFusePathEdgeCases:
    """Each path argument of fuse replaced in turn by something it cannot read or write."""

    @pytest.mark.parametrize("case", EDGE_PATHS)
    @pytest.mark.parametrize("key", ["config", "embeddings", "weights", "hidden", "segmentation"])
    def test_an_unusable_input_exits_one_naming_it(self, fuse_files, tmp_path, capsys, key, case):
        path = edge_path(tmp_path, case)
        files, extra = dict(fuse_files), {}
        if key == "config":
            extra["config"] = path
        else:
            files[key] = path
        code, err = run_main(fuse_args(files, **extra), capsys)
        assert code == 1 and str(path) in err, err
        assert not fuse_files["output"].exists()
        if key != "config":  # an OS error too, for a directory or a missing file, names the input's role
            assert err.startswith(f"error: {ROLES[key]}: " + "[Errno " * (case in ("directory", "missing file"))), err

    # /dev/null, an empty file and a missing file are outputs fuse can write
    @pytest.mark.parametrize("case", ["directory", "file in a missing directory"])
    def test_an_unwritable_output_exits_one_naming_it(self, fuse_files, tmp_path, capsys, case):
        out = tmp_path / "dir" if case == "directory" else tmp_path / "missing" / "fused.txt"
        if case == "directory":
            out.mkdir()
        code, err = run_main(fuse_args(dict(fuse_files, output=out)), capsys)
        assert code == 1 and str(out) in err, err
        assert list(out.iterdir()) == [] if case == "directory" else not out.parent.exists()


class TestVoteAndInitWeightsPathEdgeCases:
    """The paths of vote and init-weights replaced in turn by something they may not read or write."""

    @pytest.mark.parametrize("case", EDGE_PATHS)
    def test_vote_input(self, tmp_path, capsys, case):
        path, out = edge_path(tmp_path, case), tmp_path / "voted.jsonl"
        code, err = run_main(["vote", "--input", path, "--output", out], capsys)
        assert code in (0, 1), err
        if code == 1:
            assert str(path) in err and not out.exists(), err
        else:  # nothing to read: no records
            assert (err, out.read_bytes()) == ("", b"")

    @pytest.mark.parametrize("command", ["vote", "init-weights"])
    @pytest.mark.parametrize("case", [*EDGE_PATHS, "file in a missing directory"])
    def test_output(self, golden, tmp_path, capsys, command, case):
        out = edge_path(tmp_path, case)
        argv = {"vote": ["vote", "--input", golden / "vote_record.jsonl"],
                "init-weights": ["init-weights", "--dw", 4, "--dh", 8]}[command]
        code, err = run_main([*argv, "--output", out], capsys)
        assert code in (0, 1), err
        if code == 1:
            assert str(out) in err, err
            assert list(out.iterdir()) == [] if case == "directory" else not out.parent.exists()
        elif out != os.devnull:
            assert out.stat().st_size > 0


# the golden inputs, by the argument that takes each: fuse's, then vote's --input
GOLDEN_INPUTS = {"toy_embeddings.txt": "embeddings", "bundle_seed42.json": "weights", "hidden_6x8.txt": "hidden",
                 "vote_record.jsonl": "input"}


def damaged(data: bytes, how: str, rng) -> list[bytes]:
    """16 copies of ``data``, each cut short or with one bit of a byte flipped, at seeded places."""
    if how == "truncated":
        return [data[:at] for at in sorted(rng.choice(len(data), size=16, replace=False))]
    copies = []
    for at, bit in zip(rng.integers(0, len(data), 16), rng.integers(0, 8, 16)):
        copy = bytearray(data)
        copy[at] ^= 1 << bit
        copies.append(bytes(copy))
    return copies


class TestDamagedGoldenInputs:
    """Each input file of fuse and vote, cut short or with a bit flipped, exits 0 or 1 and names itself.

    The golden inputs, a config file of the four settings, and the segmentation file vote writes
    from the golden record.
    """

    @pytest.mark.parametrize("how", ["truncated", "flipped"])
    @pytest.mark.parametrize("name", [*sorted(GOLDEN_INPUTS), "config", "segmentation"])
    def test_exits_zero_or_one_naming_the_input(self, golden, fuse_files, tmp_path, capsys, name, how):
        path, out = tmp_path / name, tmp_path / "out"
        files = dict(fuse_files, output=out)
        if name == "config":
            path.write_text(json.dumps({"lambda": 0.3, "mu": 0.7, "heads": 2, "debug_intermediates": False}) + "\n")
            argv, named = fuse_args(files, config=path), f"error: {path}: "
        elif name == "segmentation":
            assert run_main(["vote", "--input", golden / "vote_record.jsonl", "--output", path], capsys) == (0, "")
            argv, named = fuse_args(dict(files, segmentation=path)), "error: segmentation: "
        else:
            key = GOLDEN_INPUTS[name]
            path.write_bytes((golden / name).read_bytes())
            if key == "input":
                argv, named = ["vote", "--input", path, "--output", out], f"error: {path}: "
            else:
                argv, named = fuse_args(dict(files, **{key: path})), f"error: {ROLES[key]}: "
        for data in damaged(path.read_bytes(), how, np.random.default_rng(list(f"{name} {how}".encode()))):
            path.write_bytes(data)
            code, err = run_main(argv, capsys)
            assert code in (0, 1), (data, err)
            if code == 1:
                assert err.startswith(named) and not out.exists(), (data, err)
            else:
                out.unlink()


def run_cli_file_limit(limit, *argv):
    """``run_cli`` in a process that may not write past ``limit`` bytes of any file."""

    def lower_limit():
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

    return run_cli(*argv, preexec_fn=lower_limit, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))


class TestAtomicOutputs:
    """A failed write leaves the old output byte for byte, and no temp file."""

    @staticmethod
    def argv(command, fuse_files, golden, out):
        if command == "init-weights":
            return ["init-weights", "--seed", 7, "--dw", 20, "--dh", 64, "--output", out]
        if command == "fuse":
            return fuse_args(dict(fuse_files, output=out))
        return ["vote", "--input", golden / "vote_record.jsonl", "--output", out]

    @pytest.mark.parametrize("command", ["init-weights", "fuse", "vote"])
    def test_file_size_limit_keeps_old_output(self, command, fuse_files, golden, tmp_path):
        out = tmp_path / "keep.out"
        out.write_bytes(b"the previous good output\n")
        argv = self.argv(command, fuse_files, golden, out)
        before = sorted(tmp_path.iterdir())
        res = run_cli_file_limit(64, *argv)
        assert res.returncode == 1, res.stderr
        assert res.stderr == f"error: [Errno 27] File too large: {str(out)!r}\n"
        assert out.read_bytes() == b"the previous good output\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["init-weights", "fuse", "vote"])
    @pytest.mark.parametrize("stdout", ["pipe", "appended-log"])
    def test_dev_stdout_written_through(self, command, stdout, fuse_files, golden, tmp_path):
        want = tmp_path / "want.out"
        assert run_cli(*self.argv(command, fuse_files, golden, want)).returncode == 0
        argv = [sys.executable, "-m", "wordfuse.cli", *map(str, self.argv(command, fuse_files, golden, "/dev/stdout"))]
        if stdout == "pipe":
            res = subprocess.run(argv, capture_output=True)
            written = res.stdout
        else:
            log = tmp_path / "log.txt"
            log.write_bytes(b"earlier lines\n")
            with open(log, "ab") as f:
                res = subprocess.run(argv, stdout=f, stderr=subprocess.PIPE)
            written = log.read_bytes().removeprefix(b"earlier lines\n")
            assert log.read_bytes().startswith(b"earlier lines\n")
        assert (res.returncode, res.stderr) == (0, b"" if command == "vote" else b"wrote /dev/stdout\n")
        assert written == want.read_bytes()

    def test_file_size_limit_on_a_fresh_path_leaves_nothing(self, tmp_path):
        res = run_cli_file_limit(4096, "init-weights", "--dw", 20, "--dh", 64, "--output", tmp_path / "b.json")
        assert res.returncode == 1, res.stderr
        assert list(tmp_path.iterdir()) == []


class TestLocatedInputErrors:
    """Invalid UTF-8 and invalid JSON name the file, exit 1."""

    def test_vote_input_not_utf8(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        src.write_bytes(b'{"sentence": "ab", "tokenizations": [["ab"]]}\n{"sentence": "\xff"}\n')
        code, err = run_main(["vote", "--input", src], capsys)
        assert (code, err) == (1, f"error: {src}: line 2: not valid UTF-8: invalid start byte\n")

    @pytest.mark.parametrize(
        ("record", "problem"),
        [
            ({"sentence": "a\ud800b", "tokenizations": [["a\ud800b"]]},
             "sentence: lone surrogate U+D800 at character 1"),
            ({"sentence": "ab", "tokenizations": [["ab"], ["a", "\udc00b"]]},
             "tokenizations: element 1: element 1: lone surrogate U+DC00 at character 0"),
        ],
        ids=["sentence", "tokenization"],
    )
    def test_vote_lone_surrogate(self, tmp_path, capsys, record, problem):
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps({"sentence": "ab", "tokenizations": [["ab"]]}) + "\n" + json.dumps(record) + "\n",
                       encoding="utf-8")
        code, err = run_main(["vote", "--input", src, "--output", tmp_path / "out.jsonl"], capsys)
        assert (code, err) == (1, f"error: {src}: line 2: {problem}\n")
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize(
        ("record", "problem"),
        [
            ({"sentence": "重庆人和中\ud800", "spans": [[0, 1], [2, 5]]}, "sentence: lone surrogate U+D800 at character 5"),
            ({"sentence": "重庆人和中学", "words": ["重庆", "人和\udfff中学"]},
             "words: element 1: lone surrogate U+DFFF at character 2"),
        ],
        ids=["sentence", "words"],
    )
    def test_segmentation_lone_surrogate(self, fuse_files, tmp_path, capsys, record, problem):
        seg = tmp_path / "seg.json"
        seg.write_text(json.dumps(record), encoding="utf-8")
        code, err = run_main(fuse_args(dict(fuse_files, segmentation=seg)), capsys)
        assert (code, err) == (1, f"error: segmentation: {seg}: {problem}\n")
        assert not fuse_files["output"].exists()

    def test_config_lone_surrogate(self, fuse_files, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"output": "out\ud800.txt"}), encoding="utf-8")
        argv = fuse_args(fuse_files)
        code, err = run_main(argv[: argv.index("--output")] + ["--config", config], capsys)
        assert (code, err) == (1, f"error: {config}: output: lone surrogate U+D800 at character 3\n")

    def test_bundle_path_lone_surrogate(self, fuse_files, tmp_path, capsys, threaded):
        raw = json.loads(fuse_files["weights"].read_text(encoding="utf-8"))
        raw["W1"] = "w\ud800.txt"
        bundle = tmp_path / "sb.json"
        bundle.write_text(json.dumps(raw), encoding="utf-8")
        code, err = run_main(fuse_args(dict(fuse_files, weights=bundle)), capsys)
        assert (code, err) == (1, f"error: weight bundle: {bundle}: W1: lone surrogate U+D800 at character 1\n")
        assert not fuse_files["output"].exists()

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"], ids=["U+2028", "U+2029", "U+0085"])
    def test_not_utf8_line_after_a_raw_line_separator(self, fuse_files, tmp_path, capsys, char):
        # JSON strings may hold these raw; vote and the JSON readers number lines at "\n" alone
        src = tmp_path / "in.jsonl"
        record = json.dumps({"sentence": f"a{char}b", "tokenizations": [[f"a{char}b"]]}, ensure_ascii=False)
        src.write_bytes(f"{record}\n".encode() + b'{"sentence": "\xff"}\n')
        code, err = run_main(["vote", "--input", src], capsys)
        assert (code, err) == (1, f"error: {src}: line 2: not valid UTF-8: invalid start byte\n")
        seg = tmp_path / "seg.json"
        seg.write_bytes(f'{{"sentence": "a{char}b",\n'.encode() + b' "words": ["\xff"]}\n')
        code, err = run_main(fuse_args(dict(fuse_files, segmentation=seg)), capsys)
        assert (code, err) == (1, f"error: segmentation: {seg}: line 2: not valid UTF-8: invalid start byte\n")

    @pytest.mark.parametrize(
        ("key", "data", "prefix", "line"),
        [("hidden", b"2 1\n0.5\n\xff\n", "hidden states: ", 3),
         ("segmentation", b'{"sentence":\n "\xff"}\n', "segmentation: ", 2),
         ("weights", b'{"W1":\n\n"\xfe"}\n', "weight bundle: ", 3)],
        ids=["hidden", "segmentation", "weights"],
    )
    def test_fuse_input_not_utf8(self, fuse_files, tmp_path, capsys, threaded, key, data, prefix, line):
        bad = tmp_path / f"bad_{key}"
        bad.write_bytes(data)
        code, err = run_main(fuse_args(dict(fuse_files, **{key: bad})), capsys)
        assert (code, err) == (1, f"error: {prefix}{bad}: line {line}: not valid UTF-8: invalid start byte\n")
        assert not fuse_files["output"].exists()

    @pytest.mark.parametrize(
        ("key", "lines", "prefix"),
        [("segmentation", 1, "segmentation: "), ("segmentation", 2, "segmentation: "),
         ("weights", 1, "weight bundle: ")],
        ids=["segmentation", "segmentation-two-lines", "weights"],
    )
    def test_fuse_input_nested_too_deeply(self, fuse_files, tmp_path, capsys, threaded, key, lines, prefix):
        bad = tmp_path / f"deep_{key}"
        bad.write_text(("[" * 100000 + "]" * 100000 + "\n") * lines, encoding="utf-8")
        code, err = run_main(fuse_args(dict(fuse_files, **{key: bad})), capsys)
        assert (code, err) == (1, f"error: {prefix}{bad}: JSON nested too deeply\n")
        assert not fuse_files["output"].exists()

    @pytest.mark.parametrize("key", ["hidden", "weights"])
    def test_matrix_header_larger_than_the_file(self, fuse_files, tmp_path, capsys, threaded, key):
        # the header must not size an allocation: 10**11 values would be a MemoryError, exit 2
        matrix = tmp_path / "huge.txt"
        matrix.write_text("1 100000000000\n1.0\n", encoding="utf-8")
        files, prefix = dict(fuse_files, hidden=matrix), "hidden states: "
        if key == "weights":  # a bundle tensor stored as a matrix file
            bundle = json.loads(fuse_files["weights"].read_text(encoding="utf-8"))
            files["weights"] = tmp_path / "bundle.json"
            files["weights"].write_text(json.dumps(dict(bundle, W2="huge.txt")), encoding="utf-8")
            files["hidden"], prefix = fuse_files["hidden"], f"weight bundle: {files['weights']}: W2: "
        code, err = run_main(fuse_args(files), capsys)
        assert (code, err) == (1, f"error: {prefix}{matrix}: line 2: expected 100000000000 values, got 1\n")
        assert not fuse_files["output"].exists()

    def test_config_nested_too_deeply(self, fuse_files, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        code, err = run_main(fuse_args(fuse_files, config=config), capsys)
        assert (code, err) == (1, f"error: {config}: JSON nested too deeply\n")
        assert not fuse_files["output"].exists()

    def test_config_not_utf8(self, fuse_files, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_bytes(b'{\n\n"\xff": 1}\n')
        code, err = run_main(fuse_args(fuse_files, config=config), capsys)
        assert (code, err) == (1, f"error: {config}: line 3: not valid UTF-8: invalid start byte\n")

    def test_config_not_json(self, fuse_files, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("{lambda: 0.5}", encoding="utf-8")
        code, err = run_main(fuse_args(fuse_files, config=config), capsys)
        assert (code, err) == (1, f"error: {config}: not valid JSON: Expecting property name enclosed "
                                  "in double quotes: line 1 column 2 (char 1)\n")


class TestCheck:
    def test_passes_with_default_budget(self):
        res = run_cli("check", "--cases", 40)
        assert res.returncode == 0, res.stdout + res.stderr
        assert "FAIL" not in res.stdout
        lines = [l for l in res.stdout.splitlines() if "  PASS" in l]
        assert len(lines) >= 15
        assert "0 failed" in res.stdout

    def test_corrupt_softmax_caught(self, monkeypatch, capsys):
        real = numerics.softmax_rows
        # inflates every row just past the tolerance
        monkeypatch.setattr(numerics, "softmax_rows", lambda m: real(m) * (1.0 + 1e-6))
        assert cli.main(["check", "--cases", "10"]) == 1
        rows = [line for line in capsys.readouterr().out.splitlines() if line.endswith(("PASS", "FAIL"))]
        assert len(rows) == len(check.PROPERTIES)
        assert [row for row in rows if row.endswith("FAIL")] == [
            row for row in rows if row.startswith("softmax rows sum to one")
        ]

    def test_a_property_that_raises_still_prints_the_whole_table(self, monkeypatch, capsys):
        def vote(sentence, tokenizations):
            raise ValueError("a broken vote")

        monkeypatch.setattr(segvote, "vote", vote)
        assert cli.main(["check", "--cases", "5"]) == 1
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if line.endswith(("PASS", "FAIL"))]
        assert [row.split("  ")[0] for row in rows] == [name for name, _ in check.PROPERTIES]
        # the malformed-input property builds its valid records by vote
        assert {row.split("  ")[0] for row in rows if row.endswith("FAIL")} == {
            "vote always yields a valid deterministic partition", "unanimous voters keep their segmentation",
            "a single voter is returned unchanged", "malformed input is refused with a located message"}
        assert out.count("ValueError: a broken vote") == 4

    def test_omega_property_catches_a_key_moved_into_the_next_word(self, monkeypatch):
        from wordfuse import fusion

        real, seen = fusion.fuse_sequence, []

        def fuse_sequence(h, seg, *args):
            fused, omega = real(h, seg, *args)
            # the first word's key moves to the second word's last character, unless that is its key
            if len(seg.starts) > 2 and seg.starts[2] - 1 not in omega:
                omega = omega - {min(omega)} | {seg.starts[2] - 1}
                seen.append((seg, omega))
            return fused, omega

        monkeypatch.setattr(fusion, "fuse_sequence", fuse_sequence)
        with pytest.raises(check.CheckFailure, match="holds no key, or more than one"):
            check._check_omega_keys(np.random.default_rng(0), 50)
        assert seen
        # the moved key still passes the older test: as many keys as words, each inside some word
        for seg, omega in seen:
            assert len(omega) == len(seg.words) and all(any(s.start <= i <= s.end for s in seg.spans) for i in omega)

    def test_seed_changes_are_still_green(self):
        res = run_cli("check", "--cases", 15, "--seed", 777)
        assert res.returncode == 0, res.stdout

    def test_bundle_property_catches_a_wrong_python_printer(self, monkeypatch, no_library):
        # the printer numerics.print_rows runs without the library: -0.0 + 0.0 is 0.0
        monkeypatch.setattr(numerics, "repr", lambda x: repr(x + 0.0), raising=False)
        results = {r.name: r for r in check.run_checks(cases=5)}
        assert not results["saved bundle equals the serial JSON encoding"].passed
        assert sum(not r.passed for r in results.values()) == 1

    @pytest.mark.skipif(numerics.matmul_kernel().format_rows is None, reason="the compiled library did not load")
    def test_bundle_property_catches_a_wrong_compiled_printer(self, monkeypatch):
        kernel = numerics.matmul_kernel()
        wrong = dataclasses.replace(kernel, format_rows=lambda values, *args: kernel.format_rows(values + 0.0, *args))
        monkeypatch.setattr(numerics, "matmul_kernel", lambda: wrong)
        results = {r.name: r for r in check.run_checks(cases=5)}
        assert not results["saved bundle equals the serial JSON encoding"].passed
        assert sum(not r.passed for r in results.values()) == 1

    def test_record_property_catches_a_leaked_type_error(self, monkeypatch):
        # records keep their required fields but no field's kind is checked, so a
        # mistyped field reaches code that raises TypeError
        real = numerics.check_record
        monkeypatch.setattr(numerics, "check_record", lambda record, fields, required=(), closed=None:
                            real(record, {}, required))
        results = {r.name: r for r in check.run_checks(cases=5)}
        failed = results["malformed input is refused with a located message"]
        assert not failed.passed and "TypeError" in failed.failure
        assert sum(not r.passed for r in results.values()) == 1

    @pytest.mark.skipif(numerics.matmul_kernel().parse_rows is None, reason="the compiled library did not load")
    @pytest.mark.parametrize(("fault", "also_failed"), [
        ("last bit", {"matrix text format round-trips exactly"}),
        ("float() spellings", {"malformed input is refused with a located message"}),
        ("-0 read as -0.0", set()),
    ])
    def test_number_property_catches_a_wrong_parser(self, tmp_path, monkeypatch, fault, also_failed):
        real = numerics.matmul_kernel()
        if fault == "-0 read as -0.0":  # a library built without the refusal, which its known-answer check refuses
            monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path)
            refusal = "!m && negative && p == s + 2"
            assert _kernel.SOURCE.count(refusal) == 1
            monkeypatch.setattr(_kernel, "SOURCE", _kernel.SOURCE.replace(refusal, "0"))
            refused = _kernel.load(numerics.matmul_numpy)
            assert refused.parse_rows is None and refused.detail.endswith("parses numbers unlike float()")
            (library,) = tmp_path.glob("*.so")
            parse_rows = _kernel._bind(library)["parse_rows"]
        else:
            def parse_rows(data, out, spans=None, eol="\n"):
                if fault == "float() spellings":  # all that float() takes, outside the grammar too
                    values = [float(t) for t in bytes(data).replace(eol.encode(), b" ").split()]
                    out.flat[: len(values)] = values
                    return len(values) // out.shape[1]
                read = real.parse_rows(data, out, spans, eol)
                if read is not None:
                    out[:read].view(np.uint64)[...] ^= np.uint64(1)
                return read

        monkeypatch.setattr(numerics, "matmul_kernel", lambda: dataclasses.replace(real, parse_rows=parse_rows))
        results = {r.name: r for r in check.run_checks(cases=20)}
        failed = {name for name, r in results.items() if not r.passed}
        assert failed == {"number text parses to float()'s bits", *also_failed}

    def test_rejects_non_positive_cases(self):
        res = run_cli("check", "--cases", 0)
        assert res.returncode == 1

    def test_rejects_a_negative_seed_naming_the_flag(self, capsys):
        code, err = run_main(["check", "--seed", "-1"], capsys)
        assert (code, err) == (1, "error: --seed must be >= 0, got -1\n")

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 42])
    def test_init_weights_refuses_a_seed_outside_64_bits(self, tmp_path, capsys, seed):
        # SplitMix64 reduces its seed mod 2**64, so 2**64 + 42 would write the bundle of seed 42
        out = tmp_path / "w.json"
        code, err = run_main(["init-weights", "--seed", seed, "--dw", 4, "--dh", 8, "--output", out], capsys)
        assert (code, err) == (1, f"error: --seed must be in [0, 2**64), got {seed}\n")
        assert not out.exists()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_init_weights_takes_the_ends_of_the_seed_range(self, tmp_path, capsys, seed):
        out = tmp_path / "w.json"
        code, err = run_main(["init-weights", "--seed", seed, "--dw", 4, "--dh", 8, "--output", out], capsys)
        assert (code, err) == (0, f"wrote {out}\n")
        assert np.array_equal(lexicon.load_bundle(out)["W1"], lexicon.init_bundle(seed, 4, 8)["W1"])


# ``wordfuse argv...`` with the matmul library cached in argv[1]
CACHED_CLI = ("import sys; from pathlib import Path; from wordfuse import _kernel, cli; "
              "_kernel.CACHE_DIR = Path(sys.argv[1]); sys.exit(cli.main(sys.argv[2:]))")


class TestMatmulKernel:
    def test_check_names_the_kernel(self):
        res = run_cli("check", "--cases", 5)
        assert res.returncode == 0, res.stdout + res.stderr
        assert res.stdout.startswith(f"matmul kernel: {numerics.matmul_kernel()}\n")

    def test_pytest_header_names_the_numeric_paths(self, monkeypatch):
        import conftest

        monkeypatch.delenv("NPY_DISABLE_CPU_FEATURES", raising=False)
        monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
        assert conftest.pytest_report_header(None) == [
            f"matmul kernel: {numerics.matmul_kernel()}", f"numpy: {np.__version__}", "OPENBLAS_CORETYPE=Haswell"]

    def test_without_cc_output_bytes_are_unchanged(self, fuse_files, tmp_path):
        env = dict(os.environ, PATH=str(tmp_path))
        res = run_cli(*fuse_args(fuse_files), env=env)
        assert res.returncode == 0, res.stderr
        assert hashlib.sha256(fuse_files["output"].read_bytes()).hexdigest() == FUSED_GOLDEN_SHA256
        res = run_cli("check", "--cases", 5, env=env)
        assert res.returncode == 0, res.stdout
        assert res.stdout.startswith("matmul kernel: NumPy (no C compiler: 'cc' is not on PATH)\n")

    @pytest.mark.parametrize("damage", ["truncated", "garbage"])
    def test_damaged_cached_library_never_exits_2(self, fuse_files, tmp_path, damage):
        cache = tmp_path / "cache"
        argv = [sys.executable, "-c", CACHED_CLI, cache, *fuse_args(fuse_files)]
        assert subprocess.run(list(map(str, argv)), capture_output=True).returncode == 0
        for library in cache.glob("*.so"):
            whole = library.read_bytes()
            library.write_bytes(whole[: len(whole) // 2] if damage == "truncated" else b"\x7fELF garbage")
        res = subprocess.run(list(map(str, argv)), capture_output=True, text=True, encoding="utf-8")
        assert res.returncode == 0, res.stderr
        assert hashlib.sha256(fuse_files["output"].read_bytes()).hexdigest() == FUSED_GOLDEN_SHA256


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        res = run_cli("frobnicate")
        assert res.returncode == 2  # argparse usage errors exit 2

    def test_user_data_errors_exit_one(self, tmp_path):
        res = run_cli("vote", "--input", tmp_path / "absent.jsonl")
        assert res.returncode == 1

    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("command", ["check", "vote"])
    def test_closed_stdout_exits_one_quietly(self, golden, command, buffered):
        # like ``wordfuse check | head -2``: nothing on stderr, not even at interpreter exit
        argv = ["check", "--cases", "5"] if command == "check" else ["vote", "--input", golden / "vote_record.jsonl"]
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            res = subprocess.run([sys.executable, "-m", "wordfuse.cli", *map(str, argv)], stdout=write_end,
                                 stderr=subprocess.PIPE, env=env, text=True, encoding="utf-8", timeout=120)
        finally:
            os.close(write_end)
        assert (res.returncode, res.stderr) == (1, "")

    def test_named_fifo_without_reader_reports_its_path(self, golden, tmp_path, capsys, monkeypatch):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        reader = [os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)]

        def open_then_lose_reader(file, *args, **kwargs):
            f = open(file, *args, **kwargs)
            if os.fspath(file) == str(fifo) and reader:
                os.close(reader.pop())  # the reader leaves once the output is open
            return f

        monkeypatch.setattr(numerics, "open", open_then_lose_reader, raising=False)
        code, err = run_main(["vote", "--input", golden / "vote_record.jsonl", "--output", fifo], capsys)
        assert (code, err) == (1, f"error: [Errno 32] Broken pipe: {str(fifo)!r}\n")
        assert not reader
