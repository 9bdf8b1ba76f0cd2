import hashlib
import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import oracles
from oracles import BUNDLE_SEED42_SHA256
from wordfuse import check, lexicon, numerics

# Frozen digest of the float64 bytes of init_bundle(2022, 200, 768), tensors in
# BUNDLE_TENSORS order, as the scalar SplitMix64 loop produced them.
INIT_BUNDLE_2022_PAPER_SHAPE_SHA256 = (
    "632c95599df0e5af75d421edaa17ddd33af832941202cd9f18d9fc295205a59b"
)


def write_embeddings(path, entries, dim):
    lines = [f"{len(entries)} {dim}"]
    for word, vec in entries:
        lines.append(word + " " + " ".join(repr(float(v)) for v in vec))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadEmbeddings:
    def test_golden_toy_table(self, golden):
        table = lexicon.load_embeddings(golden / "toy_embeddings.txt")
        assert table.dim == 4
        assert lexicon.lookup(table, "重庆").tolist() == [0.5, -0.25, 0.125, 1.0]
        assert table.duplicates == 0

    def test_unk_row_used_for_oov(self, tmp_path):
        p = tmp_path / "e.txt"
        write_embeddings(p, [("foo", [1, 2]), (lexicon.UNK_TOKEN, [0.5, -0.5])], 2)
        table = lexicon.load_embeddings(p)
        assert lexicon.lookup(table, "missing").tolist() == [0.5, -0.5]

    def test_missing_unk_falls_back_to_zeros(self, tmp_path):
        p = tmp_path / "e.txt"
        write_embeddings(p, [("foo", [1, 2])], 2)
        table = lexicon.load_embeddings(p)
        assert lexicon.lookup(table, "missing").tolist() == [0.0, 0.0]

    def test_lookup_returns_a_copy(self, tmp_path):
        p = tmp_path / "e.txt"
        write_embeddings(p, [("foo", [1, 2])], 2)
        table = lexicon.load_embeddings(p)
        lexicon.lookup(table, "foo")[0] = 99.0
        assert lexicon.lookup(table, "foo").tolist() == [1.0, 2.0]

    def test_duplicate_last_wins_and_warns(self, tmp_path, caplog):
        p = tmp_path / "e.txt"
        write_embeddings(p, [("foo", [1, 2]), ("foo", [9, 9])], 2)
        with caplog.at_level("WARNING", logger="wordfuse.lexicon"):
            table = lexicon.load_embeddings(p)
        assert lexicon.lookup(table, "foo").tolist() == [9.0, 9.0]
        assert table.duplicates == 1
        assert any("duplicate" in r.message for r in caplog.records)

    def test_nfc_normalization_unifies_lookup(self, tmp_path):
        p = tmp_path / "e.txt"
        # decomposed e + combining acute in the file, composed form queried
        write_embeddings(p, [("é", [1, 2])], 2)
        table = lexicon.load_embeddings(p)
        assert lexicon.lookup(table, "é").tolist() == [1.0, 2.0]

    def test_malformed_header_names_line(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("not-a-header\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            lexicon.load_embeddings(p)

    def test_wrong_field_count_names_line(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("1 3\nfoo 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            lexicon.load_embeddings(p)

    def test_entry_count_enforced(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("2 2\nfoo 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected 2 entries"):
            lexicon.load_embeddings(p)

    def test_non_finite_vector_rejected(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("1 2\nfoo nan 1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            lexicon.load_embeddings(p)

    @pytest.mark.parametrize(
        "text",
        [
            "2 2\r\nfoo 1 2\r\nbar 3 4\r\n",  # CRLF
            "2 2\rfoo 1 2\rbar 3 4",  # bare CR, no final newline
            "2 2\nfoo 1 2\nbar 3 4\n \n\t\n\u3000\n",  # trailing whitespace-only lines
            "2 2\nfoo 1 2\n\nbar 3 4\n",  # inner blank line
            "3 2\nfoo 1 2\n\nbar 3 4\n",  # inner blank line counted as an entry
            "2 2\nfoo 1\u20282\nbar 3 4\n",  # U+2028 splits a line
            "3 2\nfoo 1 2\nx\x853 4\nbar 3 4\n",  # NEL splits a line
            "3 2\nfoo 1 2\nbar 3 4\n",  # too few entries
            "1 2\nfoo 1 2\nbar 3 4\n",  # too many entries
            "1 2\nfoo 1 2\nbar 3 4 5\n",  # too many entries and a bad line: the count wins
            "3 2\nfoo 1 2\nbar inf 4\nbaz 5 6\n",  # located non-finite value
            "3 2\nfoo 1 2\nbar 1e400 4\nbaz x 6\n",  # non-finite before an invalid number
            "3 2\nfoo 1 2\nbar 3 4 5\nbaz nan 6\n",  # bad field count before a non-finite value
            "3 2\nfoo 1 2\nbar 1_0 -0.0\nfoo 5 6\n",  # float() spellings and a duplicate
            "2 2\ne\u0301 1 2\n\u00e9 3 4\n",  # duplicate after NFC
            " \n2 2\nfoo 1 2\n",  # blank header line
            " \n\n",  # whitespace only
            "0 3\n",  # empty table
            "2 0\n",  # bad header values
        ],
    )
    @pytest.mark.parametrize("words", [None, ["foo", "\u00e9"]], ids=["all", "subset"])
    def test_streamed_reader_matches_whole_file_reader(self, tmp_path, text, words):
        p = tmp_path / "e.txt"
        p.write_bytes(text.encode("utf-8"))
        try:
            dim, vectors, duplicates = oracles.load_embeddings_whole_file(p)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                lexicon.load_embeddings(p, words)
            assert str(got.value) == str(err)
            return
        if words is not None:
            vectors = {w: v for w, v in vectors.items() if w in {*words, lexicon.UNK_TOKEN}}
        table = lexicon.load_embeddings(p, words)
        assert (table.dim, table.duplicates) == (dim, duplicates)
        assert list(table.vectors) == list(vectors)
        for word, vec in vectors.items():
            assert table.vectors[word].tobytes() == np.array(vec).tobytes()

    @pytest.mark.parametrize(
        ("header", "message"),
        [
            ("999999999999 2", "expected 999999999999 entries, found 1"),
            ("1 999999999999", "line 2: expected a word and 999999999999 values, got 3 fields"),
        ],
    )
    def test_huge_header_fails_without_allocating(self, tmp_path, header, message):
        p = tmp_path / "e.txt"
        p.write_text(f"{header}\nfoo 1 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            lexicon.load_embeddings(p)

    def test_invalid_utf8_names_line(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_bytes(b"2 2\nfoo 1 2\nb\xffr 3 4\n")
        with pytest.raises(ValueError, match="line 3: not valid UTF-8"):
            lexicon.load_embeddings(p)


# the SHA-256 of the file save_bundle(init_bundle(2022, 200, 768)) writes,
# as the serial json.dumps writer produced it
BUNDLE_2022_PAPER_SHAPE_FILE_SHA256 = (
    "59dd8a040fe8ba08b64d9eaed4f2bdaf19540365de20e3d5afd85eb14b05dfe3"
)

def edge_bundle(rng, shapes):
    """A bundle with the given shape per tensor; about a third of the entries are edge values."""
    bundle = {}
    for name, shape in zip(lexicon.BUNDLE_TENSORS, shapes):
        m = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 21, size=shape)
        pick = rng.uniform(size=shape) < 0.35
        m[pick] = rng.choice(check._BUNDLE_EDGE_VALUES, size=int(pick.sum()))
        bundle[name] = m
    return bundle


class TestSaveBundle:
    """save_bundle prints through the compiled library, or without it through repr(), in this
    process, on the main thread or a second one; either way the bytes are the serial writer's."""

    @pytest.mark.parametrize(
        "shapes",
        [
            [(1, 1)] * 10,
            [(1, d) for d in (1, 2, 3, 5, 8, 13, 1, 7, 9, 11)],
            [(3, 5), (1, 9), (7, 7), (1, 1), (5, 3), (1, 3), (3, 3), (9, 1), (1, 5), (11, 13)],
            [(2, 3), (1, 1), (4, 4), (1, 1), (2, 2), (6, 1), (1, 6), (3, 1), (1, 2), (2, 1)],
        ],
        ids=["1x1", "1xd", "odd", "mixed"],
    )
    def test_bytes_equal_serial_writer(self, tmp_path, rng, no_library, threaded, shapes):
        bundle = edge_bundle(rng, shapes)
        path = tmp_path / "bundle.json"
        if threaded:
            with ThreadPoolExecutor(1) as pool:
                pool.submit(lexicon.save_bundle, bundle, path).result()
        else:
            lexicon.save_bundle(bundle, path)
        want = oracles.bundle_json_serial({k: v.tolist() for k, v in bundle.items()}, lexicon.BUNDLE_TENSORS)
        assert path.read_bytes() == want

    @pytest.mark.parametrize("library", [True, False], ids=["library", "no-library"])
    def test_writes_the_frozen_bytes(self, tmp_path, request, library):
        if not library:
            request.getfixturevalue("no_library")
        elif numerics.matmul_kernel().format_rows is None:
            pytest.skip("the compiled library did not load")
        lexicon.save_bundle(lexicon.init_bundle(42, 4, 8), tmp_path / "bundle.json")
        assert hashlib.sha256((tmp_path / "bundle.json").read_bytes()).hexdigest() == BUNDLE_SEED42_SHA256

    def test_paper_shape_file_digest_frozen(self, tmp_path):
        path = tmp_path / "bundle.json"
        lexicon.save_bundle(lexicon.init_bundle(2022, 200, 768), path)
        digest = hashlib.sha256()
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                digest.update(block)
        assert digest.hexdigest() == BUNDLE_2022_PAPER_SHAPE_FILE_SHA256

    @pytest.mark.parametrize(
        ("fault", "message"),
        [("missing", "bundle is missing tensors ['W2']"),
         ("nan", "W2 contains non-finite entries"),
         ("inf", "Wv2 contains non-finite entries"),
         ("3-d", "b1 must be 2-D, got ndim=3"),
         ("no columns", "b1 is 1x0: dimensions must be positive"),
         ("no rows", "Wk1 is 0x4: dimensions must be positive")],
    )
    def test_bad_tensor_refused_before_writing(self, tmp_path, fault, message):
        bundle = dict(lexicon.init_bundle(5, 2, 4))
        if fault == "missing":
            del bundle["W2"]
        elif fault == "nan":
            bundle["W2"] = bundle["W2"].copy()
            bundle["W2"][1, 2] = np.nan
        elif fault == "inf":
            bundle["Wv2"] = np.full((4, 4), np.inf)
        elif fault == "no columns":  # load_bundle refuses cols 0
            bundle["b1"] = np.zeros((1, 0))
        elif fault == "no rows":
            bundle["Wk1"] = np.zeros((0, 4))
        else:
            bundle["b1"] = np.zeros((1, 1, 4))
        path = tmp_path / "bundle.json"
        with pytest.raises(ValueError) as info:
            lexicon.save_bundle(bundle, path)
        assert str(info.value) == message
        assert list(tmp_path.iterdir()) == []


def projection_bundle(rng, d_w, d_h):
    """The four projection tensors of a bundle, biases stored as 1 x d_h rows."""
    return {
        "W1": rng.standard_normal((d_w, d_h)),
        "b1": rng.standard_normal((1, d_h)),
        "W2": rng.standard_normal((d_h, d_h)),
        "b2": rng.standard_normal((1, d_h)),
    }


class TestProjection:
    def test_matches_straight_line_oracle(self, rng):
        for _ in range(20):
            d_w, d_h = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            bundle = projection_bundle(rng, d_w, d_h)
            x = rng.standard_normal(d_w)
            got = lexicon.project_rows(x[None, :], bundle)[0]
            want = oracles.project_straight_line(
                x.tolist(),
                bundle["W1"].tolist(),
                bundle["b1"][0].tolist(),
                bundle["W2"].tolist(),
                bundle["b2"][0].tolist(),
            )
            assert got == pytest.approx(want, abs=1e-15)

    def test_project_rows_matches_single_rows_bitwise(self, rng):
        for d_w, d_h, rows in ((1, 1, 1), (3, 5, 7), (200, 16, 9)):
            bundle = projection_bundle(rng, d_w, d_h)
            x = rng.standard_normal((rows, d_w)) * 10.0 ** rng.integers(-3, 4, size=(rows, 1))
            x[0] = 0.0
            got = lexicon.project_rows(x, bundle)
            assert got.shape == (rows, d_h)
            for i in range(rows):
                want = lexicon.project_rows(x[i][None, :], bundle)[0]
                assert got[i].tobytes() == want.tobytes()

    def test_bias_rows_broadcast_like_flat_biases(self, rng):
        # the stored 1 x d_h bias rows give the bytes flattened biases gave
        bundle = projection_bundle(rng, 200, 16)
        x = rng.standard_normal((9, 200))
        flat = np.tanh(numerics.matmul(x, bundle["W1"]) + bundle["b1"][0])
        want = numerics.matmul(flat, bundle["W2"]) + bundle["b2"][0]
        assert lexicon.project_rows(x, bundle).tobytes() == want.tobytes()

    def test_project_rows_rejects_wrong_width(self, rng):
        bundle = {"W1": rng.standard_normal((3, 4)), "b1": np.zeros((1, 4)), "W2": np.eye(4), "b2": np.zeros((1, 4))}
        with pytest.raises(ValueError):
            lexicon.project_rows(np.zeros((2, 4)), bundle)
        with pytest.raises(ValueError):
            lexicon.project_rows(np.zeros(4)[None, :], bundle)[0]

    def test_output_bounded_by_tanh_then_affine(self, rng):
        # with W2 = I and b2 = 0 the output is exactly tanh(x W1 + b1)
        d = 4
        bundle = {"W1": rng.standard_normal((3, d)), "b1": np.zeros((1, d)), "W2": np.eye(d), "b2": np.zeros((1, d))}
        out = lexicon.project_rows(rng.standard_normal(3)[None, :], bundle)[0]
        assert np.all(np.abs(out) < 1.0)


class TestBundle:
    def test_init_is_deterministic(self):
        a = lexicon.init_bundle(11, 3, 6)
        b = lexicon.init_bundle(11, 3, 6)
        assert all(np.array_equal(a[k], b[k]) for k in lexicon.BUNDLE_TENSORS)

    def test_shapes(self):
        b = lexicon.init_bundle(0, 3, 6)
        assert b["W1"].shape == (3, 6)
        assert b["b1"].shape == (1, 6)
        assert b["W2"].shape == (6, 6)
        for name in ("Wq1", "Wk1", "Wv1", "Wq2", "Wk2", "Wv2"):
            assert b[name].shape == (6, 6)
        assert np.all(b["b1"] == 0.0) and np.all(b["b2"] == 0.0)

    @pytest.mark.parametrize(("d_w", "d_h"), [(0, 6), (3, 0), (-1, 6)], ids=["d_w zero", "d_h zero", "d_w negative"])
    def test_rejects_non_positive_dims(self, d_w, d_h):
        # the one guard before init_matrix, which no longer checks its dims
        with pytest.raises(ValueError) as info:
            lexicon.init_bundle(1, d_w, d_h)
        assert str(info.value) == f"dimensions must be positive, got d_w={d_w} d_h={d_h}"

    def test_save_load_roundtrip_exact(self, tmp_path):
        b = lexicon.init_bundle(5, 2, 4)
        path = tmp_path / "bundle.json"
        lexicon.save_bundle(b, path)
        loaded = lexicon.load_bundle(path)
        assert all(np.array_equal(b[k], loaded[k]) for k in lexicon.BUNDLE_TENSORS)

    def test_saved_file_checksum_frozen(self, tmp_path):
        path = tmp_path / "bundle.json"
        lexicon.save_bundle(lexicon.init_bundle(42, 4, 8), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == BUNDLE_SEED42_SHA256

    def test_init_bundle_paper_shape_bytes_frozen(self):
        bundle = lexicon.init_bundle(2022, 200, 768)
        digest = hashlib.sha256()
        for name in lexicon.BUNDLE_TENSORS:
            digest.update(np.ascontiguousarray(bundle[name], dtype="<f8").tobytes())
        assert digest.hexdigest() == INIT_BUNDLE_2022_PAPER_SHAPE_SHA256

    def test_golden_bundle_matches_checksum(self, golden):
        digest = hashlib.sha256((golden / "bundle_seed42.json").read_bytes()).hexdigest()
        assert digest == BUNDLE_SEED42_SHA256

    def test_missing_tensor_rejected_on_load(self, tmp_path):
        b = lexicon.init_bundle(5, 2, 4)
        raw = {
            k: {"rows": v.shape[0], "cols": v.shape[1], "data": v.ravel().tolist()}
            for k, v in b.items()
            if k != "Wk2"
        }
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ValueError, match="Wk2"):
            lexicon.load_bundle(path)

    def test_save_rejects_incomplete_bundle(self, tmp_path):
        b = dict(lexicon.init_bundle(5, 2, 4))
        del b["W2"]
        with pytest.raises(ValueError, match="W2"):
            lexicon.save_bundle(b, tmp_path / "x.json")

    def test_path_reference_tensor(self, tmp_path):
        b = lexicon.init_bundle(5, 2, 4)
        numerics.write_matrix(b["W1"], tmp_path / "w1.txt")
        raw = {}
        for k, v in b.items():
            raw[k] = {"rows": v.shape[0], "cols": v.shape[1], "data": v.ravel().tolist()}
        raw["W1"] = "w1.txt"  # relative to the bundle file
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        loaded = lexicon.load_bundle(path)
        assert np.array_equal(loaded["W1"], b["W1"])

    def test_path_with_lone_surrogate_refused(self, tmp_path):
        raw = {k: {"rows": v.shape[0], "cols": v.shape[1], "data": v.ravel().tolist()}
               for k, v in lexicon.init_bundle(5, 2, 4).items()}
        raw["W1"] = "w\ud800.txt"
        path = tmp_path / "sb.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ValueError) as info:
            lexicon.load_bundle(path)
        assert str(info.value) == f"{path}: W1: lone surrogate U+D800 at character 1"

    def test_wrong_element_count_rejected(self, tmp_path):
        raw = {"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0]}
        bundle = {
            k: {"rows": v.shape[0], "cols": v.shape[1], "data": v.ravel().tolist()}
            for k, v in lexicon.init_bundle(5, 2, 4).items()
        }
        bundle["W2"] = raw
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle), encoding="utf-8")
        with pytest.raises(ValueError, match="W2"):
            lexicon.load_bundle(path)
