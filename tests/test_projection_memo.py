"""The projection memo of an ``EmbeddingTable``: frozen tensors, row-bytes keys, a bounded size, threads.

A table remembers the projections of rows, keyed by their float64 bytes,
under one ``W1``, ``b1``, ``W2`` and ``b2`` that the package froze.  Every
result must equal, byte for byte, the result of a fresh table, whatever was
changed, replaced or shared.
"""

import dataclasses
import gc
import json
import sys
import threading
import weakref

import numpy as np
import pytest

from test_lexicon import write_embeddings
from wordfuse import attention, lexicon, numerics, segvote
from wordfuse.fusion import FusionConfig

D_W, D_H = 3, 8


def fresh(table: lexicon.EmbeddingTable) -> lexicon.EmbeddingTable:
    """The same rows in a table with an empty memo."""
    return dataclasses.replace(table)


def memo_rows(table: lexicon.EmbeddingTable) -> int:
    return 0 if table._projected is None else len(table._projected[1])


def fused(table, bundle, words, seed=0) -> bytes:
    seg = segvote.vote("".join(words), [words])
    h = np.random.default_rng(seed).standard_normal((len(seg.sentence), bundle["W2"].shape[0]))
    result = attention.pipeline_forward(h, seg, table, bundle, FusionConfig())
    return result.fused.tobytes() + repr(result.omega).encode()


def loaded_table(tmp_path, words, seed=0, unk=True) -> lexicon.EmbeddingTable:
    rng = np.random.default_rng(seed)
    entries = [(word, rng.standard_normal(D_W)) for word in words]
    if unk:
        entries.append((lexicon.UNK_TOKEN, rng.standard_normal(D_W)))
    path = tmp_path / "e.txt"
    write_embeddings(path, entries, D_W)
    return lexicon.load_embeddings(path)


def frozen_by_the_package(m: np.ndarray) -> bool:
    """Whether ``m`` is a live view ``lexicon._frozen`` returned: the one test of a tensor the memo trusts."""
    return lexicon._FROZEN.get(id(m)) is m


def writes_refused(m: np.ndarray) -> bool:
    with pytest.raises(ValueError, match="read-only"):
        m[(0,) * m.ndim] = 1.0
    return True


@pytest.fixture(params=["compiled", "python"])
def reader(request):
    """Each loader's readers: the compiled parser, or, without the library, the Python one."""
    if request.param == "python":
        request.getfixturevalue("no_library")
    return request.param


class TestReadOnly:
    def test_loaded_bundle_is_read_only(self, tmp_path, reader):
        path = tmp_path / "w.json"
        lexicon.save_bundle(lexicon.init_bundle(1, D_W, D_H), path)
        bundle = lexicon.load_bundle(path)
        assert all(writes_refused(m) and frozen_by_the_package(m) for m in bundle.values())

    def test_initialised_bundle_is_read_only(self):
        assert all(writes_refused(m) and frozen_by_the_package(m) for m in lexicon.init_bundle(1, D_W, D_H).values())

    @pytest.mark.parametrize("unk", [True, False])
    @pytest.mark.parametrize("keep", [None, ["ab"]])
    def test_lookup_copies_loaded_rows(self, tmp_path, reader, unk, keep):
        rng = np.random.default_rng(3)
        path = tmp_path / "e.txt"
        write_embeddings(path, [("ab", rng.standard_normal(D_W)), ("cd", rng.standard_normal(D_W)),
                                *[(lexicon.UNK_TOKEN, rng.standard_normal(D_W))] * unk], D_W)
        table = lexicon.load_embeddings(path, keep)
        for word, row in [("ab", table.vectors["ab"]), ("zz", table.unk)]:
            before = row.tobytes()
            copy = lexicon.lookup(table, word)
            copy[0] += 1.0
            assert copy.flags.writeable and copy[0] != row[0] and row.tobytes() == before

    def test_writeable_bundle_changed_in_place_gives_the_new_result(self, tmp_path):
        table = loaded_table(tmp_path, ["ab", "c"])
        bundle = {name: m.copy() for name, m in lexicon.init_bundle(2, D_W, D_H).items()}
        words = ["ab", "c", "ab"]
        before = fused(table, bundle, words)
        for name in ("W1", "b1", "W2", "b2"):
            bundle[name] += 0.25  # in place: the same objects
            assert fused(table, bundle, words) == fused(fresh(table), bundle, words) != before

    @pytest.mark.parametrize("change", ["through an older writeable view", "made writeable again"])
    def test_read_only_tensor_of_the_caller_changed_gives_the_new_result(self, tmp_path, change):
        table = loaded_table(tmp_path, ["ab", "c"])
        bundle = {name: m.copy() for name, m in lexicon.init_bundle(2, D_W, D_H).items()}
        older = bundle["W2"].view()  # still writeable once W2 is not
        for m in bundle.values():
            m.flags.writeable = False
        words = ["ab", "c"]
        before = fused(table, bundle, words)
        if change == "through an older writeable view":
            older *= 2.0
        else:
            bundle["W2"].flags.writeable = True  # an array that owns its data may be made writeable again
            bundle["W2"] *= 2.0
            bundle["W2"].flags.writeable = False
        assert fused(table, bundle, words) == fused(fresh(table), bundle, words) != before

    def test_nothing_is_remembered_under_a_read_only_bundle_of_the_caller(self, tmp_path):
        table = loaded_table(tmp_path, ["ab", "c"])
        bundle = {name: m.copy() for name, m in lexicon.init_bundle(2, D_W, D_H).items()}
        for m in bundle.values():
            m.flags.writeable = False
        for _ in range(2):
            fused(table, bundle, ["ab", "c"])
        assert memo_rows(table) == 0

    def test_the_package_keeps_no_tensor_it_froze_alive(self):
        w2 = weakref.ref(lexicon.init_bundle(1, D_W, D_H)["W2"])
        gc.collect()
        assert w2() is None

    def test_read_only_view_of_a_writeable_array_is_not_trusted(self, tmp_path):
        table = loaded_table(tmp_path, ["ab", "c"])
        owner = lexicon.init_bundle(2, D_W, D_H)["W2"].copy()
        view = owner.view()
        view.flags.writeable = False
        bundle = {**lexicon.init_bundle(2, D_W, D_H), "W2": view}
        words = ["ab", "c"]
        before = fused(table, bundle, words)
        owner *= 2.0
        assert fused(table, bundle, words) == fused(fresh(table), bundle, words) != before

    @pytest.mark.parametrize("row", ["plain", "read-only over a bytearray", "made writeable again"])
    def test_writeable_row_changed_in_place_gives_the_new_result(self, row):
        values = np.random.default_rng(4).standard_normal(D_W)
        buffer = bytearray(values.tobytes())
        vector = np.frombuffer(buffer) if row == "read-only over a bytearray" else values
        vector.flags.writeable = row == "plain"
        table = lexicon.EmbeddingTable(dim=D_W, vectors={"ab": vector}, unk=np.zeros(D_W))
        bundle = lexicon.init_bundle(2, D_W, D_H)
        before = fused(table, bundle, ["ab"])
        assert memo_rows(table) == 1
        if row == "read-only over a bytearray":
            buffer[:8] = np.float64(5.0).tobytes()
        else:
            vector.flags.writeable = True  # an array that owns its data may be made writeable again
            vector += 1.0
        assert fused(table, bundle, ["ab"]) == fused(fresh(table), bundle, ["ab"]) != before
        assert memo_rows(table) == 2  # both contents are remembered

    def test_no_tensor_the_package_makes_can_be_made_writeable_again(self, tmp_path, reader):
        path = tmp_path / "w.json"
        lexicon.save_bundle(lexicon.init_bundle(1, D_W, D_H), path)
        numerics.write_matrix(lexicon.init_bundle(2, D_W, D_H)["W2"], tmp_path / "W2.txt")
        with_file = tmp_path / "m.json"
        with_file.write_text(json.dumps({**json.loads(path.read_text()), "W2": "W2.txt"}))
        for bundle in (lexicon.init_bundle(1, D_W, D_H), lexicon.load_bundle(path), lexicon.load_bundle(with_file)):
            for m in bundle.values():
                with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
                    m.flags.writeable = True
                assert writes_refused(m) and frozen_by_the_package(m)


# repeated words, two spellings of one word under NFC, and repeated out-of-vocabulary words
WORDS = ["ab", "c", "ab", "\u00e9", "e\u0301", "zz", "q", "zz"]


def words_table(seed: int) -> lexicon.EmbeddingTable:
    rng = np.random.default_rng(seed)
    vectors = {word: rng.standard_normal(D_W) for word in ("ab", "c", "\u00e9")}
    return lexicon.EmbeddingTable(dim=D_W, vectors=vectors, unk=rng.standard_normal(D_W))


class TestProjectWords:
    @pytest.mark.parametrize("writeable", [False, True], ids=["read-only bundle", "writeable bundle"])
    def test_one_read_only_vector_per_word_in_order(self, writeable):
        table = words_table(16)
        bundle = lexicon.init_bundle(16, D_W, D_H)
        if writeable:
            bundle = {name: m.copy() for name, m in bundle.items()}
        want = [lexicon.project_rows(lexicon.lookup(table, word)[None, :], bundle)[0].tobytes() for word in WORDS]
        for _ in range(2):  # a cold memo, then a warm one
            got = lexicon.project_words(table, WORDS, bundle)
            assert [v.tobytes() for v in got] == want
            assert all(v.shape == (D_H,) and writes_refused(v) for v in got)

    def test_remembered_rows_are_the_returned_vectors(self):
        table = words_table(17)
        got = lexicon.project_words(table, WORDS, lexicon.init_bundle(17, D_W, D_H))
        remembered = table._projected[1]
        assert len(remembered) == 4  # ab, c, the NFC word, and the row of every OOV word
        for word, v in zip(WORDS, got):
            assert np.shares_memory(remembered[lexicon.lookup(table, word).tobytes()], v)


class TestRowBytesKey:
    def test_two_words_with_one_row_make_one_entry(self):
        row = np.random.default_rng(13).standard_normal(D_W)
        table = lexicon.EmbeddingTable(dim=D_W, vectors={"ab": row, "cd": row.copy()}, unk=np.zeros(D_W))
        bundle = lexicon.init_bundle(13, D_W, D_H)
        assert fused(table, bundle, ["ab", "cd"]) == fused(fresh(table), bundle, ["ab", "cd"])
        assert memo_rows(table) == 1

    @pytest.mark.parametrize("calls", [[["i", "f"]], [["f"], ["i"]], [["i"], ["f"]]])
    def test_integer_row_with_a_float_rows_bytes_projects_its_own_values(self, calls):
        ints = np.array([1, 2, 3], dtype=np.int64)
        floats = ints.view(np.float64)  # the same bytes, read as other values
        table = lexicon.EmbeddingTable(dim=D_W, vectors={"i": ints, "f": floats}, unk=np.zeros(D_W))
        bundle = lexicon.init_bundle(14, D_W, D_H)
        want = {word: lexicon.project_rows(row[None, :], bundle)[0].tobytes() for word, row in table.vectors.items()}
        assert want["i"] != want["f"]
        for words in calls:
            got = lexicon.project_words(table, words, bundle)
            assert [v.tobytes() for v in got] == [want[word] for word in words]
        assert memo_rows(table) == 2

    def test_writeable_rows_are_served_from_the_memo(self, monkeypatch):
        rng = np.random.default_rng(15)
        table = lexicon.EmbeddingTable(dim=D_W, vectors={"ab": rng.standard_normal(D_W), "c": rng.standard_normal(D_W)},
                                       unk=rng.standard_normal(D_W))
        bundle = lexicon.init_bundle(15, D_W, D_H)
        words = ["ab", "c", "zz", "ab"]
        before = fused(table, bundle, words)
        projections, project_rows = [], lexicon.project_rows
        monkeypatch.setattr(lexicon, "project_rows", lambda x, b: projections.append(x) or project_rows(x, b))
        assert fused(table, bundle, words) == before
        assert projections == []


class TestMemoBound:
    def test_more_words_than_d_h_leave_d_h_rows(self, tmp_path):
        vocab = [chr(0x4E00 + i) + chr(0x4E80 + i) for i in range(3 * D_H)]
        table = loaded_table(tmp_path, vocab)
        bundle = lexicon.init_bundle(5, D_W, D_H)
        for start in range(0, len(vocab), 5):
            words = vocab[start : start + 5]
            assert fused(table, bundle, words) == fused(fresh(table), bundle, words)
            assert memo_rows(table) <= D_H
        assert memo_rows(table) == D_H
        # a full memo still serves its own words and projects the others
        assert fused(table, bundle, vocab[::2]) == fused(fresh(table), bundle, vocab[::2])
        assert memo_rows(table) == D_H

    @pytest.mark.parametrize("unk", [True, False])
    def test_out_of_vocabulary_words_share_one_row(self, tmp_path, unk):
        table = loaded_table(tmp_path, ["ab"], unk=unk)
        bundle = lexicon.init_bundle(6, D_W, D_H)
        oov = [chr(0x5000 + i) for i in range(100)]
        assert fused(table, bundle, oov) == fused(fresh(table), bundle, oov)
        assert memo_rows(table) == 1
        assert fused(table, bundle, [chr(0x6000 + i) for i in range(100)]) is not None
        assert memo_rows(table) == 1

    @pytest.mark.parametrize("name", ["W1", "b1", "W2", "b2"])
    def test_replaced_tensor_gives_the_new_projection(self, tmp_path, name):
        table = loaded_table(tmp_path, ["ab", "c"])
        bundle = lexicon.init_bundle(7, D_W, D_H)
        words = ["ab", "c", "zz"]
        before = fused(table, bundle, words)
        other = {**bundle, name: lexicon._frozen(lexicon.init_bundle(8, D_W, D_H)[name] + 0.5)}
        assert fused(table, other, words) == fused(fresh(table), other, words) != before
        assert fused(table, bundle, words) == before

    def test_rebound_row_gives_the_new_projection(self, tmp_path):
        table = loaded_table(tmp_path, ["ab", "c"])
        bundle = lexicon.init_bundle(7, D_W, D_H)
        before = fused(table, bundle, ["ab", "c"])
        table.vectors["ab"] = table.vectors["c"]
        assert fused(table, bundle, ["ab", "c"]) == fused(fresh(table), bundle, ["ab", "c"]) != before
        table.unk = table.vectors["c"]
        assert fused(table, bundle, ["zz"]) == fused(fresh(table), bundle, ["zz"])

    def test_overflowing_projection_is_named_and_not_remembered(self, tmp_path):
        table = loaded_table(tmp_path, ["ab"])
        bundle = dict(lexicon.init_bundle(9, D_W, D_H))
        bundle["W2"] = lexicon._frozen(np.full((D_H, D_H), np.inf))
        with pytest.raises(ValueError, match="overflow in word projection"):
            lexicon.project_words(table, ["ab"], bundle)
        assert memo_rows(table) == 0


def test_two_bundles_on_threads_sharing_one_table(tmp_path):
    vocab = [chr(0x4E00 + i) for i in range(12)]
    table = loaded_table(tmp_path, vocab)
    bundles = [lexicon.init_bundle(seed, D_W, D_H) for seed in (10, 11)]
    rng = np.random.default_rng(12)
    sentences = [[vocab[i] for i in rng.integers(0, len(vocab), 6)] + ["zz"] for _ in range(8)]
    want = {(b, i): fused(fresh(table), bundle, words, i)
            for b, bundle in enumerate(bundles) for i, words in enumerate(sentences)}
    got, errors = {}, []

    def run(b):
        try:
            for _ in range(5):
                for i, words in enumerate(sentences):
                    if fused(table, bundles[b], words, i) != want[(b, i)]:
                        got[(b, i)] = "differs"
        except Exception as err:  # noqa: BLE001 - reported below
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t % 2,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and got == {}
    assert memo_rows(table) <= D_H
