"""The projection memo of an ``EmbeddingTable``: read-only inputs, exact results, a bounded size, threads.

A table remembers the projections of its read-only rows under one read-only
``W1``, ``b1``, ``W2`` and ``b2``.  Every result must equal, byte for byte,
the result of a fresh table, whatever was changed, replaced or shared.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from test_lexicon import write_embeddings
from wordfuse import attention, lexicon, segvote
from wordfuse.fusion import FusionConfig, fuse_sequence

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
        assert all(writes_refused(m) and lexicon._read_only(m) for m in bundle.values())

    def test_initialised_bundle_is_read_only(self):
        assert all(writes_refused(m) and lexicon._read_only(m) for m in lexicon.init_bundle(1, D_W, D_H).values())

    @pytest.mark.parametrize("unk", [True, False])
    @pytest.mark.parametrize("keep", [None, ["ab"]])
    def test_loaded_rows_are_read_only_and_lookup_copies(self, tmp_path, reader, unk, keep):
        rng = np.random.default_rng(3)
        path = tmp_path / "e.txt"
        write_embeddings(path, [("ab", rng.standard_normal(D_W)), ("cd", rng.standard_normal(D_W)),
                                *[(lexicon.UNK_TOKEN, rng.standard_normal(D_W))] * unk], D_W)
        table = lexicon.load_embeddings(path, keep)
        assert all(writes_refused(row) and lexicon._read_only(row) for row in [*table.vectors.values(), table.unk])
        copy = lexicon.lookup(table, "ab")
        copy[0] += 1.0
        assert copy.flags.writeable and copy[0] != table.vectors["ab"][0]

    def test_writeable_bundle_changed_in_place_gives_the_new_result(self, tmp_path):
        table = loaded_table(tmp_path, ["ab", "c"])
        bundle = {name: m.copy() for name, m in lexicon.init_bundle(2, D_W, D_H).items()}
        words = ["ab", "c", "ab"]
        before = fused(table, bundle, words)
        for name in ("W1", "b1", "W2", "b2"):
            bundle[name] += 0.25  # in place: the same objects
            assert fused(table, bundle, words) == fused(fresh(table), bundle, words) != before

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

    def test_writeable_row_changed_in_place_gives_the_new_result(self):
        rng = np.random.default_rng(4)
        table = lexicon.EmbeddingTable(dim=D_W, vectors={"ab": rng.standard_normal(D_W)}, unk=np.zeros(D_W))
        bundle = lexicon.init_bundle(2, D_W, D_H)
        before = fused(table, bundle, ["ab"])
        table.vectors["ab"] += 1.0
        assert fused(table, bundle, ["ab"]) == fused(fresh(table), bundle, ["ab"]) != before
        assert memo_rows(table) == 0

    def test_read_only_row_over_a_writeable_buffer_is_not_trusted(self):
        buffer = bytearray(np.random.default_rng(4).standard_normal(D_W).tobytes())
        row = np.frombuffer(buffer)
        row.flags.writeable = False
        table = lexicon.EmbeddingTable(dim=D_W, vectors={"ab": row}, unk=lexicon._frozen(np.zeros(D_W)))
        bundle = lexicon.init_bundle(2, D_W, D_H)
        before = fused(table, bundle, ["ab"])
        buffer[:8] = np.float64(5.0).tobytes()
        assert fused(table, bundle, ["ab"]) == fused(fresh(table), bundle, ["ab"]) != before
        assert memo_rows(table) == 0

    def test_row_made_writeable_again_gives_the_new_result(self):
        row = lexicon._frozen(np.random.default_rng(4).standard_normal(D_W))
        table = lexicon.EmbeddingTable(dim=D_W, vectors={"ab": row}, unk=lexicon._frozen(np.zeros(D_W)))
        bundle = lexicon.init_bundle(2, D_W, D_H)
        before = fused(table, bundle, ["ab"])
        assert memo_rows(table) == 1
        row.flags.writeable = True  # an array that owns its data may be made writeable again
        row += 1.0
        assert fused(table, bundle, ["ab"]) == fused(fresh(table), bundle, ["ab"]) != before


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
        other = {**bundle, name: lexicon.init_bundle(8, D_W, D_H)[name] + 0.5}
        other[name].flags.writeable = False
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
        bundle["W2"] = np.full((D_H, D_H), np.inf)
        bundle["W2"].flags.writeable = False
        h = np.ones((2, D_H))
        with pytest.raises(ValueError, match="overflow in word projection"):
            fuse_sequence(h, segvote.vote("ab", [["ab"]]), table, bundle, FusionConfig())
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
