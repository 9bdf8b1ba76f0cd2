"""The compiled number parser and printer behind the text loaders and writers.

``numerics.read_matrix``, ``lexicon.load_embeddings`` and
``lexicon.load_bundle`` try the parser of ``_kernel.SOURCE`` first and fall
back to their Python readers.  Whatever the file, a loader must return the
same values bit for bit, or raise the same error, with the library as
without it (``NO_LIBRARY`` below: ``numerics.matmul_kernel`` reports no
library, as on a machine without ``cc``).  ``numerics.write_matrix`` and
``lexicon.save_bundle`` print through the same library, and must write the
same bytes as ``repr()`` and ``json.dumps`` do without it.
"""

import dataclasses
import functools
import json
import os
import re
import string
import subprocess
import sys
import tracemalloc
import unicodedata
from pathlib import Path

import numpy as np
import pytest

import oracles
from wordfuse import _kernel, check, lexicon, numerics

needs_parser = pytest.mark.skipif(numerics.matmul_kernel().parse_rows is None,
                                  reason="the compiled library did not load")
NO_LIBRARY = _kernel.Kernel(None, "no library: the Python readers alone")

# values whose shortest text takes every part of the grammar: 17 digits,
# exponents of both signs, -0.0, a subnormal, the largest finite double
VALUES = [0.27275497669929316, -0.0, 1e-05, -1.5e16, 5e-324, 1.7976931348623157e308, 3.0, -0.125,
          2.2250738585072014e-308, 123456.789, -7e-07, 0.1]


def snapshot(value):
    """A loader's result in a form ``==`` compares bit for bit."""
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if isinstance(value, lexicon.EmbeddingTable):
        return (value.dim, value.duplicates, value.unk.tobytes(),
                [(word, vec.tobytes()) for word, vec in value.vectors.items()])
    return [(name, snapshot(m)) for name, m in value.items()]


def outcome(load, path):
    try:
        return "value", snapshot(load(path))
    except (ValueError, OSError) as err:
        return type(err).__name__, str(err)


def both_ways(monkeypatch, run, *args):
    """What ``run(*args)`` gives with the compiled library, and with no library."""
    compiled = run(*args)
    with monkeypatch.context() as m:
        m.setattr(numerics, "matmul_kernel", lambda: NO_LIBRARY)
        python = run(*args)
    return compiled, python


def embeddings_text(rng) -> str:
    words = ["重庆", "<unk>", "a", "人和中学", "\u00e9", "e\u0301"]  # the last two are equal after NFC
    rows = [" ".join(repr(float(v)) for v in rng.choice(VALUES, 3)) for _ in words]
    return f"{len(words)} 3\n" + "".join(f"{w} {row}\n" for w, row in zip(words, rows))


def matrix_text(rng) -> str:
    return "3 4\n" + "".join(" ".join(repr(float(v)) for v in rng.choice(VALUES, 4)) + "\n" for _ in range(3))


def bundle_text(rng) -> str:
    tensors = {name: rng.choice(VALUES, (1 + i % 2, 2)) for i, name in enumerate(lexicon.BUNDLE_TENSORS)}
    serial = {name: {"rows": m.shape[0], "cols": m.shape[1], "data": m.ravel().tolist()}
              for name, m in tensors.items()}
    return json.dumps(serial) + "\n"


NUMBER = re.compile(r"-?[0-9][0-9.e+-]*")


def replace_number(text, rng, new):
    """``text`` with one number after the first line replaced by ``new``."""
    found = [m for m in NUMBER.finditer(text) if m.start() > text.index("\n")] or list(NUMBER.finditer(text))
    m = found[int(rng.integers(len(found)))]
    return text[: m.start()] + new + text[m.end():]


def in_a_word(text, rng, char):
    """``text`` with ``char`` inside the word of one entry line."""
    lines = text.split("\n")
    i = int(rng.integers(1, len(lines) - 1))
    lines[i] = lines[i][:1] + char + lines[i][1:]
    return "\n".join(lines)


def truncated(text, rng):
    """``text`` cut inside its last line."""
    body = text.rstrip("\n")
    return body[: int(rng.integers(body.rfind("\n") + 2, len(body)))]


def in_data(text, change):
    """``text`` with ``change`` applied to the text of each bundle data list, ``[`` through ``]``."""
    return re.sub(r"\[[^]]*\]", lambda m: change(m.group()), text)


# spacings of a data list that json reads to the same values, other than save_bundle's ", "
DATA_SEPARATORS = (",", " ,", " , ", "  ,  ")

NUMBER_TOKENS = ["1_0", "\u0661", "+1", "01", "1.", "1e400", "-1e400", "1e-400", "-1e-400", "-0", "7",
                 "1E5", "0x10", "inf", "NaN", "Infinity", ".5", "1e"]

# (name, kinds, mutation): each mutation takes the valid text and a generator
MUTATIONS = [
    ("valid", "emb mat bundle", lambda t, rng: t),
    ("crlf", "emb mat bundle", lambda t, rng: t.replace("\n", "\r\n")),
    ("bare cr", "emb mat", lambda t, rng: t.replace("\n", "\r")),
    ("bom", "emb mat bundle", lambda t, rng: "\ufeff" + t),
    ("no final newline", "emb mat bundle", lambda t, rng: t.rstrip("\n")),
    ("trailing blank lines", "emb mat bundle", lambda t, rng: t + "\n \n\t\n"),
    ("trailing U+3000 line", "emb mat", lambda t, rng: t + "\u3000\n"),
    ("inner blank line", "emb mat", lambda t, rng: t.replace("\n", "\n\n", 2).replace("\n\n", "\n", 1)),
    ("two spaces", "emb mat", lambda t, rng: t.replace(" ", "  ", 3)),
    ("trailing spaces", "emb mat", lambda t, rng: t.replace("\n", " \n")),
    ("leading space", "emb mat", lambda t, rng: t.replace("\n", "\n ", 1)),
    ("tab separator", "emb mat", lambda t, rng: t.replace(" ", "\t", 3)),
    ("truncated last line", "emb mat bundle", truncated),
    ("huge header", "emb mat", lambda t, rng: "1 100000000000" + t[t.index("\n"):]),
    ("huge count", "emb mat", lambda t, rng: "100000000000 3" + t[t.index("\n"):]),
    ("header plus sign", "emb mat", lambda t, rng: "+" + t),
    ("zero header", "emb mat", lambda t, rng: "0 " + t[t.index(" ") + 1:]),
    *[(f"word with {name}", "emb", lambda t, rng, c=char: in_a_word(t, rng, c))
      for name, char in [("CR", "\r"), ("tab", "\t"), ("U+3000", "\u3000"), ("U+2028", "\u2028"),
                         ("U+0085", "\x85"), ("NBSP", "\xa0"), ("NUL", "\x00"), ("U+00E9", "\u00e9")]],
    ("bad UTF-8 word", "emb", lambda t, rng: in_a_word(t, rng, "\udcff")),
    ("extra entry", "emb mat", lambda t, rng: t + t.split("\n")[1] + "\n"),
    *[(f"number {tok}", "emb mat bundle", lambda t, rng, tok=tok: replace_number(t, rng, tok))
      for tok in NUMBER_TOKENS],
    ("integers in data", "bundle", lambda t, rng: t.replace("0.1", "1").replace("3.0", "3")),
    ("big integers in data", "bundle",
     lambda t, rng: t.replace("0.1", "9007199254740993").replace("3.0", "12345678901234567890")),
    *[(f"data separated by {sep!r}", "bundle", lambda t, rng, sep=sep: in_data(t, lambda d: d.replace(", ", sep)))
      for sep in DATA_SEPARATORS],
    ("-0 first in data", "bundle", lambda t, rng: in_data(t, lambda d: "[-0" + d[d.index(","):])),
    ("trailing comma in data", "bundle", lambda t, rng: in_data(t, lambda d: d.replace("]", ",]"))),
    ("wrong rows", "bundle", lambda t, rng: t.replace('"rows": 1', '"rows": 2', 1)),
    ("huge rows", "bundle", lambda t, rng: t.replace('"rows": 2', '"rows": 100000000000', 1)),
    ("key order", "bundle", lambda t, rng: json.dumps(dict(reversed(json.loads(t).items()))) + "\n"),
    ("inner key order", "bundle", lambda t, rng: t.replace('"rows": 1, "cols": 2', '"cols": 2, "rows": 1')),
    ("extra key", "bundle", lambda t, rng: t[:-2] + ', "x": 1}\n'),
    ("duplicate key", "bundle", lambda t, rng: t[:-2] + ', "W1": {"rows": 1, "cols": 1, "data": [0.5]}}\n'),
    ("indented", "bundle", lambda t, rng: json.dumps(json.loads(t), indent=1) + "\n"),
    ("compact", "bundle", lambda t, rng: json.dumps(json.loads(t), separators=(",", ":")) + "\n"),
    ("trailing space", "bundle", lambda t, rng: t[:-1] + " \n"),
    ("missing tensor", "bundle", lambda t, rng: json.dumps({k: v for k, v in json.loads(t).items() if k != "b2"})),
]
KINDS = {
    "emb": (embeddings_text, lexicon.load_embeddings),
    "mat": (matrix_text, numerics.read_matrix),
    "bundle": (bundle_text, lexicon.load_bundle),
}
CASES = [(kind, name, mutate) for name, kinds, mutate in MUTATIONS for kind in kinds.split()]


# numerics.READ_BLOCK of a few bytes, one per seed: every header, line and
# bundle tensor then straddles block edges, and the blocks grow to hold them
SMALL_BLOCKS = (1, 2, 3, 7)


def in_blocks(monkeypatch, block, run, *args):
    """What ``run(*args)`` gives when the compiled loaders read ``block`` bytes at a time."""
    with monkeypatch.context() as m:
        m.setattr(numerics, "READ_BLOCK", block)
        return run(*args)


@pytest.mark.parametrize(("kind", "name", "mutate"), CASES, ids=[f"{k}-{n}" for k, n, _ in CASES])
def test_compiled_and_python_readers_agree(tmp_path, monkeypatch, kind, name, mutate):
    make, load = KINDS[kind]
    path = tmp_path / kind
    for seed, block in enumerate(SMALL_BLOCKS):
        rng = np.random.default_rng(seed)
        text = mutate(make(rng), rng)
        path.write_bytes(text.encode("utf-8", errors="surrogateescape"))
        compiled, python = both_ways(monkeypatch, outcome, load, path)
        small = in_blocks(monkeypatch, block, outcome, load, path)
        assert compiled == small == python, f"seed {seed}: {text[:200]!r}"


# words of embeddings_text and a word it lacks: with the two entries of é, one named in
# another NFC form, and without them, so that their duplicate is not a word kept
SUBSETS = (["重庆", "e\u0301", "不在"], ["a", "不在"])


def load_subset(path, words=SUBSETS[0]):
    return lexicon.load_embeddings(path, words)


def load_restricted(path, words):
    """The full load of ``path``, its vectors restricted to ``words`` and ``<unk>``."""
    table = lexicon.load_embeddings(path)
    keep = {unicodedata.normalize("NFC", word) for word in words} | {lexicon.UNK_TOKEN}
    return dataclasses.replace(table, vectors={w: v for w, v in table.vectors.items() if w in keep})


EMB_CASES = [(name, mutate) for kind, name, mutate in CASES if kind == "emb"]


@pytest.mark.parametrize(("name", "mutate"), EMB_CASES, ids=[name for name, _ in EMB_CASES])
def test_a_subset_load_is_the_full_load_restricted(tmp_path, monkeypatch, name, mutate):
    path = tmp_path / "emb"
    for seed, block in enumerate(SMALL_BLOCKS):
        rng = np.random.default_rng(seed)
        text = mutate(embeddings_text(rng), rng)
        path.write_bytes(text.encode("utf-8", errors="surrogateescape"))
        for words in SUBSETS:
            want = outcome(functools.partial(load_restricted, words=words), path)
            load = functools.partial(load_subset, words=words)
            compiled, python = both_ways(monkeypatch, outcome, load, path)
            small = in_blocks(monkeypatch, block, outcome, load, path)
            assert want == compiled == small == python, f"seed {seed}, {words}: {text[:200]!r}"


# bundle mutations that json reads to the values the compiled loader reads
COMPILED_LAYOUTS = ("big integers in data", *[f"data separated by {sep!r}" for sep in DATA_SEPARATORS])


# each loader, and a subset load of embeddings
LOADS = dict(KINDS, **{"emb subset": (embeddings_text, load_subset)})


@needs_parser
@pytest.mark.parametrize("kind", sorted(LOADS))
def test_valid_files_take_the_compiled_path(tmp_path, monkeypatch, kind):
    make, load = LOADS[kind]
    rng = np.random.default_rng(0)
    text = make(rng)
    if kind == "bundle":  # and the other layouts of a data list that it takes
        texts = [text, *[mutate(text, rng) for name, _, mutate in MUTATIONS if name in COMPILED_LAYOUTS]]
    else:  # a table's last line may lack its newline; a bundle's may not
        texts = [text, text.rstrip("\n")]
    if kind.startswith("emb"):  # and entries as short as an entry can be, many to a block of 64
        texts.append("26 3\n" + "\n".join(f"{c} {i % 10} 0 7" for i, c in enumerate(string.ascii_lowercase)))
    assert len(set(texts)) == len(texts)
    paths = [tmp_path / f"{kind}-{i}" for i in range(len(texts))]
    for path, t in zip(paths, texts):
        path.write_text(t, encoding="utf-8")
    with monkeypatch.context() as m:
        m.setattr(numerics, "matmul_kernel", lambda: NO_LIBRARY)
        wants = [snapshot(load(path)) for path in paths]

    def python_reader(*args):
        raise AssertionError("the Python reader ran")

    for module, name in [(numerics, "read_text"), (lexicon, "_read_rows")]:
        monkeypatch.setattr(module, name, python_reader)
    for path, want in zip(paths, wants):
        for block in (numerics.READ_BLOCK, *SMALL_BLOCKS, 64):
            assert in_blocks(monkeypatch, block, lambda: snapshot(load(path))) == want


@needs_parser
def test_minus_zero_in_data_takes_the_python_reader(tmp_path):
    # json reads -0 as the integer 0, so the tensor holds +0.0, where float("-0") is -0.0
    path = tmp_path / "bundle"
    mutate = next(mutate for name, _, mutate in MUTATIONS if name == "-0 first in data")
    path.write_text(mutate(bundle_text(np.random.default_rng(0)), None), encoding="utf-8")
    assert lexicon._compiled_bundle(path) is None
    assert all(m[0, 0] == 0 and not np.signbit(m[0, 0]) for m in lexicon.load_bundle(path).values())


# a block that is no power of two, so block edges fall at other places in every
# tensor; a block shorter than a number would take one Python step per number
PAPER_SHAPE_BLOCK = 4099


@needs_parser
def test_paper_shape_bundle_takes_the_compiled_path(tmp_path, monkeypatch):
    path = tmp_path / "bundle.json"
    bundle = lexicon.init_bundle(2022, 200, 768)
    lexicon.save_bundle(bundle, path)
    monkeypatch.setattr(numerics, "read_text", lambda path: pytest.fail("read_json ran"))
    for block in (numerics.READ_BLOCK, PAPER_SHAPE_BLOCK):
        loaded = in_blocks(monkeypatch, block, lexicon.load_bundle, path)
        assert all(loaded[name].tobytes() == bundle[name].tobytes() for name in lexicon.BUNDLE_TENSORS)


def printed(m: np.ndarray, sep: str = " ", end: str = "\n") -> str:
    """The text ``numerics.print_rows`` gives, its pieces joined (each is copied before the next reuses its buffer)."""
    return b"".join(map(bytes, numerics.print_rows(m, sep, end))).decode("ascii")


def large_text(kind: str, rng) -> str:
    """A file of about 4 MB, most of it numbers: 500 entries or rows of 400, or a bundle at d_w 40, d_h 160."""
    m = rng.standard_normal((500, 400))
    if kind == "mat":
        return "500 400\n" + printed(m)
    if kind == "emb":
        return "500 400\n" + "".join(f"w{i} {row}" for i, row in enumerate(printed(m).splitlines(True)))
    bundle = lexicon.init_bundle(int(rng.integers(1000)), 40, 160)
    serial = {name: {"rows": t.shape[0], "cols": t.shape[1], "data": t.ravel().tolist()} for name, t in bundle.items()}
    return json.dumps(serial) + "\n"


@needs_parser
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_compiled_loaders_never_hold_the_whole_text(tmp_path, monkeypatch, kind):
    # beyond what they return, at most a few blocks (here 64 KiB); a bundle tensor's text is 0.5 MB
    path = tmp_path / kind
    text = large_text(kind, np.random.default_rng(5))
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(numerics, "READ_BLOCK", 1 << 16)
    monkeypatch.setattr(numerics, "read_text", lambda *args, **kwargs: pytest.fail("the Python reader ran"))
    monkeypatch.setattr(lexicon, "_read_rows", lambda path, keep: pytest.fail("the Python reader ran"))
    tracemalloc.start()
    try:
        value = KINDS[kind][1](path)
        held, peak = tracemalloc.get_traced_memory()  # held: value, all traced since start()
    finally:
        tracemalloc.stop()
    assert peak - held < 4 * numerics.READ_BLOCK, (peak, held, len(text))


@needs_parser
def test_a_subset_load_never_holds_the_whole_array(tmp_path, monkeypatch):
    path = tmp_path / "emb"
    path.write_text(large_text("emb", np.random.default_rng(5)), encoding="utf-8")
    monkeypatch.setattr(numerics, "READ_BLOCK", 1 << 16)
    monkeypatch.setattr(lexicon, "_read_rows", lambda path, keep: pytest.fail("the Python reader ran"))
    words = [f"w{i}" for i in range(0, 500, 50)]
    tracemalloc.start()
    try:
        table = lexicon.load_embeddings(path, words)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(table.vectors) == sorted(words)
    # beyond the rows it keeps: the block, the array each piece is parsed into, sized for the
    # shortest lines of 400 numbers (4 blocks), and the set of every word (about 1 block); the
    # whole array would take 24 blocks
    assert peak - held < 8 * numerics.READ_BLOCK, (peak, held)


def test_the_python_reader_keeps_only_the_rows_asked_for(tmp_path, no_library):
    # beyond the rows it keeps: one line and its numbers, and the set of every word (about 0.3 MB);
    # the whole array would take 3.2 MB
    path = tmp_path / "emb"
    m = np.random.default_rng(6).standard_normal((4000, 100))
    path.write_text("4000 100\n" + "".join(f"w{i} {row}" for i, row in enumerate(printed(m).splitlines(True))),
                    encoding="utf-8")
    words = [f"w{i}" for i in range(0, 4000, 400)]
    tracemalloc.start()
    try:
        table = lexicon.load_embeddings(path, words)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(table.vectors) == sorted(words)
    assert peak - held < 1 << 20, (peak, held)


@pytest.mark.parametrize("text", ["2 2\n1.5 -0.0\n1e-05 7\n", "2 2\r\n1.5 -0.0\r\n1e-05 7\r\n"],
                         ids=["compiled layout", "crlf"])
def test_a_pipe_is_read_once(text):
    # a pipe cannot be read again after the compiled parser refused it, so it goes to the Python reader alone
    script = ("import sys; from wordfuse import numerics; "
              "sys.stdout.write(repr(numerics.read_matrix('/dev/stdin').tolist()))")
    res = subprocess.run([sys.executable, "-c", script], input=text, capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(Path(numerics.__file__).parents[1])))
    assert (res.returncode, res.stdout) == (0, "[[1.5, -0.0], [1e-05, 7.0]]"), res.stderr


@needs_parser
class TestParser:
    kernel = numerics.matmul_kernel()

    def parse(self, text: str, rows: int, cols: int, words: bool = False):
        """The values and word spans of ``rows`` lines of ``text``, or None."""
        out, spans = np.empty((rows, cols)), np.empty((rows, 2), np.int64) if words else None
        return (out, spans) if self.kernel.parse_rows(text.encode(), out, spans) == rows else None

    def test_hard_decimals_give_float_bits(self):
        got = self.parse(" ".join(_kernel.HARD_DECIMALS), 1, len(_kernel.HARD_DECIMALS))
        want = np.array([[float(s) for s in _kernel.HARD_DECIMALS]])
        assert got is not None and got[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("token", _kernel.REFUSED_TOKENS)
    def test_refused_tokens(self, token):
        assert self.parse(f"{token}\n", 1, 1) is None
        assert self.kernel.parse_rows(f"0.5, {token}".encode(), np.empty((2, 1)), None, ",") is None

    def test_word_spans_are_byte_offsets(self):
        text = "重庆 1.5 2\n<unk> -0.0 3e2\n"
        values, spans = self.parse(text, 2, 2, words=True)
        data = text.encode()
        assert [data[s:e].decode() for s, e in spans.tolist()] == ["重庆", "<unk>"]
        assert values.tolist() == [[1.5, 2.0], [-0.0, 300.0]]

    def test_rows_read_at_most_the_lines_owed(self):
        out = np.empty((3, 1))
        assert self.kernel.parse_rows(b"1.5\n2.5\n", out) == 2 and out[:2].tolist() == [[1.5], [2.5]]
        assert self.kernel.parse_rows(b"1.5\n2.5\n \t\n", out[:2]) == 2  # then whitespace alone
        assert self.kernel.parse_rows(b"1.5\n2.5\n3.5\n", out[:2]) is None

    def test_list_takes_spaces_around_commas_and_integers_but_no_trailing_comma(self):
        out = np.empty((3, 1))
        for text in (b"0.5, -1e-05, 7", b"0.5,-1e-05,7", b" 0.5 ,-1e-05 , 7 ", b"0.5, -1e-05, 7 \n"):
            assert self.kernel.parse_rows(text, out, None, ",") == 3, text
            assert out.ravel().tolist() == [0.5, -1e-05, 7.0]
        # a piece cut after a "," or an empty one: the caller counts what a list holds in all
        assert self.kernel.parse_rows(b"0.5, -1e-05,", out, None, ",") == 2
        assert self.kernel.parse_rows(b"", out, None, ",") == 0
        for text in (b"0.5, -1e-05, 7,", b"0.5, -1e-05, 7 , ", b"0.5, -1e-05, 7, 2.0", b"0.5,, 7", b", 0.5",
                     b"0.5\t, 7", b"0.5,\n7", b"[0.5]", b"0.5, -0, 7"):
            assert self.kernel.parse_rows(text, out, None, ",") is None, text

    def test_header_sized_allocations_are_checked_first(self, tmp_path, monkeypatch):
        # 10**15 doubles would be 8 PB: the loaders refuse before np.empty, then the Python readers name the fault
        monkeypatch.setattr(np, "empty", lambda *args, **kwargs: pytest.fail("np.empty ran"))
        path = tmp_path / "table"
        path.write_text("1 1000000000000000\n1.0\n", encoding="utf-8")
        assert numerics.parse_rows(path, numerics._MATRIX_HEADER) is None
        path.write_text('{"W1": {"rows": 1, "cols": 1000000000000000, "data": [1.0]}}\n', encoding="utf-8")
        assert lexicon._compiled_bundle(path) is None

    def test_a_wrong_parser_fails_the_known_answer_check(self, tmp_path, monkeypatch):
        # strtof rounds to single precision: the hard decimals that reach it then differ
        monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path)
        monkeypatch.setattr(_kernel, "SOURCE", _kernel.SOURCE.replace("strtod(s, &stop)", "strtof(s, &stop)"))
        kernel = _kernel.load(numerics.matmul_numpy)
        assert (kernel.matmul, kernel.parse_rows) == (None, None)
        assert kernel.detail.startswith("known-answer mismatch: ") and kernel.detail.endswith("unlike float()")


# Runs the known-answer inputs and each of them alone at the end of a piece, with a word and as a
# list of lines ended by ",", then the loaders over the files argv[3] lists as (kind, path) pairs
# (JSON), reading each in blocks of 1 MiB and of 1, 2, 3 and 7 bytes, all through the library at
# argv[1]: the one parser with both ends of line, "\n" and ",".  Every piece
# reaches the C as an exact NumPy buffer of len + 1 bytes whose last byte is NUL, as its contract
# asks, so under ASan a read past buf[len] is reported.  The printer's known-answer check runs
# with buffers of the exact size its contract asks, the most the text can take plus
# wordfuse_format_slack bytes, and so do the longest texts, which take all of that but the slack,
# and HARD_DOUBLES printed in pieces of 1, 2, 3 and 7 numbers.  With argv[2] == "short" it prints
# the longest texts as a list into a buffer one byte short, which ASan must report.
SANITIZED_TEXT = """
import ctypes, json, sys
import numpy as np
from wordfuse import _kernel, lexicon, numerics

library = sys.argv[1]
if sys.argv[2] == "short":
    printer = ctypes.CDLL(library).wordfuse_format_rows
    printer.argtypes = [ctypes.c_void_p] + [ctypes.c_int64] * 3 + [ctypes.c_char_p, ctypes.c_int64] * 2 \\
        + [ctypes.c_void_p]
    slack = ctypes.c_int64.in_dll(ctypes.CDLL(library), "wordfuse_format_slack").value
    values = np.full(9, -2.2250738585072014e-308)
    out = np.empty(24 * 9 + 2 * 8 + slack - 1, np.uint8)
    printer(values.ctypes.data, 9, 9, 0, b", ".ljust(8, b"\\0"), 2, bytes(8), 0, out.ctypes.data)
bound = _kernel._bind(library)
calls = []
def exact(function):
    def call(data, *args):
        calls.append(1)
        buf = np.zeros(len(memoryview(data)) + 1, np.uint8)
        buf[:-1] = np.frombuffer(data, np.uint8)
        return function(buf[:-1], *args)
    return call
kernel = _kernel.Kernel(bound["matmul"], library, exact(bound["parse_rows"]), bound["format_rows"])
numerics.matmul_kernel = lambda: kernel
assert _kernel._parses_like_float(kernel.parse_rows)
assert _kernel._prints_like_repr(kernel.format_rows)
longest = np.full(9, -2.2250738585072014e-308)
for cols, sep, end in ((9, ", ", ""), (3, " ", "\\n")):
    assert bytes(kernel.format_rows(longest, 0, cols, sep, end, None)[0]).count(b"e-308") == 9
values = np.resize(_kernel.HARD_DOUBLES, (len(_kernel.HARD_DOUBLES), 3))
for block in (1, 2, 3, 7):
    numerics.WRITE_BLOCK = block
    text = b"".join(map(bytes, numerics.print_rows(values)))
    assert text == "".join(" ".join(map(repr, row)) + "\\n" for row in values.tolist()).encode()
for token in _kernel.HARD_DECIMALS + _kernel.REFUSED_TOKENS:
    kernel.parse_rows(token.encode(), np.empty((1, 1)))
    kernel.parse_rows(f"w {token}".encode(), np.empty((1, 1)), np.empty((1, 2), np.int64))
    kernel.parse_rows(token.encode(), np.empty((1, 1)), None, ",")
loaders = {"emb": [lexicon.load_embeddings, lambda path: lexicon.load_embeddings(path, ["a", "x"])],
           "mat": [numerics.read_matrix], "bundle": [lexicon.load_bundle]}
for kind, path in json.loads(sys.argv[3]):
    for block in (1 << 20, 1, 2, 3, 7):
        numerics.READ_BLOCK = block
        for load in loaders[kind]:
            try:
                load(path)
            except (ValueError, OSError):
                pass
print("ok", len(calls))
"""


def test_parser_and_printer_under_address_and_undefined_behaviour_sanitizers(tmp_path, sanitized):
    library, env = sanitized
    files = []
    for i, (kind, _, mutate) in enumerate(CASES):
        make = KINDS[kind][0]
        for seed in range(4):
            rng = np.random.default_rng(seed)
            path = tmp_path / f"{i}-{seed}.{kind}"
            path.write_bytes(mutate(make(rng), rng).encode("utf-8", errors="surrogateescape"))
            files.append((kind, str(path)))

    def run(mode):
        return subprocess.run([sys.executable, "-c", SANITIZED_TEXT, str(library), mode, json.dumps(files)],
                              capture_output=True, text=True, env=env, timeout=300)

    done = run("whole")
    assert done.returncode == 0 and done.stdout.startswith("ok "), done.stderr[-4000:]
    # the known-answer checks, three calls per token, then at least one call for most files
    tokens = len(_kernel.HARD_DECIMALS) + len(_kernel.REFUSED_TOKENS)
    assert int(done.stdout.split()[1]) > 2 + 2 * len(_kernel.REFUSED_TOKENS) + 3 * tokens + len(files) // 2
    short = run("short")
    assert short.returncode != 0, short.stdout
    assert "AddressSanitizer: heap-buffer-overflow" in short.stderr, short.stderr[-4000:]


# matrices whose text takes every part of repr()'s layout, each row of
# check._BUNDLE_EDGE_VALUES among them
EDGE_MATRICES = {
    "1x1 -0.0": [[-0.0]],
    "1x1 5e-324": [[5e-324]],
    "1x1 largest": [[1.7976931348623157e308]],
    "1x1 zero": [[0.0]],
    "edge row": [check._BUNDLE_EDGE_VALUES.tolist()],
    "edge column": [[v] for v in check._BUNDLE_EDGE_VALUES.tolist()],
    "values": [VALUES[:6], VALUES[6:]],
    "layout switches": [[9.999999999999999e-05, 0.0001, 9999999999999998.0, 1e16, -1e-323, 1e100]],
}


def written(tmp_path, write, value) -> bytes:
    path = tmp_path / "out"
    write(value, path)
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(EDGE_MATRICES))
def test_write_matrix_prints_as_repr_either_way(tmp_path, monkeypatch, name):
    m = np.array(EDGE_MATRICES[name])
    want = f"{m.shape[0]} {m.shape[1]}\n" + "".join(" ".join(map(repr, row)) + "\n" for row in m.tolist())
    compiled, python = both_ways(monkeypatch, written, tmp_path, numerics.write_matrix, m)
    assert compiled == python == want.encode()


@pytest.mark.parametrize("name", sorted(EDGE_MATRICES))
def test_save_bundle_prints_as_json_dumps_either_way(tmp_path, monkeypatch, name):
    # every tensor the same edge matrix, or a 1x1 tensor beside it
    bundle = {tensor: np.array(EDGE_MATRICES[name] if i % 3 else [[VALUES[i]]])
              for i, tensor in enumerate(lexicon.BUNDLE_TENSORS)}
    want = oracles.bundle_json_serial({t: m.tolist() for t, m in bundle.items()}, lexicon.BUNDLE_TENSORS)
    compiled, python = both_ways(monkeypatch, written, tmp_path, lexicon.save_bundle, bundle)
    assert compiled == python == want


# pieces of fewer numbers than any tensor holds, so each one straddles pieces, and its rows end
# inside pieces and at their edges
SMALL_PIECE_SHAPES = [(3, 5), (1, 8), (4, 3), (2, 9), (5, 2), (1, 11), (8, 1), (3, 3), (2, 4), (1, 13)]


@pytest.mark.parametrize("block", SMALL_BLOCKS)
def test_writers_print_the_same_bytes_in_small_pieces(tmp_path, monkeypatch, block):
    rng = np.random.default_rng(block)
    values = VALUES + check._BUNDLE_EDGE_VALUES.tolist() + list(_kernel.HARD_DOUBLES)
    assert len(SMALL_PIECE_SHAPES) == len(lexicon.BUNDLE_TENSORS)
    bundle = {name: rng.choice(values, size=shape) for name, shape in zip(lexicon.BUNDLE_TENSORS, SMALL_PIECE_SHAPES)}
    monkeypatch.setattr(numerics, "WRITE_BLOCK", block)
    for m in bundle.values():
        want = f"{m.shape[0]} {m.shape[1]}\n" + "".join(" ".join(map(repr, row)) + "\n" for row in m.tolist())
        compiled, python = both_ways(monkeypatch, written, tmp_path, numerics.write_matrix, m)
        assert compiled == python == want.encode()
    want = oracles.bundle_json_serial({t: m.tolist() for t, m in bundle.items()}, lexicon.BUNDLE_TENSORS)
    compiled, python = both_ways(monkeypatch, written, tmp_path, lexicon.save_bundle, bundle)
    assert compiled == python == want


@pytest.mark.skipif(numerics.matmul_kernel().format_rows is None, reason="the compiled library did not load")
def test_save_bundle_never_holds_a_tensors_text(tmp_path):
    # beyond what it returns, at most a few pieces of text, 26 bytes a number at most; at paper shape
    # the text of a 768x768 tensor takes about 12 MB
    bundle = lexicon.init_bundle(2022, 200, 768)
    tracemalloc.start()
    try:
        lexicon.save_bundle(bundle, tmp_path / "bundle.json")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < 3 * 26 * numerics.WRITE_BLOCK, (peak, held)


@needs_parser
def test_a_wrong_printer_is_refused_and_everything_falls_back(tmp_path, monkeypatch):
    # the exponent form one place early: 1e+16 stays right, 9999999999999998.0 does not; or a
    # fraction of 9 digits copied as a word of 8, which only the digit-count doubles show
    monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path)
    source = _kernel.SOURCE
    for fault in (("point > 16", "point > 15"), ("n - point <= 8", "n - point <= 9")):
        assert source.count(fault[0]) == 1
        monkeypatch.setattr(_kernel, "SOURCE", source.replace(*fault))
        kernel = _kernel.load(numerics.matmul_numpy)
        assert kernel.detail.startswith("known-answer mismatch: ")
        assert kernel.detail.endswith("prints numbers unlike repr()")
        functions = (kernel.matmul, kernel.parse_rows, kernel.format_rows)
        assert functions == (None,) * 3
    # with that kernel, the products, the loaders and the writers all take their Python paths
    monkeypatch.setattr(numerics, "matmul_kernel", lambda: kernel)
    used, loop = [], numerics.matmul_numpy
    monkeypatch.setattr(numerics, "matmul_numpy", lambda a, b: used.append("NumPy") or loop(a, b))
    m = np.array([[9999999999999998.0, -0.0]])
    assert numerics.matmul(m, m.T).tolist() == [[9999999999999998.0 ** 2]] and used == ["NumPy"]
    path = tmp_path / "m.txt"
    numerics.write_matrix(m, path)
    assert path.read_text(encoding="utf-8") == "1 2\n9999999999999998.0 -0.0\n"
    assert numerics.read_matrix(path).tobytes() == m.tobytes()
