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

import json
import os
import re
import subprocess
import sys
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


@pytest.mark.parametrize(("kind", "name", "mutate"), CASES, ids=[f"{k}-{n}" for k, n, _ in CASES])
def test_compiled_and_python_readers_agree(tmp_path, monkeypatch, kind, name, mutate):
    make, load = KINDS[kind]
    path = tmp_path / kind
    for seed in range(4):
        rng = np.random.default_rng(seed)
        text = mutate(make(rng), rng)
        path.write_bytes(text.encode("utf-8", errors="surrogateescape"))
        compiled, python = both_ways(monkeypatch, outcome, load, path)
        assert compiled == python, f"seed {seed}: {text[:200]!r}"


@needs_parser
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_valid_files_take_the_compiled_path(tmp_path, monkeypatch, kind):
    make, load = KINDS[kind]
    path = tmp_path / kind
    path.write_text(make(np.random.default_rng(0)), encoding="utf-8")
    want = snapshot(load(path))

    def python_reader(*args):
        raise AssertionError("the Python reader ran")

    for module, name in [(numerics, "read_text"), (lexicon, "_read_rows")]:
        monkeypatch.setattr(module, name, python_reader)
    assert snapshot(load(path)) == want


@needs_parser
def test_paper_shape_bundle_takes_the_compiled_path(tmp_path, monkeypatch):
    path = tmp_path / "bundle.json"
    bundle = lexicon.init_bundle(2022, 200, 768)
    lexicon.save_bundle(bundle, path)
    monkeypatch.setattr(numerics, "read_text", lambda path: pytest.fail("read_json ran"))
    loaded = lexicon.load_bundle(path)
    assert all(loaded[name].tobytes() == bundle[name].tobytes() for name in lexicon.BUNDLE_TENSORS)


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
        return self.kernel.parse_rows(text.encode(), 0, rows, cols, words)

    def test_hard_decimals_give_float_bits(self):
        got = self.parse(" ".join(_kernel.HARD_DECIMALS), 1, len(_kernel.HARD_DECIMALS))
        want = np.array([[float(s) for s in _kernel.HARD_DECIMALS]])
        assert got is not None and got[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("token", _kernel.REFUSED_TOKENS)
    def test_refused_tokens(self, token):
        assert self.parse(f"{token}\n", 1, 1) is None
        assert self.kernel.parse_list(f"[{token}]".encode(), 0, 1) is None

    def test_word_spans_are_byte_offsets(self):
        text = "重庆 1.5 2\n<unk> -0.0 3e2\n"
        values, spans = self.parse(text, 2, 2, words=True)
        data = text.encode()
        assert [data[s:e].decode() for s, e in spans.tolist()] == ["重庆", "<unk>"]
        assert values.tolist() == [[1.5, 2.0], [-0.0, 300.0]]

    def test_list_takes_only_the_layout_save_bundle_writes(self):
        assert self.kernel.parse_list(b"[0.5, -1e-05]}", 0, 2)[1] == 13
        for text in (b"[0.5,-1e-05]", b"[0.5, -1e-05 ]", b"[0.5, 1]", b"[0.5, -1e-05, 2.0]", b"[0.5]"):
            assert self.kernel.parse_list(text, 0, 2) is None, text

    def test_header_sized_allocations_are_checked_first(self):
        # 10**15 doubles would be 8 PB; the length check refuses before np.empty
        assert self.kernel.parse_rows(b"1.0\n", 0, 1, 10**15, False) is None
        assert self.kernel.parse_list(b"[1.0]", 0, 10**15) is None

    def test_a_wrong_parser_fails_the_known_answer_check(self, tmp_path, monkeypatch):
        # strtof rounds to single precision: the hard decimals that reach it then differ
        monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path)
        monkeypatch.setattr(_kernel, "SOURCE", _kernel.SOURCE.replace("strtod(s, &stop)", "strtof(s, &stop)"))
        kernel = _kernel.load(numerics.matmul_numpy)
        assert (kernel.matmul, kernel.parse_rows) == (None, None)
        assert kernel.detail.startswith("known-answer mismatch: ") and kernel.detail.endswith("unlike float()")


# Runs the loaders over the files argv[3] lists as (kind, path) pairs (JSON), then the known-answer
# inputs and each of them alone at the end of a buffer, with a word and in a list, all through the
# library at argv[1].  Every input reaches the C as an exact NumPy buffer of len + 1 bytes whose last
# byte is NUL, as its contract asks, so under ASan a read past buf[len] is reported.  With argv[2] ==
# "short" it prints HARD_DOUBLES into an output buffer one byte short, which ASan must report.
SANITIZED_TEXT = """
import ctypes, json, sys
import numpy as np
from wordfuse import _kernel, lexicon, numerics

class Exact:
    def __init__(self, data):
        self.buf = np.zeros(len(data) + 1, np.uint8)
        self.buf[:-1] = np.frombuffer(data, np.uint8)
    def __len__(self):
        return len(self.buf) - 1
    @property
    def _as_parameter_(self):
        return ctypes.c_char_p(self.buf.ctypes.data)

library = sys.argv[1]
if sys.argv[2] == "short":
    printer = ctypes.CDLL(library).wordfuse_format_rows
    printer.argtypes = [ctypes.c_void_p] + [ctypes.c_int64] * 2 + [ctypes.c_char_p, ctypes.c_int64] * 2 \
        + [ctypes.c_void_p]
    values = np.array(_kernel.HARD_DOUBLES)
    out = np.empty(len(", ".join(map(repr, _kernel.HARD_DOUBLES))) - 1, np.uint8)
    printer(values.ctypes.data, 1, len(values), b", ", 2, b"", 0, out.ctypes.data)
bound = _kernel._bind(library)
calls = []
def exact(function):
    return lambda data, *args: calls.append(1) or function(Exact(data), *args)
kernel = _kernel.Kernel(bound["matmul"], library, exact(bound["parse_rows"]), exact(bound["parse_list"]),
                        bound["format_rows"])
numerics.matmul_kernel = lambda: kernel
assert _kernel._parses_like_float(kernel.parse_rows, kernel.parse_list)
assert _kernel._prints_like_repr(kernel.format_rows)
for token in _kernel.HARD_DECIMALS + _kernel.REFUSED_TOKENS:
    kernel.parse_rows(token.encode(), 0, 1, 1, False)
    kernel.parse_rows(f"w {token}".encode(), 0, 1, 1, True)
    kernel.parse_list(f"[{token}]".encode(), 0, 1)
loaders = {"emb": lexicon.load_embeddings, "mat": numerics.read_matrix, "bundle": lexicon.load_bundle}
for kind, path in json.loads(sys.argv[3]):
    try:
        loaders[kind](path)
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
    assert int(done.stdout.split()[1]) > 2 + len(_kernel.REFUSED_TOKENS) + 3 * tokens + len(files) // 2
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


@needs_parser
def test_a_wrong_printer_is_refused_and_everything_falls_back(tmp_path, monkeypatch):
    # the exponent form one place early: 1e+16 stays right, 9999999999999998.0 does not
    monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(_kernel, "SOURCE", _kernel.SOURCE.replace("point > 16", "point > 15"))
    kernel = _kernel.load(numerics.matmul_numpy)
    assert kernel.detail.startswith("known-answer mismatch: ")
    assert kernel.detail.endswith("prints numbers unlike repr()")
    functions = (kernel.matmul, kernel.parse_rows, kernel.parse_list, kernel.format_rows)
    assert functions == (None,) * 4
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
