"""The benchmark's tracer, imported as it stands, still fits the package.

``perfbench/tracing.py`` wraps package functions by name and reads their
arguments: a signature change that breaks ``--trace 1``, a wrapped function
renamed away (the tracer skips a missing name, and its metrics read 0), or
per-word copies of the whole hidden matrix coming back, fails here.
"""

import importlib.util
from pathlib import Path

import numpy as np

from wordfuse import attention, lexicon, segvote
from wordfuse.fusion import FusionConfig

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reads_one_pipeline_forward():
    tracing = load_tracing()
    rng = np.random.default_rng(11)
    table = lexicon.EmbeddingTable(dim=3, vectors={"ab": rng.standard_normal(3)}, unk=np.zeros(3))
    bundle = lexicon.init_bundle(5, 3, 8)
    h = rng.standard_normal((6, 8))
    tracer = tracing.Tracer()
    tracer.unit = "i0"
    tracer.install()
    try:
        seg = segvote.vote("abcdef", [["ab", "c", "def"], ["ab", "c", "de", "f"]])
        result = attention.pipeline_forward(h, seg, table, bundle, FusionConfig(heads=2))
    finally:
        tracer.uninstall()
    layers = tracer.per_layer(segvote.agreement_stats)
    assert set(layers) == set(tracing.METRICS) - {"cli.startup_s", "trace.overhead_s"}
    assert result.fused.shape == h.shape
    # one inject and one mix of each word's own rows: each row is copied twice
    assert layers["fusion.copied_bytes"] == 2 * h.nbytes
    assert layers["attention.omega_share"] == len(result.omega) / h.shape[0]
    assert 0.0 < layers["segvote.agreement"] <= 1.0
    # mix_word gets a span of its word's length: "c" is the one single-character word
    assert seg.words == ["ab", "c", "def"]
    assert layers["fusion.single_char_share"] == sum(len(w) == 1 for w in seg.words) / len(seg.words)
    # lookup runs once per distinct word of the sentence: "c" and "def" are out of vocabulary
    distinct = set(seg.words)
    assert layers["lexicon.lookup.oov_share"] == sum(w not in table for w in distinct) / len(distinct) == 2 / 3


# names the tracer wraps that the package no longer has: lexicon.project was folded into project_rows
GONE = {("lexicon", "project")}


def test_every_wrapped_name_resolves():
    missing = [(module, name) for module, name in load_tracing().SPANS
               if not hasattr(importlib.import_module(f"wordfuse.{module}"), name)]
    assert set(missing) <= GONE, missing
