"""Regenerate the files under tests/golden/.

Inputs (the record, embeddings, hidden states, bundle) are deterministic;
the expected pipeline output is computed by the straight-line oracle in
oracles.py (with the attention loop of wordfuse.check), never by the
package's own pipeline.  Run from the repo root:

    python3 tests/make_goldens.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import oracles
from wordfuse import lexicon, numerics

GOLDEN = Path(__file__).parent / "golden"

SENTENCE = "重庆人和中学"
TOKENIZATIONS = [["重庆", "人和", "中学"], ["重庆", "人和中学"], ["重庆人", "和", "中学"]]
SPANS = [(0, 1), (2, 5)]  # the voted segmentation of SENTENCE

EMBEDDINGS = {
    "重庆": [0.5, -0.25, 0.125, 1.0],
    "人和中学": [-1.0, 0.75, 0.5, -0.125],
    "中学": [0.25, 0.3, -0.6, 0.8],
    "<unk>": [0.01, 0.02, -0.03, 0.04],
}

D_W, D_H = 4, 8
HIDDEN_SEED, BUNDLE_SEED = 7, 42
LAM, MU = 0.9, 0.5


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)

    record = {"sentence": SENTENCE, "tokenizations": TOKENIZATIONS}
    (GOLDEN / "vote_record.jsonl").write_text(
        json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8"
    )

    lines = [f"{len(EMBEDDINGS)} {D_W}"]
    for word, vec in EMBEDDINGS.items():
        lines.append(word + " " + " ".join(repr(float(v)) for v in vec))
    (GOLDEN / "toy_embeddings.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    hidden = numerics.init_matrix(numerics.SplitMix64(HIDDEN_SEED), len(SENTENCE), D_H)
    numerics.write_matrix(hidden, GOLDEN / "hidden_6x8.txt")

    bundle = lexicon.init_bundle(BUNDLE_SEED, D_W, D_H)
    lexicon.save_bundle(bundle, GOLDEN / "bundle_seed42.json")

    oracle_bundle = {name: [list(row) for row in m] for name, m in bundle.items()}
    oracle_bundle["H"] = [list(row) for row in hidden]
    fused, omega, _, _, _ = oracles.pipeline_naive(
        SENTENCE, SPANS, EMBEDDINGS, EMBEDDINGS["<unk>"], oracle_bundle, LAM, MU
    )
    numerics.write_matrix(fused, GOLDEN / "expected_fused.txt")
    (GOLDEN / "expected_omega.json").write_text(json.dumps(omega) + "\n", encoding="utf-8")
    print(f"wrote goldens to {GOLDEN}; omega = {omega}")


if __name__ == "__main__":
    main()
