"""Command-line front end for the fusion pipeline.

Subcommands:
    vote          aggregate per-sentence tokenizations into one segmentation
    init-weights  write a fresh deterministic weight bundle
    fuse          run the full pipeline over one sentence's hidden states
    check         run the randomized invariant suite

Typical usage:
    wordfuse vote --input sentences.jsonl --output segmented.jsonl
    wordfuse init-weights --seed 42 --dw 4 --dh 8 --output bundle.json
    wordfuse fuse --embeddings vecs.txt --weights bundle.json \\
        --hidden H.txt --segmentation seg.json --output fused.txt
    wordfuse check

Exit codes: 0 success, 1 user or data error (including failed checks),
2 unexpected internal error.  Commands never modify their input files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import check as checkmod
from . import lexicon, numerics, segvote
from ._child import _in_child
from .attention import pipeline_forward
from .fusion import FusionConfig
from .segvote import Segmentation, WordSpan

FUSE_DEFAULTS = {"lambda": 0.9, "mu": 0.5, "heads": 1, "debug_intermediates": False}
FUSE_PATHS = ("embeddings", "weights", "hidden", "segmentation", "output")

# the JSON type each --config key must hold, checked by Python type: a JSON
# true is a bool, not a number, and 2.7 is a float, not an integer
_CONFIG_TYPES = {"lambda": "number", "mu": "number", "heads": "integer",
                 "debug_intermediates": "boolean", **{key: "string" for key in FUSE_PATHS}}
_JSON_TYPES = {"number": (int, float), "integer": (int,), "boolean": (bool,), "string": (str,)}

_FUSE_CLASH = "output {} is the input file {}; inputs are never overwritten"


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _input_overwritten(outputs, inputs) -> tuple[str, str] | None:
    """The first (output, input) pair that name the same existing file, if any."""
    for out in outputs:
        for path in inputs:
            try:
                if os.path.samefile(out, path):
                    return out, path
            except OSError:  # either file is absent: nothing to overwrite
                continue
    return None


def _load_weights(path: str) -> tuple[dict, list]:
    """The bundle's tensors and the matrix files it names, which are inputs too."""
    matrix_files = []
    return lexicon.load_bundle(path, matrix_files), matrix_files


def _vote_record(line: str) -> Segmentation:
    """The voted segmentation of one ``vote`` input line; a ValueError reads ``field: problem``."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as err:
        raise ValueError(f"not valid JSON: {err}") from None
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object, got {lexicon.JSON_KINDS[type(record)]}")
    for field in ("sentence", "tokenizations"):
        if field not in record:
            raise ValueError(f"{field}: missing")
    sentence, tokenizations = record["sentence"], record["tokenizations"]
    if not isinstance(sentence, str):
        raise ValueError("sentence: expected a string")
    if not isinstance(tokenizations, list) or not all(
        isinstance(t, list) and all(isinstance(w, str) for w in t) for t in tokenizations
    ):
        raise ValueError("tokenizations: expected a list of word lists")
    try:
        return segvote.vote(sentence, tokenizations)
    except ValueError as err:
        raise ValueError(f"tokenizations: {err}") from None


def cmd_vote(args) -> int:
    if args.output and _input_overwritten([args.output], [args.input]):
        return _fail(f"--output {args.output} is the input file; inputs are never overwritten")
    out_lines = []
    try:
        lines = numerics.read_text(args.input).splitlines()
    except (OSError, ValueError) as err:
        return _fail(str(err))
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            seg = _vote_record(line)
        except ValueError as err:
            return _fail(f"{args.input}: line {lineno}: {err}")
        out_lines.append(
            json.dumps(
                {
                    "sentence": seg.sentence,
                    "words": seg.words,
                    "spans": [[s.start, s.end] for s in seg.spans],
                },
                ensure_ascii=False,
            )
        )
    text = "".join(line + "\n" for line in out_lines)
    if args.output:
        numerics.write_atomic(args.output, [text])
    else:
        sys.stdout.write(text)
    return 0


def cmd_init_weights(args) -> int:
    if args.dw < 1 or args.dh < 1:
        return _fail(f"dimensions must be positive, got --dw {args.dw} --dh {args.dh}")
    if args.heads < 1 or args.dh % args.heads:
        return _fail(f"--dh {args.dh} must be divisible by --heads {args.heads}")
    bundle = lexicon.init_bundle(args.seed, args.dw, args.dh)
    lexicon.save_bundle(bundle, args.output)
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _load_segmentation(path: str) -> Segmentation:
    text = numerics.read_text(path).strip()
    if not text:
        raise ValueError(f"{path}: empty segmentation file")
    # a plain JSON object, or a JSON-lines file holding exactly one record
    try:
        record = json.loads(text)
    except json.JSONDecodeError as err:
        try:
            records = [json.loads(line) for line in text.splitlines() if line.strip()]
        except json.JSONDecodeError:
            raise ValueError(f"{path}: not valid JSON: {err}") from None
        raise ValueError(f"{path}: {len(records)} records, fuse takes exactly one") from None
    if not isinstance(record, dict) or "sentence" not in record:
        raise ValueError(f"{path}: expected an object with a 'sentence' field")
    sentence = record["sentence"]
    if not isinstance(sentence, str):
        raise ValueError(f"{path}: sentence: expected a string")
    if "spans" in record:
        spans = record["spans"]
        if not isinstance(spans, list) or not all(
            isinstance(s, list) and len(s) == 2 and all(type(i) is int for i in s) for s in spans
        ):
            raise ValueError(f"{path}: spans: expected a list of [start, end] integer pairs")
        return Segmentation(sentence, tuple(WordSpan(s, e) for s, e in spans))
    if "words" in record:
        words = record["words"]
        if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
            raise ValueError(f"{path}: words: expected a list of strings")
        return segvote.validate_tokenization(sentence, words)
    raise ValueError(f"{path}: record needs either 'spans' or 'words'")


def _load_config(path: str) -> dict:
    try:
        raw = json.loads(numerics.read_text(path))
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_TYPES))
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    for key, value in raw.items():
        kind = _CONFIG_TYPES[key]
        # a number must also fit a float: float() of a 400-digit integer raises OverflowError
        if type(value) not in _JSON_TYPES[kind] or kind == "number" and abs(value) > sys.float_info.max:
            raise ValueError(f"{path}: {key}: expected a JSON {kind}, got {json.dumps(value)}")
    return raw


def cmd_fuse(args) -> int:
    file_cfg = _load_config(args.config) if args.config else {}

    def pick(flag_value, key):
        if flag_value is not None:
            return flag_value
        return file_cfg.get(key, FUSE_DEFAULTS.get(key))

    paths = {key: pick(getattr(args, key), key) for key in FUSE_PATHS}
    missing = [key for key, value in paths.items() if not value]
    if missing:
        return _fail(f"missing required settings: {', '.join(sorted(missing))}")
    lam = float(pick(args.lam, "lambda"))
    mu = float(pick(args.mu, "mu"))
    heads = pick(args.heads, "heads")
    debug = pick(args.debug_intermediates, "debug_intermediates")

    out = paths["output"]
    outputs = [out]
    if debug:
        outputs += [f"{out}{suffix}" for suffix in (".mixed", ".h1", ".h2", ".omega.json")]
    clash = _input_overwritten(outputs, [paths[key] for key in FUSE_PATHS if key != "output"])
    if clash:
        return _fail(_FUSE_CLASH.format(*clash))

    # the bundle parses in a second process while this one reads the other
    # inputs; errors are still reported in input order
    with _in_child(_load_weights, paths["weights"]) as weights:
        try:
            hidden = numerics.read_matrix(paths["hidden"])
        except ValueError as err:
            return _fail(f"hidden states: {err}")
        try:
            seg = _load_segmentation(paths["segmentation"])
        except ValueError as err:
            return _fail(f"segmentation: {err}")
        try:
            table = lexicon.load_embeddings(paths["embeddings"])
        except ValueError as err:
            return _fail(f"embeddings: {err}")
        try:
            bundle, matrix_files = weights()
        except ValueError as err:
            return _fail(f"weight bundle: {err}")
    clash = _input_overwritten(outputs, matrix_files)
    if clash:
        return _fail(_FUSE_CLASH.format(*clash))

    # checks the bundle and the settings; main reports a ValueError with exit 1
    result = pipeline_forward(hidden, seg, table, bundle, FusionConfig(lam=lam, mu=mu, heads=heads))

    numerics.write_matrix(result.fused, out)
    if debug:
        numerics.write_matrix(result.mixed, f"{out}.mixed")
        numerics.write_matrix(result.h1, f"{out}.h1")
        numerics.write_matrix(result.h2, f"{out}.h2")
        numerics.write_atomic(f"{out}.omega.json", [json.dumps(list(result.omega)) + "\n"])
    print(f"wrote {out}", file=sys.stderr)
    return 0


def _corrupted_softmax(m):
    # intentionally wrong: inflates every row just past the tolerance
    return numerics.softmax_rows(m) * (1.0 + 1e-6)


def cmd_check(args) -> int:
    if args.cases < 1:
        return _fail(f"--cases must be >= 1, got {args.cases}")
    softmax_impl = _corrupted_softmax if args.corrupt == "softmax" else None
    print(f"matmul kernel: {numerics.matmul_kernel()}")
    results = checkmod.run_checks(seed=args.seed, cases=args.cases, softmax_impl=softmax_impl)
    width = max(len(r.name) for r in results)
    print(f"{'PROPERTY':<{width}}  CASES  RESULT")
    for r in results:
        print(f"{r.name:<{width}}  {r.cases:>5}  {'PASS' if r.passed else 'FAIL'}")
        if not r.passed:
            print(f"{'':<{width}}         {r.failure}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results)} properties: {len(results) - failed} passed, {failed} failed (seed {args.seed})")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordfuse",
        description="Word-semantics enrichment for character hidden states.",
        epilog="Exit codes: 0 success, 1 user/data error, 2 internal error.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_vote = sub.add_parser("vote", help="aggregate tokenizations by majority + granularity")
    p_vote.add_argument("--input", required=True, help="JSON-lines records with sentence + tokenizations")
    p_vote.add_argument("--output", help="output path (default: stdout)")
    p_vote.set_defaults(func=cmd_vote)

    p_init = sub.add_parser("init-weights", help="write a deterministic weight bundle")
    p_init.add_argument("--seed", type=int, default=42)
    p_init.add_argument("--dw", type=int, required=True, help="word embedding width")
    p_init.add_argument("--dh", type=int, required=True, help="hidden width")
    p_init.add_argument("--heads", type=int, default=1)
    p_init.add_argument("--output", required=True)
    p_init.set_defaults(func=cmd_init_weights)

    p_fuse = sub.add_parser("fuse", help="run the fusion pipeline on one sentence")
    p_fuse.add_argument("--config", help="JSON config; explicit flags override its keys")
    p_fuse.add_argument("--embeddings", help="word2vec-style text embeddings")
    p_fuse.add_argument("--weights", help="JSON weight bundle")
    p_fuse.add_argument("--hidden", help="matrix text file of per-character hidden states")
    p_fuse.add_argument("--segmentation", help="JSON record with sentence + spans (or words)")
    p_fuse.add_argument("--output", help="where to write the fused matrix")
    p_fuse.add_argument("--lambda", dest="lam", type=float, help="key-information retention (default 0.9)")
    p_fuse.add_argument("--mu", type=float, help="attention fusion coefficient (default 0.5)")
    p_fuse.add_argument("--heads", type=int, help="attention heads (default 1)")
    p_fuse.add_argument(
        "--debug-intermediates",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="also write <output>.mixed/.h1/.h2 and <output>.omega.json",
    )
    p_fuse.set_defaults(func=cmd_fuse)

    p_check = sub.add_parser("check", help="run the randomized invariant suite")
    p_check.add_argument("--seed", type=int, default=checkmod.DEFAULT_SEED)
    p_check.add_argument("--cases", type=int, default=checkmod.DEFAULT_CASES)
    p_check.add_argument(
        "--corrupt",
        choices=["softmax"],
        help="testing hook: run with a deliberately broken kernel",
    )
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError as err:
        if err.filename is not None:  # a named output, such as a FIFO whose reader left
            return _fail(str(err))
        # stdout's reader has gone (``wordfuse check | head -2``): stop quietly, and
        # send what is still buffered to os.devnull so the exit flush cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as err:
        return _fail(str(err))
    except Exception as err:  # noqa: BLE001 - contract: unexpected bug -> 2
        print(f"internal error: {err!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
