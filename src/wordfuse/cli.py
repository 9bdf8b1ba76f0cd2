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
from concurrent.futures import ThreadPoolExecutor

from . import lexicon, numerics, segvote
from .attention import pipeline_forward
from .fusion import FusionConfig
from .segvote import Segmentation

FUSE_DEFAULTS = {"lambda": FusionConfig.lam, "mu": FusionConfig.mu, "heads": FusionConfig.heads,
                 "debug_intermediates": False}
FUSE_PATHS = ("embeddings", "weights", "hidden", "segmentation", "output")

# the fields of each JSON record the commands read, by numerics.JSON_FIELD_KINDS
_VOTE_FIELDS = {"sentence": "string", "tokenizations": "list of word lists"}
_SEGMENTATION_FIELDS = {"sentence": "string", "spans": "list of [start, end] integer pairs",
                        "words": "list of strings"}
_CONFIG_FIELDS = {"lambda": "number in [0, 1]", "mu": "number in [0, 1]", "heads": "positive integer",
                  "debug_intermediates": "boolean", **dict.fromkeys(FUSE_PATHS, "string")}

_FUSE_CLASH = "output {} is the input file {}; inputs are never overwritten"

# the whitespace JSON allows around a value; str.strip() would also take NBSP, U+3000 and the like
_JSON_WHITESPACE = " \t\r\n"


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


def cmd_vote(args) -> int:
    if args.output and _input_overwritten([args.output], [args.input]):
        return _fail(f"--output {args.output} is the input file; inputs are never overwritten")
    out_lines = []
    # JSON lines end at "\n" alone: U+2028, U+2029 and U+0085 may stand raw in a JSON string
    for lineno, line in enumerate(numerics.read_text(args.input).split("\n"), start=1):
        if not line.strip(_JSON_WHITESPACE):
            continue
        with numerics.located(f"{args.input}: line {lineno}"):
            record = numerics.check_record(numerics.parse_json(line), _VOTE_FIELDS, required=_VOTE_FIELDS)
            with numerics.located("tokenizations"):
                seg = segvote.vote(record["sentence"], record["tokenizations"])
        spans = [[a, b - 1] for a, b in zip(seg.starts, seg.starts[1:])]
        out_lines.append(json.dumps({"sentence": seg.sentence, "words": seg.words, "spans": spans},
                                    ensure_ascii=False))
    text = "".join(line + "\n" for line in out_lines)
    if args.output:
        numerics.write_atomic(args.output, [text.encode("utf-8")])
    else:
        sys.stdout.write(text)
    return 0


def cmd_init_weights(args) -> int:
    if not 0 <= args.seed < 2**64:  # SplitMix64 would silently reduce it mod 2**64
        return _fail(f"--seed must be in [0, 2**64), got {args.seed}")
    bundle = lexicon.init_bundle(args.seed, args.dw, args.dh)
    lexicon.save_bundle(bundle, args.output)
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _read_segmentation(path: str) -> Segmentation:
    """The record of a segmentation file: a JSON object, or a JSON-lines file of one record."""
    text = numerics.read_text(path).strip(_JSON_WHITESPACE)
    with numerics.located(path):
        try:
            record = numerics.parse_json(text)
        except ValueError as err:
            try:
                count = len([numerics.parse_json(line) for line in text.split("\n") if line.strip(_JSON_WHITESPACE)])
            except ValueError:
                raise err from None
            raise ValueError(f"{count} records, fuse takes exactly one") from None  # 0 if empty
        numerics.check_record(record, _SEGMENTATION_FIELDS, required=("sentence",))
        sentence, spans, words = record["sentence"], record.get("spans"), record.get("words")
        if spans is None:
            if words is None:
                raise ValueError("record needs either 'spans' or 'words'")
            with numerics.located("words"):
                return segvote.vote(sentence, [words])
        starts = [0]  # each span's start, then the end of the last plus one
        with numerics.located("spans"):
            for start, end in spans:
                if start != starts[-1] or end < start:
                    raise ValueError(f"spans are not a contiguous partition at index {starts[-1]}")
                starts.append(end + 1)
            if starts[-1] != len(sentence):
                raise ValueError(f"spans cover {starts[-1]} characters, sentence has {len(sentence)}")
        seg = Segmentation(sentence, tuple(starts))
        if words is not None and words != seg.words:
            raise ValueError("words: not the sentence's slices at spans")
        return seg


def _read_config(path: str) -> dict:
    """The settings a ``--config`` file holds; a ValueError reads ``path: field: problem``."""
    config = numerics.read_json(path)
    with numerics.located(path):
        return numerics.check_record(config, _CONFIG_FIELDS, closed="config")


def cmd_fuse(args) -> int:
    # a flag overrides the config file, which overrides the defaults
    settings = dict(FUSE_DEFAULTS, **(_read_config(args.config) if args.config else {}))
    settings.update((key, getattr(args, key)) for key in _CONFIG_FIELDS if getattr(args, key) is not None)
    missing = sorted(key for key in FUSE_PATHS if not settings.get(key))
    if missing:
        return _fail(f"missing required settings: {', '.join(missing)}")

    out, debug = settings["output"], settings["debug_intermediates"]
    outputs = [out]
    if debug:
        outputs += [f"{out}{suffix}" for suffix in (".mixed", ".h1", ".h2", ".omega.json")]
    inputs = [args.config] if args.config else []
    inputs += [settings[key] for key in FUSE_PATHS if key != "output"]
    clash = _input_overwritten(outputs, inputs)
    if clash:
        return _fail(_FUSE_CLASH.format(*clash))

    # the bundle parses on a second thread while this one reads the other
    # inputs (the compiled parser leaves the GIL); errors are still reported
    # in input order, and an earlier one waits for the parse to end
    matrix_files = []  # the matrix files the bundle names, which are inputs too
    with ThreadPoolExecutor(1) as pool:
        weights = pool.submit(lexicon.load_bundle, settings["weights"], matrix_files)
        with numerics.located("hidden states"):
            hidden = numerics.read_matrix(settings["hidden"])
        with numerics.located("segmentation"):
            seg = _read_segmentation(settings["segmentation"])
        with numerics.located("embeddings"):
            table = lexicon.load_embeddings(settings["embeddings"], seg.words)
        with numerics.located("weight bundle"):
            bundle = weights.result()
    clash = _input_overwritten(outputs, matrix_files)
    if clash:
        return _fail(_FUSE_CLASH.format(*clash))

    # checks the bundle and the settings; main reports a ValueError with exit 1
    cfg = FusionConfig(lam=float(settings["lambda"]), mu=float(settings["mu"]), heads=settings["heads"])
    result = pipeline_forward(hidden, seg, table, bundle, cfg)

    numerics.write_matrix(result.fused, out)
    if debug:
        numerics.write_matrix(result.mixed, f"{out}.mixed")
        numerics.write_matrix(result.h1, f"{out}.h1")
        numerics.write_matrix(result.h2, f"{out}.h2")
        numerics.write_atomic(f"{out}.omega.json", [(json.dumps(list(result.omega)) + "\n").encode("ascii")])
    print(f"wrote {out}", file=sys.stderr)
    return 0


def cmd_check(args) -> int:
    # imported here: the other commands never need it, and its import is a noticeable share of a cold start
    from . import check

    seed = check.DEFAULT_SEED if args.seed is None else args.seed
    cases = check.DEFAULT_CASES if args.cases is None else args.cases
    if cases < 1:
        return _fail(f"--cases must be >= 1, got {cases}")
    if seed < 0:
        return _fail(f"--seed must be >= 0, got {seed}")
    print(f"matmul kernel: {numerics.matmul_kernel()}")
    results = check.run_checks(seed=seed, cases=cases)
    width = max(len(r.name) for r in results)
    print(f"{'PROPERTY':<{width}}  CASES  RESULT")
    for r in results:
        print(f"{r.name:<{width}}  {r.cases:>5}  {'PASS' if r.passed else 'FAIL'}")
        if not r.passed:
            print(f"{'':<{width}}         {r.failure}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results)} properties: {len(results) - failed} passed, {failed} failed (seed {seed})")
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
    p_init.add_argument("--output", required=True)
    p_init.set_defaults(func=cmd_init_weights)

    p_fuse = sub.add_parser("fuse", help="run the fusion pipeline on one sentence")
    p_fuse.add_argument("--config", help="JSON config; explicit flags override its keys")
    p_fuse.add_argument("--embeddings", help="word2vec-style text embeddings")
    p_fuse.add_argument("--weights", help="JSON weight bundle")
    p_fuse.add_argument("--hidden", help="matrix text file of per-character hidden states")
    p_fuse.add_argument("--segmentation", help="JSON record with sentence + spans (or words)")
    p_fuse.add_argument("--output", help="where to write the fused matrix")
    p_fuse.add_argument("--lambda", type=float, help=f"key-information retention (default {FusionConfig.lam})")
    p_fuse.add_argument("--mu", type=float, help=f"attention fusion coefficient (default {FusionConfig.mu})")
    p_fuse.add_argument("--heads", type=int, help=f"attention heads (default {FusionConfig.heads})")
    p_fuse.add_argument(
        "--debug-intermediates",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="also write <output>.mixed/.h1/.h2 and <output>.omega.json",
    )
    p_fuse.set_defaults(func=cmd_fuse)

    p_check = sub.add_parser("check", help="run the randomized invariant suite")
    p_check.add_argument("--seed", type=int)
    p_check.add_argument("--cases", type=int)
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
    except (OSError, ValueError) as err:
        return _fail(str(err))
    except MemoryError:
        return _fail(f"{args.command}: out of memory")
    except Exception as err:  # noqa: BLE001 - contract: unexpected bug -> 2
        print(f"internal error: {err!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
