"""Enrich per-character hidden states with word-level semantics.

The pipeline: vote over several tokenizers' segmentations, embed and
project each word, inject it into its characters by cosine-similarity
shares, mix each word's characters around its key character, then fuse a
plain and a key-masked self-attention pass over the result.
"""

from .attention import PipelineResult, pipeline_forward
from .fusion import FusionConfig
from .lexicon import check_bundle, init_bundle, load_bundle, load_embeddings, save_bundle
from .segvote import vote

__version__ = "0.1.0"

__all__ = [
    "FusionConfig",
    "PipelineResult",
    "check_bundle",
    "init_bundle",
    "load_bundle",
    "load_embeddings",
    "pipeline_forward",
    "save_bundle",
    "vote",
]
