"""spikecodec: greedy gammatone matching-pursuit spike codec.

Converts time-varying signals into spatiotemporal spike trains and back:
a gammatone kernel dictionary, a per-segment matching-pursuit encoder with
time-domain and FFT backends (float or 34-bit fixed-point arithmetic),
intensity-to-place spike mapping, linear-superposition reconstruction, and
an evaluation toolkit (temporal averaging, P/R/F1, a small MLP).

The package exports the names the README's library example uses; the rest
lives in the submodules (`spikecodec.pipeline`, `spikecodec.evaluate`, ...).
"""

from .decoder import reconstruct
from .dictionary import DictionaryConfig, build_dictionary
from .encoder import CODE_DTYPE, EncoderConfig, Segment, encode_segment
from .spikecoder import EVENT_DTYPE, build_channel_table, emit_stream

__all__ = [
    "CODE_DTYPE",
    "EVENT_DTYPE",
    "DictionaryConfig",
    "EncoderConfig",
    "Segment",
    "build_channel_table",
    "build_dictionary",
    "emit_stream",
    "encode_segment",
    "reconstruct",
]

__version__ = "0.1.0"
