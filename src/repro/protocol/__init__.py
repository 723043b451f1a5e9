"""Deployment-shaped client/server layer for LDP collection rounds.

Protocol v2 carries every registered mechanism's reports via payload
codecs (:mod:`repro.protocol.codecs`), over either JSON lines
(:mod:`repro.protocol.messages`) or a columnar binary frame transport
(:mod:`repro.protocol.frames`), and serves any registry estimator through
:class:`CollectionServer` / :class:`PlanServer`.
"""

from repro.protocol.codecs import (
    PayloadCodec,
    codec_for_estimator,
    get_codec,
    list_codecs,
    register_codec,
)
from repro.protocol.frames import (
    FRAME_MAGIC,
    FrameBlock,
    decode_frame,
    decode_frame_grouped,
    encode_frame,
    encode_frame_blocks,
    is_frame,
    iter_frame_blocks,
)
from repro.protocol.messages import (
    DEFAULT_ATTR,
    PROTOCOL_V2,
    FeedGroup,
    ReportEnvelope,
    decode_feed,
    decode_feed_grouped,
    encode_batch_v2,
)
from repro.protocol.server import (
    CollectionServer,
    EstimateFailure,
    PlanServer,
    estimate_rounds,
)

__all__ = [
    "CollectionServer",
    "PlanServer",
    "EstimateFailure",
    "estimate_rounds",
    "ReportEnvelope",
    "FeedGroup",
    "PROTOCOL_V2",
    "DEFAULT_ATTR",
    "FRAME_MAGIC",
    "FrameBlock",
    "iter_frame_blocks",
    "PayloadCodec",
    "register_codec",
    "get_codec",
    "list_codecs",
    "codec_for_estimator",
    "encode_batch_v2",
    "decode_feed",
    "decode_feed_grouped",
    "encode_frame",
    "encode_frame_blocks",
    "decode_frame",
    "decode_frame_grouped",
    "is_frame",
]
