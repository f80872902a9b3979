"""Synthetic MPEG-like encoder workload.

Substitutes the paper's 7,000-line C MPEG encoder: produces parameterized
systems with the same structure (1,189 actions per CIF frame, 7 quality
levels, content-dependent actual times bounded by per-quality worst cases)
without touching pixels — the Quality Manager only ever observes execution
times.
"""

from .encoder import (
    DEFAULT_STAGES,
    FRAME_FINALIZE_STAGE,
    EncoderPipeline,
    PipelineStage,
)
from .gop import GopStructure
from .quality import DEFAULT_SEMANTICS, QualityLevelSemantics
from .timing_model import EncoderTimingModel, FrameScenarioSampler
from .video import CIF, QCIF, SD, FrameContent, SyntheticVideoSource, VideoFormat
from .workload import EncoderWorkload, paper_encoder, small_encoder

__all__ = [
    "VideoFormat",
    "CIF",
    "QCIF",
    "SD",
    "FrameContent",
    "SyntheticVideoSource",
    "GopStructure",
    "QualityLevelSemantics",
    "DEFAULT_SEMANTICS",
    "PipelineStage",
    "EncoderPipeline",
    "DEFAULT_STAGES",
    "FRAME_FINALIZE_STAGE",
    "EncoderTimingModel",
    "FrameScenarioSampler",
    "EncoderWorkload",
    "paper_encoder",
    "small_encoder",
]
