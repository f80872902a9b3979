"""Encoder workloads: assembling parameterized systems from the encoder model.

This is the entry point the examples, experiments and benchmarks use.  The
:func:`paper_encoder` configuration matches §4.1 of the paper: a CIF input
(396 macroblocks), 1,189 actions per cycle, 7 quality levels, a single global
deadline of 30 s per cycle, and a 29-frame input sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.deadlines import DeadlineFunction
from repro.core.system import ParameterizedSystem
from repro.core.types import QualitySet

from .encoder import DEFAULT_STAGES, FRAME_FINALIZE_STAGE, EncoderPipeline, PipelineStage
from .gop import GopStructure
from .timing_model import EncoderTimingModel, FrameScenarioSampler
from .video import CIF, QCIF, SyntheticVideoSource, VideoFormat

__all__ = ["EncoderWorkload", "paper_encoder", "small_encoder"]


@dataclass(frozen=True)
class EncoderWorkload:
    """A complete encoder workload configuration.

    Attributes
    ----------
    video_format:
        Frame format (CIF for the paper's experiment).
    n_levels:
        Number of quality levels (7 in the paper).
    n_frames:
        Length of the input sequence in frames (29 in the paper).
    deadline:
        Per-cycle (per-frame) deadline in seconds (30 in the paper).
    gop:
        GOP structure of the sequence.
    stages / finalize_stage:
        Pipeline stage definitions.
    scene_change_probability / temporal_correlation:
        Content statistics of the synthetic video.
    platform_noise:
        Platform non-determinism of the timing model.
    time_scale:
        Global execution-time multiplier (platform speed knob).
    seed:
        Seed controlling the synthetic content.
    """

    video_format: VideoFormat = CIF
    n_levels: int = 7
    n_frames: int = 29
    deadline: float = 30.0
    gop: GopStructure = field(default_factory=GopStructure)
    stages: tuple[PipelineStage, ...] = DEFAULT_STAGES
    finalize_stage: PipelineStage = FRAME_FINALIZE_STAGE
    scene_change_probability: float = 0.08
    temporal_correlation: float = 0.85
    platform_noise: float = 0.04
    time_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_levels < 1:
            raise ValueError("n_levels must be >= 1")
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        if self.deadline <= 0.0:
            raise ValueError("deadline must be > 0")

    # ------------------------------------------------------------------ #
    # derived objects
    # ------------------------------------------------------------------ #
    def pipeline(self) -> EncoderPipeline:
        """The encoder pipeline of this workload."""
        return EncoderPipeline(self.video_format, self.stages, self.finalize_stage)

    def qualities(self) -> QualitySet:
        """The quality set ``{0 .. n_levels-1}``."""
        return QualitySet.of_size(self.n_levels)

    def video_source(self) -> SyntheticVideoSource:
        """The synthetic video source of this workload."""
        return SyntheticVideoSource(
            self.video_format,
            scene_change_probability=self.scene_change_probability,
            temporal_correlation=self.temporal_correlation,
            seed=self.seed,
        )

    def timing_model(self) -> EncoderTimingModel:
        """The encoder execution-time model."""
        return EncoderTimingModel(
            pipeline=self.pipeline(),
            qualities=self.qualities(),
            gop=self.gop,
            platform_noise=self.platform_noise,
            time_scale=self.time_scale,
        )

    def build_system(self) -> ParameterizedSystem:
        """The parameterized system of one encoder cycle (one frame)."""
        pipeline = self.pipeline()
        model = self.timing_model()
        timing = model.timing_model(self.video_source(), self.n_frames, seed=self.seed)
        return ParameterizedSystem(pipeline.build_sequence(), timing)

    def scenario_sampler(self) -> FrameScenarioSampler:
        """A fresh frame-driven scenario sampler (same content as the system's)."""
        return FrameScenarioSampler(
            self.timing_model(), self.video_source(), self.n_frames, seed=self.seed
        )

    def deadlines(self) -> DeadlineFunction:
        """The per-cycle deadline function (single global deadline)."""
        return DeadlineFunction.single(self.pipeline().n_actions, self.deadline)

    def with_overrides(self, **changes) -> "EncoderWorkload":
        """A copy of the workload with the given fields replaced."""
        return replace(self, **changes)


def paper_encoder(*, seed: int = 0) -> EncoderWorkload:
    """The workload matching the paper's experimental setup (§4.1).

    CIF input (396 macroblocks, 1,189 actions per cycle), 7 quality levels,
    29-frame sequence, a single global deadline of 30 s per cycle.
    """
    return EncoderWorkload(seed=seed)


def small_encoder(*, seed: int = 0, n_frames: int = 6) -> EncoderWorkload:
    """A QCIF-sized workload (298 actions per cycle) for tests and quick runs."""
    return EncoderWorkload(
        video_format=QCIF,
        n_frames=n_frames,
        deadline=8.0,
        seed=seed,
    )
