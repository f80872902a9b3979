"""Execution-time model of the synthetic encoder.

Builds the three timing functions of Definition 1 for the encoder pipeline:

* ``C^av`` — the per-action average time: stage base cost x quality factor x
  average content factor x GOP-averaged frame-type factor;
* ``C^wc`` — the per-action worst case: stage base cost x quality factor x
  maximal content factor x maximal frame-type factor x profiling margin;
* the actual-time sampler — per cycle (frame), the stage cost modulated by
  the synthetic frame content (per-macroblock complexity and motion), the
  frame type from the GOP pattern, and small multiplicative platform noise.

The sampler walks through the frames of a :class:`SyntheticVideoSource`
sequence, one frame per cycle, and wraps around at the end — so consecutive
cycles of the controlled system encode consecutive frames of the input,
exactly the structure of the paper's 29-frame experiment.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.timing import TimingModel, TimingTable
from repro.core.types import QualitySet

from .encoder import EncoderPipeline
from .gop import GopStructure
from .video import FrameContent, SyntheticVideoSource

__all__ = ["EncoderTimingModel", "FrameScenarioSampler"]


@dataclass(frozen=True)
class EncoderTimingModel:
    """Derives ``C^av`` / ``C^wc`` tables and the frame-driven sampler.

    Parameters
    ----------
    pipeline:
        The encoder pipeline (stages and frame format).
    qualities:
        The quality set (the paper uses ``{0..6}``).
    gop:
        The GOP structure used both for the expected frame-type mix in
        ``C^av`` and for the per-cycle frame types of the sampler.
    platform_noise:
        Standard deviation of the multiplicative log-normal noise modelling
        platform non-determinism (cache, bus, interrupts).
    time_scale:
        Global multiplier applied to every cost (platform speed knob).
    """

    pipeline: EncoderPipeline
    qualities: QualitySet
    gop: GopStructure
    platform_noise: float = 0.04
    time_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.platform_noise < 0.0:
            raise ValueError("platform_noise must be >= 0")
        if self.time_scale <= 0.0:
            raise ValueError("time_scale must be > 0")

    # ------------------------------------------------------------------ #
    # static tables
    # ------------------------------------------------------------------ #
    def _gop_mean_factor(self, stage_factors: dict[str, float]) -> float:
        """Frame-type factor averaged over one GOP period."""
        counts = self.gop.count_types(self.gop.length)
        total = sum(counts.values())
        return sum(stage_factors[ft] * n for ft, n in counts.items()) / total

    def average_table(self) -> TimingTable:
        """The ``C^av`` table of one cycle."""
        n_levels = len(self.qualities)
        stages = self.pipeline.action_stages()
        values = np.empty((n_levels, len(stages)), dtype=np.float64)
        for column, stage in enumerate(stages):
            factor = (
                stage.base_cost
                * stage.mean_content_factor()
                * self._gop_mean_factor(stage.frame_type_factors)
                * self.time_scale
            )
            values[:, column] = factor * stage.quality_factors(n_levels)
        return TimingTable(self.qualities, values, name="Cav")

    def worst_case_table(self) -> TimingTable:
        """The ``C^wc`` table of one cycle."""
        n_levels = len(self.qualities)
        stages = self.pipeline.action_stages()
        values = np.empty((n_levels, len(stages)), dtype=np.float64)
        noise_ceiling = 1.0 + 4.0 * self.platform_noise
        for column, stage in enumerate(stages):
            factor = (
                stage.base_cost
                * stage.max_content_factor()
                * stage.max_frame_type_factor()
                * stage.worst_case_margin
                * noise_ceiling
                * self.time_scale
            )
            values[:, column] = factor * stage.quality_factors(n_levels)
        return TimingTable(self.qualities, values, name="Cwc")

    # ------------------------------------------------------------------ #
    # per-frame scenarios
    # ------------------------------------------------------------------ #
    def action_quality_factors(self) -> np.ndarray:
        """Per-action quality multipliers, shape ``(levels, actions)``.

        Column ``a`` is ``1 + slope_a * level`` — exactly what
        ``stage.quality_factors`` returns per stage, precomputed for the whole
        action sequence so the batched sampler multiplies one matrix instead
        of looping per action.
        """
        slopes = np.array(
            [stage.quality_slope for stage in self.pipeline.action_stages()],
            dtype=np.float64,
        )
        levels = np.arange(len(self.qualities), dtype=np.float64)
        return 1.0 + levels[:, None] * slopes[None, :]

    def frame_base_factors(self, frames: Sequence[FrameContent]) -> np.ndarray:
        """The deterministic per-action base cost of every frame, ``(frames, actions)``.

        Entry ``(f, a)`` is ``base_cost * content_factor * frame_type_factor``
        — everything of :meth:`frame_matrix`'s per-action ``base`` except the
        platform noise and the global time scale, evaluated with the same
        floating-point operation order so the batched kernel stays
        bit-identical to the scalar per-frame loop.
        """
        stages = self.pipeline.action_stages()
        macroblocks = self.pipeline.action_macroblocks()
        base_cost = np.array([s.base_cost for s in stages], dtype=np.float64)
        content_weight = np.array([s.content_weight for s in stages], dtype=np.float64)
        motion_weight = np.array([s.motion_weight for s in stages], dtype=np.float64)
        # the constant term of PipelineStage.content_factor, per action
        content_base = 1.0 - 0.5 * (content_weight + motion_weight)
        type_factors = {
            frame_type: np.array(
                [s.frame_type_factors[frame_type] for s in stages], dtype=np.float64
            )
            for frame_type in {frame.frame_type for frame in frames}
        }
        result = np.empty((len(frames), len(stages)), dtype=np.float64)
        for row, frame in enumerate(frames):
            # per-action complexity/motion: the action's macroblock, or the
            # frame mean for the finalisation action (macroblock index -1)
            complexity = np.where(
                macroblocks >= 0, frame.complexity[macroblocks], frame.mean_complexity
            )
            motion = np.where(
                macroblocks >= 0, frame.motion[macroblocks], frame.mean_motion
            )
            content = content_base + content_weight * complexity + motion_weight * motion
            result[row] = base_cost * content * type_factors[frame.frame_type]
        return result

    def frame_matrix(self, frame: FrameContent, rng: np.random.Generator) -> np.ndarray:
        """Actual times (levels x actions) of one cycle encoding ``frame``."""
        n_levels = len(self.qualities)
        stages = self.pipeline.action_stages()
        macroblocks = self.pipeline.action_macroblocks()
        n_actions = len(stages)
        matrix = np.empty((n_levels, n_actions), dtype=np.float64)
        noise = (
            np.exp(rng.normal(0.0, self.platform_noise, size=n_actions))
            if self.platform_noise > 0.0
            else np.ones(n_actions)
        )
        ft = frame.frame_type
        for column, stage in enumerate(stages):
            mb = macroblocks[column]
            if mb >= 0:
                complexity = frame.complexity[mb]
                motion = frame.motion[mb]
            else:
                complexity = frame.mean_complexity
                motion = frame.mean_motion
            content = float(stage.content_factor(complexity, motion))
            frame_factor = stage.frame_type_factors[ft]
            base = stage.base_cost * content * frame_factor * noise[column] * self.time_scale
            matrix[:, column] = base * stage.quality_factors(n_levels)
        return matrix

    def timing_model(self, video: SyntheticVideoSource, n_frames: int, *, seed: int = 0) -> TimingModel:
        """The complete :class:`TimingModel` driven by a synthetic video sequence."""
        sampler = FrameScenarioSampler(self, video, n_frames, seed=seed)
        return TimingModel(self.worst_case_table(), self.average_table(), sampler)


class FrameScenarioSampler:
    """Stateful per-cycle sampler walking through a synthetic video sequence.

    Each call produces the actual-time matrix of the next frame of the
    sequence (wrapping around after ``n_frames``).  The frame contents are
    generated once up-front so that different managers compared on the same
    sampler *instance order* see the same video; for bitwise-identical
    comparisons across managers use pre-drawn scenarios (see
    :meth:`repro.api.session.Session.compare`).

    The deterministic per-frame cost structure (content and frame-type
    factors per action, quality multipliers per level) is precomputed at
    construction, so :meth:`sample_base` is a pure NumPy kernel: one
    ``rng.normal`` call for all platform noise of the batch.  The raw
    ``(count, levels, actions)`` tensor of :meth:`sample_batch` is that
    base times the per-level factor table :meth:`scenario_factors` exposes
    — bit-identical to ``count`` scalar
    :meth:`EncoderTimingModel.frame_matrix` calls.

    The cursor is the sampler's only mutable state.  A copy (``copy.copy``
    or ``copy.deepcopy``, which :meth:`ParameterizedSystem.fork
    <repro.core.system.ParameterizedSystem.fork>` uses) shares the frame
    list and the read-only base and level tables and owns its cursor.
    """

    #: every sample_base/sample_batch result is a freshly-allocated array the
    #: sampler no longer references — TimingModel may consume it in place
    returns_fresh_batches = True

    def __init__(
        self,
        model: EncoderTimingModel,
        video: SyntheticVideoSource,
        n_frames: int,
        *,
        seed: int = 0,
    ) -> None:
        if n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {n_frames}")
        self._model = model
        self._frames = video.frame_list(n_frames, model.gop.types())
        self._cursor = 0
        self._seed = seed
        # deterministic per-frame/per-action base costs and per-level quality
        # multipliers; the only per-draw randomness left is the platform noise
        self._frame_base = model.frame_base_factors(self._frames)
        self._quality_factors = model.action_quality_factors()
        self._frame_base.setflags(write=False)
        self._quality_factors.setflags(write=False)

    def __deepcopy__(self, memo: dict) -> "FrameScenarioSampler":
        twin = copy.copy(self)
        memo[id(self)] = twin
        return twin

    @property
    def frames(self) -> list[FrameContent]:
        """The generated frame contents (one per cycle, before wrap-around)."""
        return self._frames

    @property
    def n_frames(self) -> int:
        """Length of the frame sequence."""
        return len(self._frames)

    def rewind(self) -> None:
        """Restart the sequence from the first frame."""
        self._cursor = 0

    @property
    def cursor(self) -> int:
        """Number of scenario draws consumed so far (next frame index, unwrapped)."""
        return self._cursor

    def seek(self, cursor: int) -> None:
        """Position the sequence so the next draw encodes frame ``cursor % n_frames``.

        This is what lets the parallel sweep engine replay the exact frame
        sequence a serial run would see: each work unit seeks to the number of
        draws the units before it consume, so outcomes are bit-identical to
        the serial execution order.
        """
        cursor = int(cursor)
        if cursor < 0:
            raise ValueError(f"cursor must be >= 0, got {cursor}")
        self._cursor = cursor

    def peek_frame(self, cycle_index: int) -> FrameContent:
        """The frame content a given cycle index will encode."""
        return self._frames[cycle_index % len(self._frames)]

    def scenario_factors(self) -> tuple[np.ndarray, None]:
        """The read-only ``(levels, actions)`` level table ``qf`` and no scale.

        :meth:`sample_batch` draws ``base[:, None, :] * qf``; the table is
        what lets :meth:`~repro.core.timing.TimingModel.sample_scenarios`
        keep a draw factored.
        """
        return self._quality_factors, None

    def sample_base(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Per-action base times of the next ``count`` frames, ``(count, actions)``.

        Frame cost times platform noise times the global time scale: the
        raw times of every quality level are these rows times the level
        table of :meth:`scenario_factors`.  Consumes the rng and advances
        the cursor exactly like ``count`` single draws, drawing all
        platform noise in a single ``rng.normal`` call whose variate order
        matches the scalar loop bit-for-bit (NumPy generators fill arrays
        element by element from one underlying bit stream).
        """
        count = int(count)
        if count < 0:
            raise ValueError(f"batch size must be >= 0, got {count}")
        if count == 0:
            return np.empty((0, self._frame_base.shape[1]))
        rows = (self._cursor + np.arange(count)) % len(self._frames)
        self._cursor += count
        base = self._frame_base[rows]
        noise = self._model.platform_noise
        if noise > 0.0:
            base *= np.exp(rng.normal(0.0, noise, size=base.shape))
        # multiplying by the all-ones noise of the noiseless scalar path is an
        # exact identity, so it is skipped; the time scale applies after noise
        # to preserve the scalar operation order
        base *= self._model.time_scale
        return base

    def sample_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Raw actual-time matrices of the next ``count`` frames, stacked.

        The ``(count, levels, actions)`` product of :meth:`sample_base` and
        the level table, covering the next ``count`` frames of the sequence
        and consuming the rng and the cursor exactly like ``count`` single
        draws.
        """
        return self.sample_base(count, rng)[:, None, :] * self._quality_factors

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        frame = self._frames[self._cursor % len(self._frames)]
        self._cursor += 1
        return self._model.frame_matrix(frame, rng)
