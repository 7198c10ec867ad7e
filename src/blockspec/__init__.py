"""Lossless speculative decoding for block-wise masked-diffusion LMs."""

from .core import (
    MASK,
    BlockState,
    GenerationConfig,
    SequenceState,
    UnmaskSchedule,
    parse_config,
)
from .model import ToyDenoiser, forward_batched, train_from_corpus
from .drafting import (
    DraftFormula,
    DraftGraphSpec,
    build_graph,
    export_dot,
    parse_graph,
    spawn_drafts,
)
from .verification import StepRecord, advance, verify
from .calibration import (
    CalibrationRecord,
    CandidateTable,
    build_table,
    calibrate_graph,
    collect_records,
    select_subgraph,
)
from .engine import (
    GenerationResult,
    RunReport,
    check_lossless,
    generate_speculative,
    generate_vanilla,
    per_block_summary,
    profile_stages,
)
from .batch import build_mask, build_position_ids

__version__ = "0.1.0"

__all__ = [
    "MASK",
    "BlockState",
    "SequenceState",
    "UnmaskSchedule",
    "GenerationConfig",
    "parse_config",
    "ToyDenoiser",
    "train_from_corpus",
    "forward_batched",
    "DraftFormula",
    "DraftGraphSpec",
    "build_graph",
    "spawn_drafts",
    "parse_graph",
    "export_dot",
    "advance",
    "verify",
    "StepRecord",
    "CalibrationRecord",
    "CandidateTable",
    "collect_records",
    "build_table",
    "select_subgraph",
    "calibrate_graph",
    "generate_vanilla",
    "generate_speculative",
    "GenerationResult",
    "RunReport",
    "check_lossless",
    "per_block_summary",
    "profile_stages",
    "build_mask",
    "build_position_ids",
]
