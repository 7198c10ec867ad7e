"""Tests for core value types, schedules, and the config file format."""

import re

import pytest

from blockspec.core import (
    MASK,
    BlockState,
    GenerationConfig,
    Marginals,
    SequenceState,
    UnmaskSchedule,
    one_hot_marginals,
    parse_config,
    validate_sequence,
)

import numpy as np


# ---------------------------------------------------------------------------
# block state
# ---------------------------------------------------------------------------


class TestBlockState:
    def test_masked_factory(self):
        b = BlockState.masked(4)
        assert b.tokens == (0, 0, 0, 0)
        assert b.unmasked_count == 0
        assert b.masked_positions == (0, 1, 2, 3)
        assert not b.is_complete

    def test_with_token_progression(self):
        b = BlockState.masked(3).with_token(1, 5)
        assert b.tokens == (MASK, 5, MASK)
        assert b.unmasked_count == 1
        assert b.masked_positions == (0, 2)

    def test_with_token_rejects_double_unmask(self):
        b = BlockState.masked(3).with_token(1, 5)
        with pytest.raises(ValueError, match="position 1 already unmasked"):
            b.with_token(1, 6)

    def test_with_token_rejects_mask_value(self):
        with pytest.raises(ValueError, match="cannot unmask position 0 to MASK"):
            BlockState.masked(3).with_token(0, MASK)

    @pytest.mark.parametrize(
        "tokens, message", [((), "empty block"), ((-1, 0), "negative token id -1"), ((2, -3, -7), "negative token id -7")]
    )
    def test_malformed_block_rejected(self, tokens, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            BlockState(tokens)

    def test_complete_block(self):
        b = BlockState(tokens=(1, 2, 3))
        assert b.is_complete
        assert b.masked_positions == ()


class TestSequenceState:
    def test_initial_layout(self):
        s = SequenceState.initial((7, 8), 3, 4)
        assert s.prompt == (7, 8)
        assert len(s.blocks) == 3
        assert s.active == 0
        assert s.all_tokens() == (7, 8) + (0,) * 12
        assert s.generated_tokens() == (0,) * 12

    def test_advance_block_requires_completion(self):
        s = SequenceState.initial((1,), 2, 2)
        with pytest.raises(ValueError, match="active block 0 not complete"):
            s.advance_block()
        s = s.with_active_block(BlockState(tokens=(1, 2)))
        s = s.advance_block()
        assert s.active == 1

    def test_with_active_block_length_check(self):
        s = SequenceState.initial((1,), 2, 2)
        with pytest.raises(ValueError, match="length 3 cannot replace an active block of length 2"):
            s.with_active_block(BlockState(tokens=(1, 2, 3)))


class TestValidateSequence:
    """Spec examples for the sequence invariant checker."""

    def test_initial_state_valid(self):
        # all blocks masked, active 0: valid by construction
        assert validate_sequence(SequenceState.initial((1,), 4, 8)) == []

    def test_incomplete_block_left_of_active(self):
        blocks = (
            BlockState(tokens=(1, 1)),
            BlockState(tokens=(1, 1)),
            BlockState(tokens=(1, MASK)),  # block 2 not fully unmasked
            BlockState.masked(2),
        )
        state = SequenceState(prompt=(1,), blocks=blocks, active=3)
        problems = validate_sequence(state)
        assert len(problems) == 1
        assert "block 2" in problems[0]

    def test_fully_denoised_paper_shape(self):
        # W=256, L=32, N=8, everything committed
        blocks = tuple(BlockState(tokens=(3,) * 32) for _ in range(8))
        state = SequenceState(prompt=(1, 2), blocks=blocks, active=7)
        assert validate_sequence(state) == []

    def test_unmasked_block_right_of_active(self):
        blocks = (BlockState.masked(2), BlockState(tokens=(1, MASK)))
        state = SequenceState(prompt=(1,), blocks=blocks, active=0)
        problems = validate_sequence(state)
        assert any("block 1" in p for p in problems)

    def test_mask_in_prompt(self):
        state = SequenceState(prompt=(1, MASK), blocks=(BlockState.masked(2),), active=0)
        assert any("prompt" in p for p in validate_sequence(state))


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------


class TestMarginals:
    def test_prob_indexing_is_one_based(self):
        rows = np.array([[0.2, 0.3, 0.5]])
        m = Marginals(rows=rows)
        assert m.top1 == (0.5,)
        assert m.argmax_token(0) == 3

    def test_argmax_tie_breaks_to_lower_id(self):
        m = Marginals(rows=np.array([[0.4, 0.4, 0.2]]))
        assert m.argmax_token(0) == 1

    def test_rows_frozen(self):
        m = Marginals(rows=np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            m.rows[0, 0] = 1.0

    @pytest.mark.parametrize("shape", [(3,), (1, 2, 3)])
    def test_rows_must_be_2d(self, shape):
        with pytest.raises(ValueError, match=r"^marginals rows must be 2-D, got shape %s$" % re.escape(str(shape))):
            Marginals(rows=np.ones(shape))

    def test_one_hot_requires_complete_block(self):
        with pytest.raises(ValueError, match="needs a complete block"):
            one_hot_marginals(BlockState(tokens=(1, MASK)), 3)
        m = one_hot_marginals(BlockState(tokens=(2, 1)), 3)
        assert m.rows.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


class TestUnmaskSchedule:
    def test_parse_fixed(self):
        s = UnmaskSchedule.parse("fixed:2")
        assert s.kind == "fixed" and s.tokens_per_step == 2
        assert s.format() == "fixed:2"

    def test_parse_threshold(self):
        s = UnmaskSchedule.parse("threshold:0.9")
        assert s.kind == "threshold" and s.threshold == 0.9
        assert UnmaskSchedule.parse(s.format()) == s

    @pytest.mark.parametrize(
        "text",
        ["fixed", "fixed:0", "fixed:x", "threshold:0", "threshold:1.5", "warp:2", "fixed:1:2"],
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            UnmaskSchedule.parse(text)

    def test_constructor_invariants(self):
        with pytest.raises(ValueError, match="fixed schedule needs s >= 1"):
            UnmaskSchedule.fixed(0)
        with pytest.raises(ValueError, match="threshold schedule needs 0 < p <= 1"):
            UnmaskSchedule.at_threshold(0.0)
        with pytest.raises(ValueError):
            UnmaskSchedule(kind="other")


class TestGenerationConfig:
    def test_num_blocks(self):
        c = GenerationConfig(total_length=32, block_length=8, schedule=UnmaskSchedule.fixed(1))
        assert c.num_blocks == 4

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            GenerationConfig(total_length=10, block_length=4, schedule=UnmaskSchedule.fixed(1))

    def test_bad_sizes_raise_value_error_naming_the_value(self):
        with pytest.raises(ValueError, match="top_k_vocab must be >= 1, got 0"):
            GenerationConfig(total_length=8, block_length=4, schedule=UnmaskSchedule.fixed(1), top_k_vocab=0)
        with pytest.raises(ValueError, match="must be >= 1, got 0 and 4"):
            GenerationConfig(total_length=0, block_length=4, schedule=UnmaskSchedule.fixed(1))

    def test_eot_cannot_be_mask(self):
        with pytest.raises(ValueError, match="eot_token cannot be MASK"):
            GenerationConfig(
                total_length=8, block_length=4, schedule=UnmaskSchedule.fixed(1), eot_token=MASK
            )


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


_CONFIG = "W = 32\nL = 8\nschedule = %s\ntop_k_vocab = 4\neot_token = 12\n"


class TestConfigFile:
    def test_round_trip_fixed(self):
        c = GenerationConfig(
            total_length=32,
            block_length=8,
            schedule=UnmaskSchedule.fixed(2),
            top_k_vocab=4,
            eot_token=12,
        )
        assert parse_config(_CONFIG % c.schedule.format()) == c

    def test_round_trip_threshold(self):
        c = GenerationConfig(
            total_length=32,
            block_length=8,
            schedule=UnmaskSchedule.at_threshold(0.9),
            top_k_vocab=4,
            eot_token=12,
        )
        assert parse_config(_CONFIG % c.schedule.format()) == c

    def test_comments_and_blank_lines_skipped(self):
        text = "# comment\n\nW = 8\nL = 4\nschedule = fixed:1\ntop_k_vocab = 3\neot_token = 2\n"
        c = parse_config(text)
        assert c.total_length == 8 and c.num_blocks == 2

    def test_error_names_source_and_line(self):
        text = "W = 8\nL = 4\nbogus = 1\n"
        with pytest.raises(ValueError, match=r"cfg\.txt:3"):
            parse_config(text, source="cfg.txt")

    def test_duplicate_key_rejected(self):
        text = "W = 8\nW = 16\n"
        with pytest.raises(ValueError, match="duplicate"):
            parse_config(text)

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing key 'schedule'"):
            parse_config("W = 8\nL = 4\ntop_k_vocab = 3\neot_token = 1\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("fixed:0", "fixed schedule needs s >= 1, got 0"),
            ("threshold:1.5", "threshold schedule needs 0 < p <= 1, got 1.5"),
            ("fixed:x", "bad fixed schedule value 'x'"),
            ("warp:9", "unknown schedule mode 'warp'"),
        ],
    )
    def test_schedule_errors_read_like_the_flag(self, text, message):
        """The schedule key goes through UnmaskSchedule.parse, so a bad
        value gets the flag's message, prefixed with the file and line."""
        with pytest.raises(ValueError) as flag:
            UnmaskSchedule.parse(text)
        assert str(flag.value) == message
        with pytest.raises(ValueError) as config:
            parse_config(_CONFIG % text, source="cfg.txt")
        assert str(config.value) == "cfg.txt:3: " + message
