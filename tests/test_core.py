"""Tests for core value types, schedules, and the config file format."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import with_token

from blockspec.core import (
    MASK,
    MAX_TOTAL_LENGTH,
    BlockState,
    GenerationConfig,
    SequenceState,
    UnmaskSchedule,
    parse_config,
)
from blockspec.drafting import parse_graph
from blockspec.model import parse_corpus


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
        b = with_token(BlockState.masked(3), 1, 5)
        assert b.tokens == (MASK, 5, MASK)
        assert b.unmasked_count == 1
        assert b.masked_positions == (0, 2)

    def test_with_token_rejects_double_unmask(self):
        b = with_token(BlockState.masked(3), 1, 5)
        with pytest.raises(ValueError, match="position 1 already unmasked"):
            with_token(b, 1, 6)

    def test_with_token_rejects_mask_value(self):
        with pytest.raises(ValueError, match="cannot unmask position 0 to MASK"):
            with_token(BlockState.masked(3), 0, MASK)

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


class TestSequenceOrder:
    """Spec examples for the block order a state is checked against when
    it is made."""

    def test_initial_state_valid(self):
        # all blocks masked, active 0: valid by construction
        assert SequenceState.initial((1,), 4, 8).active == 0

    def test_incomplete_block_left_of_active(self):
        blocks = (
            BlockState(tokens=(1, 1)),
            BlockState(tokens=(1, 1)),
            BlockState(tokens=(1, MASK)),  # block 2 not fully unmasked
            BlockState.masked(2),
        )
        with pytest.raises(ValueError, match="^invalid sequence state: block 2 left of active is incomplete$"):
            SequenceState(prompt=(1,), blocks=blocks, active=3)

    def test_fully_denoised_paper_shape(self):
        # W=256, L=32, N=8, everything committed
        blocks = tuple(BlockState(tokens=(3,) * 32) for _ in range(8))
        state = SequenceState(prompt=(1, 2), blocks=blocks, active=7)
        assert state.generated_tokens() == (3,) * 256

    def test_unmasked_block_right_of_active(self):
        blocks = (BlockState.masked(2), BlockState(tokens=(1, MASK)))
        with pytest.raises(ValueError, match="^invalid sequence state: block 1 right of active is partially unmasked$"):
            SequenceState(prompt=(1,), blocks=blocks, active=0)

    def test_mask_in_prompt(self):
        with pytest.raises(ValueError, match="^invalid sequence state: prompt contains MASK$"):
            SequenceState(prompt=(1, MASK), blocks=(BlockState.masked(2),), active=0)

    @pytest.mark.parametrize("prompt, bad", [((1, "2", 2.5), "'2'"), ((np.bool_(True),), repr(np.bool_(True)))])
    def test_prompt_tokens_must_be_integers(self, prompt, bad):
        """The first non-integer is named; Python and numpy integers pass.
        ``tests/test_model.py`` holds the bool and float prompts a model
        call once scored."""
        message = "^invalid sequence state: prompt token %s is not an integer$" % re.escape(bad)
        with pytest.raises(ValueError, match=message):
            SequenceState.initial(prompt, 1, 2)
        assert SequenceState.initial((np.int64(3), 2), 1, 2).prompt == (3, 2)

    @pytest.mark.parametrize("block, bad", [((1, 2.5, 3.0), "2.5"), ((3, 2, np.bool_(True)), repr(np.bool_(True)))])
    def test_finished_block_tokens_must_be_integers(self, block, bad):
        """Each finished block names its first non-integer; Python and
        numpy integers pass, and the active block is not checked."""
        message = "^invalid sequence state: block 1 token %s is not an integer$" % re.escape(bad)
        with pytest.raises(ValueError, match=message):
            SequenceState(prompt=(1,), blocks=(BlockState((1, 2, 3)), BlockState(block), BlockState.masked(3)), active=2)
        state = SequenceState(prompt=(1,), blocks=(BlockState((np.int64(3), 2)), BlockState((True, MASK))), active=1)
        assert state.blocks[0].tokens == (3, 2)

    @pytest.mark.parametrize("active, blocks", [(1, 1), (-1, 1), (0, 0)])
    def test_active_index_out_of_range(self, active, blocks):
        with pytest.raises(ValueError, match="^invalid sequence state: active block index out of range$"):
            SequenceState(prompt=(1,), blocks=(BlockState.masked(2),) * blocks, active=active)

    def test_every_problem_named_in_order(self):
        blocks = (BlockState(tokens=(MASK, 1)), BlockState.masked(2), BlockState(tokens=(2, MASK)))
        message = (
            "invalid sequence state: prompt contains MASK; block 0 left of active is incomplete; "
            "block 2 right of active is partially unmasked"
        )
        with pytest.raises(ValueError, match="^%s$" % message):
            SequenceState(prompt=(MASK,), blocks=blocks, active=1)


class TestStateFields:
    def test_with_active_block_equals_the_constructed_state(self):
        state = SequenceState.initial((5, 7), 2, 2).with_active_block(BlockState(tokens=(1, 12)))
        built = SequenceState(prompt=(5, 7), blocks=state.blocks, active=0)
        assert state == built and hash(state) == hash(built) and repr(state) == repr(built)

    @pytest.mark.parametrize(
        "prompt, active, want", [((), 0, MASK), ((4, 6), 0, 6), ((4, 6), 1, 2), ((), 1, 2)]
    )
    def test_token_before_active(self, prompt, active, want):
        blocks = (BlockState(tokens=(3, 2)), BlockState.masked(2))
        assert SequenceState(prompt=prompt, blocks=blocks, active=active).token_before_active == want


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

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(
            st.integers(min_value=1, max_value=10**30).map(UnmaskSchedule.fixed),
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True).map(UnmaskSchedule.at_threshold),
        )
    )
    @example(UnmaskSchedule.at_threshold(1e-05))
    @example(UnmaskSchedule.at_threshold(5e-324))
    def test_parse_reads_every_spelling_format_writes(self, schedule):
        """``format`` writes thresholds by ``repr``, exponents and
        subnormals included; the ASCII rule must accept each of them."""
        assert UnmaskSchedule.parse(schedule.format()) == schedule

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

    def test_total_length_is_capped(self):
        """W up to MAX_TOTAL_LENGTH is accepted; one more is refused before
        any block is allocated.  L divides W, so L is capped too."""
        at_limit = GenerationConfig(
            total_length=MAX_TOTAL_LENGTH, block_length=MAX_TOTAL_LENGTH, schedule=UnmaskSchedule.fixed(1)
        )
        assert at_limit.num_blocks == 1
        message = "^total length %d above the limit of %d$" % (MAX_TOTAL_LENGTH + 1, MAX_TOTAL_LENGTH)
        with pytest.raises(ValueError, match=message):
            GenerationConfig(total_length=MAX_TOTAL_LENGTH + 1, block_length=1, schedule=UnmaskSchedule.fixed(1))

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


# ---------------------------------------------------------------------------
# ASCII text rules
# ---------------------------------------------------------------------------


class TestAsciiText:
    """Files and the schedule flag are read by ASCII rules: lines end at
    ``\\n``, ``\\r\\n`` or ``\\r`` only, and only ASCII whitespace trims
    or separates fields."""

    _CORPUS = "1 2\n\n3\t4 \n"
    _GRAPH = "# chain\nD 2\ntokens_per_level 1\n1:1\n1:1 2:1\n"

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_files_parse_as_lf(self, end):
        assert parse_corpus(self._CORPUS.replace("\n", end)) == parse_corpus(self._CORPUS)
        assert parse_graph(self._GRAPH.replace("\n", end)) == parse_graph(self._GRAPH)
        config = _CONFIG % "threshold:0.5"
        assert parse_config(config.replace("\n", end)) == parse_config(config)

    def test_ascii_whitespace_inside_a_line_separates_fields(self):
        assert parse_corpus("1\x0b2\x0c3\n") == [(1, 2, 3)]

    @pytest.mark.parametrize("char", ["\x1c", "\x1e", "\x85", "\u2028", "\u3000", "\xa0"])
    def test_other_breaks_and_spaces_are_not_whitespace(self, char):
        with pytest.raises(ValueError, match="^c.txt:2: non-integer token"):
            parse_corpus("1\n1%s2\n" % char, source="c.txt")
        with pytest.raises(ValueError, match="^g.txt:3: j must be an integer"):
            parse_graph("D 2\ntokens_per_level 1\n1:1%s\n" % char, source="g.txt")
        with pytest.raises(ValueError, match="^cfg.txt:1: W must be an integer"):
            parse_config("W = 32%s\n" % char, source="cfg.txt")
        with pytest.raises(ValueError, match="^bad threshold schedule value"):
            UnmaskSchedule.parse("threshold:0.4%s" % char)

    def test_ascii_whitespace_is_trimmed(self):
        assert UnmaskSchedule.parse(" \tthreshold : 0.4\x0c") == UnmaskSchedule.at_threshold(0.4)
        assert parse_config((_CONFIG % "fixed:2").replace(" = ", "\t=\x0b")) == parse_config(_CONFIG % "fixed:2")
