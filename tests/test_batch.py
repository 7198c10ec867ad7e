"""Tests for the block-attention mask and position id construction.

The golden case is hand-enumerated: prompt_len=1, N=1, L=2, active=0,
one draft gives a 5 x 5 grid where the three context rows see columns
0..2 and the two draft rows see column 0 (prompt) plus their own two
columns, never the active block's columns 1..2.
"""

import numpy as np
import pytest

from blockspec.batch import build_mask, build_position_ids, format_mask

GOLDEN_5X5 = (
    "11100\n"
    "11100\n"
    "11100\n"
    "10011\n"
    "10011\n"
)


class TestBuildMask:
    def test_no_drafts_is_full_context_square(self):
        mask = build_mask(2, 2, 3, 0, 0)
        assert mask.shape == (8, 8)
        assert mask.all()

    def test_golden_5x5(self):
        """Hand-enumerated 25-cell grid from the invariants."""
        mask = build_mask(1, 1, 2, 0, 1)
        assert format_mask(mask) == GOLDEN_5X5
        # draft rows: context minus active block plus own columns
        assert mask[3].tolist() == [True, False, False, True, True]
        assert mask[4].tolist() == [True, False, False, True, True]

    def test_draft_isolation(self):
        # two drafts: draft 1 rows never see draft 2 columns and vice versa
        mask = build_mask(1, 2, 2, 1, 2)
        context = 1 + 2 * 2
        d1 = slice(context, context + 2)
        d2 = slice(context + 2, context + 4)
        assert not mask[d1, d2].any()
        assert not mask[d2, d1].any()
        # and context rows never attend to any draft
        assert not mask[:context, context:].any()

    def test_row_true_count_closed_form(self):
        """Any draft row has prompt_len + (N-1)*L + L true cells.

        Checked over 120 random shapes with a seeded generator.
        """
        rng = np.random.default_rng(42)
        for _ in range(120):
            prompt_len = int(rng.integers(0, 6))
            num_blocks = int(rng.integers(1, 5))
            block_length = int(rng.integers(1, 6))
            active = int(rng.integers(0, num_blocks))
            num_drafts = int(rng.integers(0, 4))
            mask = build_mask(prompt_len, num_blocks, block_length, active, num_drafts)
            context = prompt_len + num_blocks * block_length
            assert mask.shape == (context + num_drafts * block_length,) * 2
            want = prompt_len + (num_blocks - 1) * block_length + block_length
            for row in range(context, mask.shape[0]):
                assert int(mask[row].sum()) == want
            for row in range(context):
                assert int(mask[row].sum()) == context

    def test_active_index_validated(self):
        with pytest.raises(ValueError, match="active block 2 outside 0..1"):
            build_mask(1, 2, 2, 2, 0)
        with pytest.raises(ValueError, match="active block -1 outside 0..1"):
            build_mask(1, 2, 2, -1, 0)


class TestBuildPositionIds:
    def test_no_drafts_identity_ramp(self):
        ids = build_position_ids(2, 2, 3, 0, 0)
        assert ids.tolist() == list(range(8))

    def test_draft_repeats_block_slot(self):
        # spec example: k=0, prompt_len=2, L=3 puts the draft at ids 2..4
        ids = build_position_ids(2, 2, 3, 0, 1)
        assert ids.tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 2, 3, 4]

    def test_all_drafts_share_the_range(self):
        ids = build_position_ids(1, 3, 2, 1, 3)
        context = 1 + 3 * 2
        block = [1 + 1 * 2, 1 + 1 * 2 + 1]
        assert ids[:context].tolist() == list(range(context))
        for m in range(3):
            lo = context + m * 2
            assert ids[lo : lo + 2].tolist() == block


class TestMaskFormat:
    def test_round_trip(self):
        mask = build_mask(2, 2, 2, 1, 2)
        rows = [[c == "1" for c in line] for line in format_mask(mask).splitlines()]
        assert (np.array(rows) == mask).all()
