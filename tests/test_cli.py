"""CLI tests: each subcommand end to end against files in tmp_path.

The divergence tests swap in a verify that accepts drafts on step count
alone, skipping the content comparison, and one that reports a call's
accepted steps as one step.  Those are the bugs the check-lossless
command exists to catch, so it must exit 1 on each.
"""

import json
import re
import subprocess
import sys

import pytest

from blockspec import cli, engine, synthetic, verification
from blockspec.calibration import calibrate_graph, format_records, format_table
from blockspec.core import BlockState, GenerationConfig, UnmaskSchedule
from blockspec.drafting import DraftFormula, build_graph, format_graph, parse_graph
from blockspec.engine import check_lossless, generate_vanilla
from blockspec.model import MAX_BLOCK_CELLS, format_corpus, train_from_corpus
from blockspec.verification import StepRecord
from conftest import advance_on_rows


@pytest.fixture()
def files(tmp_path, child_env):
    corpus = synthetic.make_corpus(synthetic.DEFAULT_SEED)
    prompts = synthetic.make_prompts(11, 8)
    paths = {
        "corpus": tmp_path / "corpus.txt",
        "prompts": tmp_path / "prompts.txt",
        "chain": tmp_path / "chain.graph",
        "six": tmp_path / "six.graph",
        "tmp": tmp_path,
        "env": child_env,
    }
    paths["corpus"].write_text(format_corpus(corpus))
    paths["prompts"].write_text(format_corpus(prompts))
    chain = build_graph(
        [DraftFormula.of([(i, 1) for i in range(1, n + 1)]) for n in (1, 2, 3)], 1
    )
    paths["chain"].write_text(format_graph(chain))
    six = build_graph(
        [
            DraftFormula.of([(1, 1)]),
            DraftFormula.of([(2, 1)]),
            DraftFormula.of([(1, 1), (2, 1)]),
            DraftFormula.of([(1, 1), (3, 1)]),
            DraftFormula.of([(2, 1), (3, 1)]),
            DraftFormula.of([(1, 1), (2, 1), (3, 1)]),
        ],
        1,
    )
    paths["six"].write_text(format_graph(six))
    return paths


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def setup_args(files):
    return ["--corpus", files["corpus"], "--prompts", files["prompts"]]


_CONFIG = "W = 32\nL = 8\nschedule = fixed:1\ntop_k_vocab = %d\neot_token = %d\n"
_SCHEDULE_CONFIG = "W = 32\nL = 8\nschedule = %s\ntop_k_vocab = 3\neot_token = 12\n"

# Bad input files for the exit-code table, written into the tmp directory.
_BAD_FILES = {
    "latin1.txt": b"1 2\n3 \xe9\n",
    "latin1.cfg": b"W = 32\n# caf\xe9\n",
    # line ends are \n, \r\n or \r; this once reported line 1
    "latin1_cr.cfg": b"W = 32\r# caf\xe9\r",
    "latin1.graph": b"D 2\ntokens_per_level 1\n1:1 # \xe9\n",
    "bad.graph": b"D 4\ntokens_per_level 1\n1;1\n",
    "bad_prompts.txt": b"2 3\n4 x\n",
    "gap_prompts.txt": b"1 2\n\n13 1\n",
    # an all-blank prompt file once reported "empty corpus"
    "blank_prompts.txt": b"\n \t\n\r\n",
    "blank_corpus.txt": b"\n\n",
    "s0.cfg": (_SCHEDULE_CONFIG % "fixed:0").encode(),
    "p15.cfg": (_SCHEDULE_CONFIG % "threshold:1.5").encode(),
    "pnan.cfg": (_SCHEDULE_CONFIG % "threshold:nan").encode(),
    "p0.cfg": (_SCHEDULE_CONFIG % "threshold:0").encode(),
    # one id past model.MAX_VOCAB_SIZE; a far larger one once allocated
    # tables until memory ran out
    "big_corpus.txt": b"1 2\n2 1025 1\n",
    # W far past core.MAX_TOTAL_LENGTH once allocated masked blocks until
    # memory ran out
    "long.cfg": b"W = 1000000000000000\nL = 8\nschedule = fixed:1\ntop_k_vocab = 3\neot_token = 12\n",
    # L x V at model.MAX_BLOCK_CELLS = 2**20 = 1024 * 1024, and one past
    # it, 17 * 61681; W = L = 65536 with V = 1024 once ran out of memory
    # inside the model call
    "v1024_corpus.txt": b"1 2\n2 1024 1\n",
    "v17_corpus.txt": b"1 2\n2 17 1\n",
    "cells_limit.cfg": b"W = 1024\nL = 1024\nschedule = fixed:1024\ntop_k_vocab = 3\neot_token = 12\n",
    "cells_over.cfg": b"W = 61681\nL = 61681\nschedule = fixed:1\ntop_k_vocab = 3\neot_token = 12\n",
    # Python's int() takes digit underscores and non-ASCII digits; these
    # once read as 10, 3, (1, 10), 32 and 3
    "underscore_prompts.txt": b"1_0 2\n",
    "arabic_prompts.txt": "2 \u0663\n".encode(),
    "underscore.graph": b"D 2\ntokens_per_level 1\n1:1_0\n",
    "underscore.cfg": b"W = 3_2\nL = 8\nschedule = fixed:1\ntop_k_vocab = 3\neot_token = 12\n",
    "fullwidth.cfg": "W = 32\nL = 8\nschedule = fixed:1\ntop_k_vocab = \uff13\neot_token = 12\n".encode(),
    # Python's float() takes the same spellings; this once read as 0.4
    "arabic_threshold.cfg": (_SCHEDULE_CONFIG % "threshold:\u0660.\u0664").encode(),
    # str.split and str.strip take U+3000 and U+00A0 for whitespace, and
    # str.splitlines ends a line at \x1c; these once read as (1, 2), 32,
    # the node 1:1 2:1, and (1, 2) then (3, 4)
    "ideographic_corpus.txt": "1 2\n1\u30002 1\n".encode(),
    "nbsp.cfg": "W = 32\u00a0\nL = 8\nschedule = fixed:1\ntop_k_vocab = 3\neot_token = 12\n".encode(),
    "ideographic.graph": "D 2\ntokens_per_level 1\n1:1\n1:1\u30002:1\n".encode(),
    "separator_prompts.txt": b"1 2\x1c3 4\n",
    # vocabulary rank 5 with the default top_k_vocab of 3, or this config's 4
    "wide.graph": b"D 1\ntokens_per_level 1\n1:5\n",
    "top_k4.cfg": (_CONFIG % (4, 12)).encode(),
}
_SETUP = ["--corpus", "corpus.txt", "--prompts", "prompts.txt"]
_CALIBRATE = ["calibrate", *_SETUP, "--lookahead", 2, "--budget", 2, "--out", "out.graph"]
_GENERATE = ["generate", *_SETUP]
_BENCH = ["bench", *_SETUP, "--graph", "chain.graph", "--limit", 1]
_CHECK = ["check-lossless", *_SETUP, "--graph", "chain.graph", "--trials", 1]
_NOT_FOUND = "No such file or directory"


def run_process(files, *argv):
    """Run the CLI as a real process from the test's tmp directory, under
    ``python -O`` when the tests themselves run that way."""
    flags = ["-O"] if sys.flags.optimize else []
    command = [sys.executable, *flags, "-m", "blockspec.cli", *argv]
    return subprocess.run(
        [str(a) for a in command], cwd=files["tmp"], env=files["env"], capture_output=True, text=True, timeout=60
    )


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def calibrated(prompts, **kw):
    """In-process calibration with the CLI's default config."""
    corpus = synthetic.make_corpus(synthetic.DEFAULT_SEED)
    config = GenerationConfig(
        total_length=32, block_length=8, schedule=UnmaskSchedule.fixed(1),
        top_k_vocab=3, eot_token=12,
    )
    return calibrate_graph(train_from_corpus(corpus, 12), prompts, config, **kw)


class TestCalibrate:
    def test_writes_graph_records_table(self, files, capsys):
        out = files["tmp"] / "cal.graph"
        records = files["tmp"] / "cal.records"
        table = files["tmp"] / "cal.table"
        code, stdout, _ = run(
            capsys,
            "calibrate",
            *setup_args(files),
            "--lookahead", 3,
            "--budget", 6,
            "--out", out,
            "--records", records,
            "--table", table,
        )
        assert code == 0
        assert stdout.startswith("calibrated graph:")
        graph = parse_graph(out.read_text(), source=str(out))
        assert 1 <= graph.num_nodes <= 6
        want_graph, want_table, want_records = calibrated(
            synthetic.make_prompts(11, 8), lookahead_max=3, budget=6
        )
        assert want_records
        assert out.read_bytes() == format_graph(want_graph).encode()
        assert records.read_bytes() == format_records(want_records).encode()
        assert table.read_bytes() == format_table(want_table).encode()
        assert "lookahead_max 3" in table.read_text()

    def test_limit_restricts_sample_ids(self, files, capsys):
        records = files["tmp"] / "cal.records"
        code, _, _ = run(
            capsys,
            "calibrate",
            *setup_args(files),
            "--lookahead", 2,
            "--budget", 4,
            "--limit", 2,
            "--out", files["tmp"] / "cal.graph",
            "--records", records,
        )
        assert code == 0
        _, _, want = calibrated(synthetic.make_prompts(11, 8)[:2], lookahead_max=2, budget=4)
        assert {r.sample_id for r in want} <= {0, 1}
        assert records.read_bytes() == format_records(want).encode()

    def test_byte_deterministic(self, files, capsys):
        out_a = files["tmp"] / "a.graph"
        out_b = files["tmp"] / "b.graph"
        for out in (out_a, out_b):
            code, _, _ = run(
                capsys,
                "calibrate",
                *setup_args(files),
                "--lookahead", 4,
                "--budget", 8,
                "--out", out,
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_width_beyond_any_count_keeps_every_candidate(self, files, capsys):
        """A width too large for islice means "keep every candidate", the
        same graph and table as a width of the record count."""
        outputs = []
        for width in (10**20, 10**5):
            out, table = files["tmp"] / ("w%d.graph" % width), files["tmp"] / ("w%d.table" % width)
            code, _, stderr = run(
                capsys,
                "calibrate", *setup_args(files),
                "--lookahead", 4, "--budget", 8, "--width", width, "--out", out, "--table", table,
            )
            assert (code, stderr) == (0, "")
            outputs.append((out.read_bytes(), table.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_schedule_that_commits_whole_blocks_gives_the_empty_graph(self, files, capsys):
        """Under threshold:0.2 every block completes in one step, so no
        window commits one level's tokens: calibration writes the empty
        graph, which check-lossless and bench decode as vanilla."""
        out = files["tmp"] / "t02.graph"
        schedule = ["--schedule", "threshold:0.2"]
        code, stdout, _ = run(
            capsys, "calibrate", *setup_args(files), *schedule, "--lookahead", 4, "--budget", 8, "--out", out
        )
        assert code == 0
        assert stdout.startswith("calibrated graph: 0 nodes, depth 0, budget 8 (")
        assert out.read_text() == "D 8\ntokens_per_level 1\n"
        code, stdout, _ = run(capsys, "check-lossless", *setup_args(files), *schedule, "--graph", out, "--trials", 8)
        assert code == 0
        assert stdout == "8 trials, all lossless (schedule threshold:0.2)\n"
        code, stdout, _ = run(capsys, "bench", *setup_args(files), *schedule, "--graph", out)
        assert code == 0
        assert "mean speedup 1.0000 (up to EOT 1.0000), 0 acceptances" in stdout


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


class TestGenerate:
    def test_vanilla_prints_tokens(self, files, capsys):
        code, stdout, _ = run(capsys, "generate", *setup_args(files))
        assert code == 0
        corpus = synthetic.make_corpus(synthetic.DEFAULT_SEED)
        model = train_from_corpus(corpus, 12)
        config = GenerationConfig(
            total_length=32, block_length=8, schedule=UnmaskSchedule.fixed(1),
            top_k_vocab=3, eot_token=12,
        )
        want = generate_vanilla(model, synthetic.make_prompts(11, 8)[0], config)
        assert stdout.strip() == " ".join(str(t) for t in want.tokens)

    def test_speculative_output_matches_vanilla(self, files, capsys):
        _, vanilla_out, _ = run(capsys, "generate", *setup_args(files), "--index", 1)
        code, spec_out, _ = run(
            capsys, "generate", *setup_args(files), "--index", 1, "--graph", files["chain"]
        )
        assert code == 0
        assert spec_out == vanilla_out

    def test_report_carries_nfe_identity(self, files, capsys):
        report_path = files["tmp"] / "run.json"
        code, _, _ = run(
            capsys,
            "generate", *setup_args(files),
            "--graph", files["chain"], "--out", report_path,
        )
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["total_nfe"] + doc["acceptances"] == doc["baseline_nfe"] == 32
        assert len(doc["per_block"]) == 4
        assert "stage_percent" not in doc

    def test_profile_adds_stage_percent(self, files, capsys):
        report_path = files["tmp"] / "run.json"
        run(
            capsys,
            "generate", *setup_args(files),
            "--graph", files["chain"], "--out", report_path, "--profile",
        )
        doc = json.loads(report_path.read_text())
        assert doc["stage_percent"]["model"] == 100.0

    def test_schedule_override(self, files, capsys):
        code, stdout, _ = run(capsys, "generate", *setup_args(files), "--schedule", "fixed:2")
        assert code == 0
        assert len(stdout.split()) == 32

    def test_report_bytes_deterministic(self, files, capsys):
        paths = [files["tmp"] / "r1.json", files["tmp"] / "r2.json"]
        for p in paths:
            run(capsys, "generate", *setup_args(files), "--graph", files["six"], "--out", p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_index_out_of_range(self, files, capsys):
        code, _, stderr = run(capsys, "generate", *setup_args(files), "--index", 99)
        assert code == 2
        assert "out of range" in stderr


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


class TestBench:
    def test_report_and_csv(self, files, capsys):
        report_path = files["tmp"] / "bench.json"
        csv_path = files["tmp"] / "bench.csv"
        code, stdout, _ = run(
            capsys,
            "bench", *setup_args(files),
            "--graph", files["chain"],
            "--limit", 4,
            "--report", report_path,
            "--csv", csv_path,
        )
        assert code == 0
        assert "mean speedup" in stdout
        doc = json.loads(report_path.read_text())
        assert doc["prompts"] == 4
        assert doc["mean_speedup"] == pytest.approx(
            sum(r["speedup"] for r in doc["runs"]) / 4
        )
        assert doc["total_nfe"] + doc["acceptances"] == doc["baseline_nfe"]
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "run,block,nfe,baseline_nfe,acceptances"
        assert len(lines) == 1 + 4 * 4

    def test_mean_speedup_printed_matches_report(self, files, capsys):
        report_path = files["tmp"] / "bench.json"
        _, stdout, _ = run(
            capsys,
            "bench", *setup_args(files),
            "--graph", files["six"], "--limit", 3, "--report", report_path,
        )
        doc = json.loads(report_path.read_text())
        assert ("mean speedup %.4f" % doc["mean_speedup"]) in stdout

    def test_bench_makes_no_vanilla_decode(self, files, capsys, monkeypatch, model):
        """Each prompt is decoded once: its baseline is the vanilla NFEs,
        counted from the speculative run's steps."""
        setup = [*setup_args(files), "--schedule", "threshold:0.4", "--graph", files["six"]]
        paths = [files["tmp"] / "b1.json", files["tmp"] / "b2.json"]
        config = GenerationConfig(
            total_length=32, block_length=8, schedule=UnmaskSchedule.at_threshold(0.4), top_k_vocab=3, eot_token=12
        )
        vanilla_nfe = [generate_vanilla(model, p, config).report.total_nfe for p in synthetic.make_prompts(11, 8)]
        assert run(capsys, "bench", *setup, "--report", paths[0])[0] == 0

        def no_vanilla(*args, **kwargs):
            raise AssertionError("bench ran a vanilla decode")

        monkeypatch.setattr(engine, "generate_vanilla", no_vanilla)
        assert run(capsys, "bench", *setup, "--report", paths[1])[0] == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert [r["baseline_nfe"] for r in json.loads(paths[1].read_text())["runs"]] == vanilla_nfe

    def test_report_bytes_deterministic(self, files, capsys):
        paths = [files["tmp"] / "b1.json", files["tmp"] / "b2.json"]
        for p in paths:
            run(capsys, "bench", *setup_args(files), "--graph", files["chain"], "--report", p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_profile_carries_the_same_stages_as_generate(self, files, capsys):
        """Both --profile reports go through one helper and name the same
        stages; ranking is one stage, not a position and a vocab sort."""
        gen_path = files["tmp"] / "gen.json"
        bench_path = files["tmp"] / "bench.json"
        run(capsys, "generate", *setup_args(files), "--graph", files["chain"], "--out", gen_path, "--profile")
        run(
            capsys,
            "bench", *setup_args(files),
            "--graph", files["chain"], "--limit", 2, "--report", bench_path, "--profile",
        )
        gen = json.loads(gen_path.read_text())["stage_percent"]
        bench = json.loads(bench_path.read_text())["stage_percent"]
        assert set(gen) == set(bench) == {"model", "ranking", "drafting", "verify"}
        assert gen["model"] == bench["model"] == 100.0

    def test_empty_prompt_set_rejected(self, files, capsys):
        code, _, stderr = run(
            capsys, "bench", *setup_args(files), "--graph", files["chain"], "--limit", 0
        )
        assert code == 2
        assert "no prompts to bench" in stderr


# ---------------------------------------------------------------------------
# check-lossless
# ---------------------------------------------------------------------------


class TestCheckLossless:
    def test_all_trials_pass(self, files, capsys):
        code, stdout, _ = run(
            capsys,
            "check-lossless", *setup_args(files), "--graph", files["six"], "--trials", 5,
        )
        assert code == 0
        assert "5 trials, all lossless" in stdout

    def test_zero_trials_is_usage_error(self, files, capsys):
        code, _, stderr = run(
            capsys,
            "check-lossless", *setup_args(files), "--graph", files["six"], "--trials", 0,
        )
        assert code == 2
        assert "--trials must be >= 1, got 0" in stderr

    def test_too_many_trials_rejected(self, files, capsys):
        code, _, stderr = run(
            capsys,
            "check-lossless", *setup_args(files), "--graph", files["six"], "--trials", 99,
        )
        assert code == 2
        assert "only 8 prompts" in stderr

    def test_content_blind_verify_is_caught(self, files, capsys, monkeypatch):
        """Accepting drafts without comparing tokens must exit 1."""

        def sloppy_verify(block, drafts, rows, schedule):
            last_rows = rows[0]
            steps = [advance_on_rows(block, last_rows, schedule)]
            current = steps[-1].state_after
            remaining = list(range(len(drafts)))
            while not current.is_complete:
                hit = None
                for index in remaining:
                    if BlockState(tokens=drafts[index]).unmasked_count == current.unmasked_count:
                        hit = index
                        break
                if hit is None:
                    break
                remaining.remove(hit)
                last_rows = rows[1 + hit]
                steps.append(advance_on_rows(BlockState(tokens=drafts[hit]), last_rows, schedule))
                current = steps[-1].state_after
            return tuple(steps), last_rows

        monkeypatch.setattr(verification, "verify", sloppy_verify)
        code, stdout, _ = run(
            capsys,
            "check-lossless", *setup_args(files), "--graph", files["six"], "--trials", 8,
        )
        assert code == 1
        assert "DIVERGED" in stdout

    def test_step_merging_verify_is_caught(self, files, capsys, monkeypatch, model, prompts):
        """A verify that reports a call's accepted steps as one step keeps
        every token and call-end state, and the next call's drafts, but
        not the step accounting: check_lossless compares steps, so it
        fails, and check-lossless exits 1."""
        verify = verification.verify

        def merging_verify(block, drafts, rows, schedule):
            steps, last_rows = verify(block, drafts, rows, schedule)
            last = steps[-1]
            committed = tuple(n for step in steps for n in step.ordered[: step.realized])
            merged = StepRecord(committed + last.ordered[last.realized :], last.state_after, len(committed))
            return (merged,), last_rows

        config = GenerationConfig(
            total_length=32, block_length=8, schedule=UnmaskSchedule.fixed(1), top_k_vocab=3, eot_token=12
        )
        graph, _, _ = calibrate_graph(model, prompts, config, lookahead_max=4, budget=8)
        monkeypatch.setattr(verification, "verify", merging_verify)
        for prompt in prompts:
            check = check_lossless(model, prompt, config, graph)
            assert check.speculative.tokens == check.vanilla.tokens
            assert not check.ok
            block, step, taken, vanilla_steps = map(int, re.findall(r"\d+", check.message))
            assert check.message == "block %d: speculative step %d differs from vanilla's (%d steps against %d)" % (
                block, step, taken, vanilla_steps
            )
            assert taken < vanilla_steps == 8
        code, stdout, _ = run(
            capsys,
            "check-lossless", *setup_args(files), "--graph", files["six"], "--trials", 8,
        )
        assert code == 1
        assert "DIVERGED" in stdout


# ---------------------------------------------------------------------------
# graph subcommands and input errors
# ---------------------------------------------------------------------------


class TestGraphCommands:
    def test_export_dot(self, files, capsys):
        out = files["tmp"] / "g.dot"
        code, stdout, _ = run(capsys, "graph", "export-dot", "--graph", files["six"], "--out", out)
        assert code == 0
        assert "wrote" in stdout
        dot = out.read_text()
        assert dot.startswith("digraph draft_graph {")
        assert dot.count("-> n5;") == 3

    def test_validate(self, files, capsys):
        code, stdout, _ = run(capsys, "graph", "validate", "--graph", files["six"])
        assert code == 0
        assert "valid graph: 6 nodes, depth 3" in stdout

    def test_show_lists_parents(self, files, capsys):
        code, stdout, _ = run(capsys, "graph", "show", "--graph", files["six"])
        assert code == 0
        assert "level 1: 1:1  <- root" in stdout
        assert "level 3: 1:1 2:1 3:1  <- 1:1 2:1, 1:1 3:1, 2:1 3:1" in stdout

    def test_malformed_graph_names_file_and_line(self, files, capsys):
        bad = files["tmp"] / "bad.graph"
        bad.write_text("D 4\ntokens_per_level 1\n1;1\n")
        code, _, stderr = run(capsys, "graph", "validate", "--graph", bad)
        assert code == 2
        assert "bad.graph:3" in stderr

    def test_missing_file_reports_cannot_read(self, files, capsys):
        code, _, stderr = run(capsys, "graph", "show", "--graph", files["tmp"] / "nope.graph")
        assert code == 2
        assert "cannot read" in stderr


class TestInputValidation:
    def test_malformed_corpus_names_line(self, files, capsys):
        bad = files["tmp"] / "bad_corpus.txt"
        bad.write_text("1 2 3\n4 x 6\n")
        code, _, stderr = run(
            capsys, "generate", "--corpus", bad, "--prompts", files["prompts"]
        )
        assert code == 2
        assert "bad_corpus.txt:2" in stderr

    def test_prompt_outside_vocabulary(self, files, capsys):
        bad = files["tmp"] / "bad_prompts.txt"
        bad.write_text("2 99\n")
        code, _, stderr = run(
            capsys, "generate", "--corpus", files["corpus"], "--prompts", bad
        )
        assert code == 2
        assert "bad_prompts.txt:1: token 99 outside corpus vocabulary 1..12" in stderr

    def test_config_file_drives_generation(self, files, capsys):
        path = files["tmp"] / "gen.cfg"
        path.write_text("W = 16\nL = 4\nschedule = fixed:2\ntop_k_vocab = 3\neot_token = 12\n")
        code, stdout, _ = run(
            capsys, "generate", *setup_args(files), "--config", path
        )
        assert code == 0
        assert len(stdout.split()) == 16

    def test_bad_schedule_override(self, files, capsys):
        code, _, stderr = run(capsys, "generate", *setup_args(files), "--schedule", "warp:9")
        assert code == 2
        assert "error:" in stderr

    @pytest.mark.parametrize(
        "flags, config, message",
        [
            (["--budget", 0], None, "--budget must be >= 1, got 0"),
            (["--lookahead", 0], None, "--lookahead must be >= 1, got 0"),
            (["--width", 0], None, "--width must be >= 1, got 0"),
            ([], _CONFIG % (0, 12), "bad.cfg: top_k_vocab must be >= 1, got 0"),
            ([], _CONFIG % (3, 99), "bad.cfg: eot_token 99 outside corpus vocabulary 1..12"),
        ],
        ids=["budget", "lookahead", "width", "top_k_vocab", "eot_token"],
    )
    def test_bad_calibrate_input_exits_2_with_a_message(self, files, flags, config, message):
        """Run as a real process: exit 2 (not 1, which means diverged), a
        message naming the bad value, and no traceback."""
        args = ["--lookahead", 4, "--budget", 8] + flags
        if config is not None:
            (files["tmp"] / "bad.cfg").write_text(config)
            args += ["--config", files["tmp"] / "bad.cfg"]
        done = run_process(files, "calibrate", *setup_args(files), "--out", files["tmp"] / "out.graph", *args)
        assert done.returncode == 2
        assert message in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["calibrate", "--lookahead", 2, "--budget", 2, "--out", "out.graph", "--limit", -1], "--limit must be >= 0, got -1"),
            (["bench", "--graph", "chain.graph", "--limit", -2], "--limit must be >= 0, got -2"),
            (["check-lossless", "--graph", "chain.graph", "--trials", -3], "--trials must be >= 1, got -3"),
        ],
        ids=["calibrate-limit", "bench-limit", "check-lossless-trials"],
    )
    def test_negative_count_flag_exits_2_with_a_message(self, files, argv, message):
        """A negative --limit would otherwise slice prompts off the end."""
        done = run_process(files, argv[0], *setup_args(files), *argv[1:])
        assert done.returncode == 2
        assert message in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "argv, message",
        [
            # a later repeat of a flag overrides the base command's value
            (_CALIBRATE + ["--config", "nope.cfg"], "cannot read nope.cfg: " + _NOT_FOUND),
            (_CALIBRATE + ["--corpus", "latin1.txt"], "latin1.txt:2: not UTF-8 text (byte 0xe9)"),
            (_CALIBRATE + ["--prompts", "bad_prompts.txt"], "bad_prompts.txt:2: non-integer token"),
            (_CALIBRATE + ["--prompts", "gap_prompts.txt"], "gap_prompts.txt:3: token 13 outside corpus vocabulary"),
            (_CALIBRATE + ["--config", "s0.cfg"], "s0.cfg:3: fixed schedule needs s >= 1, got 0"),
            (_GENERATE + ["--graph", "nope.graph"], "cannot read nope.graph: " + _NOT_FOUND),
            (_GENERATE + ["--prompts", "latin1.txt"], "latin1.txt:2: not UTF-8 text (byte 0xe9)"),
            (_GENERATE + ["--graph", "bad.graph"], "bad.graph:3: expected i:j pair"),
            (_GENERATE + ["--config", "p15.cfg"], "p15.cfg:3: threshold schedule needs 0 < p <= 1, got 1.5"),
            (_GENERATE + ["--index", 99], "--index 99 out of range (8 prompts)"),
            (_GENERATE + ["--corpus", "big_corpus.txt"], "big_corpus.txt:2: token 1025 outside corpus vocabulary 1..1024"),
            (_GENERATE + ["--config", "long.cfg"], "long.cfg: total length 1000000000000000 above the limit of 65536"),
            (
                _GENERATE + ["--corpus", "v17_corpus.txt", "--config", "cells_over.cfg"],
                "cells_over.cfg: L 61681 x vocabulary 17 = 1048577 marginals per block, above the limit of 1048576",
            ),
            (_BENCH + ["--prompts", "nope.txt"], "cannot read nope.txt: " + _NOT_FOUND),
            (_BENCH + ["--config", "latin1.cfg"], "latin1.cfg:2: not UTF-8 text (byte 0xe9)"),
            (_BENCH + ["--config", "latin1_cr.cfg"], "latin1_cr.cfg:2: not UTF-8 text (byte 0xe9)"),
            (_BENCH + ["--graph", "bad.graph"], "bad.graph:3: expected i:j pair"),
            (_BENCH + ["--config", "pnan.cfg"], "pnan.cfg:3: threshold schedule needs 0 < p <= 1, got nan"),
            (_CHECK + ["--corpus", "nope.txt"], "cannot read nope.txt: " + _NOT_FOUND),
            (_CHECK + ["--graph", "latin1.graph"], "latin1.graph:3: not UTF-8 text (byte 0xe9)"),
            (_CHECK + ["--graph", "bad.graph"], "bad.graph:3: expected i:j pair"),
            (_CHECK + ["--config", "p0.cfg"], "p0.cfg:3: threshold schedule needs 0 < p <= 1, got 0.0"),
            (_GENERATE + ["--schedule", "warp:9"], "--schedule warp:9: unknown schedule mode 'warp'"),
            (_BENCH + ["--schedule", "fixed:0"], "--schedule fixed:0: fixed schedule needs s >= 1, got 0"),
            (_CHECK + ["--trials", 99], "--trials 99 requested but only 8 prompts available"),
            (_CALIBRATE + ["--prompts", "underscore_prompts.txt"], "underscore_prompts.txt:1: non-integer token"),
            (_GENERATE + ["--prompts", "arabic_prompts.txt"], "arabic_prompts.txt:1: non-integer token"),
            (["graph", "validate", "--graph", "underscore.graph"], "underscore.graph:3: j must be an integer, got '1_0'"),
            (_BENCH + ["--config", "underscore.cfg"], "underscore.cfg:1: W must be an integer, got '3_2'"),
            (_CHECK + ["--config", "fullwidth.cfg"], "fullwidth.cfg:4: top_k_vocab must be an integer, got '\uff13'"),
            (_GENERATE + ["--schedule", "fixed:1_0"], "--schedule fixed:1_0: bad fixed schedule value '1_0'"),
            (_GENERATE + ["--schedule", "threshold:0.4_0"], "--schedule threshold:0.4_0: bad threshold schedule value '0.4_0'"),
            (
                _BENCH + ["--schedule", "threshold:\u0660.\u0664"],
                "--schedule threshold:\u0660.\u0664: bad threshold schedule value '\u0660.\u0664'",
            ),
            (
                _CHECK + ["--schedule", "threshold:\uff10.\uff14"],
                "--schedule threshold:\uff10.\uff14: bad threshold schedule value '\uff10.\uff14'",
            ),
            (
                _CALIBRATE + ["--config", "arabic_threshold.cfg"],
                "arabic_threshold.cfg:3: bad threshold schedule value '\u0660.\u0664'",
            ),
            (_GENERATE + ["--schedule", "threshold:1_0"], "--schedule threshold:1_0: bad threshold schedule value '1_0'"),
            (_CALIBRATE + ["--budget", "1_0"], "argument --budget: invalid int value: '1_0'"),
            (_GENERATE + ["--index", "\u0660"], "argument --index: invalid int value: '\u0660'"),
            (
                _GENERATE + ["--schedule", "threshold:0.4\u3000"],
                "--schedule threshold:0.4\u3000: bad threshold schedule value '0.4\\u3000'",
            ),
            (_BENCH + ["--config", "nbsp.cfg"], "nbsp.cfg:1: W must be an integer, got '32\\xa0'"),
            (_CALIBRATE + ["--corpus", "ideographic_corpus.txt"], "ideographic_corpus.txt:2: non-integer token"),
            (["graph", "validate", "--graph", "ideographic.graph"], "ideographic.graph:4: j must be an integer"),
            (_CHECK + ["--prompts", "separator_prompts.txt"], "separator_prompts.txt:1: non-integer token"),
            (_BENCH + ["--prompts", "blank_prompts.txt"], "blank_prompts.txt: no prompts"),
            (_GENERATE + ["--corpus", "blank_corpus.txt"], "blank_corpus.txt: empty corpus"),
            (_GENERATE + ["--graph", "wide.graph"], "wide.graph: graph needs vocabulary rank 5, top_k_vocab is 3"),
            (_BENCH + ["--graph", "wide.graph"], "wide.graph: graph needs vocabulary rank 5, top_k_vocab is 3"),
            (_CHECK + ["--graph", "wide.graph"], "wide.graph: graph needs vocabulary rank 5, top_k_vocab is 3"),
            (
                _GENERATE + ["--graph", "wide.graph", "--config", "top_k4.cfg"],
                "wide.graph: graph needs vocabulary rank 5, top_k_vocab is 4 in top_k4.cfg",
            ),
            (["graph", "validate", "--graph", "nope.graph"], "cannot read nope.graph: " + _NOT_FOUND),
            (["graph", "validate", "--graph", "latin1.graph"], "latin1.graph:3: not UTF-8 text (byte 0xe9)"),
            (["graph", "show", "--graph", "nope.graph"], "cannot read nope.graph: " + _NOT_FOUND),
            (["graph", "show", "--graph", "bad.graph"], "bad.graph:3: expected i:j pair"),
            (["graph", "export-dot", "--graph", "latin1.graph", "--out", "g.dot"], "latin1.graph:3: not UTF-8"),
            (["graph", "export-dot", "--graph", "bad.graph", "--out", "g.dot"], "bad.graph:3: expected i:j pair"),
            (["graph", "export-dot", "--graph", "chain.graph", "--out", "no/g.dot"], "cannot write no/g.dot: " + _NOT_FOUND),
        ],
        ids=[
            "calibrate-missing",
            "calibrate-not-utf8",
            "calibrate-malformed-line",
            "calibrate-prompt-vocabulary",
            "calibrate-schedule-s",
            "generate-missing",
            "generate-not-utf8",
            "generate-malformed-graph",
            "generate-schedule-p",
            "generate-index",
            "generate-corpus-token-limit",
            "generate-total-length-limit",
            "generate-block-cells-limit",
            "bench-missing",
            "bench-not-utf8",
            "bench-not-utf8-cr-lines",
            "bench-malformed-graph",
            "bench-schedule-p-nan",
            "check-lossless-missing",
            "check-lossless-not-utf8",
            "check-lossless-malformed-graph",
            "check-lossless-schedule-p-zero",
            "generate-schedule-flag",
            "bench-schedule-flag",
            "check-lossless-trials-flag",
            "calibrate-prompt-underscore",
            "generate-prompt-arabic-digit",
            "validate-pair-underscore",
            "bench-config-underscore",
            "check-lossless-config-fullwidth-digit",
            "generate-schedule-underscore",
            "generate-threshold-underscore",
            "bench-threshold-arabic-digit",
            "check-lossless-threshold-fullwidth-digit",
            "calibrate-config-threshold-arabic-digit",
            "generate-threshold-underscore-above-one",
            "calibrate-flag-underscore",
            "generate-flag-arabic-digit",
            "generate-threshold-ideographic-space",
            "bench-config-no-break-space",
            "calibrate-corpus-ideographic-space",
            "validate-pair-ideographic-space",
            "check-lossless-prompt-file-separator",
            "bench-prompts-blank",
            "generate-corpus-blank",
            "generate-graph-vocabulary-rank",
            "bench-graph-vocabulary-rank",
            "check-lossless-graph-vocabulary-rank",
            "generate-graph-vocabulary-rank-config",
            "validate-missing",
            "validate-not-utf8",
            "show-missing",
            "show-malformed-graph",
            "export-dot-not-utf8",
            "export-dot-malformed-graph",
            "export-dot-out",
        ],
    )
    def test_bad_input_exits_2_naming_file_line_or_flag(self, files, argv, message):
        """The exit-code table: every subcommand, run as a real process,
        turns a missing, non-UTF-8 or malformed file, a bad schedule value
        in a config file, or a bad flag value into exit 2 with a message
        that names the file (and line) or the flag, never a traceback."""
        for name, data in _BAD_FILES.items():
            (files["tmp"] / name).write_bytes(data)
        done = run_process(files, *argv)
        assert done.returncode == 2
        assert message in done.stderr
        assert "Traceback" not in done.stderr

    def test_a_block_at_the_cell_limit_decodes(self, files):
        """The table above has a block one cell past the limit; a block of
        exactly ``MAX_BLOCK_CELLS`` marginals decodes."""
        assert MAX_BLOCK_CELLS == 1024 * 1024 == 17 * 61681 - 1
        for name, data in _BAD_FILES.items():
            (files["tmp"] / name).write_bytes(data)
        done = run_process(files, *_GENERATE, "--corpus", "v1024_corpus.txt", "--config", "cells_limit.cfg")
        assert done.returncode == 0, done.stderr
        assert len(done.stdout.split()) == 1024
