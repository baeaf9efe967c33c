"""End-to-end CLI acceptance: ``python -m repro.service`` on a mixed 200-request stream.

The PR's acceptance bar: the CLI must answer a mixed 200-request JSONL
stream (implication, equivalence, weak-instance consistency, counterexample)
with results **byte-identical** to direct in-process API calls — and every
dispatch mode (planner, naive one-at-a-time, multiprocess shards) must
produce the same bytes.  The subprocess runs with a minimal environment so
the test exercises exactly what a deployment would run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.service.planner import execute_plan
from repro.service.session import Session
from repro.service.wire import dump_result_line, load_result_line, requests_to_jsonl
from repro.workloads.random_service import random_service_requests

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")


def _run_cli(args, stdin_text=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "repro.service", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        cwd=cwd or str(REPO_ROOT),
        timeout=300,
    )


@pytest.fixture(scope="module")
def acceptance_stream():
    """The mixed 200-request stream of the acceptance criterion."""
    return random_service_requests(
        200,
        seed=20260730,
        attribute_count=5,
        theory_count=2,
        pds_per_theory=3,
        max_complexity=2,
        kind_weights={"implies": 5, "equivalent": 3, "consistent": 3, "counterexample": 1},
    )


@pytest.fixture(scope="module")
def expected_lines(acceptance_stream):
    """Direct in-process API answers, wire-encoded (the byte-identity oracle)."""
    return [dump_result_line(r) for r in execute_plan(Session(), acceptance_stream)]


class TestEndToEnd:
    def test_cli_answers_200_request_stream_byte_identically(
        self, tmp_path, acceptance_stream, expected_lines
    ):
        request_file = tmp_path / "requests.jsonl"
        request_file.write_text(requests_to_jsonl(acceptance_stream), encoding="utf-8")
        output_file = tmp_path / "results.jsonl"

        proc = _run_cli([str(request_file), "-o", str(output_file), "--stats"])
        assert proc.returncode == 0, proc.stderr
        produced = output_file.read_text(encoding="utf-8").strip().split("\n")
        assert len(produced) == 200
        assert produced == expected_lines
        assert "repro.service stats" in proc.stderr

    def test_all_dispatch_modes_agree(self, tmp_path, acceptance_stream, expected_lines):
        request_file = tmp_path / "requests.jsonl"
        # Exercise a prefix in the slower modes to keep the test quick.
        prefix = acceptance_stream[:80]
        request_file.write_text(requests_to_jsonl(prefix), encoding="utf-8")

        planner = _run_cli([str(request_file)])
        naive = _run_cli([str(request_file), "--no-batch"])
        sharded = _run_cli([str(request_file), "--shards", "2"])
        assert planner.returncode == naive.returncode == sharded.returncode == 0, (
            planner.stderr + naive.stderr + sharded.stderr
        )
        assert planner.stdout == naive.stdout == sharded.stdout
        assert planner.stdout.strip().split("\n") == expected_lines[:80]

    def test_every_result_decodes_and_echoes_its_request_id(self, acceptance_stream, expected_lines):
        for request, line in zip(acceptance_stream, expected_lines):
            result = load_result_line(line)
            assert result.id == request.id
            assert result.kind == request.kind


class TestCliSurface:
    def test_stdin_stdout_with_session_dependencies(self):
        stdin = (
            '{"v":3,"kind":"implies","id":"x","query":"A = A * C"}\n'
            "\n"
            '{"v":3,"kind":"implies","id":"y","query":"C = C * A"}\n'
        )
        proc = _run_cli(["-d", "A = A*B; B = B*C", "-"], stdin_text=stdin)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().split("\n")
        assert len(lines) == 2
        assert load_result_line(lines[0]).value == {"implied": True}
        assert load_result_line(lines[1]).value == {"implied": False}

    def test_malformed_lines_become_error_results_in_place(self):
        stdin = (
            '{"v":3,"kind":"implies","id":"ok","query":"A = A"}\n'
            "this is not json\n"
            '{"kind":"implies"}\n'
        )
        proc = _run_cli(["-"], stdin_text=stdin)
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert len(lines) == 3
        assert load_result_line(lines[0]).ok
        bad = load_result_line(lines[1])
        assert not bad.ok and bad.id == "line2"
        worse = load_result_line(lines[2])
        assert not worse.ok and worse.id == "line3"

    def test_error_results_name_original_file_lines_past_blanks(self):
        stdin = (
            "\n"
            '{"v":3,"kind":"implies","id":"ok","query":"A = A"}\n'
            "\n"
            "\n"
            "not json either\n"
        )
        proc = _run_cli(["-"], stdin_text=stdin)
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert len(lines) == 2  # blank lines produce no results
        assert load_result_line(lines[0]).ok
        bad = load_result_line(lines[1])
        # Line 5 of the *file*, not line 2 of the non-blank stream.
        assert not bad.ok and bad.id == "line5"

    def test_bad_integer_fields_become_error_results_not_crashes(self):
        stdin = '{"kind":"counterexample","id":"z","query":"A = B","max_pool":"oops"}\n'
        proc = _run_cli(["-"], stdin_text=stdin)
        assert proc.returncode == 0, proc.stderr
        result = load_result_line(proc.stdout.strip())
        assert not result.ok
        assert result.id == "z"  # the id parsed, so the error echoes it
        assert result.error["type"] == "ServiceError"

    def test_error_results_echo_the_request_id_when_one_parses(self):
        stdin = (
            '{"kind":"implies","id":"missing-query"}\n'
            '{"kind":"no-such-kind","id":"weird-kind","query":"A = A"}\n'
            "not json at all\n"
        )
        proc = _run_cli(["-"], stdin_text=stdin)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().split("\n")
        results = [load_result_line(line) for line in lines]
        assert [r.ok for r in results] == [False, False, False]
        # Valid JSON carrying an id: the error result echoes that id, so a
        # client matching answers by id sees its own request fail, instead of
        # an anonymous "lineN" it never sent.
        assert results[0].id == "missing-query"
        assert results[1].id == "weird-kind"
        # Unparseable lines still fall back to the file line number.
        assert results[2].id == "line3"

    def test_missing_input_file_fails_cleanly(self, tmp_path):
        proc = _run_cli([str(tmp_path / "does-not-exist.jsonl")])
        assert proc.returncode == 2
        assert "cannot read" in proc.stderr

    def test_bad_dependencies_fail_cleanly(self):
        proc = _run_cli(["-d", "A = = B", "-"], stdin_text="")
        assert proc.returncode == 2
        assert "cannot parse --dependencies" in proc.stderr

    def test_bad_shard_count_fails_cleanly(self):
        proc = _run_cli(["--shards", "0", "-"], stdin_text="")
        assert proc.returncode == 2

    def test_shards_with_no_batch_is_rejected(self):
        proc = _run_cli(["--shards", "2", "--no-batch", "-"], stdin_text="")
        assert proc.returncode == 2
        assert "cannot be combined" in proc.stderr

    def test_empty_stream_is_fine(self):
        proc = _run_cli(["-"], stdin_text="")
        assert proc.returncode == 0
        assert proc.stdout == ""
