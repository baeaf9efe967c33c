"""Self-test of the benchmark at a tiny size (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload in ``BENCHMARK.json`` and both ``--trace``
modes, that the run is correct and that its result line carries exactly
the metrics ``BENCHMARK.json`` names, each with its unit; and that the
correctness gate trips (exit code 1, ``correct: false``) when one answer
line is altered.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SEED, SECONDS = 3, 0.5


def shrink() -> None:
    workloads.BATCH_STREAMS, workloads.STREAM_LENGTH = 2, 12
    workloads.SESSION_QUERIES, workloads.SESSION_WRITES = 40, 1
    workloads.SERVER_LAUNCHES = 1


def invoke(workload: str, trace: int) -> tuple[int, dict]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(
            ["--workload", workload, "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
        )
    return code, json.loads(stdout.getvalue().strip().splitlines()[-1])


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    }
    shrink()
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as scratch:
        run.COUNTS_DIR = Path(scratch)
        for workload in [entry["name"] for entry in spec["workloads"]]:
            for trace in (0, 1):
                code, result = invoke(workload, trace)
                label = f"{workload} --trace {trace}"
                check(code == 0 and result["correct"], f"{label}: run not correct")
                check(result["failed"] == 0, f"{label}: {result['failed']} failed answers")
                units = {name: entry["unit"] for name, entry in result["metrics"].items()}
                check(units == expected[trace], f"{label}: metrics/units differ from BENCHMARK.json")
                for name, entry in result["metrics"].items():
                    value = entry["value"]
                    check(isinstance(value, float) and math.isfinite(value), f"{label}: {name} not finite")
                    if trace == 0:
                        check(value > 0, f"{label}: end-to-end metric {name} is {value}")
                print(f"ok   {label}")

        original = workloads.serve_lines

        def altered(lines, **kwargs):
            out, stats = original(lines, **kwargs)
            flip = ("true", "false") if "true" in out[0] else ("false", "true")
            out[0] = out[0].replace(*flip, 1)
            return out, stats

        workloads.serve_lines = altered
        try:
            code, result = invoke("batch-mixed", 0)
        finally:
            workloads.serve_lines = original
        check(code == 1 and result["correct"] is False, "gate did not trip on an altered answer")
        check(result["failed"] > 0, "altered answers were not counted as failed")
        print("ok   correctness gate trips on an altered answer line")
    return 0


if __name__ == "__main__":
    sys.exit(main())
