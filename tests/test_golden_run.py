"""Byte identity of the reference run.

`scenestruct run` on a copy of configs/tiny.json, at one OpenBLAS thread,
must write a corpus, checkpoints, loss CSVs, predictions and reports whose
sha256 digests match tests/golden/tiny_run.json. Floating-point bits
depend on the platform as well as the code, so the golden file records
the environment it was made in, and elsewhere the test skips, naming both.

A change that is meant to move bits regenerates the golden file with

    PYTHONPATH=src python tests/test_golden_run.py
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scenestruct
from test_cli import tiny_config

GOLDEN = Path(__file__).resolve().parent / "golden" / "tiny_run.json"
NOT_COMPARED = ("tiny.json", "resolved_config.json")  # both hold absolute paths


def environment() -> dict:
    """What a run's bits depend on besides the code: the Python and numpy
    versions, numpy's BLAS build and the CPU model."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "cpu": _cpu_model(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_digests(work: Path) -> dict:
    """sha256 of every file `scenestruct run` writes under work, by path
    relative to work."""
    src = str(Path(scenestruct.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "scenestruct.cli", "run",
                           "--config", str(tiny_config(work))],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(work.rglob("*"))
            if path.is_file() and path.name not in NOT_COMPARED}


def test_tiny_run_matches_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    here = environment()
    if here != golden["environment"]:
        pytest.skip(f"golden digests were made in {golden['environment']}; this is {here}")
    digests = run_digests(tmp_path)
    assert sorted(digests) == sorted(golden["sha256"])
    differ = [name for name, digest in golden["sha256"].items() if digests[name] != digest]
    assert not differ, (f"{differ[0]} differs from the golden run "
                        f"({len(differ)} of {len(digests)} files differ)")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        digests = run_digests(Path(work))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"environment": environment(), "sha256": digests}, indent=2)
                      + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
