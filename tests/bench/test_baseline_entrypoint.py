"""``python -m repro.bench.baseline`` starts without a runpy warning.

The package used to import :mod:`repro.bench.baseline` eagerly, so running
that module with ``-m`` loaded it twice and runpy warned ("found in
sys.modules ... prior to execution").  The package now re-exports the
baseline writers lazily.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_help_runs_with_runtime_warnings_as_errors():
    done = run_python("-W", "error::RuntimeWarning",
                      "-m", "repro.bench.baseline", "--help")
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout
    assert "RuntimeWarning" not in done.stderr


def test_baseline_names_load_on_first_access():
    done = run_python("-c", (
        "import sys, repro.bench as bench\n"
        "assert 'repro.bench.baseline' not in sys.modules\n"
        "from repro.bench import write_workload_baseline\n"
        "assert write_workload_baseline.__module__ == 'repro.bench.baseline'\n"
        "assert callable(bench.collect_resolution_baseline)\n"
        "try:\n"
        "    bench.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('missing attribute did not raise')\n"))
    assert done.returncode == 0, done.stderr
