"""The packaged version is the library's version."""

import os
import subprocess
import sys

import repro

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_setup_py_reports_the_library_version():
    reported = subprocess.run(
        [sys.executable, "setup.py", "--version"], cwd=REPO_ROOT,
        capture_output=True, text=True, check=True, timeout=60)
    assert reported.stdout.strip().splitlines()[-1] == repro.__version__
