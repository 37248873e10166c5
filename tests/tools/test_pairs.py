"""``benchmarks/pairs.py`` cleans up after itself when it is stopped."""

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

# Stands in for the benchmark: a run the signal arrives during.
SLOW_RUN = "import time\ntime.sleep(60)\n"


def _git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=repo, check=True, capture_output=True, text=True,
    ).stdout


def _worktrees(repo):
    return [
        line for line in _git(repo, "worktree", "list", "--porcelain").splitlines()
        if line.startswith("worktree ")
    ]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_sigterm_removes_the_worktree_and_the_scratch_directory(tmp_path):
    repo = tmp_path / "repo"
    (repo / "benchmarks" / "e2e").mkdir(parents=True)
    shutil.copy(ROOT / "benchmarks" / "pairs.py", repo / "benchmarks")
    shutil.copy(
        ROOT / "benchmarks" / "e2e" / "catalog.py", repo / "benchmarks" / "e2e"
    )
    (repo / "benchmarks" / "e2e" / "run.py").write_text(SLOW_RUN)
    _git(repo, "init", "--quiet")
    _git(repo, "add", "-A")
    _git(repo, "commit", "--quiet", "-m", "stub")
    scratch_parent = tmp_path / "tmp"
    scratch_parent.mkdir()
    env = dict(os.environ, TMPDIR=str(scratch_parent))
    pairs = subprocess.Popen(
        [sys.executable, "benchmarks/pairs.py", "HEAD", "--pairs", "2"],
        cwd=repo, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 30
        while len(_worktrees(repo)) < 2:
            assert pairs.poll() is None, "pairs.py exited before its worktree"
            assert time.monotonic() < deadline, "no worktree was added"
            time.sleep(0.05)
        pairs.send_signal(signal.SIGTERM)
        pairs.wait(timeout=30)
    finally:
        if pairs.poll() is None:
            pairs.kill()
            pairs.wait(timeout=30)
    assert len(_worktrees(repo)) == 1
    assert list(scratch_parent.iterdir()) == []
