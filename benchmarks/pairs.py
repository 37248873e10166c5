"""Alternating parent/change pairs of the end-to-end benchmark.

    python benchmarks/pairs.py PARENT [--workload W] [--seed N] [--pairs N]

``make bench-pairs PARENT=<rev> W=<workload> SEED=0 N=10`` runs this.
It checks PARENT out into a temporary ``git worktree`` and runs
``benchmarks/e2e/run.py --workload W --seed N`` once in that checkout
and once in the working tree per pair, the working tree first in every
other pair, so that drift on the machine falls on both sides alike.  For
every host-clock metric of the catalog it prints each side's median and
quartiles and how many pairs the change won, by the metric's own
direction (higher ``ops_per_wall_s``, lower ``setup_s`` and
``peak_rss_mb``).  The two sides run the same child seeds, so their
simulated metrics and image hashes must agree repetition by repetition;
the exit code is non-zero if they do not.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]

sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
from catalog import END_TO_END  # noqa: E402

SIM_METRICS = [name for name, _unit, clock, _, _ in END_TO_END if clock == "sim"]
HOST_METRICS = {
    name: better for name, _unit, clock, better, _ in END_TO_END if clock == "host"
}
"""Each host-clock metric and its better direction, "higher" or "lower"."""


def run_side(tree: Path, workload: str, seed: int) -> Dict[str, Any]:
    """One ``run.py`` of ``workload`` in ``tree``; its result document."""
    with tempfile.NamedTemporaryFile(suffix=".json") as output:
        command = [
            sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--output", output.name,
        ]
        # Each tree's run.py finds its own sources; an inherited
        # PYTHONPATH could hand one of them the other's.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        subprocess.run(
            command, cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL
        )
        document = json.loads(Path(output.name).read_text())
    return document["workloads"][workload]


def disagreements(parent: Dict[str, Any], change: Dict[str, Any]) -> List[str]:
    """Simulated metrics and image hashes that differ between the sides,
    over the repetitions both ran."""
    reps = min(len(parent["images"]), len(change["images"]))
    found = [
        name
        for name in SIM_METRICS
        if parent["metrics"][name]["reps"][:reps]
        != change["metrics"][name]["reps"][:reps]
    ]
    if parent["images"][:reps] != change["images"][:reps]:
        found.append("images")
    return found


def summary(values: List[float]) -> str:
    low, _, high = statistics.quantiles(values, n=4)
    return (
        f"median {statistics.median(values):10.3f}"
        f"   quartiles {low:10.3f} - {high:10.3f}"
    )


def wins(name: str, parent: List[float], change: List[float]) -> int:
    """Pairs in which the change did better on ``name``."""
    if HOST_METRICS[name] == "higher":
        return sum(c > p for p, c in zip(parent, change))
    return sum(c < p for p, c in zip(parent, change))


def _exit(signum: int, _frame: Any) -> None:
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="the revision to compare against")
    parser.add_argument("--workload", default="service_clean")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    # A SIGTERM unwinds like an exit, so that the finally below removes
    # the worktree and the scratch directory (and run_side's subprocess
    # call kills the child it waits for).
    signal.signal(signal.SIGTERM, _exit)
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    checkout = scratch / "parent"
    host: Dict[str, Dict[str, List[float]]] = {
        side: {name: [] for name in HOST_METRICS} for side in ("parent", "change")
    }
    bad: List[str] = []
    try:
        subprocess.run(
            ["git", "worktree", "add", "--quiet", "--detach", str(checkout),
             args.parent],
            cwd=ROOT, check=True,
        )
        for pair in range(args.pairs):
            sides = [("change", ROOT), ("parent", checkout)]
            if pair % 2:
                sides.reverse()
            results = {
                side: run_side(tree, args.workload, args.seed)
                for side, tree in sides
            }
            line = f"pair {pair + 1:2d} ({sides[0][0]} first):"
            for name in HOST_METRICS:
                parent, change = (
                    results[side]["metrics"][name]["value"]
                    for side in ("parent", "change")
                )
                host["parent"][name].append(parent)
                host["change"][name].append(change)
                line += f"   {name} {parent:.3f} -> {change:.3f}"
            differ = disagreements(results["parent"], results["change"])
            bad += differ
            print(
                line + (f"   DIFFER: {', '.join(differ)}" if differ else ""),
                flush=True,
            )
    finally:
        # Forced twice: a `worktree add` cut short leaves its worktree
        # locked, and one --force keeps a locked worktree.
        subprocess.run(
            ["git", "worktree", "remove", "--force", "--force", str(checkout)],
            cwd=ROOT, check=False,
        )
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=False)
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs:")
    for name, better in HOST_METRICS.items():
        parent, change = host["parent"][name], host["change"][name]
        print(f"  {name} ({better} is better)")
        for side in ("parent", "change"):
            print(f"    {side:6s} {summary(host[side][name])}")
        parent_median = statistics.median(parent)
        change_median = statistics.median(change)
        low, _, high = statistics.quantiles(parent, n=4)
        print(
            f"    change wins {wins(name, parent, change)} of {args.pairs};"
            f" medians x{change_median / parent_median:.3f},"
            f" gap {change_median - parent_median:+.3f} against the parent's"
            f" interquartile range {high - low:.3f}"
        )
    if bad:
        print(f"  simulated output differs: {', '.join(sorted(set(bad)))}")
        return 1
    print("  simulated metrics and image hashes agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
