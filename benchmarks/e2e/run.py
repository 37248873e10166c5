"""The repository's end-to-end benchmark: five workloads on two clocks.

    python benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                 [--trace 0|1] [--smoke] [--output OUT.json]
    python benchmarks/e2e/run.py compare A.json B.json

A run repeats a workload, each repetition in a fresh single-threaded
child process with its own seed derived from ``--seed``, until the
measured phases add up to ``--seconds``, and reports each metric as the
median over the repetitions.  ``--trace 0`` prints the end-to-end
metrics, measured with nothing switched on.  ``--trace 1`` follows each
untraced pass with a traced one (and the attribution and FFS passes
where they apply), checks that every simulated number and image hash
came out the same, and prints the per-layer metrics.  The last line of
output for each workload is one JSON object in the driver's format; the
exit code is non-zero if any output check failed.  README.md has the
rest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from catalog import END_TO_END, LAYERS, PER_LAYER, WORKLOADS
from tracing import calls, inclusive_seconds, self_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

# A repetition's child seeds are seed * REP_STRIDE + repetition.
REP_STRIDE = 1000


def tree_sha() -> str:
    """SHA-256 over the program's sources: two result files that carry
    the same one must agree exactly on every simulated number."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_pass(workload: str, seed: int, mode: str, options: List[str]) -> Dict[str, Any]:
    """One child process; its result plus the set-up time seen from here."""
    spawned_at = time.time()
    child = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), workload, str(seed), mode,
         *options],
        stdout=subprocess.PIPE, text=True,
    )
    if child.returncode != 0:
        raise SystemExit(f"{workload} {mode} pass exited {child.returncode}")
    result = json.loads(child.stdout.splitlines()[-1])
    # Interpreter start, imports, device allocation, mkfs and prefill.
    result["setup_s"] = result["ready_at"] - spawned_at
    return result


def end_to_end(untraced: Dict[str, Any]) -> Dict[str, float]:
    return {
        "setup_s": untraced["setup_s"],
        "ops_per_wall_s": untraced["attempted"] / untraced["measured_s"],
        "peak_rss_mb": untraced["peak_rss_mb"],
        **untraced["sim"],
    }


def per_layer(passes: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """Every per-layer metric of one repetition; 0 where a layer or a
    pass does not take part in the workload."""
    untraced, traced = passes["untraced"], passes["traced"]
    windows = traced["windows"]
    measured = windows["measured"]
    every = list(windows.values())
    out = dict.fromkeys((name for name, *_ in PER_LAYER), 0.0)
    out.update(
        (name, value) for name, value in untraced["counters"].items()
        if name in out
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_seconds(measured, layer)
        out[f"{layer}.calls"] = calls(measured, layer)
    for name, entry in (("insert", "BlockCache.insert"), ("get", "BlockCache.get")):
        count = calls(measured, entry)
        out[f"cache.{name}_us"] = (
            self_seconds(measured, entry) / count * 1e6 if count else 0.0
        )
    out["disk.alloc_s"] = inclusive_seconds(every, "disk.alloc")
    out["disk.snapshot_s"] = inclusive_seconds(every, "disk.snapshot")
    out["lfs.mount_s"] = inclusive_seconds(every, "lfs.mount")
    out["lfs.verify_s"] = inclusive_seconds(every, "lfs.verify")
    for part in ("flush", "cleaner", "checkpoint"):
        out[f"lfs.{part}_self_s"] = self_seconds(measured, f"lfs.{part}")
    out["bench.untracked_s"] = traced["measured_s"] - measured["covered_s"]
    out["bench.trace_overhead_ratio"] = traced["measured_s"] / untraced["measured_s"]
    out["sim.sim_s_per_wall_s"] = (
        untraced["counters"]["sim.elapsed_sim_s"] / untraced["measured_s"]
    )
    ffs = passes.get("ffs")
    if ffs is not None:
        window = ffs["windows"]["measured"]
        out["ffs.self_s"] = self_seconds(window, "ffs")
        out["ffs.calls"] = calls(window, "ffs")
        out["ffs.sim_ops_per_s"] = ffs["sim"]["sim_ops_per_s"]
        out["ffs.write_amp"] = ffs["sim"]["write_amp"]
        out["ffs.lfs_speedup"] = (
            untraced["sim"]["sim_ops_per_s"] / ffs["sim"]["sim_ops_per_s"]
        )
    attribution = passes.get("attribution")
    if attribution is not None:
        for part, share in attribution["shares"].items():
            if f"service.lat_share_{part}" in out:
                out[f"service.lat_share_{part}"] = share
        out["obs.telemetry_on_overhead_ratio"] = (
            attribution["measured_s"] / untraced["measured_s"]
        )
    return out


def passes_of(workload: str, trace: int) -> List[str]:
    if not trace:
        return ["untraced"]
    modes = ["untraced", "traced"]
    if workload == "service_clean":
        modes.append("attribution")
    if workload in ("smallfile", "largefile"):
        modes.append("ffs")
    return modes


def run_workload(
    workload: str, seed: int, seconds: float, trace: int, options: List[str],
    spans_out: Optional[str] = None,
) -> Dict[str, Any]:
    """Repeat the workload until its measured phases add up to
    ``seconds``, or the run has taken twice that, which keeps a run on
    a slow machine inside the driver's time limit."""
    started = time.monotonic()
    measured = 0.0
    reps: List[Dict[str, float]] = []
    attempted = failed = 0
    errors: List[str] = []
    images: List[List[str]] = []
    while True:
        rep_seed = seed * REP_STRIDE + len(reps)
        passes = {}
        for mode in passes_of(workload, trace):
            extra = list(options)
            if mode == "traced" and spans_out and not reps:
                extra += ["--spans-out", spans_out]
            passes[mode] = result = run_pass(workload, rep_seed, mode, extra)
            measured += result["measured_s"]
            attempted += result["attempted"]
            failed += result["failed"]
            errors += result["errors"]
        untraced = passes["untraced"]
        # The determinism guard: neither the wrappers nor Telemetry may
        # change what is simulated.
        for mode in ("traced", "attribution"):
            other = passes.get(mode)
            if other is None:
                continue
            for part in ("sim", "counters", "images"):
                if other[part] != untraced[part]:
                    failed += 1
                    errors.append(
                        f"rep {len(reps)}: {part} differ between the "
                        f"untraced and the {mode} pass"
                    )
        images.append(untraced["images"])
        reps.append(per_layer(passes) if trace else end_to_end(untraced))
        if measured >= seconds or time.monotonic() - started >= 2 * seconds:
            break
    catalog = PER_LAYER if trace else END_TO_END
    metrics = {
        name: {
            "value": statistics.median(rep[name] for rep in reps),
            "unit": unit,
            "reps": [rep[name] for rep in reps],
        }
        for name, unit, *_ in catalog
    }
    return {
        "n_ops": untraced["attempted"],
        "attempted": attempted,
        "failed": failed,
        "failed_op_ratio": failed / attempted,
        "errors": errors,
        "images": images,
        "metrics": metrics,
    }


def print_workload(workload: str, result: Dict[str, Any], trace: int) -> None:
    reps = len(result["images"])
    print(
        f"== {workload}: {reps} repetitions of n_ops={result['n_ops']}, "
        f"failed_op_ratio={result['failed_op_ratio']:g} "
        f"({result['failed']} of {result['attempted']}) =="
    )
    clocks = {name: clock for name, _, clock, _, _ in END_TO_END}
    for name, metric in result["metrics"].items():
        tag = clocks[name] if not trace else name.split(".")[0]
        print(f"  {name:34s} {metric['value']:16.6f} {metric['unit']:6s} {tag}")
    for error in result["errors"]:
        print(f"  FAILED {error}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in result["metrics"].items()
        },
    }), flush=True)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(statistics.median(values))


def compare(path_a: str, path_b: str) -> int:
    """Label each (workload, end-to-end metric) of B against A.

    Two runs of one seed and scale simulate the same thing, so their
    image hashes are compared; if the source tree is the same too, the
    sim metrics must match exactly, repetition by repetition."""
    a, b = (json.loads(Path(path).read_text()) for path in (path_a, path_b))
    same_inputs = a["seed"] == b["seed"] and a["smoke"] == b["smoke"]
    same_tree = same_inputs and a["tree_sha"] == b["tree_sha"]
    if same_tree:
        print("same source tree, seed and scale: sim metrics must match exactly")
    regressed = 0
    print(f"{'workload':16s} {'metric':16s} {'A':>14s} {'B':>14s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for workload, one in a["workloads"].items():
        two = b["workloads"].get(workload)
        if two is None:
            continue
        reps = min(len(one["images"]), len(two["images"]))
        for name, _, clock, better, bound in END_TO_END:
            old, new = one["metrics"][name], two["metrics"][name]
            worse = (new["value"] - old["value"]) / old["value"]
            if better == "higher":
                worse = -worse
            if clock == "sim" and same_tree:
                exact = old["reps"][:reps] == new["reps"][:reps]
                verdict = "ok" if exact else "regressed"
            elif worse > bound:
                verdict = "regressed"
            elif max(spread(old["reps"]), spread(new["reps"])) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            regressed += verdict == "regressed"
            print(f"{workload:16s} {name:16s} {old['value']:14.6f} "
                  f"{new['value']:14.6f} {worse:+9.2%} {bound:6.0%}  {verdict}")
        if same_inputs:
            exact = one["images"][:reps] == two["images"][:reps]
            regressed += same_tree and not exact
            print(f"{workload:16s} image SHA-256    "
                  f"{'identical' if exact else 'different'}"
                  f"{': regressed' if same_tree and not exact else ''}")
    return 1 if regressed else 0


# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=list(WORKLOADS),
        help="may be repeated; default: all five",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float,
        help="measured time per workload (default: BENCHMARK.json's "
        "run_seconds; with --smoke 0, which makes one repetition)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, same code paths and checks; not for reporting",
    )
    parser.add_argument(
        "--output",
        help="write every repetition's numbers here, for `compare`; with "
        "--trace 1 also OUT.<workload>.spans.jsonl",
    )
    parser.add_argument(
        "--inject-fault", action="store_true",
        help="corrupt one read-back check per pass (for the self-tests)",
    )
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = 0 if args.smoke else manifest["run_seconds"]
    options = ["--smoke"] * args.smoke + ["--inject-fault"] * args.inject_fault
    document = {
        "seed": args.seed, "smoke": args.smoke, "trace": args.trace,
        "seconds": seconds, "workloads": {},
    }
    failed = 0
    for workload in args.workload or list(WORKLOADS):
        spans_out = (
            f"{args.output}.{workload}.spans.jsonl"
            if args.output and args.trace else None
        )
        result = run_workload(
            workload, args.seed, seconds, args.trace, options, spans_out
        )
        print_workload(workload, result, args.trace)
        document["workloads"][workload] = result
        failed += result["failed"]
    if args.output:
        document["tree_sha"] = tree_sha()
        Path(args.output).write_text(json.dumps(document, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
