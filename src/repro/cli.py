"""Command-line interface: ``python -m repro <command> ...``.

Device images are ordinary host files (see
:meth:`repro.disk.device.SectorDevice.save`), so you can format an
image, write files into it, crash it, fsck or roll it forward, and
inspect the raw on-disk structures — a miniature of the workflow the
paper's systems supported.

Commands::

    mkfs IMAGE --fs {lfs,ffs} --size 64M      format a new image
    ls IMAGE [PATH]                           list a directory
    write IMAGE PATH < stdin                  write a file from stdin
    cat IMAGE PATH                            print a file
    rm IMAGE PATH                             delete a file
    mkdir IMAGE PATH                          create a directory
    inspect IMAGE                             dump on-disk structures
    fsck IMAGE                                check/repair an FFS image
    fig {1,3,4,5,scaling,recovery}            run a paper experiment
    stats IMAGE                               mount with telemetry, report
    stats A.jsonl B.jsonl ...                 merge exported telemetry
                                              streams and report
    crashtest --trials N --seed S             crash+corruption campaign
    chaos --trials N --seed S --clients C     crash-under-load campaign with
                                              durability-contract checking
    serve-sim --clients N --seed S            multi-client service sim
    cluster-sim --shards S --clients N        sharded scale-out run with
                                              optional live migration
                                              (--migrate SRC:DST@T)
    trace --clients N --seed S                traced service run + latency
                                              attribution (BENCH_trace.json)
    sweep [--jobs N]                          service + cluster scaling
                                              sweeps (BENCH_service.json)

``fig --telemetry out.jsonl`` records the experiment's metrics and
spans (see :mod:`repro.obs`) and writes them as JSONL for offline
analysis.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.disk.device import SectorDevice
from repro.errors import ReproError
from repro.ffs.fsck import fsck as run_fsck
from repro.rig import new_rig
from repro.tools.inspect import describe_image, identify
from repro.units import KIB, MIB


def _parse_size(text: str) -> int:
    text = text.strip().upper()
    multiplier = 1
    if text.endswith("K"):
        multiplier, text = KIB, text[:-1]
    elif text.endswith("M"):
        multiplier, text = MIB, text[:-1]
    elif text.endswith("G"):
        multiplier, text = 1024 * MIB, text[:-1]
    try:
        return int(text) * multiplier
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad size: {text!r}") from exc


def _open_image(path: str, telemetry=None, readahead: int = 0):
    """Load an image and mount whatever file system it holds.

    Images load onto a :class:`FaultyDevice` with a no-fault injector:
    behavior is identical to a plain ``SectorDevice``, but the
    ``disk.fault.*`` counter series registers, so telemetry reports
    (``repro stats``) always show the fault channel — normally at zero.

    Every invocation starts a fresh clock at zero, while an LFS mount
    trusts the checkpoint region with the later *timestamp*: the clock
    is moved up to the mounted checkpoint's time, so the checkpoint this
    invocation writes is the newest on the image.
    """
    from repro.faults import FaultInjector, FaultyDevice
    from repro.ffs.config import FfsConfig
    from repro.lfs.config import LfsConfig

    device = FaultyDevice.load(path)
    device.injector = FaultInjector(telemetry=telemetry)
    kind = identify(device)
    if kind not in ("lfs", "ffs"):
        raise ReproError(f"{path!r} holds no recognizable file system")
    rig = new_rig(
        kind,
        total_bytes=device.total_bytes,
        lfs_config=LfsConfig(readahead_blocks=readahead),
        ffs_config=FfsConfig(readahead_blocks=readahead),
        telemetry=telemetry,
        device=device,
        mount=True,
    )
    if kind == "lfs":
        rig.clock.advance_to(rig.fs.checkpoints.last_checkpoint_time)
    return rig.fs, device


def cmd_mkfs(args) -> int:
    rig = new_rig(args.fs, total_bytes=args.size)
    rig.fs.unmount()
    rig.disk.device.save(args.image)
    print(f"formatted {args.image}: {args.fs} on {args.size} bytes")
    return 0


def cmd_ls(args) -> int:
    fs, _device = _open_image(args.image)
    for name in fs.listdir(args.path):
        stat = fs.stat(f"{args.path.rstrip('/')}/{name}")
        kind = "d" if stat.is_dir else "-"
        print(f"{kind} {stat.size:>10}  {name}")
    return 0


def cmd_write(args) -> int:
    fs, device = _open_image(args.image)
    data = sys.stdin.buffer.read()
    fs.write_file(args.path, data)
    fs.unmount()
    device.save(args.image)
    print(f"wrote {len(data)} bytes to {args.path}")
    return 0


def cmd_cat(args) -> int:
    fs, _device = _open_image(args.image)
    data = fs.read_file(args.path)
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is not None:
        buffer.write(data)
    else:  # stdout replaced by a text stream (tests, pipes)
        sys.stdout.write(data.decode("utf-8", "replace"))
    return 0


def cmd_rm(args) -> int:
    fs, device = _open_image(args.image)
    fs.unlink(args.path)
    fs.unmount()
    device.save(args.image)
    return 0


def cmd_mkdir(args) -> int:
    fs, device = _open_image(args.image)
    fs.mkdir(args.path)
    fs.unmount()
    device.save(args.image)
    return 0


def cmd_inspect(args) -> int:
    device = SectorDevice.load(args.image)
    print(describe_image(device))
    return 0


def cmd_fsck(args) -> int:
    device = SectorDevice.load(args.image)
    if identify(device) != "ffs":
        print("fsck only applies to FFS images (LFS recovers at mount)")
        return 1
    rig = new_rig(None, total_bytes=device.total_bytes, device=device)
    report = run_fsck(rig.disk)
    print(
        f"fsck: {report.inodes_scanned} inodes scanned, "
        f"{report.repairs()} repairs, "
        f"{report.duration_seconds:.3f}s simulated"
    )
    device.save(args.image)
    return 0 if report.clean or report.repairs() else 1


def cmd_verify(args) -> int:
    device = SectorDevice.load(args.image)
    kind = identify(device)
    if kind == "lfs":
        from repro.lfs.verify import verify_lfs

        report = verify_lfs(device)
        print(
            f"verify: {report.inodes_checked} inodes, "
            f"{report.blocks_checked} blocks, "
            f"{report.directories_checked} directories checked"
        )
        for error in report.errors:
            print(f"  INCONSISTENT: {error}")
        print("clean" if report.consistent else f"{len(report.errors)} errors")
        return 0 if report.consistent else 1
    if kind == "ffs":
        print("use 'fsck' for FFS images")
        return 1
    print("unrecognized image")
    return 1


def cmd_fig(args) -> int:
    from repro.analysis.report import Table
    from repro.harness import (
        fig1_fig2_creation_traces,
        fig3_small_file,
        fig4_large_file,
        fig5_cleaning_rate,
        recovery_comparison,
        sec31_cpu_scaling,
    )
    from repro.lfs.config import LfsConfig
    from repro.obs import Telemetry, export_jsonl
    from repro.workloads.largefile import PHASES

    telemetry = Telemetry() if args.telemetry else None
    which = args.which
    if which == "1":
        for kind, trace in fig1_fig2_creation_traces(
            telemetry=telemetry
        ).items():
            print(f"--- {kind}: {trace.write_requests} writes "
                  f"({trace.sync_writes} sync) ---")
            print(trace.table)
    elif which == "3":
        results = fig3_small_file(
            num_files=1000, total_bytes=128 * MIB, telemetry=telemetry
        )
        table = Table(["system", "create/s", "read/s", "delete/s"])
        for kind, r in results.items():
            table.row(kind, r.create_per_second, r.read_per_second,
                      r.delete_per_second)
        print(table.render())
    elif which == "4":
        results = fig4_large_file(
            file_bytes=10 * MIB, total_bytes=128 * MIB, telemetry=telemetry
        )
        table = Table(["phase", "lfs KB/s", "ffs KB/s"])
        for phase in PHASES:
            table.row(phase, results["lfs"].kb_per_second(phase),
                      results["ffs"].kb_per_second(phase))
        print(table.render())
    elif which == "5":
        seg = LfsConfig().segment_size
        table = Table(["utilization", "KB/s cleaned", "model KB/s"])
        for point, model in fig5_cleaning_rate(
            (0.0, 0.2, 0.4, 0.6, 0.8),
            total_bytes=96 * MIB,
            fill_segments=12,
            telemetry=telemetry,
        ):
            table.row(point.target_utilization,
                      point.clean_kb_per_second(seg), model)
        print(table.render())
    elif which == "scaling":
        table = Table(["cpu", "lfs ms/op", "ffs ms/op"])
        for point in sec31_cpu_scaling(
            (1.0, 4.0, 16.0), num_files=100, telemetry=telemetry
        ):
            table.row(f"{point.speed_factor:.0f}x",
                      point.lfs_ms_per_create_delete,
                      point.ffs_ms_per_create_delete)
        print(table.render())
    elif which == "recovery":
        table = Table(["files", "lfs recovery s", "ffs fsck s"])
        for point in recovery_comparison(
            (100, 400), total_bytes=96 * MIB, telemetry=telemetry
        ):
            table.row(point.num_files, point.lfs_recovery_seconds,
                      point.ffs_fsck_seconds)
        print(table.render())
    if telemetry is not None:
        lines = export_jsonl(telemetry, args.telemetry)
        print(f"telemetry: {lines} records -> {args.telemetry}")
    return 0


def _exercise_reads(fs, pattern: str, chunk_blocks: int = 4) -> int:
    """Read every regular file in the image (recursively).

    ``seq-read`` reads each file front to back in small chunks — the
    access pattern the readahead pipeline detects; ``random-read``
    touches the same chunks in a seeded-random order, which must never
    trigger readahead (``cache.readahead_hits`` stays 0).
    """
    import random as _random

    rng = _random.Random(0)
    chunk = chunk_blocks * fs.block_size
    total = 0

    def walk(path: str) -> None:
        nonlocal total
        for name in fs.listdir(path):
            child = f"{path.rstrip('/')}/{name}"
            stat = fs.stat(child)
            if stat.is_dir:
                walk(child)
                continue
            offsets = list(range(0, max(stat.size, 1), chunk))
            if pattern == "random-read":
                rng.shuffle(offsets)
            with fs.open(child) as handle:
                for offset in offsets:
                    total += len(handle.pread(offset, chunk))

    walk("/")
    return total


def cmd_stats(args) -> int:
    from repro.obs import (
        Telemetry,
        export_jsonl,
        merge_jsonl_files,
        render_report,
    )

    if all(path.endswith(".jsonl") for path in args.inputs):
        # Telemetry-stream mode: fold one or more exported JSONL
        # streams (one per shard rig, say) into a single report — the
        # same merge arithmetic the parallel runner uses.
        merged = merge_jsonl_files(args.inputs)
        title = ", ".join(args.inputs)
        print(render_report(merged, title=f"merged {title}"))
        if args.telemetry:
            lines = export_jsonl(merged, args.telemetry)
            print(f"telemetry: {lines} records -> {args.telemetry}")
        return 0
    if len(args.inputs) != 1:
        raise ReproError(
            "stats takes either one device image or telemetry .jsonl "
            "files (all arguments must end in .jsonl to merge)"
        )
    image = args.inputs[0]
    telemetry = Telemetry()
    # Readahead is armed for either exercise pattern: the point of the
    # random-read leg is that the policy itself declines to prefetch
    # (cache.readahead_hits stays 0), not that it was switched off.
    readahead = args.readahead if args.exercise else 0
    fs, _device = _open_image(
        image, telemetry=telemetry, readahead=readahead
    )
    if args.exercise:
        nbytes = _exercise_reads(fs, args.exercise)
        print(f"exercised {args.exercise}: {nbytes} bytes read")
    print(render_report(telemetry, title=f"mount {image}"))
    print("-- disk --")
    print(f"  {fs.disk.stats.summary()}")
    if args.telemetry:
        lines = export_jsonl(telemetry, args.telemetry)
        print(f"telemetry: {lines} records -> {args.telemetry}")
    return 0


def cmd_crashtest(args) -> int:
    from repro.faults import run_campaign
    from repro.obs import Telemetry, export_jsonl

    telemetry = Telemetry() if args.telemetry else None
    report = run_campaign(
        trials=args.trials,
        seed=args.seed,
        telemetry=telemetry,
        device_bytes=args.size,
        log=print if args.verbose else None,
        jobs=args.jobs,
    )
    print(report.render())
    if telemetry is not None:
        lines = export_jsonl(telemetry, args.telemetry)
        print(f"telemetry: {lines} records -> {args.telemetry}")
    return 0 if report.survived_all else 1


def cmd_chaos(args) -> int:
    from repro.faults.chaos import run_chaos_campaign
    from repro.obs import Telemetry, export_jsonl

    telemetry = Telemetry() if args.telemetry else None
    report = run_chaos_campaign(
        trials=args.trials,
        seed=args.seed,
        clients=args.clients,
        requests_per_client=args.requests_per_client,
        telemetry=telemetry,
        device_bytes=args.size,
        log=print if args.verbose else None,
        jobs=args.jobs,
    )
    print(report.render())
    if telemetry is not None:
        lines = export_jsonl(telemetry, args.telemetry)
        print(f"telemetry: {lines} records -> {args.telemetry}")
    return 0 if report.passed_all else 1


def cmd_serve_sim(args) -> int:
    from repro.obs import Telemetry, export_jsonl
    from repro.service import ServiceConfig, simulate_service

    telemetry = Telemetry() if args.telemetry else None
    config = ServiceConfig(
        num_clients=args.clients,
        seed=args.seed,
        requests_per_client=args.requests_per_client,
        commit_window=args.commit_window,
        fill_fraction=args.fill,
    )
    stats, fs = simulate_service(
        config, total_bytes=args.size, telemetry=telemetry
    )
    fs.unmount()
    print(stats.render(f"serve-sim clients={args.clients} seed={args.seed}"))
    wamp = fs.wamp_report()
    print(
        f"write amplification        "
        f"{wamp['write_amplification']:.4f} "
        f"(user={wamp['user_bytes']} log={wamp['log_bytes']} "
        f"cleaner={wamp['cleaner_bytes']})"
    )
    if args.image:
        fs.disk.device.save(args.image)
        print(f"image -> {args.image}")
    if telemetry is not None:
        lines = export_jsonl(telemetry, args.telemetry)
        print(f"telemetry: {lines} records -> {args.telemetry}")
    return 1 if stats.dropped else 0


def _parse_migration(text: str):
    """``SRC:DST@T`` -> :class:`repro.cluster.MigrationSpec`."""
    from repro.cluster import MigrationSpec

    try:
        pair, at = text.split("@", 1)
        source, target = pair.split(":", 1)
        return MigrationSpec(int(source), int(target), float(at))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad migration {text!r} (want SRC:DST@T, e.g. 2:0@0.05)"
        ) from exc


def cmd_cluster_sim(args) -> int:
    from repro.cluster import ClusterConfig, run_cluster
    from repro.obs import export_jsonl, render_report

    config = ClusterConfig(
        shards=args.shards,
        clients=args.clients,
        seed=args.seed,
        requests_per_client=args.requests_per_client,
        placement=args.placement,
        migrations=tuple(args.migrate or ()),
    )
    result = run_cluster(
        config, jobs=args.jobs, total_bytes=args.size
    )
    print(result.render())
    if args.stats:
        print(render_report(result.telemetry, title="cluster telemetry"))
    if args.telemetry:
        lines = export_jsonl(result.telemetry, args.telemetry)
        print(f"telemetry: {lines} records -> {args.telemetry}")
    return 0 if result.consistent else 1


def _write_report(report, path: str) -> None:
    """Write a committed report (``BENCH_trace.json``,
    ``BENCH_service.json``): sorted keys, two-space indent and a final
    newline, so a regenerated report diffs byte for byte."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_trace(args) -> int:
    from repro.obs import Telemetry, export_jsonl
    from repro.obs.attribution import (
        build_trace_report,
        render_trace_report,
    )
    from repro.service import ServiceConfig, simulate_service

    telemetry = Telemetry(trace_io=args.trace_io)
    config = ServiceConfig(
        num_clients=args.clients,
        seed=args.seed,
        requests_per_client=args.requests_per_client,
        commit_window=args.commit_window,
        fill_fraction=args.fill,
    )
    stats, fs = simulate_service(
        config, total_bytes=args.size, telemetry=telemetry
    )
    fs.unmount()
    report = build_trace_report(
        telemetry,
        fs=fs,
        config={
            "clients": args.clients,
            "seed": args.seed,
            "requests_per_client": args.requests_per_client,
            "commit_window": args.commit_window,
            "fill_fraction": args.fill,
            "trace_io": bool(args.trace_io),
        },
    )
    _write_report(report, args.output)
    print(render_trace_report(report))
    print(f"trace report -> {args.output}")
    if args.export:
        lines = export_jsonl(telemetry, args.export)
        print(f"trace export: {lines} records -> {args.export}")
    return 1 if stats.dropped else 0


def cmd_sweep(args) -> int:
    from repro.cluster import bench as cluster_bench
    from repro.service import bench as service_bench

    points = service_bench.run_sweep(
        service_bench.REQUESTS_PER_CLIENT, jobs=args.jobs
    )
    for point in points:
        print(
            f"clients={point['clients']:>3}: "
            f"{point['throughput_per_second']:>8.1f} req/s, "
            f"p99 {point['latency_p99_seconds'] * 1000:>9.3f} ms, "
            f"batch mean {point['commit_batch_mean']:.2f}"
        )
    rows = cluster_bench.run_sweep(jobs=args.jobs)
    for row in rows:
        print(
            f"shards={row['shards']:>3} clients={row['clients']:>4}: "
            f"{row['throughput_per_second']:>8.1f} req/s, "
            f"p99 {row['latency_p99_seconds'] * 1000:>9.3f} ms"
        )
    report = {
        "benchmark": "service_scaling",
        "seed": service_bench.SEED,
        "requests_per_client": service_bench.REQUESTS_PER_CLIENT,
        "points": points,
        "cluster": {
            "seed": cluster_bench.SEED,
            "requests_per_client": cluster_bench.REQUESTS_PER_CLIENT,
            "points": rows,
        },
    }
    _write_report(report, args.output)
    print(f"sweep report -> {args.output}")

    failures = cluster_bench.scale_gate(rows)
    dropped = sum(int(point["dropped"]) for point in points)
    if dropped:
        failures.append(f"{dropped} dropped request(s)")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LFS Storage Manager reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mkfs", help="format a new device image")
    p.add_argument("image")
    p.add_argument("--fs", choices=("lfs", "ffs"), default="lfs")
    p.add_argument("--size", type=_parse_size, default=64 * MIB)
    p.set_defaults(func=cmd_mkfs)

    p = sub.add_parser("ls", help="list a directory")
    p.add_argument("image")
    p.add_argument("path", nargs="?", default="/")
    p.set_defaults(func=cmd_ls)

    p = sub.add_parser("write", help="write stdin to a file in the image")
    p.add_argument("image")
    p.add_argument("path")
    p.set_defaults(func=cmd_write)

    p = sub.add_parser("cat", help="print a file from the image")
    p.add_argument("image")
    p.add_argument("path")
    p.set_defaults(func=cmd_cat)

    p = sub.add_parser("rm", help="remove a file")
    p.add_argument("image")
    p.add_argument("path")
    p.set_defaults(func=cmd_rm)

    p = sub.add_parser("mkdir", help="create a directory")
    p.add_argument("image")
    p.add_argument("path")
    p.set_defaults(func=cmd_mkdir)

    p = sub.add_parser("inspect", help="dump on-disk structures")
    p.add_argument("image")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("fsck", help="check/repair an FFS image")
    p.add_argument("image")
    p.set_defaults(func=cmd_fsck)

    p = sub.add_parser("verify", help="offline consistency check (LFS)")
    p.add_argument("image")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fig", help="run a paper experiment (reduced scale)")
    p.add_argument(
        "which", choices=("1", "3", "4", "5", "scaling", "recovery")
    )
    p.add_argument(
        "--telemetry",
        metavar="OUT.JSONL",
        help="record metrics and spans; write them as JSONL here",
    )
    p.set_defaults(func=cmd_fig)

    p = sub.add_parser(
        "stats",
        help="mount an image with telemetry on and report, or merge "
        "exported telemetry .jsonl streams and report",
    )
    p.add_argument(
        "inputs",
        nargs="+",
        metavar="IMAGE | JSONL...",
        help="one device image, or one or more exported telemetry "
        ".jsonl streams to merge",
    )
    p.add_argument(
        "--exercise",
        choices=("seq-read", "random-read"),
        help="read every file in this pattern (readahead armed) before "
        "reporting, so cache.readahead_* series show real traffic",
    )
    p.add_argument(
        "--readahead",
        type=int,
        default=16,
        metavar="BLOCKS",
        help="readahead window used with --exercise (default 16)",
    )
    p.add_argument(
        "--telemetry",
        metavar="OUT.JSONL",
        help="also write the raw metrics/spans as JSONL here",
    )
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "crashtest",
        help="run a seeded crash+corruption campaign and report survival",
    )
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=_parse_size, default=24 * MIB)
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the trials (report is byte-identical "
        "for any value)",
    )
    p.add_argument(
        "--verbose", action="store_true", help="print a line per trial"
    )
    p.add_argument(
        "--telemetry",
        metavar="OUT.JSONL",
        help="record campaign metrics/spans; write them as JSONL here",
    )
    p.set_defaults(func=cmd_crashtest)

    p = sub.add_parser(
        "chaos",
        help="crash a loaded service rig at adversarial instants and "
        "check the durability contract after every remount",
    )
    p.add_argument("--trials", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clients", type=int, default=8)
    p.add_argument("--requests-per-client", type=int, default=80)
    p.add_argument("--size", type=_parse_size, default=32 * MIB)
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the trials (report is byte-identical "
        "for any value)",
    )
    p.add_argument(
        "--verbose", action="store_true", help="print a line per trial"
    )
    p.add_argument(
        "--telemetry",
        metavar="OUT.JSONL",
        help="record campaign metrics/spans; write them as JSONL here",
    )
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "serve-sim",
        help="run the multi-client service simulation and report",
    )
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--requests-per-client", type=int, default=100)
    p.add_argument(
        "--commit-window",
        type=float,
        default=0.01,
        help="group-commit window in simulated seconds",
    )
    p.add_argument(
        "--fill",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="pre-fill the log to this fraction of serviceable capacity",
    )
    p.add_argument("--size", type=_parse_size, default=64 * MIB)
    p.add_argument(
        "--image",
        metavar="OUT.IMG",
        help="save the post-run device image here",
    )
    p.add_argument(
        "--telemetry",
        metavar="OUT.JSONL",
        help="record service metrics/spans; write them as JSONL here",
    )
    p.set_defaults(func=cmd_serve_sim)

    p = sub.add_parser(
        "cluster-sim",
        help="run the sharded scale-out simulation: a router over N "
        "LFS volumes, optional live shard migration",
    )
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--clients", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--requests-per-client", type=int, default=40)
    p.add_argument(
        "--placement",
        choices=("hash", "prefix"),
        default="hash",
        help="client->shard placement policy (default hash ring)",
    )
    p.add_argument(
        "--migrate",
        type=_parse_migration,
        action="append",
        metavar="SRC:DST@T",
        help="migrate shard SRC's clients onto shard DST starting T "
        "simulated seconds into the run (repeatable)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the shard groups (output is "
        "byte-identical for any value)",
    )
    p.add_argument("--size", type=_parse_size, default=64 * MIB)
    p.add_argument(
        "--stats",
        action="store_true",
        help="also print the merged cluster telemetry report",
    )
    p.add_argument(
        "--telemetry",
        metavar="OUT.JSONL",
        help="write the merged cluster metrics as JSONL here",
    )
    p.set_defaults(func=cmd_cluster_sim)

    p = sub.add_parser(
        "trace",
        help="run a traced service simulation and write the latency "
        "attribution report (BENCH_trace.json)",
    )
    p.add_argument("--clients", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--requests-per-client", type=int, default=100)
    p.add_argument(
        "--commit-window",
        type=float,
        default=0.01,
        help="group-commit window in simulated seconds",
    )
    p.add_argument(
        "--fill",
        type=float,
        default=0.85,
        metavar="FRACTION",
        help="pre-fill the log to this fraction of serviceable capacity "
        "(the default engages the cleaner, so throttle attribution and "
        "cleaner-copied bytes are exercised)",
    )
    p.add_argument("--size", type=_parse_size, default=64 * MIB)
    p.add_argument(
        "--output",
        default="BENCH_trace.json",
        metavar="OUT.JSON",
        help="where to write the attribution report",
    )
    p.add_argument(
        "--export",
        metavar="OUT.JSONL",
        help="also write the raw trace tree (metrics + spans) as JSONL",
    )
    p.add_argument(
        "--trace-io",
        action="store_true",
        help="record a span per disk request (finer tree, bigger export)",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "sweep",
        help="run the service and cluster scaling sweeps and write the "
        "report (BENCH_service.json)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sweep points and shard groups "
        "(report is byte-identical for any value)",
    )
    p.add_argument(
        "--output",
        default="BENCH_service.json",
        metavar="OUT.JSON",
        help="where to write the sweep report",
    )
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
