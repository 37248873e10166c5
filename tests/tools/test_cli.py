"""End-to-end tests for the command-line interface."""

import io
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.units import MIB


@pytest.fixture
def image(tmp_path):
    return str(tmp_path / "disk.img")


def run_cli(argv, stdin: bytes = b"") -> "tuple[int, str]":
    old_stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin))
    try:
        import contextlib

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        return code, out.getvalue()
    finally:
        sys.stdin = old_stdin


class TestMkfsAndBasicOps:
    @pytest.mark.parametrize("fs_kind", ["lfs", "ffs"])
    def test_full_file_lifecycle(self, image, fs_kind):
        code, _out = run_cli(
            ["mkfs", image, "--fs", fs_kind, "--size", "48M"]
        )
        assert code == 0

        code, _out = run_cli(["mkdir", image, "/docs"])
        assert code == 0

        code, _out = run_cli(
            ["write", image, "/docs/hello.txt"], stdin=b"hello, image!"
        )
        assert code == 0

        code, out = run_cli(["ls", image, "/docs"])
        assert code == 0
        assert "hello.txt" in out

        code, out = run_cli(["cat", image, "/docs/hello.txt"])
        assert code == 0

        code, _out = run_cli(["rm", image, "/docs/hello.txt"])
        assert code == 0
        code, out = run_cli(["ls", image, "/docs"])
        assert "hello.txt" not in out

    def test_cat_roundtrip_bytes(self, image, capfdbinary):
        run_cli(["mkfs", image, "--size", "48M"])
        payload = bytes(range(256)) * 3
        run_cli(["write", image, "/bin.dat"], stdin=payload)
        # cat writes raw bytes to the real stdout buffer.
        code = main(["cat", image, "/bin.dat"])
        assert code == 0
        captured = capfdbinary.readouterr()
        assert payload in captured.out

    @pytest.mark.parametrize(
        "text, size",
        [("32M", 32 << 20), ("32MiB", 32 << 20), ("32mib", 32 << 20),
         ("1GiB", 1 << 30), ("512KiB", 512 << 10), ("4096", 4096)],
    )
    def test_size_spellings(self, text, size):
        args = build_parser().parse_args(["mkfs", "x.img", "--size", text])
        assert args.size == size

    def test_bad_size_error_quotes_the_input(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["mkfs", "x.img", "--size", "16mb"])
        assert exit_info.value.code == 2
        assert "bad size: '16mb'" in capsys.readouterr().err

    def test_size_parsing(self, image):
        code, out = run_cli(["mkfs", image, "--size", "32M"])
        assert code == 0
        assert str(32 * 1024 * 1024) in out


class TestCountFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["crashtest", "--trials", "0"],
            ["chaos", "--trials", "0"],
            ["crashtest", "--jobs", "0"],
            ["chaos", "--jobs", "-1"],
            ["cluster-sim", "--jobs", "0"],
            ["sweep", "--jobs", "0"],
            ["crashtest", "--trials", "ten"],
        ],
    )
    def test_count_below_one_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "want an integer >= 1" in capsys.readouterr().err


REPO = Path(__file__).resolve().parents[2]
# ``python -m repro ARGS`` or ``$(PYTHON) -m repro ARGS``, up to the end
# of the line, an inline-code span's closing backtick, a comment or a
# shell operator.
INVOCATION = re.compile(
    r"(?:python3?|\$\(PYTHON\))\s+-m\s+repro[ \t]+([^\n`#|<>;&]*)"
)


def documented_command_lines(path: Path):
    text = re.sub(r"\\\n\s*", " ", path.read_text(encoding="utf-8"))
    return [shlex.split(args) for args in INVOCATION.findall(text)]


class TestDocumentedCommandLines:
    """Every ``repro`` command line the docs, Makefile and CI spell out
    parses, so none of them names a removed command or flag."""

    @pytest.mark.parametrize(
        "doc",
        [
            "README.md",
            "Makefile",
            ".github/workflows/ci.yml",
            ".claude/skills/verify/SKILL.md",
        ],
    )
    def test_every_command_line_parses(self, doc, capsys):
        lines = documented_command_lines(REPO / doc)
        assert lines, f"no repro command line found in {doc}"
        failures = []
        for argv in lines:
            try:
                build_parser().parse_args(argv)
            except SystemExit:
                err = capsys.readouterr().err.strip().splitlines()
                failures.append(f"repro {shlex.join(argv)}: {err[-1]}")
        assert not failures, "\n".join(failures)


class TestInspect:
    def test_inspect_lfs(self, image):
        run_cli(["mkfs", image, "--fs", "lfs", "--size", "48M"])
        code, out = run_cli(["inspect", image])
        assert code == 0
        assert "LFS image" in out

    def test_inspect_ffs(self, image):
        run_cli(["mkfs", image, "--fs", "ffs", "--size", "48M"])
        code, out = run_cli(["inspect", image])
        assert code == 0
        assert "FFS image" in out

    def test_inspect_garbage(self, tmp_path):
        path = str(tmp_path / "junk.img")
        with open(path, "wb") as handle:
            handle.write(b"\x00" * 4096)
        code, out = run_cli(["inspect", path])
        assert code == 0
        assert "unrecognized" in out


class TestFsck:
    def test_fsck_clean_ffs(self, image):
        run_cli(["mkfs", image, "--fs", "ffs", "--size", "48M"])
        code, out = run_cli(["fsck", image])
        assert "inodes scanned" in out

    def test_fsck_rejects_lfs(self, image):
        run_cli(["mkfs", image, "--fs", "lfs", "--size", "48M"])
        code, out = run_cli(["fsck", image])
        assert code == 1


class TestVerify:
    def test_verify_clean_lfs(self, image):
        run_cli(["mkfs", image, "--fs", "lfs", "--size", "48M"])
        run_cli(["write", image, "/f"], stdin=b"verified" * 100)
        code, out = run_cli(["verify", image])
        assert code == 0
        assert "clean" in out

    def test_verify_rejects_ffs(self, image):
        run_cli(["mkfs", image, "--fs", "ffs", "--size", "48M"])
        code, _out = run_cli(["verify", image])
        assert code == 1


class TestFigCommand:
    def test_fig1_prints_traces(self):
        code, out = run_cli(["fig", "1"])
        assert code == 0
        assert "lfs" in out and "ffs" in out
        assert "sector" in out

    def test_fig_scaling_prints_table(self):
        code, out = run_cli(["fig", "scaling"])
        assert code == 0
        assert "lfs ms/op" in out
        assert "16x" in out

    def test_unknown_fig_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["fig", "99"])


class TestTelemetry:
    def test_fig5_telemetry_export(self, tmp_path):
        """The acceptance bar: the cleaning experiment's JSONL stream
        covers at least 6 metric names and 4 span kinds."""
        from repro.obs import read_jsonl

        out = str(tmp_path / "fig5.jsonl")
        code, stdout = run_cli(["fig", "5", "--telemetry", out])
        assert code == 0
        assert f"-> {out}" in stdout
        records = read_jsonl(out)
        summary = records[-1]
        assert summary["type"] == "summary"
        assert len(summary["metric_names"]) >= 6
        assert len(summary["span_kinds"]) >= 4
        # Every instrumented layer contributes at least one series.
        prefixes = {name.split(".")[0] for name in summary["metric_names"]}
        assert {"disk", "cache", "cleaner", "fs", "checkpoint"} <= prefixes

    def test_stats_command_reports_mount_metrics(self, image, tmp_path):
        from repro.obs import read_jsonl

        run_cli(["mkfs", image, "--fs", "lfs", "--size", "48M"])
        run_cli(["write", image, "/f"], stdin=b"observed" * 64)
        out = str(tmp_path / "stats.jsonl")
        code, stdout = run_cli(["stats", image, "--telemetry", out])
        assert code == 0
        assert f"== mount {image} ==" in stdout
        assert "disk.reads" in stdout
        assert "recovery.roll_forward" in stdout
        assert "-- disk --" in stdout
        records = read_jsonl(out)
        assert records[-1]["type"] == "summary"
        assert "disk.reads" in records[-1]["metric_names"]

    def test_fig_without_flag_writes_no_telemetry(self):
        code, stdout = run_cli(["fig", "1"])
        assert code == 0
        assert "telemetry:" not in stdout


class TestErrors:
    def test_missing_file_error(self, image):
        run_cli(["mkfs", image, "--size", "48M"])
        old_stderr = sys.stderr
        sys.stderr = io.StringIO()
        try:
            code = main(["cat", image, "/no/such/file"])
        finally:
            err = sys.stderr.getvalue()
            sys.stderr = old_stderr
        assert code == 1
        assert "error" in err

    def test_persistence_across_invocations(self, image):
        run_cli(["mkfs", image, "--size", "48M"])
        run_cli(["write", image, "/persist"], stdin=b"durable")
        # A completely fresh process context would reload from the file;
        # here we at least verify the image file itself changed.
        code, out = run_cli(["cat", image, "/persist"])
        assert code == 0

    # Each invocation starts its clock at zero, and an LFS mount picks
    # the checkpoint with the later timestamp: a short second update
    # used to lose to the longer first one.
    @pytest.mark.parametrize(
        "update, listed",
        [(["mkdir", "/d"], ["a", "d"]), (["rm", "/a"], [])],
        ids=["mkdir", "rm"],
    )
    def test_second_update_is_not_lost(self, image, update, listed):
        run_cli(["mkfs", image, "--size", "16M"])
        run_cli(["write", image, "/a"], stdin=b"hi\n")
        command, path = update
        assert run_cli([command, image, path])[0] == 0
        code, out = run_cli(["ls", image, "/"])
        assert code == 0
        assert [line.split()[-1] for line in out.splitlines()] == listed
        code, out = run_cli(["verify", image])
        assert code == 0 and "clean" in out


class TestUnserviceableRigIsRejected:
    """An 11-segment volume cannot hold the cleaner's watermarks; every
    command that boots a serviced rig must refuse it the same way."""

    def _stderr_of(self, argv, capsys):
        code = main(argv)
        return code, capsys.readouterr().err

    def test_cluster_sim_fails_like_serve_sim(self, capsys):
        serve_code, serve_err = self._stderr_of(
            ["serve-sim", "--size", "3M"], capsys
        )
        cluster_code, cluster_err = self._stderr_of(
            [
                "cluster-sim",
                "--shards", "2",
                "--clients", "4",
                "--requests-per-client", "5",
                "--size", "3M",
            ],
            capsys,
        )
        assert serve_code == cluster_code == 1
        assert "invalid rig configuration (2 constraint(s) violated)" in (
            serve_err
        )
        assert "11-segment device" in serve_err
        assert cluster_err == serve_err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--size", "3M"], "11-segment device"),
            (["--clients", "0"], "need at least one client: 0"),
        ],
    )
    def test_chaos_fails_before_running_a_trial(self, flags, message, capsys):
        code = main(["chaos", "--trials", "1", *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert message in captured.err
        assert captured.out == ""


class TestServeSim:
    def test_serve_sim_reports_and_saves_image(self, image, tmp_path):
        code, out = run_cli(
            [
                "serve-sim",
                "--clients", "4",
                "--seed", "5",
                "--requests-per-client", "10",
                "--image", image,
            ]
        )
        assert code == 0
        assert "completed, 0 dropped" in out
        assert "group commit" in out

        # The saved image is a valid, verifiable LFS.
        code, out = run_cli(["verify", image])
        assert code == 0
        assert "clean" in out

    def test_serve_sim_telemetry_export(self, tmp_path):
        out_path = str(tmp_path / "svc.jsonl")
        code, out = run_cli(
            [
                "serve-sim",
                "--clients", "2",
                "--requests-per-client", "5",
                "--telemetry", out_path,
            ]
        )
        assert code == 0
        import json

        names = set()
        with open(out_path) as handle:
            for line in handle:
                names.add(json.loads(line).get("name", ""))
        assert any(name.startswith("service.") for name in names)
        assert "cleaner.clean_reserve" in names


class TestTraceCommand:
    def test_trace_writes_report_with_exact_attribution(self, tmp_path):
        output = str(tmp_path / "trace.json")
        export = str(tmp_path / "trace.jsonl")
        code, out = run_cli(
            [
                "serve-sim",
                "--clients", "4",
                "--requests-per-client", "5",
                "--size", "32M",
                "--report", output,
                "--telemetry", export,
            ]
        )
        assert code == 0
        assert "requests traced" in out
        with open(output) as handle:
            report = json.load(handle)
        assert report["requests"] == 20
        assert report["max_sum_error"] < 1e-9
        assert report["wamp"]["write_amplification"] >= 1.0
        with open(export) as handle:
            lines = handle.read().splitlines()
        assert lines, "JSONL export is empty"
        assert json.loads(lines[-1])["type"] == "summary"


@pytest.fixture
def tiny_sweep(monkeypatch):
    """Shrink every sweep grid so one ``repro sweep`` takes a second."""
    from repro.cluster import bench as cluster_bench
    from repro.service import bench as service_bench

    monkeypatch.setattr(service_bench, "CLIENTS", (1, 2))
    monkeypatch.setattr(service_bench, "REQUESTS_PER_CLIENT", 3)
    monkeypatch.setattr(service_bench, "FILLS", (0.5,))
    monkeypatch.setattr(service_bench, "FILL_SEEDS", (0, 1))
    monkeypatch.setattr(service_bench, "FILL_CLIENTS", 2)
    monkeypatch.setattr(service_bench, "FILL_REQUESTS_PER_CLIENT", 3)
    monkeypatch.setattr(service_bench, "FILL_VOLUME", 16 * MIB)
    monkeypatch.setattr(cluster_bench, "POINTS", ((1, 2), (2, 4)))
    monkeypatch.setattr(cluster_bench, "REQUESTS_PER_CLIENT", 3)
    return service_bench, cluster_bench


class TestSweepCommand:
    def test_one_run_writes_the_whole_report(self, tmp_path, tiny_sweep):
        output = tmp_path / "BENCH_service.json"
        code, out = run_cli(["sweep", "--output", str(output)])
        assert code == 0, out
        report = json.loads(output.read_text())
        assert sorted(report) == [
            "benchmark",
            "cluster",
            "fill",
            "points",
            "requests_per_client",
            "seed",
        ]
        assert report["benchmark"] == "service_scaling"
        assert report["requests_per_client"] == 3
        assert [point["clients"] for point in report["points"]] == [1, 2]
        cluster = report["cluster"]
        assert sorted(cluster) == ["points", "requests_per_client", "seed"]
        assert [
            (row["shards"], row["clients"]) for row in cluster["points"]
        ] == [(1, 2), (2, 4)]
        assert all(row["consistent"] for row in cluster["points"])
        fill = report["fill"]
        assert sorted(fill) == [
            "clients",
            "medians",
            "points",
            "requests_per_client",
            "seeds",
        ]
        assert [
            (point["fill"], point["policy"], point["seed"])
            for point in fill["points"]
        ] == [
            (0.5, "greedy", 0),
            (0.5, "greedy", 1),
            (0.5, "cost-benefit", 0),
            (0.5, "cost-benefit", 1),
        ]
        assert [(row["fill"], row["policy"]) for row in fill["medians"]] == [
            (0.5, "greedy"),
            (0.5, "cost-benefit"),
        ]

    def test_report_is_byte_identical_for_any_jobs(
        self, tmp_path, tiny_sweep
    ):
        serial, parallel = tmp_path / "j1.json", tmp_path / "j2.json"
        assert run_cli(["sweep", "--output", str(serial)])[0] == 0
        code, _out = run_cli(
            ["sweep", "--jobs", "2", "--output", str(parallel)]
        )
        assert code == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_scale_gate_failure_exits_one(
        self, tmp_path, tiny_sweep, monkeypatch
    ):
        _service_bench, cluster_bench = tiny_sweep
        monkeypatch.setattr(
            cluster_bench, "scale_gate", lambda rows: ["too slow"]
        )
        code, out = run_cli(["sweep", "--output", str(tmp_path / "r.json")])
        assert code == 1
        assert "FAIL: too slow" in out

    def test_dropped_request_exits_one(
        self, tmp_path, tiny_sweep, monkeypatch
    ):
        service_bench, _cluster_bench = tiny_sweep
        real_point = service_bench.sweep_point

        def dropping_point(clients, requests_per_client):
            point = real_point(clients, requests_per_client)
            point["dropped"] = 1
            return point

        monkeypatch.setattr(service_bench, "sweep_point", dropping_point)
        code, out = run_cli(["sweep", "--output", str(tmp_path / "r.json")])
        assert code == 1
        assert "FAIL: 2 dropped request(s)" in out

    def test_fill_gate_failure_exits_one(
        self, tmp_path, tiny_sweep, monkeypatch
    ):
        service_bench, _cluster_bench = tiny_sweep
        real_point = service_bench.fill_point

        def costly_default(fill, policy, seed):
            point = real_point(fill, policy, seed)
            if policy == "cost-benefit":
                point["write_amp"] *= 1.02
            return point

        monkeypatch.setattr(service_bench, "fill_point", costly_default)
        code, out = run_cli(["sweep", "--output", str(tmp_path / "r.json")])
        assert code == 1
        assert "FAIL: fill 0.5: cost-benefit write amp" in out
        assert "exceeds 1.01x greedy's" in out

    def test_fill_gate_compares_medians_at_every_fill(self):
        from repro.service.bench import FILL_GATE, fill_gate

        def section(greedy, default, dropped=0):
            return {
                "points": [{"dropped": dropped}],
                "medians": [
                    {"fill": 0.5, "policy": "greedy", "write_amp": 2.0},
                    {"fill": 0.5, "policy": "cost-benefit", "write_amp": 2.0},
                    {"fill": 0.9, "policy": "greedy", "write_amp": greedy},
                    {"fill": 0.9, "policy": "cost-benefit", "write_amp": default},
                ],
            }

        assert fill_gate(section(4.0, 4.0 * FILL_GATE)) == []
        assert fill_gate(section(4.0, 3.0)) == []
        [worse] = fill_gate(section(4.0, 4.1))
        assert worse.startswith("fill 0.9: cost-benefit write amp 4.100")
        [dropped] = fill_gate(section(4.0, 4.0, dropped=2))
        assert "2 dropped" in dropped

    def test_scale_gate_checks_floor_p99_and_verification(self):
        from repro.cluster.bench import SCALE_FLOOR, scale_gate

        def row(shards, tput, p99, consistent=True):
            return {
                "shards": shards,
                "clients": 64,
                "throughput_per_second": tput,
                "latency_p99_seconds": p99,
                "consistent": consistent,
            }

        base = row(1, 60.0, 1.0)
        assert scale_gate([base, row(4, 60.0 * SCALE_FLOOR, 0.5)]) == []
        [slow] = scale_gate([base, row(4, 150.0, 0.5)])
        assert "2.50x" in slow
        [tail] = scale_gate([base, row(4, 300.0, 1.5)])
        assert "exceeds" in tail
        [broken] = scale_gate([row(1, 60.0, 1.0, consistent=False)])
        assert "failed verification" in broken
