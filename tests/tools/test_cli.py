"""End-to-end tests for the command-line interface."""

import io
import sys

import pytest

from repro.cli import main


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

    def test_size_parsing(self, image):
        code, out = run_cli(["mkfs", image, "--size", "32M"])
        assert code == 0
        assert str(32 * 1024 * 1024) in out


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
