"""Public API contract.

Downstream users import from ``repro`` directly; these tests pin the
exported surface so refactors cannot silently break it.
"""

import dataclasses

import pytest

import repro
from repro.cluster.config import ClusterConfig, MigrationSpec
from repro.ffs.config import FfsConfig
from repro.lfs.config import LfsConfig
from repro.service.config import ServiceConfig


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_entry_points(self):
        assert callable(repro.make_lfs)
        assert callable(repro.make_ffs)
        assert callable(repro.fsck)
        assert repro.LogStructuredFS.mkfs
        assert repro.LogStructuredFS.mount
        assert repro.FastFileSystem.mkfs
        assert repro.FastFileSystem.mount

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_lfs_package_exports(self):
        from repro import lfs

        for name in lfs.__all__:
            assert hasattr(lfs, name), name

    def test_paper_constants_exposed(self):
        # The WREN IV is the paper's disk; its parameters are public.
        assert repro.WREN_IV.bandwidth == pytest.approx(1.3 * 1024 * 1024)


class TestConvenienceConstructors:
    def test_make_lfs_wires_simulation(self):
        fs = repro.make_lfs(total_bytes=32 * 1024 * 1024)
        assert fs.clock is fs.cpu.clock
        assert fs.disk.clock is fs.clock
        fs.write_file("/x", b"api")
        assert fs.read_file("/x") == b"api"

    def test_make_ffs_wires_simulation(self):
        fs = repro.make_ffs(total_bytes=32 * 1024 * 1024)
        fs.write_file("/x", b"api")
        assert fs.read_file("/x") == b"api"

    def test_make_lfs_speed_factor(self):
        fs = repro.make_lfs(
            total_bytes=32 * 1024 * 1024, speed_factor=4.0
        )
        assert fs.cpu.speed_factor == 4.0

    def test_make_lfs_custom_config(self):
        config = repro.LfsConfig(segment_size=512 * 1024)
        fs = repro.make_lfs(total_bytes=32 * 1024 * 1024, config=config)
        assert fs.config.segment_size == 512 * 1024

    def test_trace_attachment(self):
        from repro.obs import Telemetry

        telemetry = Telemetry(trace_io=True)
        fs = repro.make_lfs(total_bytes=32 * 1024 * 1024, telemetry=telemetry)
        fs.write_file("/x", b"t" * 5000)
        fs.sync()
        assert telemetry.tracer.by_kind("disk.write")


class TestStorageManagerContract:
    def test_both_systems_satisfy_abc(self):
        lfs = repro.make_lfs(total_bytes=32 * 1024 * 1024)
        ffs = repro.make_ffs(total_bytes=32 * 1024 * 1024)
        assert isinstance(lfs, repro.StorageManager)
        assert isinstance(ffs, repro.StorageManager)

    def test_abstract_methods_all_implemented(self):
        import inspect

        abstract = {
            name
            for name, member in inspect.getmembers(repro.StorageManager)
            if getattr(member, "__isabstractmethod__", False)
        }
        for cls in (repro.LogStructuredFS, repro.FastFileSystem):
            for name in abstract:
                member = getattr(cls, name)
                assert not getattr(
                    member, "__isabstractmethod__", False
                ), f"{cls.__name__}.{name} left abstract"


class TestConfigSurfaces:
    def test_every_config_field_is_listed_here(self):
        # Each field is a knob some caller outside the tests sets, or
        # on-disk format; a parameter the paper fixes is a module
        # constant instead.  Adding a field means editing this test.
        surfaces = {
            cls.__name__: tuple(f.name for f in dataclasses.fields(cls))
            for cls in (
                LfsConfig,
                FfsConfig,
                ServiceConfig,
                ClusterConfig,
                MigrationSpec,
            )
        }
        assert surfaces == {
            "LfsConfig": (
                "block_size",
                "segment_size",
                "cache_bytes",
                "max_inodes",
                "cleaner_policy",
                "roll_forward",
            ),
            "FfsConfig": (
                "block_size",
                "cg_bytes",
                "inodes_per_cg",
                "maxbpg",
                "cache_bytes",
                "synchronous_metadata",
            ),
            "ServiceConfig": (
                "num_clients",
                "seed",
                "requests_per_client",
                "reserve_watermark",
                "fill_fraction",
                "fragment_every",
            ),
            "ClusterConfig": (
                "shards",
                "clients",
                "seed",
                "requests_per_client",
                "migrations",
            ),
            "MigrationSpec": ("source", "target", "at"),
        }
