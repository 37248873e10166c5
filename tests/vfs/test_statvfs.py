"""Tests for the statvfs capacity report (both systems)."""



class TestStatvfs:
    def test_fresh_fs_mostly_free(self, anyfs):
        info = anyfs.statvfs()
        assert info.total_bytes > 0
        assert info.free_bytes + info.used_bytes == info.total_bytes
        assert info.used_bytes < 0.05 * info.total_bytes
        # Only the root directory exists.
        assert info.used_files == 1

    def test_usage_grows_with_data(self, anyfs):
        before = anyfs.statvfs()
        anyfs.write_file("/f", b"u" * 200_000)
        anyfs.sync()
        after = anyfs.statvfs()
        assert after.used_bytes >= before.used_bytes + 200_000
        assert after.used_files == 2

    def test_usage_shrinks_on_delete(self, anyfs):
        anyfs.write_file("/f", b"u" * 200_000)
        anyfs.sync()
        used = anyfs.statvfs().used_bytes
        anyfs.unlink("/f")
        anyfs.sync()
        assert anyfs.statvfs().used_bytes < used
        assert anyfs.statvfs().used_files == 1

    def test_file_count_tracks_population(self, anyfs):
        for i in range(10):
            anyfs.create(f"/f{i}").close()
        anyfs.mkdir("/d")
        assert anyfs.statvfs().used_files == 12

    def test_total_files_positive(self, anyfs):
        info = anyfs.statvfs()
        assert info.total_files > info.used_files

    def test_dirty_cache_counts_as_used_in_lfs(self, lfs):
        lfs.write_file("/pending", b"p" * 100_000)  # still in cache
        info = lfs.statvfs()
        assert info.used_bytes >= 100_000
