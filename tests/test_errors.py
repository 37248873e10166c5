"""Tests for the exception hierarchy contract.

Callers rely on catching :class:`ReproError` (or a mid-level family
like :class:`FileSystemError`) without accidentally swallowing
programming errors; these tests pin that structure.
"""

import pytest

from repro import errors


class TestHierarchy:
    def test_everything_derives_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not errors.ReproError:
                    assert issubclass(obj, errors.ReproError), name

    def test_disk_family(self):
        assert issubclass(errors.OutOfRangeError, errors.DiskError)
        assert issubclass(errors.DeviceCrashedError, errors.DiskError)
        assert not issubclass(errors.DiskError, errors.FileSystemError)

    def test_fs_family(self):
        for cls in (
            errors.NoSpaceError,
            errors.FileNotFoundError_,
            errors.FileExistsError_,
            errors.NotADirectoryError_,
            errors.IsADirectoryError_,
            errors.DirectoryNotEmptyError,
            errors.InvalidArgumentError,
            errors.StaleHandleError,
            errors.CorruptionError,
        ):
            assert issubclass(cls, errors.FileSystemError), cls

    def test_no_inodes_is_a_space_error(self):
        assert issubclass(errors.NoInodesError, errors.NoSpaceError)

    def test_checkpoint_error_is_corruption(self):
        assert issubclass(errors.CheckpointError, errors.CorruptionError)

    def test_not_builtin_exceptions(self):
        # Library errors must not be confusable with builtins.
        assert not issubclass(errors.FileNotFoundError_, FileNotFoundError)
        assert not issubclass(errors.FileExistsError_, FileExistsError)


class TestConfigError:
    def test_survives_pickling_across_worker_processes(self):
        import pickle

        error = errors.ConfigError(["cache too small", "no segments"])
        clone = pickle.loads(pickle.dumps(error))
        assert clone.violations == error.violations
        assert str(clone) == str(error)


class TestCatchability:
    def test_fs_operations_raise_catchable_family(self, anyfs):
        with pytest.raises(errors.ReproError):
            anyfs.open("/missing")
        with pytest.raises(errors.FileSystemError):
            anyfs.mkdir("/no/parent/here")

    def test_programming_errors_pass_through(self, anyfs):
        with pytest.raises((TypeError, AttributeError)):
            anyfs.pread("not a handle", None, None)
