"""Unit tests for path handling."""

import pytest

from repro.errors import InvalidArgumentError
from repro.vfs.path import split_path


class TestSplitPath:
    def test_root(self):
        assert split_path("/") == []

    def test_simple(self):
        assert split_path("/a/b/c") == ["a", "b", "c"]

    def test_collapses_slashes_and_dots(self):
        assert split_path("/a//b/./c/") == ["a", "b", "c"]

    def test_parent_references(self):
        assert split_path("/a/b/../c") == ["a", "c"]

    def test_parent_above_root_clamps(self):
        assert split_path("/../a") == ["a"]

    def test_relative_rejected(self):
        with pytest.raises(InvalidArgumentError):
            split_path("a/b")

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            split_path("")

    @pytest.mark.parametrize(
        "path, components",
        [
            ("/a/b/c", ["a", "b", "c"]),  # already normal
            ("/.a/b..", [".a", "b.."]),  # dots inside names are names
            ("/a/.../b", ["a", "...", "b"]),
            ("/a/b/", ["a", "b"]),
            ("//", []),
            ("/a/./..", []),
        ],
    )
    def test_normal_and_unnormal_paths_agree(self, path, components):
        assert split_path(path) == components
        assert split_path("/" + "/".join(split_path(path))) == components

