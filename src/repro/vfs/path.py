"""Path string handling.

All paths are absolute, ``/``-separated, and resolved against the file
system root; ``.`` and ``..`` components are normalized away lexically
(there are no symlinks in this reproduction, so lexical resolution is
exact).
"""

from __future__ import annotations

from typing import List

from repro.errors import InvalidArgumentError


def split_path(path: str) -> List[str]:
    """Split an absolute path into normalized components.

    >>> split_path("/a/b/../c//d/.")
    ['a', 'c', 'd']
    >>> split_path("/")
    []
    """
    if not path.startswith("/"):
        raise InvalidArgumentError(f"path must be absolute: {path!r}")
    if "//" not in path and "/." not in path and not path.endswith("/"):
        return path[1:].split("/")  # already normal: every namespace call
    components: List[str] = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if part == "..":
            if components:
                components.pop()
            continue
        components.append(part)
    return components
