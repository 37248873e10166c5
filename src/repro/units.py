"""Size and time unit helpers.

All sizes in the library are plain integers counted in bytes and all
simulated times are floats counted in seconds.  These constants keep the
call sites readable (``4 * KIB`` instead of ``4096``).
"""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

MILLISECOND = 1e-3
MICROSECOND = 1e-6

SECTOR_SIZE = 512
"""Sector size of every simulated device, in bytes (matches classic SCSI)."""


def fmt_bytes(nbytes: float) -> str:
    """Human-readable byte count, e.g. ``fmt_bytes(1536) == '1.5 KB'``."""
    value = float(nbytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(value) < 1024.0 or unit == "TB":
            if unit == "B":
                return f"{int(value)} {unit}"
            return f"{value:.1f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def fmt_time(seconds: float) -> str:
    """Human-readable duration, e.g. ``'12.3 ms'`` or ``'4.56 s'``."""
    if seconds < 0:
        return "-" + fmt_time(-seconds)
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    if seconds < 120.0:
        return f"{seconds:.2f} s"
    return f"{seconds / 60.0:.1f} min"
