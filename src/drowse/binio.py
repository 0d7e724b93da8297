"""Shared helpers for the little-endian binary file formats."""

from __future__ import annotations

import os
import struct
from typing import BinaryIO


class FormatError(ValueError):
    """A file does not conform to its declared binary layout."""


def read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    """Read exactly n bytes. A count beyond the end of the file is refused
    before reading, so a corrupt length field cannot ask for a huge buffer."""
    here = fh.tell()
    left = fh.seek(0, os.SEEK_END) - here
    fh.seek(here)
    if n > left:
        raise FormatError(f"truncated file while reading {what}")
    return fh.read(n)


def expect_magic(fh: BinaryIO, magic: bytes) -> None:
    got = fh.read(len(magic))
    if got != magic:
        raise FormatError(f"bad magic: expected {magic!r}, got {got!r}")


def read_u16(fh: BinaryIO, what: str) -> int:
    return struct.unpack("<H", read_exact(fh, 2, what))[0]


def read_u32(fh: BinaryIO, what: str) -> int:
    return struct.unpack("<I", read_exact(fh, 4, what))[0]


def read_u64(fh: BinaryIO, what: str) -> int:
    return struct.unpack("<Q", read_exact(fh, 8, what))[0]


def check_version(version: int, expected: int, kind: str) -> None:
    if version != expected:
        raise FormatError(f"unsupported {kind} version {version} (expected {expected})")
