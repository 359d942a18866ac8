"""On-disk cache for Vinogradov counts.

Binary format: magic b"CSLJ", then version as u32 little-endian, then a
sequence of length-prefixed entries.  Each entry is its byte length as
u32 (always 20), the key triple (r, d, V) as three u32, and the count as
u64, all little-endian.  The cache directory comes from CSL_CACHE_DIR,
falling back to the per-user cache directory.  Writes go to a temporary
file in the same directory that then replaces the cache atomically, and
the read-modify-write of `get_j_count` runs under a process-wide lock, so
threads sharing one cache never see a half-written file.
"""

from __future__ import annotations

import os
import struct
import tempfile
import threading
from pathlib import Path

from .errors import CacheVersionMismatch, OutOfRange
from .meanvalues import VinogradovParams, vinogradov_count_mitm

MAGIC = b"CSLJ"
VERSION = 1
_ENTRY = struct.Struct("<IIIQ")  # r, d, V, count
_HEADER = struct.Struct("<4sI")

ENV_VAR = "CSL_CACHE_DIR"

_LOCK = threading.Lock()  # serializes get_j_count's read-modify-write


def cache_dir() -> Path:
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "charsumlab"


def cache_file() -> Path:
    return cache_dir() / "jcounts.bin"


def read_jcounts(path=None) -> dict[tuple[int, int, int], int]:
    """Load the cache; an absent file reads as empty."""
    path = Path(path) if path is not None else cache_file()
    if not path.exists():
        return {}
    blob = path.read_bytes()
    if len(blob) < _HEADER.size:
        raise CacheVersionMismatch("cache file is truncated")
    magic, version = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise CacheVersionMismatch(f"bad magic {magic!r}")
    if version != VERSION:
        raise CacheVersionMismatch(f"unsupported cache version {version}")
    out = {}
    offset = _HEADER.size
    while offset < len(blob):
        if offset + 4 > len(blob):
            raise CacheVersionMismatch("cache entry header is truncated")
        (length,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if length != _ENTRY.size or offset + length > len(blob):
            raise CacheVersionMismatch(f"bad entry length {length}")
        r, d, V, count = _ENTRY.unpack_from(blob, offset)
        offset += length
        out[(r, d, V)] = count
    return out


def write_jcounts(entries: dict[tuple[int, int, int], int], path=None) -> Path:
    path = Path(path) if path is not None else cache_file()
    path.parent.mkdir(parents=True, exist_ok=True)
    parts = [_HEADER.pack(MAGIC, VERSION)]
    for (r, d, V), count in sorted(entries.items()):
        if count >= 1 << 64:
            raise OutOfRange(f"count for {(r, d, V)} does not fit in u64")
        parts.append(struct.pack("<I", _ENTRY.size))
        parts.append(_ENTRY.pack(r, d, V, count))
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(b"".join(parts))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def get_j_count(r: int, d: int, V: int, budget: int = 10**9,
                use_cache: bool = True, path=None) -> int:
    """Vinogradov count, consulting and updating the cache."""
    p = VinogradovParams(r, d, V)
    if not use_cache:
        return vinogradov_count_mitm(p, budget=budget)
    with _LOCK:
        entries = read_jcounts(path)
        if (r, d, V) not in entries:
            entries[(r, d, V)] = vinogradov_count_mitm(p, budget=budget)
            write_jcounts(entries, path)
        return entries[(r, d, V)]


def cache_ls(path=None) -> list[tuple[tuple[int, int, int], int]]:
    return sorted(read_jcounts(path).items())


def cache_clear(path=None) -> bool:
    """Remove the cache file; True if something was deleted."""
    path = Path(path) if path is not None else cache_file()
    if path.exists():
        path.unlink()
        return True
    return False
