import json
import sys
from concurrent.futures import ThreadPoolExecutor
from threading import Barrier

import pytest

from charsumlab.cache import (cache_clear, cache_ls, get_j_count,
                              read_jcounts, write_jcounts)
from charsumlab.errors import CacheVersionMismatch, OutOfRange
from charsumlab.meanvalues import VinogradovParams
from charsumlab.reports import VerificationReport, emit_report
from oracles import vinogradov_count_naive


def make_report():
    return VerificationReport(
        version="0.1.0",
        config={"target": "demo", "seed": 7},
        records=[{"q": 15, "lhs": 1.25, "value": 0.5 + 0.25j, "tags": [1, 2]},
                 {"q": 21, "lhs": 0.75, "value": 1j, "tags": []}],
        aggregate={"max_ratio": 1.25},
        passed=True,
        notes=["note one"])


def test_report_bytes_are_stable():
    a = make_report().to_json_bytes()
    b = make_report().to_json_bytes()
    assert a == b
    decoded = json.loads(a)
    assert decoded["records"][0]["value"] == {"re": 0.5, "im": 0.25}
    assert decoded["passed"] is True


def test_report_csv_flattening():
    text = make_report().csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "lhs,q,tags,value_im,value_re"
    assert len(lines) == 3
    assert lines[1].startswith("1.25,15,")


def test_emit_report(tmp_path):
    report = make_report()
    out = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    emit_report(report, out, csv_path)
    emitted = out.read_bytes()
    assert emitted == report.to_json_bytes()
    assert csv_path.read_text().startswith("lhs,q")
    # identical content on re-emit
    emit_report(report, out)
    assert out.read_bytes() == emitted


def test_cache_round_trip(tmp_path):
    path = tmp_path / "jcounts.bin"
    entries = {(2, 2, 10): 190, (1, 1, 5): 5, (3, 3, 4): 496}
    write_jcounts(entries, path)
    assert read_jcounts(path) == entries
    blob = path.read_bytes()
    assert blob[:4] == b"CSLJ"


def test_cache_missing_reads_empty(tmp_path):
    assert read_jcounts(tmp_path / "absent.bin") == {}


def test_cache_corruption(tmp_path):
    path = tmp_path / "jcounts.bin"
    write_jcounts({(2, 2, 10): 190}, path)
    blob = bytearray(path.read_bytes())
    blob[0:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheVersionMismatch):
        read_jcounts(path)
    # wrong version
    blob[0:4] = b"CSLJ"
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheVersionMismatch):
        read_jcounts(path)
    # truncated entry
    write_jcounts({(2, 2, 10): 190}, path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(CacheVersionMismatch):
        read_jcounts(path)


def test_cache_overflow_guard(tmp_path):
    with pytest.raises(OutOfRange):
        write_jcounts({(1, 1, 1): 1 << 64}, tmp_path / "x.bin")


def test_get_j_count_uses_cache(tmp_path):
    path = tmp_path / "jcounts.bin"
    assert get_j_count(2, 2, 10, path=path) == 190
    # hit: poison the stored value and observe it is returned verbatim
    write_jcounts({(2, 2, 10): 123456}, path)
    assert get_j_count(2, 2, 10, path=path) == 123456
    assert get_j_count(2, 2, 10, path=path, use_cache=False) == 190


def test_cache_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("CSL_CACHE_DIR", str(tmp_path / "cachehome"))
    assert get_j_count(2, 1, 3) == 19
    assert cache_ls() == [((2, 1, 3), 19)]
    assert cache_clear() is True
    assert cache_ls() == []
    assert cache_clear() is False


def test_get_j_count_threads_share_fresh_cache(tmp_path):
    path = tmp_path / "jcounts.bin"
    keys = [(r, d, V) for r in (1, 2) for d in (1, 2, 3) for V in range(2, 9)]
    expected = {k: vinogradov_count_naive(VinogradovParams(*k)) for k in keys}
    barrier = Barrier(8, timeout=60)

    def worker(offset):
        barrier.wait()
        rotated = keys[offset:] + keys[:offset]
        return [(k, get_j_count(*k, path=path)) for k in rotated]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(worker, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(count == expected[k] for res in results for k, count in res)
    assert read_jcounts(path) == expected
