"""The worker-side stamp check on ``zipimporter.invalidate_caches``."""
import importlib
import os
import sys
import zipfile
import zipimport

import pytest

from repro.core.mpds import ZIP_STAMP_MARK, reread_zips_on_change

pytestmark = pytest.mark.skipif(
    not (3, 10) <= sys.version_info < (3, 13),
    reason="only Python 3.10-3.12 re-read archives on invalidate_caches",
)

_DATE = (2020, 1, 1, 0, 0, 0)


def _write(path, members):
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, text in members.items():
            zf.writestr(zipfile.ZipInfo(name, _DATE), text)


@pytest.fixture
def archive(tmp_path, monkeypatch):
    """A zip on ``sys.path``, a fresh wrapper, and a count of directory reads."""
    cls = zipimport.zipimporter
    monkeypatch.setattr(cls, "invalidate_caches", cls.invalidate_caches)
    monkeypatch.setattr(cls, ZIP_STAMP_MARK, False, raising=False)
    path = str(tmp_path / "mods.zip")
    _write(path, {"zmod_a.py": "X = 1\n"})
    monkeypatch.syspath_prepend(path)
    reads = []
    real = zipimport._read_directory

    def counted(archive):
        if archive == path:
            reads.append(archive)
        return real(archive)

    monkeypatch.setattr(zipimport, "_read_directory", counted)
    importlib.import_module("zmod_a")
    reread_zips_on_change()
    importlib.invalidate_caches()  # the first call reads and takes the stamp
    reads.clear()
    yield path, reads
    zipimport._zip_directory_cache.pop(path, None)
    sys.path_importer_cache.pop(path, None)
    for name in ("zmod_a", "zmod_b"):
        sys.modules.pop(name, None)


def test_unchanged_archive_is_not_reread(archive):
    _, reads = archive
    importlib.invalidate_caches()
    assert reads == []


def test_new_member_importable_after_rewrite(archive):
    path, _ = archive
    _write(path, {"zmod_a.py": "X = 1\n", "zmod_b.py": "Y = 2\n"})
    importlib.invalidate_caches()
    assert importlib.import_module("zmod_b").Y == 2


def test_same_size_new_mtime_is_reread(archive):
    path, reads = archive
    size = os.stat(path).st_size
    mtime = os.stat(path).st_mtime_ns
    _write(path, {"zmod_a.py": "X = 3\n"})
    os.utime(path, ns=(mtime + 10**9, mtime + 10**9))
    assert os.stat(path).st_size == size
    importlib.invalidate_caches()
    assert reads == [path]


def test_install_twice_wraps_once(archive):
    wrapped = zipimport.zipimporter.invalidate_caches
    reread_zips_on_change()
    assert zipimport.zipimporter.invalidate_caches is wrapped
