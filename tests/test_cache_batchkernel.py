"""The compiled-kernel cache is trusted only when nobody else can write it.

``load_kernel`` dlopens ``batchkernel-<digest>.so`` from a cache
directory, and the digest is a hash of the public kernel source.  An
object in a directory another user can write, or an object another user
owns, could have been planted there: it must never be loaded.  The
kernel is then built into a throwaway private directory instead.

Compilation and binding are replaced by recorders, so each scenario
checks *which file* would have been dlopened without running a compiler.
"""

from __future__ import annotations

import os
import stat

import pytest

from repro.cache import batchkernel


@pytest.fixture
def loader(monkeypatch):
    """A fresh load attempt whose compile and bind steps are recorded."""
    calls: dict[str, list] = {"compiled": [], "bound": []}

    def fake_compile(out_path):
        out_path.write_bytes(b"built")
        calls["compiled"].append(out_path)
        return True

    def fake_bind(path):
        calls["bound"].append((path, path.read_bytes()))
        return "replay_lane", "l1_filter"

    monkeypatch.setattr(batchkernel, "_LOADED", [False, None, None])
    monkeypatch.setattr(batchkernel, "_compile", fake_compile)
    monkeypatch.setattr(batchkernel, "_bind", fake_bind)
    return calls


def _plant(directory, mode):
    """A cache directory with ``mode`` holding an object for this source."""
    directory.mkdir()
    os.chmod(directory, mode)  # mkdir's mode is filtered by the umask
    obj = directory / f"batchkernel-{batchkernel._source_digest()}.so"
    obj.write_bytes(b"planted")
    os.chmod(obj, 0o755)
    return obj


def _assert_built_privately(calls, planted) -> None:
    [(bound, payload)] = calls["bound"]
    assert payload == b"built"
    assert bound.parent != planted.parent
    assert not bound.parent.exists()  # the throwaway build dir is gone
    assert planted.read_bytes() == b"planted"  # and the plant untouched


@pytest.mark.parametrize("mode", [0o775, 0o757, 0o777], ids=oct)
def test_when_cache_dir_writable_by_others_then_object_not_loaded(
    monkeypatch, tmp_path, loader, mode
):
    """WHEN the cache directory is group- or world-writable
    THEN the object in it is not loaded; a private build is bound."""
    planted = _plant(tmp_path / "kernel", mode)
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(planted.parent))

    assert batchkernel.load_kernel() == "replay_lane"
    _assert_built_privately(loader, planted)


def test_when_object_owned_by_another_user_then_not_loaded(
    monkeypatch, tmp_path, loader
):
    """WHEN the cached object belongs to another user (the directory
    itself being private) THEN it is not loaded; a private build is
    bound."""
    planted = _plant(tmp_path / "kernel", 0o700)
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(planted.parent))
    real_lstat = os.lstat

    def foreign_lstat(path, *args, **kwargs):
        st = real_lstat(path, *args, **kwargs)
        if os.fspath(path) != os.fspath(planted):
            return st
        fields = list(st)
        fields[stat.ST_UID] = os.getuid() + 1
        return os.stat_result(fields)

    monkeypatch.setattr(os, "lstat", foreign_lstat)

    assert batchkernel.load_kernel() == "replay_lane"
    _assert_built_privately(loader, planted)


def test_when_cached_object_is_a_symlink_then_not_loaded(monkeypatch, tmp_path, loader):
    """WHEN the cached object is a symlink (to anything) THEN it is not
    followed; a private build is bound."""
    target = _plant(tmp_path / "elsewhere", 0o700)
    cache = tmp_path / "kernel"
    cache.mkdir(mode=0o700)
    (cache / target.name).symlink_to(target)
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(cache))

    assert batchkernel.load_kernel() == "replay_lane"
    _assert_built_privately(loader, target)


@pytest.mark.parametrize("mode", [0o700, 0o755], ids=oct)
def test_when_cache_dir_is_owned_and_not_shared_then_object_reused(
    monkeypatch, tmp_path, loader, mode
):
    """WHEN the user's own cache directory (private, or 0o755 like a
    ``REPRO_KERNEL_CACHE`` the benchmark harness creates) holds the
    object THEN it is bound as is, without a compile."""
    planted = _plant(tmp_path / "kernel", mode)
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(planted.parent))

    assert batchkernel.load_kernel() == "replay_lane"
    assert loader["bound"] == [(planted, b"planted")]
    assert loader["compiled"] == []


def test_when_default_dir_missing_then_created_private_and_reused(
    monkeypatch, tmp_path, loader
):
    """WHEN the default cache directory does not exist THEN it is created
    with mode 0o700, the object is built into it, and the next load
    reuses it without a compile."""
    monkeypatch.delenv("REPRO_KERNEL_CACHE", raising=False)
    monkeypatch.setattr(batchkernel.tempfile, "gettempdir", lambda: str(tmp_path))
    cache = batchkernel._cache_dir()
    assert cache.parent == tmp_path and not cache.exists()

    assert batchkernel.load_kernel() == "replay_lane"
    assert stat.S_IMODE(os.lstat(cache).st_mode) == 0o700
    [built] = loader["compiled"]
    assert built.parent == cache

    monkeypatch.setattr(batchkernel, "_LOADED", [False, None, None])
    assert batchkernel.load_kernel() == "replay_lane"
    assert loader["compiled"] == [built]
    assert loader["bound"][-1] == (built, b"built")
