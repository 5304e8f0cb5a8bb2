"""The build cache's safety properties: fingerprint sensitivity,
corruption tolerance and the environment kill switch.

The cache trades rebuild time for correctness risk; these tests pin the
three behaviours that keep the trade safe — any code edit invalidates
every key, a torn or corrupt entry degrades to a miss (never a wrong
result), and ``REPRO_BUILD_CACHE=off`` disables it entirely.
"""

from __future__ import annotations

import pickle

import pytest

import repro.parallel.cache as cache_mod
from repro.config import RunConfig
from repro.parallel.cache import BuildCache, code_fingerprint, resolve_cache
from repro.parallel.jobs import JobSpec


@pytest.fixture
def spec() -> JobSpec:
    return JobSpec(kind="pam", structure="BUDDY", scale=500, seed=101, file="uniform")


class TestFingerprint:
    def test_fingerprint_is_cached_and_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64

    def test_one_byte_source_edit_changes_every_key(self, tmp_path, spec):
        """Simulate a source edit by recomputing the fingerprint over a
        copy of the package with a single byte appended to one file; the
        cache key for the same spec must change."""
        import repro

        src_root = cache_mod.Path(repro.__file__).resolve().parent
        pristine = BuildCache(tmp_path, fingerprint=code_fingerprint())

        import hashlib

        digest = hashlib.sha256()
        edited_one = False
        for path in sorted(src_root.rglob("*.py")):
            digest.update(str(path.relative_to(src_root)).encode())
            digest.update(b"\x00")
            contents = path.read_bytes()
            if not edited_one:
                contents += b"#"  # the one-byte edit
                edited_one = True
            digest.update(contents)
        edited = BuildCache(tmp_path, fingerprint=digest.hexdigest())

        assert edited_one
        assert pristine.fingerprint != edited.fingerprint
        assert pristine.key(spec) != edited.key(spec)
        pristine.store(spec, "result-under-old-code")
        assert edited.load(spec) is None  # old entry invisible to new code
        assert edited.misses == 1

    def test_key_depends_on_every_spec_field(self, tmp_path, spec):
        cache = BuildCache(tmp_path, fingerprint="f" * 64)
        base = cache.key(spec)
        for variant in (
            JobSpec(kind="sam", structure="BUDDY", scale=500, seed=101, file="uniform"),
            JobSpec(kind="pam", structure="GRID", scale=500, seed=101, file="uniform"),
            JobSpec(kind="pam", structure="BUDDY", scale=501, seed=101, file="uniform"),
            JobSpec(kind="pam", structure="BUDDY", scale=500, seed=102, file="uniform"),
            JobSpec(kind="pam", structure="BUDDY", scale=500, seed=101, file="cluster"),
        ):
            assert cache.key(variant) != base, variant


class TestCorruptEntries:
    def test_round_trip(self, tmp_path, spec):
        cache = BuildCache(tmp_path, fingerprint="f" * 64)
        assert cache.load(spec) is None
        cache.store(spec, {"rows": 3})
        assert cache.load(spec) == {"rows": 3}
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_truncated_entry_is_a_miss(self, tmp_path, spec):
        cache = BuildCache(tmp_path, fingerprint="f" * 64)
        cache.store(spec, "payload")
        path = cache.path_for(spec)
        path.write_bytes(path.read_bytes()[:10])
        assert cache.load(spec) is None
        assert cache.misses == 1

    def test_garbage_entry_is_a_miss(self, tmp_path, spec):
        cache = BuildCache(tmp_path, fingerprint="f" * 64)
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"this is not a pickle")
        assert cache.load(spec) is None

    def test_digest_collision_degrades_to_miss(self, tmp_path, spec):
        """An entry whose stored spec differs from the requested one
        (hash collision, or a renamed entry file) must not be served."""
        cache = BuildCache(tmp_path, fingerprint="f" * 64)
        other = JobSpec(kind="pam", structure="GRID", scale=500, seed=101, file="uniform")
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fh:
            pickle.dump((other, "wrong cell"), fh)
        assert cache.load(spec) is None
        assert cache.misses == 1


def configured_cache():
    """What the bench entry points do with ``REPRO_BUILD_CACHE``."""
    return resolve_cache(RunConfig.from_env().build_cache)


class TestEnvironmentSwitch:
    @pytest.mark.parametrize("value", ["off", "0", "none", "no", "false", "", "  OFF  "])
    def test_disabled_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BUILD_CACHE", value)
        assert configured_cache() is None

    def test_explicit_directory(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BUILD_CACHE", str(tmp_path / "bc"))
        cache = configured_cache()
        assert cache is not None and cache.root == tmp_path / "bc"

    def test_unset_uses_default_root(self, monkeypatch):
        monkeypatch.delenv("REPRO_BUILD_CACHE", raising=False)
        cache = configured_cache()
        assert cache is not None
        assert cache.root.name == ".build_cache"
        monkeypatch.setenv("REPRO_BUILD_CACHE", "1")  # on: there, not ./1
        assert configured_cache().root == cache.root
