"""Unit tests for ``repro.store``: backend protocol, both backends, store
URLs, migration, and the corrupt-entry signal."""

import json
import warnings

import pytest

import repro.obs as obs
from repro.store import (
    DEFAULT_CACHE_DIR,
    DEFAULT_STORE_URL,
    MISS,
    STORE_METRICS,
    JsonStore,
    ResultStore,
    SqliteStore,
    StoreEntry,
    cache_schema,
    code_salt,
    migrate,
    open_store,
    store_url,
)

BACKENDS = [JsonStore, SqliteStore]


def make_store(backend, tmp_path, salt=None, name="store"):
    target = tmp_path / (name if backend is JsonStore else f"{name}.db")
    return backend(target, salt=salt)


@pytest.fixture(params=BACKENDS, ids=["json", "sqlite"])
def store(request, tmp_path):
    handle = make_store(request.param, tmp_path)
    yield handle
    handle.close()


class TestProtocol:
    def test_miss_then_hit(self, store):
        assert store.get("aa" * 20) is MISS
        store.put("aa" * 20, {"x": 1})
        assert store.get("aa" * 20) == {"x": 1}
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.writes == 1

    def test_stored_none_is_not_a_miss(self, store):
        store.put("bb" * 20, None)
        assert store.get("bb" * 20) is None

    def test_contains_and_len(self, store):
        assert "cc" * 20 not in store
        store.put("cc" * 20, 1)
        store.put("dd" * 20, 2)
        assert "cc" * 20 in store
        assert len(store) == 2
        # Membership never touches the hit/miss counters.
        assert store.stats.hits == 0
        assert store.stats.misses == 0

    def test_overwrite_last_writer_wins(self, store):
        store.put("ee" * 20, "old")
        store.put("ee" * 20, "new")
        assert store.get("ee" * 20) == "new"
        assert len(store) == 1

    def test_entries_ascending_hash_order_with_provenance(self, store):
        store.put("ff" * 20, 2, meta={"campaign": "c", "key": "k2"})
        store.put("ab" * 20, 1, meta={"campaign": "c", "key": "k1"})
        entries = list(store.entries())
        assert [e.content_hash for e in entries] == ["ab" * 20, "ff" * 20]
        assert entries[0].value == 1
        assert entries[0].meta["key"] == "k1"
        assert entries[0].salt == store.salt
        assert entries[0].schema == cache_schema()

    def test_get_entry_roundtrips_provenance(self, store):
        store.put("ab" * 20, [1, 2], meta={"key": "k"})
        entry = store.get_entry("ab" * 20)
        assert entry == StoreEntry(
            content_hash="ab" * 20,
            value=[1, 2],
            meta={"key": "k"},
            salt=store.salt,
            schema=cache_schema(),
        )
        assert store.get_entry("99" * 20) is None

    def test_put_entry_preserves_foreign_salt_and_schema(self, store):
        foreign = StoreEntry("ab" * 20, value=7, meta={}, salt="other-version", schema=1)
        store.put_entry(foreign)
        got = store.get_entry("ab" * 20)
        assert got.salt == "other-version"
        assert got.schema == 1

    def test_gc_removes_other_salts_only(self, store):
        store.put("ab" * 20, 1)
        store.put_entry(StoreEntry("cd" * 20, value=2, salt="stale", schema=cache_schema()))
        assert store.gc() == 1
        assert len(store) == 1
        assert store.get("ab" * 20) == 1

    def test_url_and_describe(self, store):
        assert store.url == f"{store.scheme}:{store.location()}"
        store.put("ab" * 20, 1)
        summary = store.describe()
        assert summary["url"] == store.url
        assert summary["entries"] == 1
        assert summary["salts"] == {store.salt: 1}
        assert summary["current_salt"] == store.salt

    def test_explicit_salt_overrides_code_salt(self, tmp_path, store):
        assert store.salt == code_salt()
        resalted = make_store(type(store), tmp_path, salt="v2", name="resalted")
        assert resalted.salt == "v2"
        resalted.close()


class TestCorruption:
    def corrupt(self, store, content_hash):
        """Plant an undecodable entry under ``content_hash``."""
        if isinstance(store, JsonStore):
            path = store.path_for(content_hash)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("{not json", encoding="utf-8")
        else:
            conn = store._connection()
            conn.execute(
                "INSERT OR REPLACE INTO results (hash, value, meta, salt, schema, created)"
                " VALUES (?, ?, ?, ?, ?, 0)",
                (content_hash, "{not json", "{}", store.salt, cache_schema()),
            )
            conn.commit()

    def test_corrupt_entry_is_a_miss_and_warns_once(self, store):
        self.corrupt(store, "ab" * 20)
        self.corrupt(store, "cd" * 20)
        with pytest.warns(RuntimeWarning, match="corrupt result-store entry"):
            assert store.get("ab" * 20) is MISS
        # The one-time warning already fired; further corruption is silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.get("cd" * 20) is MISS
        assert "ab" * 20 not in store

    def test_corrupt_warning_names_the_location(self, store):
        self.corrupt(store, "ab" * 20)
        with pytest.warns(RuntimeWarning) as caught:
            store.get("ab" * 20)
        assert store.location() in str(caught[0].message)

    def test_corrupt_counter_is_obs_gated(self, store):
        self.corrupt(store, "ab" * 20)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            store.get("ab" * 20)  # gate off: counted nowhere
        obs.enable()
        self.corrupt(store, "cd" * 20)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            store.get("cd" * 20)
        counter = STORE_METRICS.counter("cache.corrupt")
        assert counter.value == 1

    def test_corrupt_entry_is_overwritable(self, store):
        self.corrupt(store, "ab" * 20)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            store.put("ab" * 20, "fresh")
        assert store.get("ab" * 20) == "fresh"


class TestStoreUrls:
    def test_bare_path_means_json(self):
        assert store_url(".repro_cache") == "json:.repro_cache"
        assert store_url("some/dir") == "json:some/dir"

    def test_scheme_urls_pass_through(self):
        assert store_url("json:cachedir") == "json:cachedir"
        assert store_url("sqlite:results.db") == "sqlite:results.db"

    def test_default_url(self):
        assert DEFAULT_STORE_URL == f"json:{DEFAULT_CACHE_DIR}"
        assert store_url("") == DEFAULT_STORE_URL

    def test_windows_style_paths_are_not_schemes(self):
        # An unknown "scheme" is a path with a colon in it — JSON, verbatim.
        assert store_url("C:cache") == "json:C:cache"

    def test_open_store_none_disables(self):
        assert open_store(None) is None

    def test_open_store_parses_urls(self, tmp_path):
        js = open_store(f"json:{tmp_path / 'j'}")
        sq = open_store(f"sqlite:{tmp_path / 's.db'}")
        try:
            assert isinstance(js, JsonStore)
            assert isinstance(sq, SqliteStore)
        finally:
            js.close()
            sq.close()

    def test_open_store_passthrough_and_salt_guard(self, tmp_path):
        handle = JsonStore(tmp_path / "j", salt="v1")
        assert open_store(handle) is handle
        assert open_store(handle, salt="v1") is handle
        with pytest.raises(ValueError, match="re-salt"):
            open_store(handle, salt="v2")

    def test_open_store_applies_salt_to_new_backend(self, tmp_path):
        handle = open_store(f"sqlite:{tmp_path / 's.db'}", salt="v9")
        try:
            assert handle.salt == "v9"
        finally:
            handle.close()


class TestQueryParams:
    def test_sqlite_busy_timeout_from_url(self, tmp_path):
        handle = open_store(f"sqlite:{tmp_path / 's.db'}?busy_timeout_ms=250")
        try:
            assert handle.busy_timeout_ms == 250
            # Non-default tuning round-trips through the URL.
            assert handle.url.endswith("?busy_timeout_ms=250")
        finally:
            handle.close()

    def test_json_fanout_from_url_shapes_the_layout(self, tmp_path):
        handle = open_store(f"json:{tmp_path / 'j'}?fanout=3")
        try:
            assert handle.fanout == 3
            assert handle.url.endswith("?fanout=3")
            handle.put("ab" * 20, {"x": 1})
            # Three-character fan-out directory, and the entry reads back.
            assert (tmp_path / "j" / ("ab" * 20)[:3] / f"{'ab' * 20}.json").exists()
            assert handle.get("ab" * 20) == {"x": 1}
            assert [e.content_hash for e in handle.entries()] == ["ab" * 20]
        finally:
            handle.close()

    def test_default_tuning_leaves_urls_clean(self, tmp_path):
        js = open_store(f"json:{tmp_path / 'j'}")
        sq = open_store(f"sqlite:{tmp_path / 's.db'}")
        try:
            assert "?" not in js.url
            assert "?" not in sq.url
        finally:
            js.close()
            sq.close()

    def test_unknown_key_rejected_naming_known_ones(self, tmp_path):
        with pytest.raises(ValueError, match="unknown store URL parameter 'fnaout'"):
            open_store(f"json:{tmp_path / 'j'}?fnaout=3")
        # A valid key on the wrong scheme is just as unknown.
        with pytest.raises(ValueError, match="known: busy_timeout_ms"):
            open_store(f"sqlite:{tmp_path / 's.db'}?fanout=3")

    def test_bad_values_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not an integer"):
            open_store(f"json:{tmp_path / 'j'}?fanout=three")
        with pytest.raises(ValueError, match="must be in 1..8"):
            open_store(f"json:{tmp_path / 'j'}?fanout=0")
        with pytest.raises(ValueError, match="must be in 1..8"):
            open_store(f"json:{tmp_path / 'j'}?fanout=9")
        with pytest.raises(ValueError, match="must be >= 1"):
            open_store(f"sqlite:{tmp_path / 's.db'}?busy_timeout_ms=0")

    def test_constructors_validate_directly(self, tmp_path):
        with pytest.raises(ValueError, match="fanout"):
            JsonStore(tmp_path / "j", fanout=0)
        with pytest.raises(ValueError, match="busy_timeout_ms"):
            SqliteStore(tmp_path / "s.db", busy_timeout_ms=-5)

    def test_store_url_passes_query_through(self):
        assert store_url("sqlite:r.db?busy_timeout_ms=9") == "sqlite:r.db?busy_timeout_ms=9"
        assert store_url("json:cache?fanout=2") == "json:cache?fanout=2"


class TestMigrate:
    @pytest.mark.parametrize("src_backend", BACKENDS, ids=["json", "sqlite"])
    @pytest.mark.parametrize("dst_backend", BACKENDS, ids=["json", "sqlite"])
    def test_roundtrip_preserves_everything(self, tmp_path, src_backend, dst_backend):
        src = make_store(src_backend, tmp_path, name="src")
        dst = make_store(dst_backend, tmp_path, name="dst")
        src.put("ab" * 20, {"v": 1}, meta={"campaign": "c", "key": "k"})
        src.put_entry(StoreEntry("cd" * 20, value=None, salt="older", schema=1))
        try:
            assert migrate(src, dst) == 2
            assert list(dst.entries()) == list(src.entries())
        finally:
            src.close()
            dst.close()

    def test_migrate_overwrites_destination_duplicates(self, tmp_path):
        src = make_store(JsonStore, tmp_path, name="src")
        dst = make_store(SqliteStore, tmp_path, name="dst")
        src.put("ab" * 20, "from-src")
        dst.put("ab" * 20, "stale")
        try:
            migrate(src, dst)
            assert dst.get("ab" * 20) == "from-src"
        finally:
            src.close()
            dst.close()


class TestJsonLayout:
    def test_fanout_and_atomic_files(self, tmp_path):
        store = JsonStore(tmp_path / "c")
        path = store.put("abcd" + "ef" * 18, {"v": 1})
        assert path == store.path_for("abcd" + "ef" * 18)
        assert path.parent.name == "ab"
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["value"] == {"v": 1}
        assert data["salt"] == store.salt


class TestSqliteBackend:
    def test_concurrent_handles_share_data(self, tmp_path):
        a = SqliteStore(tmp_path / "s.db")
        b = SqliteStore(tmp_path / "s.db")
        try:
            a.put("ab" * 20, 1)
            assert b.get("ab" * 20) == 1
            b.put("cd" * 20, 2)
            assert a.get("cd" * 20) == 2
        finally:
            a.close()
            b.close()

    def test_wal_mode(self, tmp_path):
        store = SqliteStore(tmp_path / "s.db")
        try:
            mode = store._connection().execute("PRAGMA journal_mode").fetchone()[0]
            assert str(mode).lower() == "wal"
        finally:
            store.close()

    def test_close_is_idempotent(self, tmp_path):
        store = SqliteStore(tmp_path / "s.db")
        store.put("ab" * 20, 1)
        store.close()
        store.close()
        # A closed handle lazily reconnects on next use.
        assert store.get("ab" * 20) == 1
        store.close()


class TestObservability:
    def test_latency_histograms_only_when_gated(self, store):
        store.put("ab" * 20, 1)
        store.get("ab" * 20)
        assert STORE_METRICS.histogram("store.get_ns").count == 0
        obs.enable()
        store.get("ab" * 20)
        store.put("cd" * 20, 2)
        assert STORE_METRICS.histogram("store.get_ns").count == 1
        assert STORE_METRICS.histogram("store.put_ns").count == 1


class TestAbstract:
    def test_result_store_is_abstract(self):
        with pytest.raises(TypeError):
            ResultStore()
