//! Persistent, content-addressed store of simulation runs.
//!
//! Every solo/pair run a [`crate::Lab`] performs is keyed by
//! `(SCHEMA_VERSION, RunnerConfig hash, run kind, app names, policy,
//! seed)` — the seed lives inside the `RunnerConfig` — and memoized at
//! two levels:
//!
//! 1. **in-memory**, so repeated figures within one `reproduce` process
//!    share runs (Fig 9's shared-policy runs are reused by Fig 13, the
//!    biased sweep feeds both Fig 9 and the headline, …);
//! 2. **on disk** (optional), so a second `reproduce` invocation, an
//!    interrupted sweep, or another process reuses every completed run.
//!
//! # Staleness rule
//!
//! The simulator is deterministic: a key collision can only serve a wrong
//! result if the *engine semantics* changed without the key changing.
//! Config changes hash into the key; engine changes do not. Therefore:
//! **whenever a change alters any golden fingerprint
//! (`tests/golden_fingerprint.rs`, `tests/determinism.rs`), bump
//! [`SCHEMA_VERSION`] in the same commit** (or purge `results/cache/`).
//! See DESIGN.md for the full rule.
//!
//! Disk entries are one JSON file per run under the cache directory
//! (default `results/cache/`, override with `WAYPART_CACHE_DIR`), named
//! by the FNV-1a hash of the full key. Each file stores the key it was
//! written for; a load whose stored key mismatches is treated as a miss,
//! so hash collisions degrade to re-simulation, never to wrong data.
//! Writes go through a temp file + atomic rename, so concurrent
//! processes and interrupted runs can never leave a torn entry, and a
//! finished run leaves nothing but `<hash>.json` entries behind.

use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::json::{self, Value};
use serde::{Deserialize, Serialize};
use waypart_core::runner::RunnerConfig;
use waypart_telemetry::progress::{self, Phase};

/// Version of the *engine semantics* the cached results were produced
/// under. Bump whenever simulation output changes for the same
/// `RunnerConfig` (see the module docs for the rule).
pub const SCHEMA_VERSION: u32 = 1;

/// Hit/miss counters of a cache (all loads since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Served from the in-process memo.
    pub mem_hits: u64,
    /// Served from a disk entry (and promoted into the memo).
    pub disk_hits: u64,
    /// Not found, then computed and inserted. `Lab` serves some of these
    /// from an identical simulation it already ran under another key
    /// ([`crate::Lab::memo_served`]); the rest were simulated.
    pub misses: u64,
    /// Disk entries that existed but failed validation (torn write, old
    /// schema, key collision) and degraded to a miss.
    pub invalid_entries: u64,
    /// Bytes read from disk entries (valid or not).
    pub bytes_read: u64,
    /// Bytes written to disk entries.
    pub bytes_written: u64,
    /// Disk stores that failed (unwritable directory, full disk, rename
    /// failure). The run still completed — the cache just couldn't keep
    /// it — so a persistent nonzero count means every future process
    /// re-simulates; `reproduce` surfaces it loudly.
    pub write_errors: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn total(&self) -> u64 {
        self.mem_hits + self.disk_hits + self.misses
    }

    /// Fraction of lookups found in the cache (0 when idle) — the cache's
    /// dedup ratio.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (self.mem_hits + self.disk_hits) as f64 / total as f64
    }
}

/// The live counters behind [`CacheStats`], shared by a cache and its
/// siblings ([`RunCache::sibling`]).
#[derive(Default)]
struct Counters {
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    invalid_entries: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    write_errors: AtomicU64,
}

/// Two-level (memory + optional disk) run memo.
pub struct RunCache {
    /// Full key → serialized result JSON.
    mem: Mutex<HashMap<String, String>>,
    /// Disk directory, `None` for in-memory-only caches.
    dir: Option<PathBuf>,
    /// FNV-1a of the canonical `RunnerConfig` JSON, baked into every key.
    cfg_hash: u64,
    counters: Arc<Counters>,
    /// Every key suffix this cache was asked about (sorted, deduped) — a
    /// warm pass over the figure pipeline enumerates the full run grid
    /// here without simulating anything.
    seen: Mutex<BTreeSet<String>>,
}

impl RunCache {
    /// A cache that memoizes only within this process.
    pub fn in_memory(cfg: &RunnerConfig) -> Self {
        Self::build(cfg, None, Arc::default())
    }

    /// A cache persisted under `dir` (created on first write).
    pub fn persistent(cfg: &RunnerConfig, dir: PathBuf) -> Self {
        Self::build(cfg, Some(dir), Arc::default())
    }

    /// A persistent cache at the default location: `$WAYPART_CACHE_DIR`
    /// if set, else `results/cache/`.
    pub fn persistent_default(cfg: &RunnerConfig) -> Self {
        let dir = std::env::var_os("WAYPART_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("results").join("cache"));
        Self::persistent(cfg, dir)
    }

    fn build(cfg: &RunnerConfig, dir: Option<PathBuf>, counters: Arc<Counters>) -> Self {
        RunCache {
            mem: Mutex::new(HashMap::new()),
            dir,
            cfg_hash: fnv1a(json::to_string(cfg).as_bytes()),
            counters,
            seen: Mutex::new(BTreeSet::new()),
        }
    }

    /// A cache for another runner configuration in the same place (this
    /// cache's directory, or memory only) that counts into this cache's
    /// [`Self::stats`]: the two share one set of counters, so either
    /// reports both. Entries and seen keys stay per cache.
    pub fn sibling(&self, cfg: &RunnerConfig) -> Self {
        Self::build(cfg, self.dir.clone(), Arc::clone(&self.counters))
    }

    /// Counters since construction, siblings' traffic included.
    pub fn stats(&self) -> CacheStats {
        let c = &self.counters;
        CacheStats {
            mem_hits: c.mem_hits.load(Ordering::Relaxed),
            disk_hits: c.disk_hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            invalid_entries: c.invalid_entries.load(Ordering::Relaxed),
            bytes_read: c.bytes_read.load(Ordering::Relaxed),
            bytes_written: c.bytes_written.load(Ordering::Relaxed),
            write_errors: c.write_errors.load(Ordering::Relaxed),
        }
    }

    /// Every key suffix looked up or inserted so far (sorted, deduped).
    /// A cache-warm pass over the figures enumerates the global run grid
    /// here with zero simulation.
    pub fn seen_keys(&self) -> Vec<String> {
        self.seen.lock().expect("run cache").iter().cloned().collect()
    }

    /// Number of distinct runs memoized in memory.
    pub fn mem_len(&self) -> usize {
        self.mem.lock().expect("run cache").len()
    }

    /// Returns the cached result for `key_suffix`, or executes `run`,
    /// memoizes its result, and returns it.
    ///
    /// `key_suffix` must uniquely describe the run *given the config*
    /// (kind, app names, policy/controller parameters); the schema
    /// version and config hash are prepended automatically.
    pub fn get_or_run<T, F>(&self, key_suffix: &str, run: F) -> T
    where
        T: Serialize + Deserialize,
        F: FnOnce() -> T,
    {
        if let Some(value) = self.lookup(key_suffix) {
            return value;
        }
        let result = run();
        self.insert(key_suffix, &result);
        result
    }

    /// The lookup half of [`Self::get_or_run`]: returns the memoized
    /// result for `key_suffix` (memory, then disk) or `None`. Counts a
    /// hit when found and nothing otherwise — a batch caller probes many
    /// keys, runs the misses together, and [`Self::insert`]s each, so
    /// the hit/miss tallies come out the same as sequential
    /// `get_or_run` calls would.
    pub fn lookup<T: Serialize + Deserialize>(&self, key_suffix: &str) -> Option<T> {
        let key = self.full_key(key_suffix);
        self.record_seen(key_suffix);

        if let Some(text) = self.mem.lock().expect("run cache").get(&key) {
            let value = json::from_str::<T>(text).expect("corrupt in-memory cache entry");
            self.counters.mem_hits.fetch_add(1, Ordering::Relaxed);
            self.emit_lookup(key_suffix, "mem_hit");
            return Some(value);
        }

        if let Some(value) = self.load_disk::<T>(&key) {
            self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
            self.emit_lookup(key_suffix, "disk_hit");
            return Some(value);
        }
        None
    }

    /// The store half of [`Self::get_or_run`]: memoizes a freshly
    /// computed result for `key_suffix` and counts the miss.
    pub fn insert<T: Serialize>(&self, key_suffix: &str, value: &T) {
        let key = self.full_key(key_suffix);
        self.record_seen(key_suffix);
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        self.emit_lookup(key_suffix, "miss");
        let text = json::to_string(value);
        self.store_disk(&key, &text);
        self.mem.lock().expect("run cache").insert(key, text);
    }

    /// Prepends the schema version and config hash to a caller key.
    fn full_key(&self, key_suffix: &str) -> String {
        format!("v{SCHEMA_VERSION}|{:016x}|{key_suffix}", self.cfg_hash)
    }

    /// Records a key suffix in the seen-key grid enumeration.
    fn record_seen(&self, key_suffix: &str) {
        let mut seen = self.seen.lock().expect("run cache");
        if !seen.contains(key_suffix) {
            seen.insert(key_suffix.to_string());
        }
    }

    /// Emits one `cache.lookup` telemetry event (wall-stamped: cache
    /// traffic is harness activity, not simulated time).
    fn emit_lookup(&self, key_suffix: &str, outcome: &'static str) {
        use waypart_telemetry as telemetry;
        telemetry::emit_with(|| {
            let stats = self.stats();
            telemetry::Event::instant(
                "cache.lookup",
                telemetry::Stamp::WallUs(telemetry::wall_now_us()),
            )
            .field("key", key_suffix)
            .field("outcome", outcome)
            .field("hit", outcome != "miss")
            .field("bytes_read", stats.bytes_read)
            .field("bytes_written", stats.bytes_written)
        });
    }

    /// File path for `key` under the cache directory.
    fn entry_path(&self, key: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{:016x}.json", fnv1a(key.as_bytes()))))
    }

    /// Loads and validates a disk entry; any mismatch or parse failure is
    /// a miss (never an error — the entry is simply re-simulated).
    fn load_disk<T: Deserialize>(&self, key: &str) -> Option<T> {
        let path = self.entry_path(key)?;
        let io_t0 = progress::phase_begin();
        let text = std::fs::read_to_string(path).ok();
        progress::phase_add(Phase::RuncacheIo, io_t0);
        let text = text?;
        self.counters.bytes_read.fetch_add(text.len() as u64, Ordering::Relaxed);
        let loaded = self.parse_entry::<T>(key, &text);
        if loaded.is_none() {
            // The file existed but didn't validate: torn write, stale
            // schema, or a key collision. Count it; the caller treats it
            // as a miss and the re-run's store overwrites it atomically.
            self.counters.invalid_entries.fetch_add(1, Ordering::Relaxed);
        }
        loaded
    }

    /// Parses and validates one entry file's text against `key`.
    fn parse_entry<T: Deserialize>(&self, key: &str, text: &str) -> Option<T> {
        let envelope = json::parse(text).ok()?;
        let schema = envelope.field("schema").ok()?.as_u64().ok()?;
        let stored_key = envelope.field("key").ok()?.as_str().ok()?;
        if schema != u64::from(SCHEMA_VERSION) || stored_key != key {
            return None;
        }
        let value_field = envelope.field("value").ok()?;
        let result = T::from_value(value_field).ok()?;
        // Promote to the in-process memo so later lookups skip the disk.
        let text = json::to_string(value_field);
        self.mem.lock().expect("run cache").insert(key.to_string(), text);
        Some(result)
    }

    /// Writes an entry via temp file + rename. IO errors don't propagate
    /// (the cache is an accelerator, not a correctness dependency) but
    /// they are *counted* and emitted as `cache.write_error` events — a
    /// read-only or full disk silently re-running everything forever is
    /// exactly the failure mode the stats line in `reproduce` exists to
    /// surface.
    fn store_disk(&self, key: &str, value_text: &str) {
        let Some(path) = self.entry_path(key) else { return };
        let Some(dir) = self.dir.as_ref() else { return };
        if let Err(e) = std::fs::create_dir_all(dir) {
            self.count_write_error("create_dir", &e);
            return;
        }
        let envelope = Value::Obj(vec![
            ("schema".to_string(), Value::U64(u64::from(SCHEMA_VERSION))),
            ("key".to_string(), Value::Str(key.to_string())),
            ("value".to_string(), json::parse(value_text).expect("own serialization parses")),
        ]);
        // Unique temp name per process+key so concurrent writers never
        // clobber each other's partial writes; rename is atomic within
        // the directory and last-writer-wins is fine (entries for one
        // key are identical by determinism).
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let text = json::to_string(&envelope);
        let len = text.len() as u64;
        let io_t0 = progress::phase_begin();
        match std::fs::write(&tmp, text) {
            Err(e) => self.count_write_error("write", &e),
            Ok(()) => match std::fs::rename(&tmp, &path) {
                Err(e) => {
                    self.count_write_error("rename", &e);
                    let _ = std::fs::remove_file(&tmp);
                }
                Ok(()) => {
                    self.counters.bytes_written.fetch_add(len, Ordering::Relaxed);
                }
            },
        }
        progress::phase_add(Phase::RuncacheIo, io_t0);
    }

    /// Counts one failed disk store and emits a `cache.write_error`
    /// telemetry event naming the failing operation.
    fn count_write_error(&self, op: &'static str, err: &std::io::Error) {
        self.counters.write_errors.fetch_add(1, Ordering::Relaxed);
        use waypart_telemetry as telemetry;
        telemetry::emit_with(|| {
            telemetry::Event::instant(
                "cache.write_error",
                telemetry::Stamp::WallUs(telemetry::wall_now_us()),
            )
            .field("op", op)
            .field("error", err.to_string().as_str())
            .field("write_errors", self.counters.write_errors.load(Ordering::Relaxed))
        });
    }
}

impl std::fmt::Debug for RunCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunCache")
            .field("dir", &self.dir)
            .field("cfg_hash", &format_args!("{:016x}", self.cfg_hash))
            .field("stats", &self.stats())
            .finish()
    }
}

/// FNV-1a over bytes — stable across processes and platforms (unlike
/// `DefaultHasher`, which is randomly seeded).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("waypart-runcache-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memoizes_in_memory() {
        let cache = RunCache::in_memory(&RunnerConfig::test());
        let mut runs = 0;
        let a: u64 = cache.get_or_run("solo|x|t1w1", || {
            runs += 1;
            42
        });
        let b: u64 = cache.get_or_run("solo|x|t1w1", || {
            runs += 1;
            99
        });
        assert_eq!((a, b, runs), (42, 42, 1));
        let s = cache.stats();
        assert_eq!((s.mem_hits, s.disk_hits, s.misses), (1, 0, 1));
    }

    #[test]
    fn persists_across_instances() {
        let dir = tmp_dir("persist");
        let cfg = RunnerConfig::test();
        {
            let cache = RunCache::persistent(&cfg, dir.clone());
            let v: u64 = cache.get_or_run("pair|a+b|shared", || 7);
            assert_eq!(v, 7);
            assert_eq!(cache.stats().misses, 1);
        }
        let cache = RunCache::persistent(&cfg, dir.clone());
        let v: u64 = cache.get_or_run("pair|a+b|shared", || panic!("must hit the disk"));
        assert_eq!(v, 7);
        assert_eq!(cache.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_change_changes_key() {
        let dir = tmp_dir("cfgkey");
        let cache_a = RunCache::persistent(&RunnerConfig::test(), dir.clone());
        let _: u64 = cache_a.get_or_run("solo|x", || 1);
        let mut other = RunnerConfig::test();
        other.seed ^= 1;
        let cache_b = RunCache::persistent(&other, dir.clone());
        let v: u64 = cache_b.get_or_run("solo|x", || 2);
        assert_eq!(v, 2, "different seed must not share entries");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_a_miss() {
        let dir = tmp_dir("corrupt");
        let cfg = RunnerConfig::test();
        let cache = RunCache::persistent(&cfg, dir.clone());
        let _: u64 = cache.get_or_run("solo|y", || 5);
        // Truncate every entry file.
        for f in std::fs::read_dir(&dir).unwrap() {
            std::fs::write(f.unwrap().path(), "{").unwrap();
        }
        let cache2 = RunCache::persistent(&cfg, dir.clone());
        let v: u64 = cache2.get_or_run("solo|y", || 6);
        assert_eq!(v, 6);
        assert_eq!(cache2.stats().misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The single (deterministic) entry file a one-entry cache wrote.
    fn only_entry(dir: &PathBuf) -> PathBuf {
        let mut entries: Vec<PathBuf> =
            std::fs::read_dir(dir).unwrap().map(|f| f.unwrap().path()).collect();
        assert_eq!(entries.len(), 1, "expected exactly one cache entry");
        entries.pop().unwrap()
    }

    /// One degraded-entry scenario: corrupt the stored entry with
    /// `corrupt`, then assert the next lookup is a counted miss that
    /// rewrites the entry so a *third* instance disk-hits again.
    fn assert_degrades_and_heals(label: &str, corrupt: impl Fn(&PathBuf)) {
        let dir = tmp_dir(label);
        let cfg = RunnerConfig::test();
        {
            let cache = RunCache::persistent(&cfg, dir.clone());
            let _: u64 = cache.get_or_run("solo|heal", || 11);
            assert!(cache.stats().bytes_written > 0, "store must count bytes");
        }
        corrupt(&only_entry(&dir));

        let cache = RunCache::persistent(&cfg, dir.clone());
        let v: u64 = cache.get_or_run("solo|heal", || 12);
        let s = cache.stats();
        assert_eq!(v, 12, "{label}: corrupt entry served stale data");
        assert_eq!((s.disk_hits, s.misses), (0, 1), "{label}: must degrade to a miss");
        assert_eq!(s.invalid_entries, 1, "{label}: invalid entry not counted");
        assert!(s.bytes_read > 0, "{label}: read bytes not counted");

        // The miss's store must have atomically replaced the bad file:
        // a fresh instance hits disk again and sees the new value.
        let healed = RunCache::persistent(&cfg, dir.clone());
        let w: u64 = healed.get_or_run("solo|heal", || panic!("{label}: entry not rewritten"));
        assert_eq!(w, 12);
        assert_eq!(healed.stats().disk_hits, 1);
        assert_eq!(healed.stats().invalid_entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_degrades_and_is_rewritten() {
        assert_degrades_and_heals("truncated", |path| {
            let text = std::fs::read_to_string(path).unwrap();
            std::fs::write(path, &text[..text.len() / 2]).unwrap();
        });
    }

    #[test]
    fn stale_schema_version_degrades_and_is_rewritten() {
        assert_degrades_and_heals("schema", |path| {
            let text = std::fs::read_to_string(path).unwrap();
            let stale = text.replace(
                &format!("\"schema\":{SCHEMA_VERSION}"),
                &format!("\"schema\":{}", SCHEMA_VERSION + 999),
            );
            assert_ne!(text, stale, "schema field not found in entry");
            std::fs::write(path, stale).unwrap();
        });
    }

    #[test]
    fn key_mismatch_degrades_and_is_rewritten() {
        // A hash collision would store a different full key in the same
        // file; simulate one by rewriting the embedded key.
        assert_degrades_and_heals("badkey", |path| {
            let text = std::fs::read_to_string(path).unwrap();
            let swapped = text.replace("solo|heal", "solo|collision");
            assert_ne!(text, swapped, "key field not found in entry");
            std::fs::write(path, swapped).unwrap();
        });
    }

    #[test]
    fn stats_expose_bytes_and_hit_ratio() {
        let dir = tmp_dir("bytes");
        let cfg = RunnerConfig::test();
        let cache = RunCache::persistent(&cfg, dir.clone());
        let _: u64 = cache.get_or_run("solo|b", || 1);
        let _: u64 = cache.get_or_run("solo|b", || 2);
        let s = cache.stats();
        assert!(s.bytes_written > 0);
        assert_eq!(s.total(), 2);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_dir_counts_write_errors() {
        // A *file* where the cache directory should be makes every
        // create_dir_all fail — deterministic even when running as root
        // (unlike permission bits).
        let dir = tmp_dir("readonly");
        std::fs::write(&dir, "not a directory").unwrap();
        let cache = RunCache::persistent(&RunnerConfig::test(), dir.clone());
        let v: u64 = cache.get_or_run("solo|ro", || 3);
        assert_eq!(v, 3, "the run itself must still succeed");
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.write_errors, 1, "failed store must be counted");
        assert_eq!(s.bytes_written, 0);
        // And the failure repeats loudly rather than silently.
        let _: u64 = cache.get_or_run("solo|ro2", || 4);
        assert_eq!(cache.stats().write_errors, 2);
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn seen_keys_enumerate_the_grid_without_running() {
        let cache = RunCache::in_memory(&RunnerConfig::test());
        let _: u64 = cache.get_or_run("solo|b|t1", || 1);
        let _: u64 = cache.get_or_run("solo|a|t1", || 2);
        let _: u64 = cache.get_or_run("solo|b|t1", || 3); // dedup
        let _: Option<u64> = cache.lookup("pair|x+y|shared"); // miss still recorded
        assert_eq!(cache.seen_keys(), vec!["pair|x+y|shared", "solo|a|t1", "solo|b|t1"]);
    }

    #[test]
    fn complex_results_roundtrip() {
        use waypart_core::policy::PartitionPolicy;
        use waypart_core::runner::Runner;
        use waypart_workloads::registry;

        let dir = tmp_dir("roundtrip");
        let cfg = RunnerConfig::test();
        let runner = Runner::new(cfg.clone());
        let fg = registry::by_name("swaptions").unwrap();
        let bg = registry::by_name("dedup").unwrap();
        let fresh = {
            let cache = RunCache::persistent(&cfg, dir.clone());
            cache.get_or_run("pair|swaptions+dedup|shared", || {
                runner.run_pair_endless_bg(&fg, &bg, PartitionPolicy::Shared)
            })
        };
        let cache = RunCache::persistent(&cfg, dir.clone());
        let reloaded: waypart_core::runner::PairResult = cache
            .get_or_run("pair|swaptions+dedup|shared", || {
                panic!("second instance must hit the disk")
            });
        assert_eq!(cache.stats().disk_hits, 1);
        assert_eq!(fresh.fg_cycles, reloaded.fg_cycles);
        assert_eq!(fresh.fg_counters, reloaded.fg_counters);
        assert_eq!(fresh.bg_instructions, reloaded.bg_instructions);
        assert!((fresh.bg_rate - reloaded.bg_rate).abs() == 0.0, "f64 must roundtrip exactly");
        assert_eq!(fresh.fg_ways_trace, reloaded.fg_ways_trace);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
