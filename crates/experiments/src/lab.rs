//! The shared measurement context.
//!
//! [`Lab`] wraps a [`Runner`] with a [`RunCache`] so the characterization
//! experiments (Figs 1–5) and the consolidation baselines (Figs 8–13)
//! never repeat a measurement — the software equivalent of the paper's
//! measurement database. Every solo *and* pair run is memoized: Fig 13
//! reuses Fig 9's shared-policy runs, ext_ucp reuses Fig 13's dynamic
//! runs, and with [`Lab::persistent`] completed runs survive the process,
//! so an interrupted `reproduce` resumes where it stopped.
//!
//! Every run method is a cache key plus a [`RunSpec`], served through one
//! spine ([`Lab::run`]). Below the cache keys sits a run memo keyed by the
//! spec's [`RunIdentity`]: a requested key that misses the cache but names
//! a static run this lab already simulated under another key (a
//! single-threaded app at another thread count, `Fair` versus
//! `Biased { fg_ways: 6 }`) is served that simulation's result. The key
//! still gets its own entry and miss count; only the simulation is
//! skipped (DESIGN.md §5j).

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};
use waypart_core::controller::Controller;
use waypart_core::dynamic::{DynamicConfig, DynamicPartitioner};
use waypart_core::policy::PartitionPolicy;
use waypart_core::qos::{QosConfig, QosController};
use waypart_core::runner::{BothOnceResult, PairResult, Run, RunIdentity, RunSpec, Runner, RunnerConfig, SoloResult};
use waypart_core::ucp::{UcpConfig, UcpController};
use waypart_sim::msr::PrefetcherMask;
use waypart_workloads::{registry, AppSpec};

use crate::runcache::{CacheStats, RunCache};
use waypart_telemetry::{self as telemetry, Event, Stamp};

/// Shared, cached measurement context.
pub struct Lab {
    runner: Runner,
    apps: &'static [AppSpec],
    cache: RunCache,
    /// Results this lab simulated, by run identity and result type (one
    /// identity can be assembled as more than one result). Never shared
    /// with a [`Lab::sibling`], whose runner config differs.
    memo: Mutex<HashMap<(RunIdentity, TypeId), Box<dyn Any + Send>>>,
    /// Cache misses served from a memo instead of simulated, shared with
    /// every [`Lab::sibling`] like the cache's counters.
    memo_served: Arc<AtomicU64>,
}

impl Lab {
    /// A lab over all 45 applications, memoizing runs within this process
    /// only (what unit tests want — no cross-process state).
    pub fn new(cfg: RunnerConfig) -> Self {
        let cache = RunCache::in_memory(&cfg);
        Self::with_cache(cfg, cache, Arc::default())
    }

    /// A lab whose run cache also persists to disk (`results/cache/` or
    /// `$WAYPART_CACHE_DIR`), shared across processes and invocations.
    pub fn persistent(cfg: RunnerConfig) -> Self {
        let cache = RunCache::persistent_default(&cfg);
        Self::with_cache(cfg, cache, Arc::default())
    }

    /// A lab persisted under an explicit cache directory (tests and
    /// tools that must not touch `results/cache/`).
    pub fn persistent_at(cfg: RunnerConfig, dir: PathBuf) -> Self {
        let cache = RunCache::persistent(&cfg, dir);
        Self::with_cache(cfg, cache, Arc::default())
    }

    fn with_cache(cfg: RunnerConfig, cache: RunCache, memo_served: Arc<AtomicU64>) -> Self {
        Lab {
            runner: Runner::new(cfg),
            apps: registry::all(),
            cache,
            memo: Mutex::new(HashMap::new()),
            memo_served,
        }
    }

    /// A lab over a different runner configuration that inherits this
    /// lab's persistence mode. For experiments that need their own
    /// machine model (e.g. the page-coloring comparison, which requires
    /// modulo indexing) while still sharing the on-disk store. Its cache
    /// traffic and memo-served runs count in this lab's
    /// [`Self::cache_stats`] and [`Self::memo_served`] (and the other way
    /// round); its cache entries and memo are its own.
    pub fn sibling(&self, cfg: RunnerConfig) -> Self {
        let cache = self.cache.sibling(&cfg);
        Self::with_cache(cfg, cache, Arc::clone(&self.memo_served))
    }

    /// Cache misses served by an identical simulation already run under
    /// another key; the rest of `cache_stats().misses` were simulated.
    pub fn memo_served(&self) -> u64 {
        self.memo_served.load(Ordering::Relaxed)
    }

    /// The memoized result of the run `id`, counted as memo-served.
    fn memoized<T: Clone + 'static>(&self, id: &RunIdentity) -> Option<T> {
        let memo = self.memo.lock().expect("no panic while holding the memo");
        let hit =
            memo.get(&(id.clone(), TypeId::of::<T>())).map(|v| v.downcast_ref::<T>().expect("keyed by type").clone());
        if hit.is_some() {
            self.memo_served.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Remembers the simulated result of the run `id`.
    fn memoize<T: Clone + Send + 'static>(&self, id: RunIdentity, value: &T) {
        let mut memo = self.memo.lock().expect("no panic while holding the memo");
        memo.insert((id, TypeId::of::<T>()), Box::new(value.clone()));
    }

    /// The result of the run `id`: memoized, or simulated by `simulate` and
    /// memoized; simulated every time for a run without an identity. Two
    /// workers racing on one identity both simulate; determinism makes the
    /// duplicate harmless.
    fn simulate_once<T, F>(&self, id: Option<RunIdentity>, simulate: F) -> T
    where
        T: Clone + Send + 'static,
        F: FnOnce() -> T,
    {
        let Some(id) = id else { return simulate() };
        if let Some(v) = self.memoized(&id) {
            return v;
        }
        let v = simulate();
        self.memoize(id, &v);
        v
    }

    /// The spine every run method goes through: `key`'s cached result, or
    /// else `spec` served by the memo or simulated, then `assemble`d.
    fn run<T>(&self, key: &str, spec: RunSpec<'_>, assemble: fn(&mut Run) -> T) -> T
    where
        T: Serialize + Deserialize + Clone + Send + 'static,
    {
        let id = spec.identity();
        self.cache.get_or_run(key, || self.simulate_once(id, || assemble(&mut self.runner.run(spec))))
    }

    /// The underlying runner.
    pub fn runner(&self) -> &Runner {
        &self.runner
    }

    /// The run cache (for hit/miss reporting).
    pub fn cache(&self) -> &RunCache {
        &self.cache
    }

    /// Cache counters since construction, siblings' included.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// All application specs.
    pub fn apps(&self) -> &[AppSpec] {
        self.apps
    }

    /// Looks up an app by name.
    ///
    /// # Panics
    /// Panics if the name is unknown.
    pub fn app(&self, name: &str) -> &AppSpec {
        self.apps.iter().find(|a| a.name == name).unwrap_or_else(|| panic!("unknown app {name}"))
    }

    /// A cached solo run with all prefetchers enabled.
    pub fn solo(&self, app: &AppSpec, threads: usize, ways: usize) -> SoloResult {
        self.solo_configured(app, threads, ways, true)
    }

    /// A cached solo run with prefetchers all-on or all-off.
    pub fn solo_configured(&self, app: &AppSpec, threads: usize, ways: usize, prefetchers: bool) -> SoloResult {
        let key = format!("solo|{}|t{threads}w{ways}pf{}", app.name, u8::from(prefetchers));
        let pf = if prefetchers { PrefetcherMask::all_enabled() } else { PrefetcherMask::all_disabled() };
        let res = self.run(&key, self.runner.solo_spec(app, threads, ways, pf), Run::solo);
        assert!(!res.truncated, "{} truncated at {} threads / {} ways — raise max_quanta", app.name, threads, ways);
        res
    }

    /// A cached endless-background pair run (foreground runs to
    /// completion, background restarts forever).
    pub fn pair_endless_bg(&self, fg: &AppSpec, bg: &AppSpec, policy: PartitionPolicy) -> PairResult {
        let key = format!("pair|{}+{}|{}", fg.name, bg.name, serde::json::to_string(&policy));
        self.run(&key, self.runner.pair_spec(fg, bg, policy), Run::pair)
    }

    /// The batch form of [`Self::pair_endless_bg`]: the same pairing
    /// under each `policy`, results in policy order, cached under the
    /// identical per-policy keys. Cached policies are served without
    /// simulating, and so are misses whose run identity is memoized; the
    /// rest run together through [`Runner::run_batch`], one lane per
    /// distinct identity, lockstep-batched over one shared workload
    /// generator when eligible.
    pub fn pair_endless_bg_batch(
        &self,
        fg: &AppSpec,
        bg: &AppSpec,
        policies: &[PartitionPolicy],
    ) -> Vec<PairResult> {
        let keys: Vec<String> = policies
            .iter()
            .map(|p| format!("pair|{}+{}|{}", fg.name, bg.name, serde::json::to_string(p)))
            .collect();
        let mut results: Vec<Option<PairResult>> = keys.iter().map(|k| self.cache.lookup(k)).collect();
        let missing: Vec<usize> = (0..policies.len()).filter(|&i| results[i].is_none()).collect();
        let spec = |policy| self.runner.pair_spec(fg, bg, policy);
        let ids: Vec<RunIdentity> =
            policies.iter().map(|&p| spec(p).identity().expect("a static pair has an identity")).collect();
        // One lane per distinct identity the memo does not hold.
        let mut lanes: Vec<usize> = Vec::new();
        for &i in &missing {
            results[i] = self.memoized(&ids[i]);
            if results[i].is_none() && !lanes.iter().any(|&l| ids[l] == ids[i]) {
                lanes.push(i);
            }
        }
        let lane_specs = lanes.iter().map(|&l| spec(policies[l])).collect();
        for (&l, res) in lanes.iter().zip(self.runner.run_batch(lane_specs, Run::pair)) {
            self.memoize(ids[l].clone(), &res);
            results[l] = Some(res);
        }
        for &i in &missing {
            let res = match results[i].take() {
                Some(res) => res,
                None => self.memoized(&ids[i]).expect("a lane simulated every missing identity"),
            };
            self.cache.insert(&keys[i], &res);
            results[i] = Some(res);
        }
        results.into_iter().map(|r| r.expect("every policy resolved")).collect()
    }

    /// A cached bandwidth-hog pair run (Fig 4's shape: `fg` shares the
    /// LLC with an endless hog on the other socket half). Keyed under
    /// `hog|` — the run is a pure function of the config like any other
    /// pair run, so warm reproduces replay it instead of re-simulating
    /// the single most expensive figure.
    pub fn pair_hog(&self, fg: &AppSpec, hog: &AppSpec) -> PairResult {
        let key = format!("hog|{}+{}", fg.name, hog.name);
        self.run(&key, self.runner.hog_spec(fg, hog), Run::pair)
    }

    /// A cached run-both-once pair run (consolidation energy accounting).
    pub fn pair_both_once(&self, fg: &AppSpec, bg: &AppSpec, policy: PartitionPolicy) -> BothOnceResult {
        let key = format!("both|{}+{}|{}", fg.name, bg.name, serde::json::to_string(&policy));
        self.run(&key, self.runner.both_once_spec(fg, bg, policy), Run::both_once)
    }

    /// A cached dynamically-partitioned pair run (Algorithm 6.2).
    pub fn pair_dynamic(&self, fg: &AppSpec, bg: &AppSpec, dyn_cfg: DynamicConfig) -> PairResult {
        self.pair_controlled("dyn", fg, bg, &dyn_cfg, DynamicPartitioner::new(dyn_cfg))
    }

    /// A cached UCP-controlled pair run (§7 baseline).
    pub fn pair_ucp(&self, fg: &AppSpec, bg: &AppSpec, ucp_cfg: UcpConfig) -> PairResult {
        self.pair_controlled("ucp", fg, bg, &ucp_cfg, UcpController::new(ucp_cfg))
    }

    /// A cached QoS-controlled pair run.
    pub fn pair_qos(&self, fg: &AppSpec, bg: &AppSpec, qos_cfg: QosConfig) -> PairResult {
        self.pair_controlled("qos", fg, bg, &qos_cfg, QosController::new(qos_cfg))
    }

    /// A cached pair run partitioned by `ctl`, keyed `{prefix}|fg+bg|` and
    /// the JSON of the controller's `cfg`.
    ///
    /// Then emits a `dyn.run` summary of the result, *after* the cache
    /// returns it, so a warm cache still produces one summary per
    /// controller run — without this, a fully cached `reproduce` would
    /// show zero controller activity in its metrics even though the
    /// figures are full of it. Wall-stamped: it describes a result being
    /// *used* now, not simulated now.
    fn pair_controlled(
        &self,
        prefix: &str,
        fg: &AppSpec,
        bg: &AppSpec,
        cfg: &impl Serialize,
        ctl: impl Controller + 'static,
    ) -> PairResult {
        let key = format!("{prefix}|{}+{}|{}", fg.name, bg.name, serde::json::to_string(cfg));
        let policy = ctl.policy();
        let res = self.run(&key, self.runner.controlled_spec(fg, bg, ctl), Run::pair);
        telemetry::emit_with(|| {
            Event::instant("dyn.run", Stamp::WallUs(telemetry::wall_now_us()))
                .field("kind", policy)
                .field("fg", fg.name)
                .field("bg", bg.name)
                .field("fg_cycles", res.fg_cycles)
                .field("reallocations", res.reallocations)
                .field("final_fg_ways", res.fg_ways_trace.last().map(|&(_, w)| w).unwrap_or(0))
        });
        res
    }

    /// A cached pair run with multiple background copies.
    pub fn pair_multi_bg(&self, fg: &AppSpec, bg: &AppSpec, copies: usize, policy: PartitionPolicy) -> PairResult {
        let key =
            format!("multi|{}+{}x{copies}|{}", fg.name, bg.name, serde::json::to_string(&policy));
        self.run(&key, self.runner.multi_bg_spec(fg, bg, copies, policy), Run::pair)
    }

    /// A cached page-colored pair run (§7 software baseline).
    pub fn pair_colored(&self, fg: &AppSpec, bg: &AppSpec, fg_groups: usize) -> PairResult {
        let key = format!("color|{}+{}|g{fg_groups}", fg.name, bg.name);
        self.run(&key, self.runner.colored_spec(fg, bg, fg_groups), Run::pair)
    }

    /// A cached pair run with the background under an MBA throttle.
    pub fn pair_mba(
        &self,
        fg: &AppSpec,
        bg: &AppSpec,
        policy: PartitionPolicy,
        bg_mba_percent: u8,
    ) -> PairResult {
        let key = format!(
            "mba|{}+{}|{}|p{bg_mba_percent}",
            fg.name,
            bg.name,
            serde::json::to_string(&policy)
        );
        self.run(&key, self.runner.mba_spec(fg, bg, policy, bg_mba_percent), Run::pair)
    }

    /// The solo baseline the multiprogram experiments normalize against:
    /// 4 threads on 2 cores, full LLC (§5).
    pub fn pair_baseline(&self, app: &AppSpec) -> SoloResult {
        self.solo(app, 4, self.runner.config().machine.llc.ways)
    }

    /// Number of cached runs (for tests).
    pub fn cached_runs(&self) -> usize {
        self.cache.mem_len()
    }
}

impl std::fmt::Debug for Lab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lab").field("apps", &self.apps.len()).field("cached_runs", &self.cached_runs()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hits_avoid_reruns() {
        let lab = Lab::new(RunnerConfig::test());
        let app = lab.app("swaptions").clone();
        let a = lab.solo(&app, 2, 12);
        assert_eq!(lab.cached_runs(), 1);
        let b = lab.solo(&app, 2, 12);
        assert_eq!(lab.cached_runs(), 1);
        assert_eq!(a.cycles, b.cycles);
        let stats = lab.cache_stats();
        assert_eq!((stats.mem_hits, stats.misses), (1, 1));
    }

    #[test]
    fn distinct_configs_cache_separately() {
        let lab = Lab::new(RunnerConfig::test());
        let app = lab.app("swaptions").clone();
        lab.solo(&app, 2, 12);
        lab.solo(&app, 2, 6);
        lab.solo_configured(&app, 2, 12, false);
        assert_eq!(lab.cached_runs(), 3);
    }

    #[test]
    fn pair_runs_are_cached_too() {
        let lab = Lab::new(RunnerConfig::test());
        let fg = lab.app("swaptions").clone();
        let bg = lab.app("dedup").clone();
        let a = lab.pair_endless_bg(&fg, &bg, PartitionPolicy::Shared);
        let b = lab.pair_endless_bg(&fg, &bg, PartitionPolicy::Shared);
        assert_eq!(a.fg_cycles, b.fg_cycles);
        assert_eq!(lab.cache_stats().mem_hits, 1);
        // A different policy is a different run.
        let c = lab.pair_endless_bg(&fg, &bg, PartitionPolicy::Biased { fg_ways: 8 });
        assert!(c.fg_cycles > 0);
        assert_eq!(lab.cached_runs(), 2);
    }

    #[test]
    fn pair_batch_matches_sequential_runs() {
        // The lockstep batch must be invisible in the results: every
        // field of every policy's PairResult identical to a private
        // sequential run (JSON compare covers counters, energy, and the
        // full MPKI series at once).
        let seq_lab = Lab::new(RunnerConfig::test());
        let batch_lab = Lab::new(RunnerConfig::test());
        let fg = seq_lab.app("swaptions").clone();
        let bg = seq_lab.app("dedup").clone();
        let policies = [
            PartitionPolicy::Shared,
            PartitionPolicy::Fair,
            PartitionPolicy::Biased { fg_ways: 3 },
            PartitionPolicy::Biased { fg_ways: 6 },
            PartitionPolicy::Biased { fg_ways: 11 },
        ];
        let batch = batch_lab.pair_endless_bg_batch(&fg, &bg, &policies);
        assert_eq!(batch.len(), policies.len());
        // Fair and Biased { 6 } are one run on the 12-way LLC: one lane
        // fewer simulates, and both keys are still cached.
        assert_eq!((batch_lab.cache_stats().misses, batch_lab.memo_served()), (5, 1));
        for (policy, batched) in policies.iter().zip(&batch) {
            let sequential = seq_lab.pair_endless_bg(&fg, &bg, *policy);
            assert_eq!(
                serde::json::to_string(&sequential),
                serde::json::to_string(batched),
                "lockstep diverged under {policy:?}"
            );
        }
    }

    #[test]
    fn pair_batch_serves_cached_policies() {
        let lab = Lab::new(RunnerConfig::test());
        let fg = lab.app("swaptions").clone();
        let bg = lab.app("dedup").clone();
        let warm = lab.pair_endless_bg(&fg, &bg, PartitionPolicy::Fair);
        let policies = [PartitionPolicy::Fair, PartitionPolicy::Biased { fg_ways: 8 }];
        let batch = lab.pair_endless_bg_batch(&fg, &bg, &policies);
        assert_eq!(batch[0].fg_cycles, warm.fg_cycles);
        let stats = lab.cache_stats();
        assert_eq!((stats.mem_hits, stats.misses), (1, 2), "only the biased run simulates");
        // A repeat batch is fully served from cache.
        lab.pair_endless_bg_batch(&fg, &bg, &policies);
        assert_eq!(lab.cache_stats().mem_hits, 3);
    }

    #[test]
    fn single_threaded_thread_counts_simulate_once() {
        let dir = tmp_dir("memo");
        let cfg = RunnerConfig::test();
        let lab = Lab::persistent_at(cfg.clone(), dir.clone());
        let app = lab.app("453.povray").clone();
        let threads = [1usize, 2, 4];
        let runs: Vec<String> =
            threads.iter().map(|&t| serde::json::to_string(&lab.solo(&app, t, 4))).collect();
        assert!(runs.iter().all(|r| r == &runs[0]));
        assert_eq!((lab.cache_stats().misses, lab.memo_served()), (3, 2), "three keys, one simulation");
        let keys: Vec<String> = threads.iter().map(|t| format!("solo|453.povray|t{t}w4pf1")).collect();
        assert_eq!(lab.cache().seen_keys(), keys);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("cache dir")
            .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 entry name"))
            .collect();
        let is_entry = |n: &String| {
            n.strip_suffix(".json").is_some_and(|h| h.len() == 16 && h.bytes().all(|b| b.is_ascii_hexdigit()))
        };
        assert!(names.iter().all(is_entry), "only `<hash>.json` entries stay in the cache dir: {names:?}");
        assert_eq!(names.len(), 3, "each key has its own disk entry");

        let replay = Lab::persistent_at(cfg, dir.clone());
        for (&t, want) in threads.iter().zip(&runs) {
            assert_eq!(&serde::json::to_string(&replay.solo(&app, t, 4)), want);
        }
        let stats = replay.cache_stats();
        assert_eq!((stats.misses, stats.disk_hits), (0, 3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sibling_runs_count_in_the_parent_totals() {
        let lab = Lab::new(RunnerConfig::test());
        let sibling = lab.sibling(RunnerConfig::test_colored());
        let app = lab.app("453.povray").clone();
        // Single-threaded: the 2-thread key is served the 1-thread run.
        sibling.solo(&app, 1, 4);
        sibling.solo(&app, 2, 4);
        sibling.solo(&app, 1, 4);
        let stats = lab.cache_stats();
        assert_eq!((stats.mem_hits, stats.misses, lab.memo_served()), (1, 2, 1));
        // The memo stays per lab: the parent's config simulates afresh.
        lab.solo(&app, 1, 4);
        assert_eq!((lab.cache_stats().misses, lab.memo_served()), (3, 1));
        assert_eq!((lab.cached_runs(), sibling.cached_runs()), (1, 2));
    }

    #[test]
    #[should_panic(expected = "unknown app")]
    fn unknown_app_panics() {
        let lab = Lab::new(RunnerConfig::test());
        let _ = lab.app("not-a-benchmark");
    }

    fn tmp_dir(label: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("waypart-lab-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}
