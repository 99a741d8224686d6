//! Phase-level wall-time attribution.
//!
//! Four always-compiled nanosecond accumulators (stream generation,
//! probe+fill, controller, run-cache IO) partition a run's wall time for
//! `reproduce`'s "where the time went" table. They are gated behind one
//! relaxed atomic flag and sampled at buffer/quantum granularity — never
//! per access — so the sim hot path pays two `Instant` reads per
//! 256-event refill when enabled and a single load when not.
//!
//! Everything here is observation-only: no simulation state, artifact
//! byte, or cache key depends on any value in this module.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// A wall-time attribution bucket. The four buckets partition where a
/// `reproduce` run spends its time; anything outside them is reported as
/// "other" by the caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Synthetic access-stream generation (`AccessStream::fill`).
    StreamGen = 0,
    /// Cache probe + fill + stat charging (the sim drain loop).
    ProbeFill = 1,
    /// Partitioning-controller window observation/decision (every
    /// `Controller`: dynamic, UCP, QoS and the arena's).
    Controller = 2,
    /// Run-cache disk reads and writes.
    RuncacheIo = 3,
}

/// Stable names for the phase buckets, in `Phase` discriminant order.
pub const PHASE_NAMES: [&str; 4] = ["stream_gen", "probe_fill", "controller", "runcache_io"];

static PHASE_NS: [AtomicU64; 4] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
static TIMING: AtomicBool = AtomicBool::new(false);

/// Turns the phase timers on for the rest of the process. `reproduce`
/// calls this at startup; library users and benches leave them off.
pub fn enable_phase_timers() {
    TIMING.store(true, Ordering::Release);
}

/// Starts a phase measurement. Returns `None` (and costs one relaxed
/// atomic load — the hot-path fast gate) when timers are off.
#[inline]
pub fn phase_begin() -> Option<Instant> {
    if TIMING.load(Ordering::Relaxed) {
        Some(Instant::now())
    } else {
        None
    }
}

/// Ends a measurement started by [`phase_begin`], crediting the elapsed
/// time to `phase`. No-op for `None`.
#[inline]
pub fn phase_add(phase: Phase, started: Option<Instant>) {
    if let Some(t0) = started {
        PHASE_NS[phase as usize].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Snapshot of the per-phase accumulators as `(name, nanoseconds)` in
/// [`PHASE_NAMES`] order.
pub fn phase_snapshot() -> Vec<(&'static str, u64)> {
    PHASE_NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| (*name, PHASE_NS[i].load(Ordering::Relaxed)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn phase_accumulators_accumulate() {
        enable_phase_timers();
        let t0 = phase_begin();
        assert!(t0.is_some());
        std::thread::sleep(Duration::from_millis(2));
        phase_add(Phase::RuncacheIo, t0);
        let ns = phase_snapshot()
            .iter()
            .find(|(n, _)| *n == "runcache_io")
            .map(|(_, ns)| *ns)
            .unwrap();
        assert!(ns >= 1_000_000, "2ms sleep must register, got {ns}ns");
    }
}
