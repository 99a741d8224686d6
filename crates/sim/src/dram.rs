//! Off-chip DRAM bandwidth and queueing model.
//!
//! Memory bandwidth is a shared resource that *cannot* be partitioned on the
//! modeled platform (§3.4); contention for it is what produces the paper's
//! worst-case slowdowns even under optimal LLC partitioning (§8). The model
//! is a quantum-averaged open queue: each simulation quantum the machine
//! reports the number of line transfers demanded, the model computes channel
//! utilization, and the *next* quantum's accesses pay an M/D/1-style
//! queueing penalty on top of the base DRAM latency. Saturation also caps
//! achievable throughput by inflating per-access stall proportionally.

use crate::config::DramConfig;
use serde::{Deserialize, Serialize};

/// Quantum-averaged DRAM channel model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DramModel {
    cfg: DramConfig,
    /// Line transfers requested in the quantum being accumulated.
    demand_lines: u64,
    /// Utilization measured over the previous quantum, in `[0, ∞)`.
    utilization: f64,
    /// Latency multiplier derived from `utilization`, applied this quantum.
    queue_mult: f64,
    /// Total line transfers ever serviced (reads + writes + prefetches).
    pub total_lines: u64,
}

impl DramModel {
    /// A fresh, idle channel.
    pub fn new(cfg: DramConfig) -> Self {
        DramModel { cfg, demand_lines: 0, utilization: 0.0, queue_mult: 1.0, total_lines: 0 }
    }

    /// The effective latency in cycles of a demand access this quantum:
    /// `base_latency` scaled by the queueing multiplier, fixed until the
    /// next [`Self::end_quantum`].
    #[inline]
    pub fn latency(&self, base_latency: u64) -> u64 {
        (base_latency as f64 * self.queue_mult) as u64
    }

    /// Records one line transfer: a demand read, a write-back or a
    /// prefetch fill.
    #[inline]
    pub fn consume(&mut self) {
        self.demand_lines += 1;
        self.total_lines += 1;
    }

    /// Closes a quantum of `quantum_cycles` cycles: computes utilization
    /// and the queueing multiplier to apply next quantum.
    pub fn end_quantum(&mut self, quantum_cycles: u64) {
        let capacity = self.cfg.lines_per_cycle * quantum_cycles as f64;
        self.utilization = self.demand_lines as f64 / capacity.max(1.0);
        // M/D/1 waiting-time growth, clamped: W ≈ ρ / (2 (1 - ρ)).
        let rho = self.utilization.min(0.98);
        let mult = 1.0 + rho / (2.0 * (1.0 - rho));
        // Past saturation, throughput must not exceed capacity: stretch
        // latency linearly with the overload factor.
        let overload = (self.utilization - 1.0).max(0.0);
        self.queue_mult = (mult + overload * 2.0).min(self.cfg.max_queue_mult);
        self.demand_lines = 0;
    }

    /// Channel utilization measured over the last completed quantum
    /// (may exceed 1.0 when demand outstrips capacity).
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// The latency multiplier currently applied to demand accesses.
    pub fn queue_mult(&self) -> f64 {
        self.queue_mult
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig { lines_per_cycle: 0.1, max_queue_mult: 8.0 }
    }

    #[test]
    fn idle_channel_charges_base_latency() {
        let mut d = DramModel::new(cfg());
        d.consume();
        assert_eq!(d.latency(200), 200);
    }

    #[test]
    fn light_load_keeps_multiplier_near_one() {
        let mut d = DramModel::new(cfg());
        for _ in 0..100 {
            d.consume();
        }
        d.end_quantum(100_000); // capacity 10_000 lines, demand 100 → ρ=0.01
        assert!(d.queue_mult() < 1.05, "mult = {}", d.queue_mult());
    }

    #[test]
    fn heavy_load_inflates_latency() {
        let mut d = DramModel::new(cfg());
        for _ in 0..9_500 {
            d.consume();
        }
        d.end_quantum(100_000); // ρ = 0.95
        assert!(d.queue_mult() > 5.0, "mult = {}", d.queue_mult());
        assert!(d.latency(200) > 1000);
    }

    #[test]
    fn overload_hits_the_cap() {
        let mut d = DramModel::new(cfg());
        for _ in 0..40_000 {
            d.consume();
        }
        d.end_quantum(100_000); // ρ = 4.0
        assert!((d.queue_mult() - 8.0).abs() < 1e-9);
        assert!(d.utilization() > 3.9);
    }

    #[test]
    fn quantum_resets_demand() {
        let mut d = DramModel::new(cfg());
        for _ in 0..9_000 {
            d.consume();
        }
        d.end_quantum(100_000);
        let busy_mult = d.queue_mult();
        d.end_quantum(100_000); // empty quantum
        assert!(d.queue_mult() < busy_mult);
        assert!(d.queue_mult() >= 1.0);
    }
}
