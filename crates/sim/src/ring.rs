//! On-chip ring interconnect model.
//!
//! All cores reach the LLC over a shared ring (§2.1). Like DRAM bandwidth,
//! ring bandwidth cannot be partitioned; under co-scheduling it is a second
//! source of contention (§5.2 attributes residual degradation to "bandwidth
//! contention on the on-chip ring interconnect or off-chip DRAM
//! interface"). The model mirrors [`crate::dram::DramModel`]: quantum-
//! averaged utilization drives a queueing multiplier on LLC access latency.

use crate::config::RingConfig;
use serde::{Deserialize, Serialize};

/// Quantum-averaged ring bandwidth model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RingModel {
    cfg: RingConfig,
    requests: u64,
    utilization: f64,
    queue_mult: f64,
    /// Total LLC requests ever carried.
    pub total_requests: u64,
}

impl RingModel {
    /// A fresh, idle ring.
    pub fn new(cfg: RingConfig) -> Self {
        RingModel { cfg, requests: 0, utilization: 0.0, queue_mult: 1.0, total_requests: 0 }
    }

    /// Records one LLC request.
    #[inline]
    pub fn request(&mut self) {
        self.requests += 1;
        self.total_requests += 1;
    }

    /// The effective LLC access latency for `base_latency` this quantum:
    /// fixed until the next [`Self::end_quantum`].
    #[inline]
    pub fn latency(&self, base_latency: u64) -> u64 {
        (base_latency as f64 * self.queue_mult) as u64
    }

    /// Closes a quantum: updates utilization and next quantum's multiplier.
    pub fn end_quantum(&mut self, quantum_cycles: u64) {
        let capacity = self.cfg.requests_per_cycle * quantum_cycles as f64;
        self.utilization = self.requests as f64 / capacity.max(1.0);
        let rho = self.utilization.min(0.98);
        let mult = 1.0 + rho / (2.0 * (1.0 - rho));
        let overload = (self.utilization - 1.0).max(0.0);
        self.queue_mult = (mult + overload).min(self.cfg.max_queue_mult);
        self.requests = 0;
    }

    /// Ring utilization over the last completed quantum.
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// The multiplier applied to LLC latency this quantum.
    pub fn queue_mult(&self) -> f64 {
        self.queue_mult
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_ring_is_free() {
        let mut r = RingModel::new(RingConfig { requests_per_cycle: 1.0, max_queue_mult: 3.0 });
        r.request();
        assert_eq!(r.latency(30), 30);
        r.end_quantum(1000);
        assert!(r.queue_mult() < 1.01);
    }

    #[test]
    fn saturated_ring_slows_llc() {
        let mut r = RingModel::new(RingConfig { requests_per_cycle: 0.5, max_queue_mult: 3.0 });
        for _ in 0..490 {
            r.request();
        }
        r.end_quantum(1000); // ρ = 0.98
        assert!(r.queue_mult() > 2.0);
        assert!(r.latency(30) > 60);
    }

    #[test]
    fn multiplier_capped() {
        let mut r = RingModel::new(RingConfig { requests_per_cycle: 0.1, max_queue_mult: 3.0 });
        for _ in 0..10_000 {
            r.request();
        }
        r.end_quantum(1000);
        assert!((r.queue_mult() - 3.0).abs() < 1e-9);
    }
}
