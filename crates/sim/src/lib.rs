//! # waypart-sim
//!
//! An execution-driven multicore cache-hierarchy simulator modeled on the
//! prototype Sandy Bridge client platform used by Cook et al. (ISCA 2013) in
//! *"A Hardware Evaluation of Cache Partitioning to Improve Utilization and
//! Energy-Efficiency while Preserving Responsiveness"*.
//!
//! The simulated machine has:
//!
//! * 4 out-of-order cores, each with 2 hyperthreads (8 hardware threads);
//! * private 32 KB L1 data caches and 256 KB non-inclusive L2 caches;
//! * a shared 12-way, 6 MB **inclusive** last-level cache (LLC) reached over
//!   a ring interconnect;
//! * **way-based LLC partitioning**: each core owns a subset of the 12 ways.
//!   A core may *hit* on data held in any way but may only *replace* data in
//!   its assigned ways, and data is not flushed when allocations change —
//!   exactly the mechanism semantics of the paper's prototype;
//! * four hardware prefetchers (DCU IP, DCU streamer, MLC spatial, MLC
//!   streamer), individually switchable through a simulated MSR bank;
//! * bandwidth/queueing models for the on-chip ring and off-chip DRAM;
//! * per-hyperthread hardware performance counters (the substrate for the
//!   `waypart-perfmon` libpfm analog).
//!
//! Applications drive the machine through the [`stream::AccessStream`] trait:
//! a stream yields memory accesses separated by instruction gaps, and the
//! machine charges compute cycles, cache latencies, and queueing delays to
//! the issuing hyperthread.
//!
//! ```
//! use waypart_sim::config::MachineConfig;
//! use waypart_sim::machine::Machine;
//!
//! let cfg = MachineConfig::sandy_bridge();
//! let machine = Machine::new(cfg);
//! assert_eq!(machine.config().cores, 4);
//! assert_eq!(machine.config().llc.ways, 12);
//! ```

pub mod addr;
pub mod cache;
pub mod coloring;
pub mod config;
pub mod counters;
pub mod dram;
pub mod hierarchy;
pub mod machine;
pub mod msr;
pub mod plru;
pub mod prefetch;
pub mod ring;
pub mod stream;
pub mod tallies;
pub mod umon;
pub mod waymask;

pub use addr::LineAddr;
pub use config::MachineConfig;
pub use machine::Machine;
pub use waymask::WayMask;

/// Identifier of a physical core (0-based).
pub type CoreId = usize;

/// Identifier of a hardware thread (hyperthread), 0-based across the socket.
///
/// Hyperthread `h` belongs to core `h / 2`; the paper pins applications to
/// hyperthreads with `taskset`, which we model with explicit assignment.
pub type HwThreadId = usize;

/// Simulated clock cycles.
pub type Cycles = u64;
