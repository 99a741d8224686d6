//! # waypart-experiments
//!
//! One runner per table and figure of the paper's evaluation. Every module
//! regenerates the corresponding artifact as a plain-text table (the same
//! rows/series the paper plots) plus structured data for tests and benches.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig1`] | Fig 1 — thread-scalability curves per suite |
//! | [`table1`] | Table 1 — scalability classes |
//! | [`fig2`] | Fig 2 — LLC-capacity sensitivity, 3 representative apps |
//! | [`table2`] | Table 2 — LLC utility classes |
//! | [`fig3`] | Fig 3 — prefetcher sensitivity |
//! | [`fig4`] | Fig 4 — bandwidth-hog sensitivity |
//! | [`fig5`] | Fig 5 / Table 3 — clustering and representatives |
//! | [`fig6`] | Fig 6 — runtime/MPKI/energy across 96 allocations |
//! | [`fig7`] | Fig 7 — wall-energy contours |
//! | [`fig8`] | Fig 8 — 45×45 pairwise slowdown heatmap |
//! | [`fig9`] | Fig 9 — shared/fair/biased foreground protection |
//! | [`fig10`] | Fig 10 — consolidation socket energy |
//! | [`fig11`] | Fig 11 — weighted speedup |
//! | [`fig12`] | Fig 12 — 429.mcf phase trace, static ways + dynamic |
//! | [`fig13`] | Fig 13 — dynamic background-throughput gains |
//! | [`headline`] | §1/§8 headline numbers |
//! | [`ext_ucp`] | extension: UCP baseline (§7) vs Algorithm 6.2 |
//! | [`ext_trio`] | extension: §5.2's multiple-background-copies case |
//! | [`ext_coloring`] | extension: §7's page-coloring baseline vs way masks |
//! | [`ext_qos`] | extension: refs [20][26]'s IPC-floor QoS dial |
//! | [`ext_mba`] | extension: §8's future work — bandwidth QoS (Intel MBA) |
//! | [`ext_thresholds`] | extension: §6.3's threshold sensitivity study |
//! | [`arena`] | extension: every controller raced over the headline pairs |
//!
//! The [`lab`] module provides the shared, cached measurement context; all
//! experiments scale down consistently via
//! [`waypart_core::runner::RunnerConfig`] presets.

pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod arena;
pub mod ext_coloring;
pub mod ext_mba;
pub mod ext_qos;
pub mod ext_trio;
pub mod ext_ucp;
pub mod fig9;
pub mod headline;
pub mod lab;
pub mod report;
pub mod runcache;
pub mod ext_thresholds;
pub mod table1;
pub mod table2;
pub mod trend;
pub mod util;
pub mod viz;

pub use lab::Lab;
