//! The controller arena: every registered policy raced head-to-head
//! over every headline co-schedule pair (ROADMAP item 1).
//!
//! Four policies compete — the paper's dynamic controller
//! (Algorithm 6.2), the UCP lookahead baseline (§7), the IPC-floor QoS
//! controller (refs [20][26]), and a static-biased split with the
//! background under an MBA bandwidth throttle (§8's future work) — over
//! the 36 ordered pairs of the six cluster representatives, i.e. the
//! same grid Figs 9–13 report on. Every run goes through the `Lab` run
//! cache under the *same* keys the existing extension experiments use
//! (`dyn|`/`ucp|`/`qos|`/`mba|` with identical configs), so an arena
//! after a full `reproduce` only pays for the policies no other figure
//! measured, and a warm rerun replays byte-identically.
//!
//! The scoreboard metrics (per pair, then aggregated per policy):
//!
//! * **fg slowdown** — co-scheduled over solo foreground time;
//! * **weighted speedup** — normalized foreground progress
//!   (solo/pair cycles) plus normalized background progress
//!   (co-scheduled bg rate over solo bg IPC). Both sides run on half
//!   the machine, so 2.0 means consolidation was free; this is the
//!   endless-background analogue of Fig 11's both-once formula;
//! * **fairness** — min/max of those two normalized progresses
//!   (LFOC's metric: 1.0 = both degrade equally);
//! * **energy** — socket Joules until foreground completion;
//! * **p99 fg slowdown** — nearest-rank p99 across the pair grid, the
//!   responsiveness tail the paper's abstract leads with.
//!
//! [`render_arena_html`] is a pure function of the [`Arena`] value
//! (fixture-tested like the trend page) producing one self-contained
//! HTML page: the scoreboard plus, per pair, overlaid per-policy MPKI
//! and derived-IPC sparklines and a ways-allocation ribbon — Fig 12/13
//! in head-to-head form. Honest limits: the ribbon shows *allocated*
//! foreground ways (the controller's output), not measured per-core
//! occupancy, and the IPC series is derived from the cached MPKI
//! series' cumulative instruction counts at fixed sampling windows —
//! the run cache stores no direct per-window IPC.

use crate::lab::Lab;
use crate::report::Table;
use crate::util::parallel_map;
use crate::viz::{html_escape, svg_heatmap, svg_multi_sparkline, SERIES_COLORS};
use serde::{Deserialize, Serialize};
use waypart_analysis::metrics;
use waypart_core::dynamic::DynamicConfig;
use waypart_core::policy::PartitionPolicy;
use waypart_core::qos::QosConfig;
use waypart_core::runner::PairResult;
use waypart_core::ucp::UcpConfig;
use waypart_workloads::registry::CLUSTER_REPRESENTATIVES;

/// The racing order — also the color order of every overlaid plot.
pub const POLICIES: [&str; 4] = ["dynamic", "ucp", "qos", "mba"];

/// The MBA lane's static split and background throttle (the middle of
/// ext_mba's sweep, sharing its cache keys).
const MBA_FG_WAYS: usize = 9;
const MBA_THROTTLE: u8 = 25;

/// Longest per-cell series kept in the arena data (the dashboards
/// downsample to pixels anyway; full-scale runs have thousands of
/// windows).
const MAX_SERIES_POINTS: usize = 100;

/// One (policy, pair) race result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArenaCell {
    /// Policy name (one of [`POLICIES`]).
    pub policy: String,
    /// Foreground application.
    pub fg: String,
    /// Background application (continuously running).
    pub bg: String,
    /// Foreground completion time (cycles).
    pub fg_cycles: u64,
    /// Co-scheduled over solo foreground time.
    pub fg_slowdown: f64,
    /// Normalized foreground progress (solo/pair cycles).
    pub fg_norm: f64,
    /// Normalized background progress (pair bg rate / solo bg IPC).
    pub bg_norm: f64,
    /// `fg_norm + bg_norm`.
    pub weighted_speedup: f64,
    /// `min/max` of the two normalized progresses.
    pub fairness: f64,
    /// Socket energy until foreground completion (J).
    pub energy_j: f64,
    /// Mask reprogrammings performed by the controller.
    pub reallocations: u64,
    /// Per-window foreground MPKI (downsampled).
    pub mpki: Vec<f64>,
    /// Per-window foreground IPC derived from the MPKI series'
    /// cumulative instruction counts (downsampled).
    pub ipc: Vec<f64>,
    /// `(cycle, fg_ways)` reallocation trace (starts at cycle 0).
    pub ways: Vec<(u64, usize)>,
}

/// The whole arena: every policy over every pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Arena {
    /// Perfmon sampling window (cycles) the series were recorded at.
    pub sample_interval: u64,
    /// LLC ways on the simulated machine.
    pub total_ways: usize,
    /// Cells in (pair-major, policy-minor) order.
    pub cells: Vec<ArenaCell>,
}

/// One policy's scoreboard row, aggregated over the pair grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreRow {
    /// Policy name.
    pub policy: String,
    /// Mean weighted speedup.
    pub weighted_speedup: f64,
    /// Mean fairness.
    pub fairness: f64,
    /// Mean socket energy per pair (J).
    pub energy_j: f64,
    /// Mean foreground slowdown.
    pub fg_slowdown_mean: f64,
    /// Nearest-rank p99 foreground slowdown over the pair grid.
    pub fg_slowdown_p99: f64,
    /// Total reallocations across the grid.
    pub reallocations: u64,
}

/// Evenly downsamples `values` to at most [`MAX_SERIES_POINTS`],
/// always keeping the final point.
fn downsample(values: Vec<f64>) -> Vec<f64> {
    if values.len() <= MAX_SERIES_POINTS {
        return values;
    }
    let last = values.len() - 1;
    (0..MAX_SERIES_POINTS)
        .map(|i| values[i * last / (MAX_SERIES_POINTS - 1)])
        .collect()
}

/// Derives the per-window IPC series: the MPKI series records the
/// cumulative retired instructions at each fixed-width window close, so
/// each window's IPC is its instruction delta over the interval.
fn derive_ipc(points: &[(u64, f64)], sample_interval: u64) -> Vec<f64> {
    let mut prev = 0u64;
    points
        .iter()
        .map(|&(cum, _)| {
            let delta = cum.saturating_sub(prev);
            prev = cum;
            delta as f64 / sample_interval.max(1) as f64
        })
        .collect()
}

fn cell_from(policy: &str, fg: &str, bg: &str, r: &PairResult, solo_fg_cycles: u64, solo_bg_ipc: f64, sample_interval: u64) -> ArenaCell {
    assert!(!r.truncated, "{policy} {fg}+{bg} truncated — raise max_quanta");
    let fg_norm = solo_fg_cycles as f64 / r.fg_cycles.max(1) as f64;
    let bg_norm = r.bg_rate / solo_bg_ipc;
    ArenaCell {
        policy: policy.to_string(),
        fg: fg.to_string(),
        bg: bg.to_string(),
        fg_cycles: r.fg_cycles,
        fg_slowdown: metrics::slowdown(r.fg_cycles, solo_fg_cycles),
        fg_norm,
        bg_norm,
        weighted_speedup: fg_norm + bg_norm,
        fairness: metrics::fairness(fg_norm, bg_norm),
        energy_j: r.energy.socket_j,
        reallocations: r.reallocations,
        mpki: downsample(r.fg_mpki.points().iter().map(|&(_, m)| m).collect()),
        ipc: downsample(derive_ipc(r.fg_mpki.points(), sample_interval)),
        ways: r.fg_ways_trace.clone(),
    }
}

/// Races every policy over the ordered pairs of `names`.
pub fn run_for(lab: &Lab, names: &[&str]) -> Arena {
    let specs: Vec<_> = names.iter().map(|n| lab.app(n).clone()).collect();
    let solos = parallel_map((0..specs.len()).collect(), |&i| {
        let s = lab.pair_baseline(&specs[i]);
        (s.cycles, s.counters.instructions as f64 / s.cycles.max(1) as f64)
    });
    let sample_interval = lab.runner().config().sample_interval;
    let jobs: Vec<(usize, usize)> =
        (0..specs.len()).flat_map(|f| (0..specs.len()).map(move |b| (f, b))).collect();
    let cells: Vec<Vec<ArenaCell>> = parallel_map(jobs, |&(f, b)| {
        let (fg, bg) = (&specs[f], &specs[b]);
        let (solo_cycles, _) = solos[f];
        let (_, solo_bg_ipc) = solos[b];
        POLICIES
            .iter()
            .map(|&policy| {
                let r = match policy {
                    "dynamic" => lab.pair_dynamic(fg, bg, DynamicConfig::paper()),
                    "ucp" => lab.pair_ucp(fg, bg, UcpConfig::default_12way()),
                    "qos" => lab.pair_qos(fg, bg, QosConfig::guarantee_95()),
                    "mba" => lab.pair_mba(
                        fg,
                        bg,
                        PartitionPolicy::Biased { fg_ways: MBA_FG_WAYS },
                        MBA_THROTTLE,
                    ),
                    other => unreachable!("unregistered policy {other}"),
                };
                cell_from(policy, fg.name, bg.name, &r, solo_cycles, solo_bg_ipc, sample_interval)
            })
            .collect()
    });
    Arena {
        sample_interval,
        total_ways: lab.runner().config().machine.llc.ways,
        cells: cells.into_iter().flatten().collect(),
    }
}

/// Races the headline pair set: ordered pairs of the six cluster
/// representatives (the Fig 9–13 grid).
pub fn run(lab: &Lab) -> Arena {
    run_for(lab, &CLUSTER_REPRESENTATIVES)
}

impl Arena {
    /// Per-policy aggregates in [`POLICIES`] order (policies with no
    /// cells are skipped).
    pub fn scoreboard(&self) -> Vec<ScoreRow> {
        POLICIES
            .iter()
            .filter_map(|&policy| {
                let cells: Vec<&ArenaCell> =
                    self.cells.iter().filter(|c| c.policy == policy).collect();
                if cells.is_empty() {
                    return None;
                }
                let n = cells.len() as f64;
                let mean = |f: &dyn Fn(&ArenaCell) -> f64| cells.iter().map(|c| f(c)).sum::<f64>() / n;
                let mut slowdowns: Vec<f64> = cells.iter().map(|c| c.fg_slowdown).collect();
                slowdowns.sort_by(|a, b| a.partial_cmp(b).expect("finite slowdown"));
                // Nearest-rank p99: ceil(0.99 n) in 1-based rank terms.
                let rank = ((0.99 * slowdowns.len() as f64).ceil() as usize).max(1);
                Some(ScoreRow {
                    policy: policy.to_string(),
                    weighted_speedup: mean(&|c| c.weighted_speedup),
                    fairness: mean(&|c| c.fairness),
                    energy_j: mean(&|c| c.energy_j),
                    fg_slowdown_mean: mean(&|c| c.fg_slowdown),
                    fg_slowdown_p99: slowdowns[rank - 1],
                    reallocations: cells.iter().map(|c| c.reallocations).sum(),
                })
            })
            .collect()
    }

    /// The distinct (fg, bg) pairs, in first-seen order.
    pub fn pairs(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = Vec::new();
        for c in &self.cells {
            let key = (c.fg.clone(), c.bg.clone());
            if !out.contains(&key) {
                out.push(key);
            }
        }
        out
    }

    /// The plain-text scoreboard (the `reproduce` artifact).
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "policy",
            "wt speedup",
            "fairness",
            "energy J",
            "fg slow mean",
            "fg slow p99",
            "reallocs",
        ]);
        for row in self.scoreboard() {
            t.push([
                row.policy.clone(),
                format!("{:.3}", row.weighted_speedup),
                format!("{:.3}", row.fairness),
                format!("{:.2}", row.energy_j),
                format!("{:+.1}%", (row.fg_slowdown_mean - 1.0) * 100.0),
                format!("{:+.1}%", (row.fg_slowdown_p99 - 1.0) * 100.0),
                row.reallocations.to_string(),
            ]);
        }
        format!(
            "Controller arena — {} policies x {} pairs (means over the pair grid; p99 nearest-rank)\n{}",
            self.scoreboard().len(),
            self.pairs().len(),
            t.render()
        )
    }
}

/// Resamples a `(cycle, fg_ways)` step trace onto `buckets` equal-width
/// time buckets of `[0, fg_cycles)`: each bucket reports the allocation
/// in effect at its midpoint.
fn resample_ways(trace: &[(u64, usize)], fg_cycles: u64, buckets: usize) -> Vec<f64> {
    (0..buckets)
        .map(|i| {
            let t = (i as u64 * 2 + 1) * fg_cycles.max(1) / (buckets as u64 * 2);
            trace
                .iter()
                .take_while(|&&(at, _)| at <= t)
                .last()
                .or(trace.first())
                .map(|&(_, w)| w as f64)
                .unwrap_or(f64::NAN)
        })
        .collect()
}

/// Inline stylesheet for the arena page — embedded, zero external
/// references, matching the run-report look.
const STYLE: &str = "body{font-family:system-ui,sans-serif;margin:2em auto;max-width:70em;\
color:#111}h1{font-size:1.5em}h2{font-size:1.1em;margin:0 0 .5em}h3{font-size:1em;margin:0 0 .4em}\
.meta{color:#555}.panel{border:1px solid #ddd;border-radius:6px;padding:1em;margin:1em 0}\
.legend span{margin-right:1em;font-weight:600}.row{margin:.4em 0}\
.lab{display:inline-block;min-width:9em;color:#555;font-size:.9em}\
table{border-collapse:collapse}th,td{border:1px solid #ccc;padding:.25em .6em;\
text-align:left;font-size:.9em}th{background:#f3f4f6}code{background:#f3f4f6;padding:0 .2em}";

/// Renders the arena dashboard: one self-contained HTML page, a pure
/// function of the arena data (no clocks, no filesystem) so the output
/// is fixture-testable byte-for-byte.
pub fn render_arena_html(arena: &Arena) -> String {
    let mut body = String::new();
    let pairs = arena.pairs();
    body.push_str(&format!(
        "<h1>Controller arena</h1><p class=\"meta\">{} policies x {} pairs &middot; \
         sampling window {} cycles &middot; {} LLC ways</p>",
        arena.scoreboard().len(),
        pairs.len(),
        arena.sample_interval,
        arena.total_ways,
    ));

    // ---- scoreboard
    let mut t = Table::new([
        "policy",
        "weighted speedup",
        "fairness",
        "energy (J)",
        "fg slowdown (mean)",
        "fg slowdown (p99)",
        "reallocations",
    ]);
    for row in arena.scoreboard() {
        t.push([
            row.policy.clone(),
            format!("{:.3}", row.weighted_speedup),
            format!("{:.3}", row.fairness),
            format!("{:.2}", row.energy_j),
            format!("{:+.1}%", (row.fg_slowdown_mean - 1.0) * 100.0),
            format!("{:+.1}%", (row.fg_slowdown_p99 - 1.0) * 100.0),
            row.reallocations.to_string(),
        ]);
    }
    body.push_str(&format!(
        "<div class=\"panel\"><h2>Scoreboard (means over the pair grid; p99 nearest-rank)</h2>{}</div>",
        t.render_html()
    ));

    // ---- shared legend
    let legend: String = arena
        .scoreboard()
        .iter()
        .enumerate()
        .map(|(i, row)| {
            format!(
                "<span style=\"color:{}\">{}</span>",
                SERIES_COLORS[i % SERIES_COLORS.len()],
                html_escape(&row.policy)
            )
        })
        .collect();
    body.push_str(&format!(
        "<div class=\"panel\"><h2>Per-pair decision &amp; occupancy series</h2>\
         <p class=\"legend\">{legend}</p>\
         <p class=\"meta\">MPKI and derived IPC per sampling window (shared y-scale per plot); \
         the ribbon shows the foreground's <em>allocated</em> ways over normalized run time \
         (Fig 12's quantity from the controller's side; not measured occupancy).</p></div>",
    ));

    // ---- per-pair panels
    let policy_names: Vec<String> = arena.scoreboard().iter().map(|r| r.policy.clone()).collect();
    for (fg, bg) in &pairs {
        let cells: Vec<&ArenaCell> = policy_names
            .iter()
            .filter_map(|p| {
                arena.cells.iter().find(|c| &c.policy == p && &c.fg == fg && &c.bg == bg)
            })
            .collect();
        let mpki_series: Vec<Vec<f64>> = cells.iter().map(|c| c.mpki.clone()).collect();
        let ipc_series: Vec<Vec<f64>> = cells.iter().map(|c| c.ipc.clone()).collect();
        let ribbon_labels: Vec<String> = cells.iter().map(|c| c.policy.clone()).collect();
        let ribbon: Vec<Vec<f64>> =
            cells.iter().map(|c| resample_ways(&c.ways, c.fg_cycles, 60)).collect();
        let mut caption = String::new();
        for c in &cells {
            caption.push_str(&format!(
                "{}: fg {:+.1}%, ws {:.2}, fair {:.2}, {} reallocs &middot; ",
                html_escape(&c.policy),
                (c.fg_slowdown - 1.0) * 100.0,
                c.weighted_speedup,
                c.fairness,
                c.reallocations,
            ));
        }
        body.push_str(&format!(
            "<div class=\"panel\"><h3>{} + {}</h3>\
             <p class=\"meta\">{}</p>\
             <div class=\"row\"><span class=\"lab\">fg MPKI</span>{}</div>\
             <div class=\"row\"><span class=\"lab\">fg IPC (derived)</span>{}</div>\
             <div class=\"row\"><span class=\"lab\">allocated fg ways</span>{}</div></div>",
            html_escape(fg),
            html_escape(bg),
            caption.trim_end_matches(" &middot; "),
            svg_multi_sparkline(&mpki_series, 360, 42),
            svg_multi_sparkline(&ipc_series, 360, 42),
            svg_heatmap(&ribbon_labels, &ribbon, 6, 14),
        ));
    }

    format!(
        "<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">\
         <title>waypart controller arena</title><style>{STYLE}</style></head>\
         <body data-kind=\"arena\">{body}</body></html>"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(policy: &str, fg: &str, bg: &str, slow: f64, ws: f64) -> ArenaCell {
        ArenaCell {
            policy: policy.into(),
            fg: fg.into(),
            bg: bg.into(),
            fg_cycles: 1000,
            fg_slowdown: slow,
            fg_norm: 1.0 / slow,
            bg_norm: ws - 1.0 / slow,
            weighted_speedup: ws,
            fairness: 0.8,
            energy_j: 1.5,
            reallocations: 3,
            mpki: vec![5.0, 4.0, 3.0],
            ipc: vec![0.3, 0.35, 0.4],
            ways: vec![(0, 11), (400, 7)],
        }
    }

    fn tiny() -> Arena {
        Arena {
            sample_interval: 80_000,
            total_ways: 12,
            cells: vec![
                cell("dynamic", "a", "b", 1.02, 1.6),
                cell("ucp", "a", "b", 1.10, 1.7),
            ],
        }
    }

    #[test]
    fn scoreboard_orders_and_aggregates() {
        let a = tiny();
        let rows = a.scoreboard();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].policy, "dynamic");
        assert!((rows[0].weighted_speedup - 1.6).abs() < 1e-12);
        // One cell: p99 == the only slowdown.
        assert_eq!(rows[0].fg_slowdown_p99, 1.02);
    }

    #[test]
    fn p99_is_nearest_rank() {
        let mut a = tiny();
        a.cells = (0..100)
            .map(|i| cell("qos", &format!("f{i}"), "b", 1.0 + i as f64 / 100.0, 1.5))
            .collect();
        let rows = a.scoreboard();
        // Ranks 1..=100 hold 1.00..=1.99; nearest-rank p99 is rank 99.
        assert!((rows[0].fg_slowdown_p99 - 1.98).abs() < 1e-12);
    }

    #[test]
    fn ways_resampling_is_a_step_function() {
        let r = resample_ways(&[(0, 11), (500, 7)], 1000, 4);
        // Midpoints 125, 375, 625, 875.
        assert_eq!(r, vec![11.0, 11.0, 7.0, 7.0]);
        // An empty trace renders as NaN (skipped by the heatmap).
        assert!(resample_ways(&[], 1000, 2).iter().all(|v| v.is_nan()));
    }

    #[test]
    fn derived_ipc_uses_instruction_deltas() {
        let ipc = derive_ipc(&[(80_000, 5.0), (240_000, 4.0)], 80_000);
        assert_eq!(ipc, vec![1.0, 2.0]);
    }

    #[test]
    fn downsample_caps_and_keeps_endpoints() {
        let long: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let d = downsample(long);
        assert_eq!(d.len(), MAX_SERIES_POINTS);
        assert_eq!(d[0], 0.0);
        assert_eq!(*d.last().unwrap(), 999.0);
        assert_eq!(downsample(vec![1.0, 2.0]), vec![1.0, 2.0]);
    }

    #[test]
    fn html_is_self_contained_and_balanced() {
        let html = render_arena_html(&tiny());
        for tag in ["html", "head", "body", "div", "table", "thead", "tbody", "svg"] {
            let opens = html
                .match_indices(&format!("<{tag}"))
                .filter(|(i, _)| {
                    matches!(html.as_bytes().get(i + 1 + tag.len()), Some(b' ' | b'>' | b'\t'))
                })
                .count();
            let closes = html.matches(&format!("</{tag}>")).count();
            assert_eq!(opens, closes, "unbalanced <{tag}>");
        }
        assert!(html.contains("data-cells=\""));
        for banned in ["http://", "https://", "<script", "<link", "@import"] {
            assert!(!html.contains(banned), "found {banned}");
        }
        // JSON round-trip: report --arena reads what reproduce wrote.
        let a = tiny();
        let json = serde::json::to_string(&a);
        let back: Arena = serde::json::from_str(&json).expect("arena round-trip");
        assert_eq!(render_arena_html(&back), html);
    }
}
