//! Shared sweep executor for embarrassingly parallel measurement fan-out.
//!
//! Every figure of the evaluation is a sweep: a list of independent runs
//! (each owning its machine) whose results are collected in input order.
//! [`run_sweep`] executes one with guided self-scheduling — workers claim
//! contiguous chunks from a shared cursor, each a quarter of a worker's
//! share of what is left, so early grabs cost one atomic per many items
//! while the shrinking tail ends in single items and no worker idles
//! behind a peer's last long chunk.
//!
//! Nested sweeps (a parallel figure whose per-item closure itself calls a
//! sweep, e.g. the biased search inside Fig 9) run the inner sweep inline
//! on the calling worker: the outer sweep already saturates the machine,
//! and nesting thread pools would oversubscribe it.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use waypart_telemetry::{self as telemetry, Event, Stamp};

/// Reports sweep progress: the plain stderr line when no telemetry sink
/// is installed (byte-identical to the historical output), structured
/// `sweep.progress` counter events when one is. The events carry enough
/// to drive a live dashboard: completion, wall-clock so far, a linear
/// ETA, and how many workers the sweep is using.
fn report_progress(label: &str, finished: usize, n: usize, workers: usize, started_us: u64) {
    if telemetry::sink_attached() {
        telemetry::emit_with(|| {
            let now = telemetry::wall_now_us();
            let elapsed = now.saturating_sub(started_us);
            // Linear extrapolation from completed items.
            let eta = if finished > 0 {
                elapsed * (n - finished) as u64 / finished as u64
            } else {
                0
            };
            Event::counter("sweep.progress", Stamp::WallUs(now))
                .field("label", label)
                .field("done", finished)
                .field("total", n)
                .field("elapsed_us", elapsed)
                .field("eta_us", eta)
                .field("workers", workers)
        });
    } else if !label.is_empty() {
        eprintln!("[{label}] {finished}/{n}");
    }
}

/// Claims the next chunk of `0..n` from `cursor` — a quarter of one
/// worker's share of the items left, at least one — or `None` when the
/// sweep is exhausted.
fn next_chunk(cursor: &AtomicUsize, n: usize, workers: usize) -> Option<Range<usize>> {
    let mut lo = cursor.load(Ordering::Relaxed);
    loop {
        if lo >= n {
            return None;
        }
        let hi = lo + ((n - lo) / (4 * workers)).max(1);
        // Relaxed: the cursor publishes no data — results travel through
        // the results mutex.
        match cursor.compare_exchange_weak(lo, hi, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return Some(lo..hi),
            Err(current) => lo = current,
        }
    }
}

thread_local! {
    /// Set while the current thread is a sweep worker, so nested sweeps
    /// degrade to the serial path instead of spawning threads-in-threads.
    static IN_SWEEP: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Executes `f` over `items` in input order with up to
/// `available_parallelism` workers. With a non-empty `label`, prints a
/// progress line to stderr as chunks complete.
///
/// # Panics
/// Propagates panics from `f`.
pub fn run_sweep<T, R, F>(label: &str, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let threads = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(4).min(n.max(1));
    let nested = IN_SWEEP.with(|flag| flag.get());
    if threads <= 1 || n <= 1 || nested {
        return items.iter().map(&f).collect();
    }

    let started_us = telemetry::wall_now_us();
    let cursor = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let results_cell = Mutex::new(&mut results);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                IN_SWEEP.with(|flag| flag.set(true));
                while let Some(Range { start: lo, end: hi }) = next_chunk(&cursor, n, threads) {
                    let batch: Vec<R> = items[lo..hi].iter().map(&f).collect();
                    {
                        let mut slots = results_cell.lock().expect("no poisoned workers");
                        for (slot, r) in slots[lo..hi].iter_mut().zip(batch) {
                            *slot = Some(r);
                        }
                    }
                    let finished = done.fetch_add(hi - lo, Ordering::Relaxed) + (hi - lo);
                    report_progress(label, finished, n, threads, started_us);
                }
                IN_SWEEP.with(|flag| flag.set(false));
            });
        }
    });
    results.into_iter().map(|r| r.expect("all slots filled")).collect()
}

/// Advances a batch of independent simulation lanes in interleaved rounds
/// on the calling thread, returning each lane's result in input order.
///
/// `step` runs one quantum of lane `i` and returns `Some(result)` when
/// that lane finishes. Round-robin interleaving keeps all lanes within one
/// quantum of each other, which is what lets them share a sliding-window
/// workload trace (`sim::stream::SharedTrace`): the window only holds the
/// events between the slowest and fastest lane instead of a full replay
/// buffer per lane. Lanes that finish early are dropped immediately so
/// their trace readers release the window.
///
/// This is the in-cell complement to [`run_sweep`]: `run_sweep` spreads
/// independent cells across workers, `run_lockstep` batches the runs
/// *inside* one cell that differ only in policy.
pub fn run_lockstep<L, R>(lanes: Vec<L>, mut step: impl FnMut(&mut L) -> Option<R>) -> Vec<R> {
    let n = lanes.len();
    let mut live: Vec<Option<L>> = lanes.into_iter().map(Some).collect();
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut remaining = n;
    while remaining > 0 {
        for i in 0..n {
            let Some(lane) = live[i].as_mut() else { continue };
            if let Some(r) = step(lane) {
                results[i] = Some(r);
                live[i] = None; // drop now: frees the lane's trace readers
                remaining -= 1;
            }
        }
    }
    results.into_iter().map(|r| r.expect("every lane finished")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockstep_interleaves_and_orders() {
        // Lane i needs i+1 steps; record the global step order to prove
        // round-robin interleaving (not run-to-completion).
        let mut order = Vec::new();
        let lanes: Vec<(usize, usize)> = (0..4).map(|i| (i, i + 1)).collect();
        let out = run_lockstep(lanes, |lane| {
            order.push(lane.0);
            lane.1 -= 1;
            (lane.1 == 0).then_some(lane.0 * 10)
        });
        assert_eq!(out, vec![0, 10, 20, 30]);
        assert_eq!(order, vec![0, 1, 2, 3, 1, 2, 3, 2, 3, 3]);
    }

    #[test]
    fn lockstep_empty() {
        let out = run_lockstep(Vec::<u8>::new(), |_| Some(0));
        assert!(out.is_empty());
    }

    #[test]
    fn preserves_input_order() {
        let out = run_sweep("", (0..257).collect(), |&x: &i32| x * 3);
        assert_eq!(out, (0..257).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        assert!(run_sweep("", Vec::<i32>::new(), |&x| x).is_empty());
        assert_eq!(run_sweep("", vec![9], |&x: &i32| x - 1), vec![8]);
    }

    #[test]
    fn chunk_schedule_shrinks_to_single_items_and_covers_once() {
        for workers in [1usize, 2, 3, 8] {
            for n in [1usize, 2, 7, 8, 9, 12, 48, 382, 576, 1000] {
                let cursor = AtomicUsize::new(0);
                let chunks: Vec<Range<usize>> =
                    std::iter::from_fn(|| next_chunk(&cursor, n, workers)).collect();
                let lens: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
                assert_eq!(chunks[0].start, 0, "n={n} workers={workers}");
                assert!(chunks.windows(2).all(|w| w[0].end == w[1].start), "contiguous: {chunks:?}");
                assert_eq!(chunks.last().map(|c| c.end), Some(n), "covers 0..{n}");
                assert!(lens.iter().all(|&l| l > 0), "no empty grab: {lens:?}");
                assert!(lens.windows(2).all(|w| w[0] >= w[1]), "never grows: {lens:?}");
                let singles = lens.iter().rev().take_while(|&&l| l == 1).count();
                assert!(singles >= (4 * workers).min(n), "tail of single items: {lens:?}");
            }
        }
    }

    #[test]
    fn nested_sweep_runs_inline() {
        // The outer sweep's workers are flagged; the inner call must not
        // spawn (it would deadlock nothing, but it would oversubscribe) —
        // we can only observe that results stay correct.
        let out = run_sweep("", (0..16).collect(), |&x: &i32| {
            let inner = run_sweep("", (0..4).collect(), |&y: &i32| y + x);
            inner.into_iter().sum::<i32>()
        });
        assert_eq!(out, (0..16).map(|x| 4 * x + 6).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            run_sweep("", (0..64).collect(), |&x: &i32| {
                assert!(x != 13, "boom");
                x
            })
        });
        assert!(caught.is_err());
    }
}
