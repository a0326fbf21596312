//! Counting-allocator proof of the paper's §IV memory discipline ("no
//! dynamic memory allocations" in the iteration): after warm-up, BP's
//! steady-state `step()` (including staging iterates for batched
//! rounding through the pooled buffers) and MR's numeric kernels (row
//! matchings, multiplier update) perform **zero** heap allocations —
//! even with the persistent worker pool running the kernels at pool
//! size 4.
//!
//! The first windows below leave the rounding out: the exact matcher,
//! like every one-shot kind, builds a fresh `Matching` per call by
//! design. With the two preallocated matcher kinds
//! (`MatcherKind::ParallelLocalDominant` and `MatcherKind::Greedy`),
//! the later windows include the rounding itself — matching and
//! objective evaluation run entirely in recycled storage, so the whole
//! steady-state loop is proven allocation-free for both aligners.
//!
//! A `#[global_allocator]` is binary-wide state, so this file holds a
//! single `#[test]` and lives in its own integration-test binary.

use netalign_core::bp::BpEngine;
use netalign_core::mr::rowmatch::{solve_row_matchings_into, RowWorkspace};
use netalign_core::mr::{update_multipliers, MrEngine};
use netalign_core::rowspans::RowSpans;
use netalign_core::{AlignConfig, NetAlignProblem};
use netalign_graph::generators::{add_random_edges, identity_plus_noise_l, power_law_graph};
use netalign_matching::MatcherKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Wraps the system allocator; counts allocation events while armed.
struct CountingAllocator;

static TRACKING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn arm() {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
}

fn disarm() -> u64 {
    TRACKING.store(false, Ordering::SeqCst);
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Wait (up to a second) until the test harness's main thread sleeps.
/// It registers a test in its own tables only after spawning the test's
/// thread, so on a busy host that registration could otherwise run, and
/// be counted, inside the first armed window. The main thread's id is
/// the process id; where `/proc` is missing this returns at once.
fn wait_for_harness_to_sleep() {
    let stat = format!("/proc/self/task/{}/stat", std::process::id());
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(1) {
        match std::fs::read_to_string(&stat) {
            // The state is the field after the parenthesized name.
            Ok(s) if s.rsplit(") ").next().is_some_and(|f| f.starts_with('S')) => return,
            Ok(_) => std::thread::sleep(Duration::from_millis(1)),
            Err(_) => return,
        }
    }
}

fn problem() -> NetAlignProblem {
    let g = power_law_graph(80, 2.3, 14, 5);
    let a = add_random_edges(&g, 0.02, 6);
    let b = add_random_edges(&g, 0.02, 7);
    let l = identity_plus_noise_l(80, 80, 6.0 / 80.0, 1.0, 1.0, 8);
    NetAlignProblem::new(a, b, l)
}

#[test]
fn steady_state_iterations_do_not_allocate() {
    wait_for_harness_to_sleep();
    let p = problem();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .expect("pool");

    pool.install(|| {
        // ---- BP: step() + staging must be allocation-free after the
        // staging pool warmed up (one full batch window flushed).
        let cfg = AlignConfig {
            iterations: 40,
            batch: 4,
            ..Default::default()
        };
        let mut engine = BpEngine::new(&p, &cfg);
        for _ in 0..8 {
            engine.step();
            if engine.rounding_due() {
                engine.round_pending();
            }
            engine.end_iteration();
        }
        // The flush handed over at iteration 8 would be rounded by the
        // next step, with the (allocating) exact matcher. Complete it
        // here, so the window starts with no flush in flight.
        engine.round_pending();

        // One full batch window in the steady state: four iterations of
        // message updates, staging into recycled buffers, and trace
        // rows appended into reserved storage.
        arm();
        for _ in 0..4 {
            engine.step();
            engine.end_iteration();
        }
        let n = disarm();
        assert_eq!(
            n, 0,
            "BP steady-state step() performed {n} heap allocations"
        );

        // The deferred flush (matcher — exempt) still works afterwards.
        engine.round_pending();
        let result = engine.finish();
        assert!(result.matching.cardinality() > 0);

        // ---- MR: the numeric kernels between the (exempt) matcher
        // calls — row matchings over the span decomposition and the
        // multiplier subgradient update.
        let nnz = p.s.nnz();
        let m = p.l.num_edges();
        let spans = RowSpans::from_rowptr(p.s.rowptr());
        let mut workspaces = vec![RowWorkspace::default(); spans.num_groups()];
        let row_w: Vec<f64> = (0..nnz)
            .map(|i| ((i * 13) % 9) as f64 * 0.25 - 0.5)
            .collect();
        let mut d = vec![0.0; m];
        let mut sl_vals = vec![0.0; nnz];
        let mut u_vals = vec![0.0; nnz];
        let u_old: Vec<f64> = (0..nnz).map(|i| ((i * 7) % 5) as f64 * 0.1).collect();
        let x: Vec<f64> = (0..m).map(|e| (e % 2) as f64).collect();

        // Warm-up: every workspace sees its largest row subproblem.
        for _ in 0..2 {
            solve_row_matchings_into(&p, &row_w, &spans, &mut d, &mut sl_vals, &mut workspaces);
            update_multipliers(&p, &spans, &mut u_vals, &u_old, &sl_vals, &x, 0.4, 1.0);
        }

        arm();
        solve_row_matchings_into(&p, &row_w, &spans, &mut d, &mut sl_vals, &mut workspaces);
        update_multipliers(&p, &spans, &mut u_vals, &u_old, &sl_vals, &x, 0.4, 1.0);
        let n = disarm();
        assert_eq!(
            n, 0,
            "MR steady-state kernels performed {n} heap allocations"
        );

        // ---- BP with each preallocated matcher: the armed window now
        // INCLUDES the batched rounding flushes — zero allocations
        // through matching and objective evaluation as well.
        for matcher in [MatcherKind::ParallelLocalDominant, MatcherKind::Greedy] {
            let cfg = AlignConfig {
                iterations: 40,
                batch: 4,
                matcher,
                ..Default::default()
            };
            let mut engine = BpEngine::new(&p, &cfg);
            for _ in 0..8 {
                engine.step();
                if engine.rounding_due() {
                    engine.round_pending();
                }
                engine.end_iteration();
            }
            arm();
            for _ in 0..8 {
                engine.step();
                if engine.rounding_due() {
                    engine.round_pending();
                }
                engine.end_iteration();
            }
            let n = disarm();
            assert_eq!(
                n, 0,
                "BP steady state (incl. {matcher:?} rounding) performed {n} heap allocations"
            );
            let result = engine.finish();
            assert!(result.matching.cardinality() > 0);
        }

        // ---- MR with the parallel LD matcher: the full step — row
        // matchings, the driving bipartite matching, bounds, multiplier
        // update — is armed.
        let cfg = AlignConfig {
            iterations: 40,
            matcher: MatcherKind::ParallelLocalDominant,
            ..Default::default()
        };
        let mut engine = MrEngine::new(&p, &cfg);
        for _ in 0..8 {
            engine.step();
            engine.end_iteration();
        }
        arm();
        for _ in 0..8 {
            engine.step();
            engine.end_iteration();
        }
        let n = disarm();
        assert_eq!(
            n, 0,
            "MR steady state (incl. matching) performed {n} heap allocations"
        );
        let result = engine.finish();
        assert!(result.matching.cardinality() > 0);
    });
}
