//! The incremental evaluator's sizing hot loop must not touch the heap
//! per move.
//!
//! The incremental evaluator owns grow-only scratch (the undo records and
//! per-corner journals, the arrival DFS stack), so after a short warm-up
//! a steady-state mutate → commit cycle should run entirely out of
//! retained capacity, at one corner and at three. A counting global
//! allocator makes that a hard assertion instead of a profiler anecdote.
//!
//! This file holds exactly one `#[test]`: the counter is process-global,
//! and a concurrently running sibling test would charge its allocations
//! to the measured window.
//!
//! The test also pins the telemetry layer's no-collector contract: a
//! collector is installed and uninstalled *before* the evaluators are
//! built, so every pre-resolved metric handle lands on its `None`
//! branch and the measured windows prove the disabled instrumentation
//! costs zero allocations per move.

use dscts_bench::sizing_workload;
use dscts_core::{EvalModel, IncrementalEval, RobustObjective};
use dscts_netlist::BenchmarkSpec;
use dscts_tech::CornerSet;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// Passes everything through to the system allocator, counting calls
/// that hand out fresh memory (alloc and growing reallocs).
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP_MOVES: usize = 16;
const MEASURED_MOVES: usize = 256;

#[test]
fn steady_state_sizing_moves_do_not_allocate() {
    // Install-then-uninstall a telemetry collector up front: the hot
    // loops below must behave exactly as if it never existed (handles
    // resolved after the drop are `None`, entry points are one relaxed
    // atomic load), which this test's zero-allocation windows enforce.
    {
        let collector = std::sync::Arc::new(dscts_core::telemetry::Telemetry::new());
        let guard = dscts_core::telemetry::install(std::sync::Arc::clone(&collector));
        drop(guard);
        assert!(!dscts_core::telemetry::enabled());
        std::hint::black_box(collector);
    }

    let (tree, tech) = sizing_workload(&BenchmarkSpec::c4_riscv32i());
    let edge = (1..tree.topo.nodes.len())
        .find(|&i| tree.patterns[i].is_some_and(|p| p.buffers() > 0))
        .expect("latency-greedy workload has buffered edges");

    let toggle = |eval: &mut IncrementalEval, flip: &mut bool| {
        *flip = !*flip;
        assert!(eval.set_buffer_scale(edge, if *flip { 2.0 } else { 1.0 }));
        eval.commit();
        std::hint::black_box(eval.latency_skew_ps());
    };
    let allocations_per_window = |eval: &mut IncrementalEval| {
        let mut flip = false;
        for _ in 0..WARMUP_MOVES {
            toggle(eval, &mut flip);
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..MEASURED_MOVES {
            toggle(eval, &mut flip);
        }
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };

    // One corner: the sizing loop of the annealed-versus-greedy gate in
    // `gates.rs`.
    let mut t = tree.clone();
    let mut eval = IncrementalEval::new(&mut t, &tech, EvalModel::Elmore);
    let grew = allocations_per_window(&mut eval);
    assert_eq!(
        grew, 0,
        "K = 1 hot loop allocated {grew} times over {MEASURED_MOVES} moves"
    );
    drop(eval);

    // Three corners on the serial fan-out: the robust optimize loop of
    // the MCMM gate in `gates.rs`. (The parallel path spawns scoped
    // threads, which allocate by design; it is gated to huge trees.)
    let corners = CornerSet::asap7_pvt(&tech);
    let mut t = tree.clone();
    let mut eval = IncrementalEval::with_corners(
        &mut t,
        &corners,
        EvalModel::Elmore,
        RobustObjective::WorstCorner,
    )
    .expect("C4 is feasible at every PVT corner")
    .with_parallel(Some(false));
    let grew = allocations_per_window(&mut eval);
    assert_eq!(
        grew, 0,
        "K = 3 hot loop allocated {grew} times over {MEASURED_MOVES} moves"
    );
}
