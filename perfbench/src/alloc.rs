//! Allocation counting, attributed to the benchmark-side span that is
//! open when the allocation happens.
//!
//! The benchmark binary installs [`CountingAlloc`] as its
//! `#[global_allocator]`; the program's crates never see it. Every
//! workload drives the system from one thread (RAN fleets use one
//! worker and the CFD solver's parallel loops run on the calling
//! thread), so one process-wide "open span" slot is exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// The benchmark-side spans: one per kind of call the benchmark makes
/// into the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// Benchmark bookkeeping between timed calls.
    Idle = 0,
    /// Building the system before the first timed call.
    Setup,
    /// `XgFabric::run_report_cycle`.
    FabricCycle,
    /// `RanFleet::measure_seconds`.
    RanMeasure,
    /// `RanFleet::collect_indications`.
    RanCollect,
    /// `Ric::step`.
    RicStep,
    /// The `LinkSimulator` setters that apply RIC actions.
    RanApply,
    /// `Simulation::step`.
    CfdStep,
    /// `RemoteAppender::append`.
    LogAppend,
    /// `Log::sync`.
    LogSync,
    /// `Replicator::catch_up`.
    LogReplicate,
    /// `CspotNode::durable_with_storage` + `open_log` after a restart.
    LogRecover,
}

const SPANS: usize = 12;

static OPEN: AtomicUsize = AtomicUsize::new(Span::Idle as usize);
static ALLOCS: [AtomicU64; SPANS] = [const { AtomicU64::new(0) }; SPANS];

/// A global allocator that forwards to [`System`] and counts every
/// allocation (including reallocations) against the open span.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain atomics that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS[OPEN.load(Ordering::Relaxed)].fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS[OPEN.load(Ordering::Relaxed)].fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS[OPEN.load(Ordering::Relaxed)].fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations counted against `span` so far (0 when the counting
/// allocator is not installed).
pub fn allocs(span: Span) -> u64 {
    ALLOCS[span as usize].load(Ordering::Relaxed)
}

/// Run `f` inside `span`: its allocations are charged to the span and
/// its wall time is returned in nanoseconds.
pub fn timed<R>(span: Span, f: impl FnOnce() -> R) -> (R, u64) {
    let prev = OPEN.swap(span as usize, Ordering::Relaxed);
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    OPEN.store(prev, Ordering::Relaxed);
    (out, ns)
}
