//! Heap-allocation budget of a delta apply. A [`PublishSession::apply`] on
//! a Mondrian session should pay for the nodes the delta dirties, not for
//! heap churn per visited node or per row: the refresh serves every node
//! from buffers it owns, and the whole-table requirement check of a
//! counts-decidable requirement reads the sensitive column. This suite
//! counts the allocations each apply makes on the calling thread and holds
//! them under a fixed ceiling, then checks the publication the applies
//! produced against a from-scratch publish.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bgkanon::data::{adult, Delta, DeltaBuilder, Parallelism, Table};
use bgkanon::prelude::*;

thread_local! {
    /// Allocations made by the current thread. Const-initialised and
    /// without a destructor, so reading it never allocates or registers
    /// anything, and tests running in parallel on other threads cannot
    /// pollute it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// calls per thread.
struct CountingAllocator;

fn count_one() {
    // `try_with` rather than `with`: an allocation during thread teardown
    // must not panic inside the allocator.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// `GlobalAlloc` contract `System` upholds carries over; the only addition is
// a thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was allocated by this allocator (so by `System`)
        // with `layout`, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (so by `System`)
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Most allocations one 1%-churn apply on the 20k-row, k = 10 session may
/// make. These applies measure 870–1,280 each (most of it rebuilt subtrees
/// and the new table's columns); when the refresh still allocated per
/// visited node and per row, the same applies made 17,400–19,100.
const CEILING: u64 = 2_500;

/// A 1% churn delta: every hundredth row (from a step-dependent offset)
/// deleted, as many donor rows appended.
fn churn(table: &Table, donors: &Table, step: usize) -> Delta {
    let mut builder = DeltaBuilder::new(Arc::clone(table.schema()));
    let deletes: Vec<usize> = (step * 7 % 100..table.len()).step_by(100).collect();
    for &row in &deletes {
        builder.delete(row);
    }
    for k in 0..deletes.len() {
        let r = (step * deletes.len() + k) % donors.len();
        builder
            .insert_codes(&donors.qi(r), donors.sensitive_value(r))
            .expect("donor rows share the schema");
    }
    builder.build()
}

#[test]
fn mondrian_applies_stay_under_the_allocation_ceiling() {
    let table = adult::generate(20_000, 7);
    let donors = adult::generate(4_000, 8);
    let publisher = Publisher::new()
        .k_anonymity(10)
        .parallelism(Parallelism::Serial);
    let mut session = publisher.open(&table).expect("k = 10 is satisfiable");
    let mut counts = Vec::new();
    for step in 0..10 {
        let delta = churn(session.table(), &donors, step);
        let before = allocations();
        let outcome = session.apply(&delta);
        let made = allocations() - before;
        outcome.expect("a 1% churn delta keeps k = 10 satisfiable");
        counts.push(made);
    }
    eprintln!("allocations per apply: {counts:?}");
    for (step, &made) in counts.iter().enumerate() {
        assert!(
            made <= CEILING,
            "apply {step} made {made} allocations (ceiling {CEILING}): {counts:?}"
        );
    }
    if let Err(drift) = publisher.verify(session.table(), session.anonymized()) {
        panic!("the applied publication is not a from-scratch publish: {drift}");
    }
}
