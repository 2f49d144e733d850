//! Heap-allocation budgets of a delta apply and of the audit after it. A
//! [`PublishSession::apply`] on a Mondrian session should pay for the nodes
//! the delta dirties, not for heap churn per visited node or per row: the
//! refresh serves every node from buffers it owns, and the whole-table
//! requirement check of a counts-decidable requirement reads the sensitive
//! column. The `Adv(b′)` audit one delta later steps the previous version's
//! risk vector and re-solves the groups the delta touched in scratch
//! buffers it reuses, so it allocates nothing per group. This suite counts
//! the allocations each apply or audit makes on the calling thread and
//! holds them under fixed ceilings, then checks the publication and the
//! audits against from-scratch references.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bgkanon::data::{adult, Delta, DeltaBuilder, Parallelism, Table};
use bgkanon::knowledge::{
    Adversary, Bandwidth, DeletedRows, FoldedTable, PriorEstimator, PriorModel,
};
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

/// Most allocations the audit half of a one-step `Adv(b′)` audit may make:
/// stepping the previous version's risk vector, re-solving the groups the
/// delta touched and assembling the report. On the 20k-row, k = 10 session
/// below these measure 25 per audit while re-solving 870–920 of about 1,220
/// groups; nothing in them is per group.
const AUDIT_HALF_CEILING: u64 = 64;

/// Most allocations a whole one-step `PublishSession::audit_against` may
/// make beyond one per point whose prior the refresh recomputes (each
/// refreshed prior is its own `Dist`): the evolved fold, the refresh's
/// buffers and the audit half. These audits measure about 120 beyond their
/// 3,000–3,300 re-estimated points (about 500 when the refresh merged the
/// two folds again and evolving the fold allocated per touched point).
const AUDIT_FIXED_CEILING: u64 = 1_000;

/// Most allocations one `FoldedTable::evolve` across a 1% churn delta may
/// make: the new fold's four arrays, the point map, the changed keys, the
/// net change's three buffers and one scratch histogram, whatever the
/// number of QI combinations the delta touches. These calls measure 10
/// each; with one buffer per touched combination they made 385–388.
const EVOLVE_CEILING: u64 = 16;

#[test]
fn one_step_audits_allocate_nothing_per_group() {
    const B_PRIME: f64 = 0.25;
    const T: f64 = 0.2;
    let table = adult::generate(20_000, 7);
    let donors = adult::generate(4_000, 8);
    let publisher = Publisher::new()
        .k_anonymity(10)
        .parallelism(Parallelism::Serial);
    let mut session = publisher.open(&table).expect("k = 10 is satisfiable");
    session
        .audit_against(B_PRIME, T)
        .expect("a positive bandwidth");
    // The same audits again, stage by stage through the public API, so the
    // audit half can be counted on its own.
    let bandwidth = Bandwidth::uniform(B_PRIME, table.qi_count()).expect("a positive bandwidth");
    let estimator = PriorEstimator::new(Arc::clone(table.schema()), bandwidth.clone());
    let (fold, mut points) = FoldedTable::with_row_points(&table);
    let mut model = Arc::new(estimator.estimate_folded(fold, Parallelism::Serial));
    let measure: Arc<dyn BeliefDistance> = Arc::new(SmoothedJs::paper_default(
        table.schema().sensitive_distance(),
    ));
    let auditor = |model: &Arc<PriorModel>| {
        let adversary = Adversary::from_model("Adv", bandwidth.clone(), Arc::clone(model));
        Auditor::new(Arc::new(adversary), Arc::clone(&measure))
    };
    let groups: Vec<&[usize]> = session.anonymized().iter().map(|g| g.rows).collect();
    let mut previous = Arc::new(SharedAuditSession::bound(
        auditor(&model),
        session.table(),
        &groups,
        session.leaf_stamps(),
        points.clone(),
        None,
    ));
    drop(groups);
    let mut counts = Vec::new();
    for step in 0..4 {
        let delta = churn(session.table(), &donors, step);
        let deleted = DeletedRows::gather(session.table(), &delta).expect("deletes in range");
        session
            .apply(&delta)
            .expect("a 1% churn delta keeps k = 10 satisfiable");
        let before = allocations();
        let report = session.audit_against(B_PRIME, T);
        let whole = allocations() - before;
        let report = report.expect("a positive bandwidth");

        let before = allocations();
        let evolution = model
            .folded()
            .evolve(&deleted, &delta)
            .expect("the delta's own record");
        let evolve = allocations() - before;
        let next_points = evolution
            .row_points(&points, &delta)
            .expect("the delta's own record");
        let rows = session.table().len();
        let before = allocations();
        let stepped = previous.step(Some((delta.deletes(), rows)));
        let mut half = allocations() - before;
        let stepped = stepped.expect("a bound session steps across its delta");
        let dirty =
            estimator.refresh_evolved(Arc::make_mut(&mut model), evolution, Parallelism::Serial);
        let (table, stamps) = (session.table(), session.leaf_stamps());
        let groups: Vec<&[usize]> = session.anonymized().iter().map(|g| g.rows).collect();
        let auditor = auditor(&model);
        let before = allocations();
        let next = SharedAuditSession::bound(
            auditor,
            table,
            &groups,
            stamps,
            next_points.clone(),
            Some((stepped, Some(&dirty))),
        );
        let staged = next.report_version(step as u64 + 1, table, Vec::new, Some(stamps), T);
        half += allocations() - before;
        counts.push((whole, dirty.len(), half, next.cached_signatures(), evolve));

        let fresh = bgkanon_tests::reference_report(table, session.anonymized(), B_PRIME, T);
        assert_eq!(report.first_difference(&fresh), None, "audit {step}");
        assert_eq!(staged.first_difference(&fresh), None, "staged audit {step}");
        drop(groups);
        previous = Arc::new(next);
        points = next_points;
    }
    eprintln!(
        "(whole audit, re-estimated points, audit half, re-solved groups, evolve): {counts:?}"
    );
    for (step, &(whole, dirty, half, solved, evolve)) in counts.iter().enumerate() {
        assert!(solved >= 100, "audit {step} re-solved only {solved} groups");
        assert!(
            half <= AUDIT_HALF_CEILING,
            "audit {step}: the audit half made {half} allocations (ceiling \
             {AUDIT_HALF_CEILING}): {counts:?}"
        );
        assert!(
            evolve <= EVOLVE_CEILING,
            "audit {step}: evolving the fold made {evolve} allocations (ceiling \
             {EVOLVE_CEILING}): {counts:?}"
        );
        assert!(
            whole <= AUDIT_FIXED_CEILING + dirty as u64,
            "audit {step} made {whole} allocations (ceiling {AUDIT_FIXED_CEILING} + \
             {dirty} re-estimated points): {counts:?}"
        );
    }
}
