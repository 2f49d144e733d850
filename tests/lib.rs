//! Integration-test helper crate; see `tests/tests/`.

use std::sync::Arc;

use bgkanon::data::Table;
use bgkanon::knowledge::{Adversary, Bandwidth};
use bgkanon::prelude::*;

/// The reference audit of `published` (a publication of `table`) against
/// a newly estimated `Adv(b_prime)` at threshold `t`: the paper-default
/// measure through `Auditor::report_reference`, the §V.A transcription
/// every served audit must match bit for bit.
pub fn reference_report(
    table: &Table,
    published: &AnonymizedTable,
    b_prime: f64,
    t: f64,
) -> AuditReport {
    let bandwidth = Bandwidth::uniform(b_prime, table.qi_count()).expect("valid bandwidth");
    let auditor = Auditor::new(
        Arc::new(Adversary::kernel(table, bandwidth)),
        Arc::new(SmoothedJs::paper_default(
            table.schema().sensitive_distance(),
        )),
    );
    auditor.report_reference(table, &published.row_groups(), t)
}
