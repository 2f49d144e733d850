//! Skyline (B,t)-privacy publishing (§IV.A, Definition 2) with a utility
//! report.
//!
//! A single (B,t) pair defends against one adversary profile; the skyline
//! covers the whole spectrum: strong adversaries (small b) get loose
//! thresholds, weak adversaries tight ones. This example publishes under a
//! three-point skyline, verifies every point by audit, and prices the
//! protection in utility terms against a plain k-anonymous release.
//!
//! ```sh
//! cargo run --release --example skyline_publishing
//! ```

use bgkanon::prelude::*;
use bgkanon::utility;

fn main() {
    let table = bgkanon::data::adult::generate(2_500, 7);
    // The skyline: (b, t) pairs ordered from strongest to weakest adversary.
    let skyline = vec![(0.2, 0.35), (0.3, 0.25), (0.5, 0.15)];
    println!("skyline: {skyline:?}\n");

    let protected = Publisher::new()
        .k_anonymity(4)
        .skyline(skyline.clone())
        .publish(&table)
        .expect("satisfiable");
    let baseline = Publisher::new()
        .k_anonymity(4)
        .publish(&table)
        .expect("satisfiable");

    println!(
        "skyline release: {} groups in {:?}",
        protected.anonymized.group_count(),
        protected.elapsed
    );
    println!(
        "k-anonymity only: {} groups in {:?}\n",
        baseline.anonymized.group_count(),
        baseline.elapsed
    );

    // Verify each skyline point by an independent audit.
    println!("audits of the skyline release:");
    for &(b, t) in &skyline {
        let report = protected
            .audit_against(&table, b, t)
            .expect("valid bandwidth");
        println!(
            "  Adv(b'={b}): worst-case {:.4} ≤ t={t}  vulnerable={}",
            report.worst_case, report.vulnerable
        );
        assert!(report.worst_case <= t + 1e-9);
    }

    // The k-anonymous baseline is exposed to the same adversaries.
    println!("\naudits of the k-anonymity-only release:");
    for &(b, t) in &skyline {
        let report = baseline
            .audit_against(&table, b, t)
            .expect("valid bandwidth");
        println!(
            "  Adv(b'={b}): worst-case {:.4} (t={t})  vulnerable={}",
            report.worst_case, report.vulnerable
        );
    }

    // What does the protection cost in utility?
    let cfg = utility::WorkloadConfig {
        qd: 3,
        selectivity: 0.07,
        queries: 500,
        seed: 11,
    };
    let queries = utility::generate_queries(&table, &cfg);
    println!("\nutility comparison:");
    for (name, outcome) in [("skyline", &protected), ("k-anon only", &baseline)] {
        let dm = utility::discernibility(&outcome.anonymized);
        let gcp = utility::global_certainty_penalty(&outcome.anonymized);
        let err = utility::average_relative_error(&table, &outcome.anonymized, &queries)
            .expect("non-degenerate workload");
        println!("  {name:<12} DM {dm:>10}  GCP {gcp:>9.1}  query error {err:>5.1}%");
    }
}
