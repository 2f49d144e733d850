//! Quickstart: anonymize a table under skyline (B,t)-privacy and inspect the
//! result.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bgkanon::prelude::*;

fn main() {
    // A synthetic slice of the UCI Adult dataset (Table IV schema: six QI
    // attributes, Occupation sensitive). Swap in
    // `bgkanon::data::adult::load_adult_csv` to use the real file.
    let table = bgkanon::data::adult::generate(2_000, 42);
    println!(
        "table: {} tuples, {} QI attributes, sensitive domain of {}",
        table.len(),
        table.qi_count(),
        table.schema().sensitive_domain_size()
    );

    // Publish under k-anonymity plus (B,t)-privacy: protect against the
    // adversary Adv(B = 0.3·1) learning more than t = 0.25 about anyone.
    let outcome = Publisher::new()
        .k_anonymity(4)
        .bt_privacy(0.3, 0.25)
        .publish(&table)
        .expect("the requirement is satisfiable on this data");

    println!("requirement: {}", outcome.requirement_name);
    println!(
        "published {} groups (avg size {:.1}) in {:?}",
        outcome.anonymized.group_count(),
        outcome.anonymized.average_group_size(),
        outcome.elapsed
    );

    // Show a few published groups with generalized QI labels.
    println!("\nfirst three published groups:");
    for line in outcome.anonymized.render().lines().take(3) {
        println!("  {line}");
    }

    // Audit: replay the background-knowledge attack with the same adversary.
    let report = outcome
        .audit_against(&table, 0.3, 0.25)
        .expect("valid bandwidth");
    println!(
        "\naudit vs Adv(b'=0.3): worst-case risk {:.4}, mean {:.4}, vulnerable {}/{}",
        report.worst_case,
        report.mean,
        report.vulnerable,
        table.len()
    );

    // Utility: discernibility and certainty penalties, plus query accuracy.
    let dm = bgkanon::utility::discernibility(&outcome.anonymized);
    let gcp = bgkanon::utility::global_certainty_penalty(&outcome.anonymized);
    let cfg = bgkanon::utility::WorkloadConfig::default();
    let queries = bgkanon::utility::generate_queries(&table, &cfg);
    let err = bgkanon::utility::average_relative_error(&table, &outcome.anonymized, &queries)
        .expect("workload has non-zero answers");
    println!("utility: DM {dm}, GCP {gcp:.1}, aggregate-query error {err:.1}%");
}
