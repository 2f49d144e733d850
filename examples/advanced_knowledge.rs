//! Advanced knowledge modeling: rule mining, relational adversaries and
//! bandwidth calibration.
//!
//! Demonstrates the extensions the paper's text motivates beyond the core
//! evaluation: Injector-style negative association rules (§II.B), the
//! same-value-family relational knowledge of §VII's future work, and
//! publisher-side diagnostics for designing a skyline.
//!
//! ```sh
//! cargo run --release --example advanced_knowledge
//! ```

use bgkanon::inference::{relational_posteriors, RelationalKnowledge};
use bgkanon::knowledge::calibrate::{attribute_diagnostics, suggest_skyline};
use bgkanon::knowledge::mining::{mine_negative_rules, verify_subsumption, MiningConfig};
use bgkanon::prelude::*;

fn main() {
    let table = bgkanon::data::adult::generate(5_000, 42);

    // 1. Which attributes leak the most about Occupation?
    println!("=== attribute → occupation correlation (mutual information) ===");
    for d in attribute_diagnostics(&table) {
        println!(
            "  {:<15} I = {:.4} bits ({:.1}% of H(S))",
            d.name,
            d.mutual_information,
            100.0 * d.normalized
        );
    }
    let skyline = suggest_skyline(&table, 0.15);
    println!("suggested starter skyline: {skyline:?}\n");

    // 2. Mine the 100%-confidence negative rules an Injector-style
    //    adversary would know, and confirm the kernel prior subsumes them.
    println!("=== negative association rules (Injector, ref [7]) ===");
    let rules = mine_negative_rules(&table, &MiningConfig::default());
    println!("{} rules mined; first three:", rules.len());
    let sensitive = table.schema().sensitive_attribute();
    for rule in rules.iter().take(3) {
        println!(
            "  {} ⇒ ¬{}   (support {})",
            rule.pattern.display(&table),
            sensitive.display_value(rule.sensitive_value),
            rule.support
        );
    }
    let checks = verify_subsumption(&table, &rules, 0.01);
    let worst = checks
        .iter()
        .map(|c| c.max_prior_on_excluded)
        .fold(0.0f64, f64::max);
    println!("kernel prior at b = 0.01: worst mass on any excluded value = {worst}\n");

    // 3. Relational knowledge (§VII): "either t0 or t1 has the rare value,
    //    but not both".
    println!("=== relational knowledge: same-value exclusion ===");
    let priors = vec![Dist::uniform(2); 3];
    let group = GroupPriors::new(priors, &[0, 0, 1]);
    let plain = bgkanon::inference::exact_posteriors(&group);
    let constrained =
        relational_posteriors(&group, &RelationalKnowledge::none().with_pair(0, 1, 0.0));
    println!(
        "P(value0 | t2): independent tuples {:.3} → with 'not both' constraint {:.3}",
        plain[2].get(0),
        constrained[2].get(0)
    );
}
