//! Fig. 6 — aggregate query answering (§V-E.2).
//!
//! Average relative error of COUNT queries answered from each anonymized
//! table (para1 parameters):
//!
//! * **(a)** query dimension `qd ∈ {2..6}` at selectivity 0.07;
//! * **(b)** selectivity `sel ∈ {0.03, 0.05, 0.07, 0.1, 0.12}` at `qd = 3`.

use bgkanon::params::PARA1;
use bgkanon::utility::{average_relative_error, generate_queries, WorkloadConfig};

use crate::config::ExperimentConfig;
use crate::models::build_four;
use crate::report::{f1, Report};

/// The qd sweep of Fig. 6(a).
pub const QD_SWEEP: [usize; 5] = [2, 3, 4, 5, 6];

/// The selectivity sweep of Fig. 6(b).
pub const SEL_SWEEP: [f64; 5] = [0.03, 0.05, 0.07, 0.1, 0.12];

/// Fig. 6(a): error vs query dimension.
pub fn run_a(cfg: &ExperimentConfig) -> String {
    let table = cfg.table();
    let four = build_four(&table, &PARA1);
    let headers: Vec<String> = QD_SWEEP.iter().map(|q| format!("qd={q}")).collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut report = Report::new(
        &format!(
            "Fig 6(a): aggregate query relative error % vs qd (n={}, sel=0.07)",
            table.len()
        ),
        &header_refs,
    );
    for (name, outcome) in &four {
        let cells: Vec<String> = QD_SWEEP
            .iter()
            .map(|&qd| {
                let wl = WorkloadConfig {
                    qd,
                    selectivity: 0.07,
                    queries: cfg.queries,
                    seed: cfg.seed,
                };
                let queries = generate_queries(&table, &wl);
                match average_relative_error(&table, &outcome.anonymized, &queries) {
                    Some(e) => f1(e),
                    None => "n/a".to_owned(),
                }
            })
            .collect();
        report.row(name, cells);
    }
    report.note("paper: error decreases with qd; see EXPERIMENTS.md for the deviation discussion");
    report.render()
}

/// Fig. 6(b): error vs selectivity.
pub fn run_b(cfg: &ExperimentConfig) -> String {
    let table = cfg.table();
    let four = build_four(&table, &PARA1);
    let headers: Vec<String> = SEL_SWEEP.iter().map(|s| format!("sel={s}")).collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut report = Report::new(
        &format!(
            "Fig 6(b): aggregate query relative error % vs selectivity (n={}, qd=3)",
            table.len()
        ),
        &header_refs,
    );
    for (name, outcome) in &four {
        let cells: Vec<String> = SEL_SWEEP
            .iter()
            .map(|&sel| {
                let wl = WorkloadConfig {
                    qd: 3,
                    selectivity: sel,
                    queries: cfg.queries,
                    seed: cfg.seed,
                };
                let queries = generate_queries(&table, &wl);
                match average_relative_error(&table, &outcome.anonymized, &queries) {
                    Some(e) => f1(e),
                    None => "n/a".to_owned(),
                }
            })
            .collect();
        report.row(name, cells);
    }
    report
        .note("paper: error decreases with selectivity; (B,t) answers as accurately as the others");
    report.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_figures_render() {
        let cfg = ExperimentConfig {
            rows: 400,
            queries: 50,
            ..ExperimentConfig::quick()
        };
        let a = run_a(&cfg);
        let b = run_b(&cfg);
        assert!(a.contains("qd=6"));
        assert!(b.contains("sel=0.12"));
        for name in crate::models::MODEL_NAMES {
            assert!(a.contains(name));
            assert!(b.contains(name));
        }
    }
}
