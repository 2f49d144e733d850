//! # bgkanon-bench
//!
//! Experiment harness reproducing every figure of the paper's evaluation
//! (§V). One module per figure; each exposes `run(&ExperimentConfig)` that
//! executes the experiment and returns a printable report. Binaries wrap
//! the modules (`cargo run --release -p bgkanon-bench --bin fig1`), and the
//! `experiments` bench target replays everything at a reduced scale.
//!
//! | module | paper figure | what it measures |
//! |---|---|---|
//! | [`fig1`] | Fig. 1(a)/(b) | vulnerable tuples under background-knowledge attack |
//! | [`fig2`] | Fig. 2 | accuracy of the Ω-estimate (avg distance error ρ) |
//! | [`fig3`] | Fig. 3(a)/(b) | continuity of worst-case disclosure risk in `B` |
//! | [`fig4`] | Fig. 4(a)/(b) | efficiency: anonymization & knowledge estimation |
//! | [`fig5`] | Fig. 5(a)/(b) | general utility: DM and GCP |
//! | [`fig6`] | Fig. 6(a)/(b) | aggregate query answering error |
//! | [`ablation`] | — | kernel family, measure smoothing, exact-vs-Ω, rule subsumption |
//!
//! [`gate`] is not an experiment: it implements the CI perf-regression gate
//! (`--bin perfgate`) that checks the smoke benchmarks' JSON against the
//! committed thresholds in `crates/bench/thresholds.json`, and the one JSON
//! writer ([`gate::Json::render`]) the benchmark harness (`--bin baseline`)
//! writes those documents with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod config;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod gate;
pub mod models;
pub mod report;

pub use config::ExperimentConfig;
