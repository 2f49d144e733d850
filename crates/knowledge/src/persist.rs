//! Saving and loading estimated prior models.
//!
//! Kernel estimation is the expensive step of the (B,t) pipeline
//! (Fig. 4(b)), and experiments reuse the same adversary across many
//! releases. [`save_model`]/[`load_model`] persist a [`PriorModel`] as a
//! line-oriented text file. Models that carry their folded estimation table
//! (anything built by `PriorEstimator::estimate*`) are written in the **v2**
//! format, which also records the bandwidth, kernel family and folded
//! points — so a reloaded model is refreshable under table deltas *without
//! re-folding* (its fold is evolved by the delta, [`FoldedTable::evolve`],
//! and the model refreshed from it,
//! [`PriorEstimator::refresh_folded`](crate::PriorEstimator::refresh_folded)):
//!
//! ```text
//! bgkanon-prior-model v2
//! dims <d> <m>
//! bandwidth <b_1> … <b_d>
//! family <epanechnikov|uniform|triangular>
//! point <q_1> … <q_d> <c_1> … <c_m>
//! …
//! prior <q_1> … <q_d> <p_1> … <p_m>
//! …
//! ```
//!
//! A v2 file carries exactly one `prior` line per `point` line, in any
//! order; any other set of `prior` keys is a [`PersistError`].
//!
//! Bare [`PriorModel::from_parts`] models fall back to the legacy **v1**
//! format (`table` line + `prior` lines), which [`load_model`] still reads;
//! of two v1 `prior` lines with the same codes, the later one wins.
//! Entries are written in sorted QI order, so files are byte-stable for a
//! given model.

use std::io::{BufRead, Write};

use bgkanon_stats::Dist;

use crate::bandwidth::Bandwidth;
use crate::estimator::{FoldedTable, KernelFamily, PriorModel};

/// Magic first line of the legacy (prior-only) format.
pub const MAGIC: &str = "bgkanon-prior-model v1";

/// Magic first line of the refreshable format.
pub const MAGIC_V2: &str = "bgkanon-prior-model v2";

/// Errors from [`load_model`].
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the file (carries a line number and reason).
    Format {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        reason: String,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
            PersistError::Format { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn fmt_floats(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x:.17e}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn fmt_codes(qi: &[u32]) -> String {
    qi.iter().map(u32::to_string).collect::<Vec<_>>().join(" ")
}

/// Write `model` to `writer` — v2 when the model carries its folded table
/// (refreshable after reload), v1 otherwise.
pub fn save_model<W: Write>(model: &PriorModel, mut writer: W) -> std::io::Result<()> {
    // `iter` runs in ascending QI order, so output is byte-stable.
    let entries = model.iter();
    let m = model.table_distribution().len();
    if let (Some(folded), Some(bandwidth)) = (model.folded(), model.bandwidth()) {
        let d = folded.qi_count();
        writeln!(writer, "{MAGIC_V2}")?;
        writeln!(writer, "dims {d} {m}")?;
        writeln!(writer, "bandwidth {}", fmt_floats(bandwidth.as_slice()))?;
        writeln!(writer, "family {}", model.family().as_str())?;
        for p in folded.points() {
            writeln!(
                writer,
                "point {} {}",
                fmt_codes(p.qi()),
                p.sensitive_counts()
                    .iter()
                    .map(u32::to_string)
                    .collect::<Vec<_>>()
                    .join(" ")
            )?;
        }
        for (qi, dist) in entries {
            writeln!(
                writer,
                "prior {} {}",
                fmt_codes(qi),
                fmt_floats(dist.as_slice())
            )?;
        }
    } else {
        let d = model.iter().next().map_or(0, |(qi, _)| qi.len());
        writeln!(writer, "{MAGIC}")?;
        writeln!(writer, "dims {d} {m}")?;
        writeln!(
            writer,
            "table {}",
            fmt_floats(model.table_distribution().as_slice())
        )?;
        for (qi, dist) in entries {
            writeln!(
                writer,
                "prior {} {}",
                fmt_codes(qi),
                fmt_floats(dist.as_slice())
            )?;
        }
    }
    Ok(())
}

/// Serialize `model` to an owned string in the same format [`save_model`]
/// writes. This is the embeddable flavor: containers that persist a model
/// *inside* a larger versioned file (`bgkanon-core`'s tenant checkpoints)
/// splice these lines into their own stream instead of owning a whole file.
pub fn save_model_string(model: &PriorModel) -> String {
    let mut buf = Vec::new();
    save_model(model, &mut buf).expect("writing to an in-memory buffer cannot fail");
    String::from_utf8(buf).expect("persist output is ASCII")
}

/// Parse a model from text previously produced by [`save_model`] /
/// [`save_model_string`] — the embeddable counterpart of [`load_model`],
/// for callers that already hold the model's lines carved out of a larger
/// file. Line numbers in errors are relative to `text`.
pub fn load_model_str(text: &str) -> Result<PriorModel, PersistError> {
    load_model(text.as_bytes())
}

fn parse_dist(toks: &[&str], line: usize) -> Result<Dist, PersistError> {
    let p: Result<Vec<f64>, _> = toks.iter().map(|t| t.parse::<f64>()).collect();
    let p = p.map_err(|_| PersistError::Format {
        line,
        reason: "bad float".into(),
    })?;
    Dist::new(p).map_err(|e| PersistError::Format {
        line,
        reason: format!("invalid distribution: {e}"),
    })
}

fn parse_codes(toks: &[&str], line: usize) -> Result<Vec<u32>, PersistError> {
    let codes: Result<Vec<u32>, _> = toks.iter().map(|t| t.parse::<u32>()).collect();
    codes.map_err(|_| PersistError::Format {
        line,
        reason: "bad QI code".into(),
    })
}

/// Read a model previously written by [`save_model`] (either format; a v2
/// file yields a refreshable model carrying its folded table, bandwidth and
/// kernel family).
pub fn load_model<R: BufRead>(reader: R) -> Result<PriorModel, PersistError> {
    let mut lines = reader.lines().enumerate();
    let (_, first) = lines.next().ok_or(PersistError::Format {
        line: 1,
        reason: "empty file".into(),
    })?;
    let first = first?;
    let v2 = match first.trim() {
        s if s == MAGIC => false,
        s if s == MAGIC_V2 => true,
        _ => {
            return Err(PersistError::Format {
                line: 1,
                reason: format!("missing magic `{MAGIC}` or `{MAGIC_V2}`"),
            })
        }
    };
    let (_, dims) = lines.next().ok_or(PersistError::Format {
        line: 2,
        reason: "missing dims line".into(),
    })?;
    let dims = dims?;
    let mut it = dims.split_whitespace();
    if it.next() != Some("dims") {
        return Err(PersistError::Format {
            line: 2,
            reason: "expected `dims <d> <m>`".into(),
        });
    }
    let parse_usize = |tok: Option<&str>, line: usize| -> Result<usize, PersistError> {
        tok.and_then(|t| t.parse().ok())
            .ok_or(PersistError::Format {
                line,
                reason: "bad integer".into(),
            })
    };
    let d = parse_usize(it.next(), 2)?;
    let m = parse_usize(it.next(), 2)?;
    // Every line width below is at most `1 + d + m`.
    if d.checked_add(m).and_then(|w| w.checked_add(1)).is_none() {
        return Err(PersistError::Format {
            line: 2,
            reason: "dims out of range".into(),
        });
    }

    if v2 {
        return load_v2_body(lines, d, m);
    }

    let (_, table_line) = lines.next().ok_or(PersistError::Format {
        line: 3,
        reason: "missing table line".into(),
    })?;
    let table_line = table_line?;
    let toks: Vec<&str> = table_line.split_whitespace().collect();
    if toks.first() != Some(&"table") || toks.len() != m + 1 {
        return Err(PersistError::Format {
            line: 3,
            reason: format!("expected `table` with {m} probabilities"),
        });
    }
    let table_distribution = parse_dist(&toks[1..], 3)?;

    let mut priors = Vec::new();
    for (idx, line) in lines {
        let line_no = idx + 1;
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        if toks.first() != Some(&"prior") || toks.len() != 1 + d + m {
            return Err(PersistError::Format {
                line: line_no,
                reason: format!("expected `prior` with {d} codes and {m} probabilities"),
            });
        }
        let codes = parse_codes(&toks[1..=d], line_no)?;
        let dist = parse_dist(&toks[1 + d..], line_no)?;
        priors.push((codes, dist));
    }
    // Every key has `d` codes (checked above), so assembly cannot fail;
    // a repeated key keeps its last prior.
    PriorModel::from_parts(priors, table_distribution).ok_or(PersistError::Format {
        line: 2,
        reason: "prior keys of differing arity".into(),
    })
}

/// Parse everything after the `dims` line of a v2 file.
fn load_v2_body<I>(mut lines: I, d: usize, m: usize) -> Result<PriorModel, PersistError>
where
    I: Iterator<Item = (usize, std::io::Result<String>)>,
{
    let (_, bw_line) = lines.next().ok_or(PersistError::Format {
        line: 3,
        reason: "missing bandwidth line".into(),
    })?;
    let bw_line = bw_line?;
    let toks: Vec<&str> = bw_line.split_whitespace().collect();
    if toks.first() != Some(&"bandwidth") || toks.len() != d + 1 {
        return Err(PersistError::Format {
            line: 3,
            reason: format!("expected `bandwidth` with {d} components"),
        });
    }
    let b: Result<Vec<f64>, _> = toks[1..].iter().map(|t| t.parse::<f64>()).collect();
    let b = b.map_err(|_| PersistError::Format {
        line: 3,
        reason: "bad float".into(),
    })?;
    let bandwidth = Bandwidth::new(b).map_err(|e| PersistError::Format {
        line: 3,
        reason: format!("invalid bandwidth: {e}"),
    })?;

    let (_, fam_line) = lines.next().ok_or(PersistError::Format {
        line: 4,
        reason: "missing family line".into(),
    })?;
    let fam_line = fam_line?;
    let toks: Vec<&str> = fam_line.split_whitespace().collect();
    if toks.len() != 2 || toks[0] != "family" {
        return Err(PersistError::Format {
            line: 4,
            reason: "expected `family <name>`".into(),
        });
    }
    let family: KernelFamily = toks[1]
        .parse()
        .map_err(|e| PersistError::Format { line: 4, reason: e })?;

    let mut points: Vec<(Box<[u32]>, Vec<u32>)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut priors = Vec::new();
    for (idx, line) in lines {
        let line_no = idx + 1;
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks.first().copied() {
            Some("point") => {
                if toks.len() != 1 + d + m {
                    return Err(PersistError::Format {
                        line: line_no,
                        reason: format!("expected `point` with {d} codes and {m} counts"),
                    });
                }
                let codes = parse_codes(&toks[1..=d], line_no)?;
                let counts: Result<Vec<u32>, _> =
                    toks[1 + d..].iter().map(|t| t.parse::<u32>()).collect();
                let counts = counts.map_err(|_| PersistError::Format {
                    line: line_no,
                    reason: "bad count".into(),
                })?;
                if counts.iter().all(|&c| c == 0) {
                    return Err(PersistError::Format {
                        line: line_no,
                        reason: "folded point with zero rows".into(),
                    });
                }
                let codes = codes.into_boxed_slice();
                if !seen.insert(codes.clone()) {
                    return Err(PersistError::Format {
                        line: line_no,
                        reason: "duplicate folded point".into(),
                    });
                }
                points.push((codes, counts));
            }
            Some("prior") => {
                if toks.len() != 1 + d + m {
                    return Err(PersistError::Format {
                        line: line_no,
                        reason: format!("expected `prior` with {d} codes and {m} probabilities"),
                    });
                }
                let codes = parse_codes(&toks[1..=d], line_no)?;
                let dist = parse_dist(&toks[1 + d..], line_no)?;
                priors.push((codes, dist));
            }
            _ => {
                return Err(PersistError::Format {
                    line: line_no,
                    reason: "expected `point` or `prior`".into(),
                })
            }
        }
    }
    if points.is_empty() {
        return Err(PersistError::Format {
            line: 5,
            reason: "v2 model has no folded points".into(),
        });
    }
    let folded = FoldedTable::from_points(d, m, points).ok_or(PersistError::Format {
        line: 5,
        reason: "folded point counts overflow".into(),
    })?;
    PriorModel::from_parts_folded(priors, folded, bandwidth, family).ok_or(PersistError::Format {
        line: 5,
        reason: "v2 model needs exactly one `prior` per `point`".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::Bandwidth;
    use crate::estimator::{DeletedRows, PriorEstimator};
    use bgkanon_data::{DeltaBuilder, Parallelism};
    use std::sync::Arc;

    fn model() -> PriorModel {
        let t = bgkanon_data::adult::generate(300, 9);
        PriorEstimator::new(Arc::clone(t.schema()), Bandwidth::uniform(0.3, 6).unwrap())
            .estimate(&t)
    }

    #[test]
    fn roundtrip_preserves_model() {
        let m = model();
        let mut buf = Vec::new();
        save_model(&m, &mut buf).unwrap();
        let loaded = load_model(buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), m.len());
        assert!(
            loaded
                .table_distribution()
                .max_abs_diff(m.table_distribution())
                < 1e-15
        );
        for (qi, p) in m.iter() {
            let q = loaded.prior(qi).expect("entry survives roundtrip");
            assert!(p.max_abs_diff(q) < 1e-15, "entry {qi:?}");
        }
    }

    #[test]
    fn v2_roundtrip_preserves_fold_and_provenance() {
        let m = model();
        let mut buf = Vec::new();
        save_model(&m, &mut buf).unwrap();
        assert!(buf.starts_with(MAGIC_V2.as_bytes()));
        let loaded = load_model(buf.as_slice()).unwrap();
        assert!(loaded.is_refreshable());
        assert_eq!(loaded.bandwidth(), m.bandwidth());
        assert_eq!(loaded.family(), m.family());
        let (a, b) = (m.folded().unwrap(), loaded.folded().unwrap());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.rows(), b.rows());
        for (pa, pb) in a.points().zip(b.points()) {
            assert_eq!(pa.qi(), pb.qi());
            assert_eq!(pa.count(), pb.count());
            assert_eq!(pa.sensitive_counts(), pb.sensitive_counts());
        }
        // Exact bit equality of every prior and the table distribution.
        for (qi, p) in m.iter() {
            let q = loaded.prior(qi).unwrap();
            for (x, y) in p.as_slice().iter().zip(q.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        for (x, y) in m
            .table_distribution()
            .as_slice()
            .iter()
            .zip(loaded.table_distribution().as_slice())
        {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn reloaded_model_refreshes_without_refolding() {
        // The round-trip contract of the sparse engine: save → load →
        // evolve the loaded fold by a delta → refresh must equal a
        // from-scratch estimate of the post-delta table, bit for bit.
        let t = bgkanon_data::adult::generate(250, 4);
        let est = PriorEstimator::new(
            Arc::clone(t.schema()),
            Bandwidth::uniform(0.25, t.qi_count()).unwrap(),
        );
        let m = est.estimate(&t);
        let mut buf = Vec::new();
        save_model(&m, &mut buf).unwrap();
        let mut loaded = load_model(buf.as_slice()).unwrap();
        // The persisted provenance is enough to rebuild the estimator.
        let est2 = PriorEstimator::with_family(
            Arc::clone(t.schema()),
            loaded.bandwidth().unwrap().clone(),
            loaded.family(),
        );

        let donors = bgkanon_data::adult::generate(6, 123);
        let mut b = DeltaBuilder::new(Arc::clone(t.schema()));
        b.delete(10).delete(42).delete(200);
        for r in 0..6 {
            b.insert_codes(&donors.qi(r), donors.sensitive_value(r))
                .unwrap();
        }
        let delta = b.build();
        let deleted = DeletedRows::gather(&t, &delta).unwrap();
        let evolved = loaded.folded().unwrap().evolve(&deleted, &delta).unwrap();
        est2.refresh_folded(&mut loaded, evolved.into_folded(), Parallelism::Auto);

        let fresh = est.estimate(&t.apply_delta(&delta).unwrap());
        assert_eq!(loaded.len(), fresh.len());
        for (qi, p) in fresh.iter() {
            let q = loaded.prior(qi).unwrap();
            for (x, y) in p.as_slice().iter().zip(q.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "drift at {qi:?}");
            }
        }
    }

    #[test]
    fn string_helpers_match_writer_api() {
        // The embeddable flavor must be byte-identical to the writer API
        // (checkpoint files splice these lines verbatim) and round-trip to
        // an equal, refreshable model.
        let m = model();
        let mut buf = Vec::new();
        save_model(&m, &mut buf).unwrap();
        let text = save_model_string(&m);
        assert_eq!(text.as_bytes(), buf.as_slice());
        let loaded = load_model_str(&text).unwrap();
        assert!(loaded.is_refreshable());
        assert_eq!(loaded.len(), m.len());
        for (qi, p) in m.iter() {
            let q = loaded.prior(qi).unwrap();
            for (x, y) in p.as_slice().iter().zip(q.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn legacy_v1_files_still_load() {
        let m = model();
        let bare = PriorModel::from_parts(
            m.iter().map(|(qi, p)| (qi.to_vec(), p.clone())).collect(),
            m.table_distribution().clone(),
        )
        .unwrap();
        let mut buf = Vec::new();
        save_model(&bare, &mut buf).unwrap();
        assert!(buf.starts_with(MAGIC.as_bytes()));
        let loaded = load_model(buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), bare.len());
        assert!(!loaded.is_refreshable());
    }

    #[test]
    fn output_is_byte_stable() {
        let m = model();
        let mut a = Vec::new();
        let mut b = Vec::new();
        save_model(&m, &mut a).unwrap();
        save_model(&m, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = load_model("not a model\n".as_bytes()).unwrap_err();
        assert!(matches!(err, PersistError::Format { line: 1, .. }));
    }

    #[test]
    fn truncated_file_rejected() {
        let text = format!("{MAGIC}\ndims 2 3\n");
        assert!(load_model(text.as_bytes()).is_err());
        let text = format!("{MAGIC_V2}\ndims 2 3\n");
        assert!(load_model(text.as_bytes()).is_err());
    }

    #[test]
    fn corrupted_probability_rejected() {
        let text = format!("{MAGIC}\ndims 1 2\ntable 0.5 0.5\nprior 3 0.9 0.3\n");
        let err = load_model(text.as_bytes()).unwrap_err();
        assert!(matches!(err, PersistError::Format { line: 4, .. }), "{err}");
    }

    #[test]
    fn wrong_arity_rejected() {
        let text = format!("{MAGIC}\ndims 2 2\ntable 0.5 0.5\nprior 3 0.9 0.1\n");
        assert!(load_model(text.as_bytes()).is_err());
    }

    #[test]
    fn v2_malformed_lines_rejected() {
        let head = format!("{MAGIC_V2}\ndims 1 2\nbandwidth 2.5e-1\nfamily epanechnikov\n");
        // Unknown family.
        assert!(load_model(
            format!("{MAGIC_V2}\ndims 1 2\nbandwidth 2.5e-1\nfamily gaussian\npoint 0 1 0\n")
                .as_bytes()
        )
        .is_err());
        // Zero-row point.
        assert!(load_model(format!("{head}point 0 0 0\n").as_bytes()).is_err());
        // Duplicate point.
        assert!(load_model(format!("{head}point 0 1 0\npoint 0 0 1\n").as_bytes()).is_err());
        // Stray keyword.
        assert!(load_model(format!("{head}table 0.5 0.5\n").as_bytes()).is_err());
        // No points at all.
        assert!(load_model(head.as_bytes()).is_err());
        // Minimal valid file.
        let ok = load_model(format!("{head}point 0 1 1\nprior 0 5e-1 5e-1\n").as_bytes()).unwrap();
        assert!(ok.is_refreshable());
        assert_eq!(ok.folded().unwrap().rows(), 2);
    }
}
