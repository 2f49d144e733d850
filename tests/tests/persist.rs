//! Persisted prior models: files written by earlier releases load and
//! re-save byte for byte, and no input — arbitrary bytes, or byte edits of
//! a valid v1 or v2 file — panics the loader: the result is a typed
//! `PersistError` or a model, and a loaded model answers every lookup for
//! its own keys.

use std::sync::Arc;

use proptest::prelude::*;

use bgkanon::data::adult;
use bgkanon::knowledge::{
    load_model_str, persist::PersistError, save_model_string, Bandwidth, PriorEstimator, PriorModel,
};

/// A v2 file: the model of `estimated()`, as an earlier release wrote it.
const V2: &str = include_str!("../fixtures/prior_model_v2.txt");
/// A v1 file: the same priors as a bare model, as an earlier release wrote
/// it.
const V1: &str = include_str!("../fixtures/prior_model_v1.txt");

/// The model the fixtures hold.
fn estimated() -> PriorModel {
    let table = adult::generate(16, 5);
    PriorEstimator::new(
        Arc::clone(table.schema()),
        Bandwidth::uniform(0.4, table.qi_count()).unwrap(),
    )
    .estimate(&table)
}

fn format_error(text: &str) -> Option<(usize, String)> {
    match load_model_str(text) {
        Err(PersistError::Format { line, reason }) => Some((line, reason)),
        _ => None,
    }
}

#[test]
fn files_of_earlier_releases_resave_byte_identical() {
    for text in [V1, V2] {
        let model = load_model_str(text).unwrap();
        assert_eq!(save_model_string(&model), text);
    }
    // The estimator and writer still produce the pinned bytes.
    let model = estimated();
    assert_eq!(save_model_string(&model), V2);
    let entries = model
        .iter()
        .map(|(qi, p)| (qi.to_vec(), p.clone()))
        .collect();
    let bare = PriorModel::from_parts(entries, model.table_distribution().clone()).unwrap();
    assert_eq!(save_model_string(&bare), V1);
}

#[test]
fn v2_prior_keys_must_be_exactly_the_point_keys() {
    let lines: Vec<&str> = V2.lines().collect();
    let priors: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].starts_with("prior "))
        .collect();
    let join = |lines: &[&str]| lines.iter().map(|l| format!("{l}\n")).collect::<String>();

    // One prior missing.
    let mut missing = lines.clone();
    missing.remove(priors[3]);
    assert!(format_error(&join(&missing)).is_some());
    // One prior twice.
    let mut twice = lines.clone();
    twice.push(lines[priors[3]]);
    assert!(format_error(&join(&twice)).is_some());
    // A prior at codes no point has.
    let mut stray = lines.clone();
    let moved = lines[priors[0]].replacen("prior ", "prior 99", 1);
    stray[priors[0]] = &moved;
    let (line, reason) = format_error(&join(&stray)).unwrap();
    assert_eq!(line, 5);
    assert!(
        reason.contains("exactly one `prior` per `point`"),
        "{reason}"
    );

    // Order does not matter: reversed prior lines load to the same model.
    let mut reversed = lines.clone();
    let tail: Vec<&str> = priors.iter().rev().map(|&i| lines[i]).collect();
    reversed.truncate(priors[0]);
    reversed.extend(tail);
    assert_eq!(
        save_model_string(&load_model_str(&join(&reversed)).unwrap()),
        V2
    );
}

#[test]
fn v1_duplicate_keys_keep_the_last_prior() {
    let lines: Vec<&str> = V1.lines().collect();
    let first = lines.iter().position(|l| l.starts_with("prior ")).unwrap();
    let d = 6;
    let codes: Vec<&str> = lines[first].split_whitespace().skip(1).take(d).collect();
    let other: Vec<&str> = lines[first + 1].split_whitespace().skip(1 + d).collect();
    let duplicate = format!("prior {} {}", codes.join(" "), other.join(" "));
    let text = format!("{V1}{duplicate}\n");
    let model = load_model_str(&text).unwrap();
    let original = load_model_str(V1).unwrap();
    assert_eq!(model.len(), original.len());
    let qi: Vec<u32> = codes.iter().map(|c| c.parse().unwrap()).collect();
    let next: Vec<u32> = lines[first + 1]
        .split_whitespace()
        .skip(1)
        .take(d)
        .map(|c| c.parse().unwrap())
        .collect();
    assert_eq!(model.prior(&qi), original.prior(&next));
    assert_ne!(model.prior(&qi), original.prior(&qi));
}

#[test]
fn out_of_range_dims_and_counts_are_typed_errors() {
    let huge = format!(
        "bgkanon-prior-model v1\ndims {} 2\ntable 0.5 0.5\n",
        usize::MAX
    );
    assert!(format_error(&huge).is_some());
    let head = "bgkanon-prior-model v2\ndims 1 2\nbandwidth 2.5e-1\nfamily epanechnikov\n";
    let overflow = format!("{head}point 0 4294967295 1\nprior 0 5e-1 5e-1\n");
    assert!(format_error(&overflow).is_some());
}

/// Apply byte edits to `text`: each `(at, byte, op)` overwrites, deletes
/// or inserts at `at % len`. Bytes are drawn mostly from the format's own
/// alphabet, so edits reach the number and keyword parsers rather than
/// only the magic line.
fn mutate(text: &str, edits: &[(usize, u8, u8)]) -> String {
    const ALPHABET: &[u8] = b"0123456789 \n\t-+.eprointabl";
    let mut bytes = text.as_bytes().to_vec();
    for &(at, byte, op) in edits {
        let byte = if byte < 192 {
            ALPHABET[usize::from(byte) % ALPHABET.len()]
        } else {
            byte
        };
        let at = at % bytes.len().max(1);
        match op {
            0 if !bytes.is_empty() => bytes[at] = byte,
            1 if !bytes.is_empty() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Load `text`; a model that loads must answer a lookup of each of its
/// keys with that key's prior, and re-save to a file that loads back to
/// the same bytes.
fn check_load(text: &str) -> Result<(), TestCaseError> {
    let Ok(model) = load_model_str(text) else {
        return Ok(());
    };
    for (qi, prior) in model.iter() {
        prop_assert!(model.prior(qi).is_some_and(|p| std::ptr::eq(p, prior)));
    }
    let saved = save_model_string(&model);
    let reloaded = load_model_str(&saved);
    prop_assert!(reloaded.is_ok(), "a saved model reloads");
    prop_assert_eq!(save_model_string(&reloaded.expect("checked")), saved);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// Byte edits of a v1 or v2 file give a model or a typed error.
    #[test]
    fn edited_model_files_never_panic(
        v2 in 0u8..2,
        edits in proptest::collection::vec((0usize..1 << 16, 0u8..=255, 0u8..3), 1..6),
    ) {
        check_load(&mutate(if v2 == 1 { V2 } else { V1 }, &edits))?;
    }

    /// Arbitrary bytes, alone or behind a valid header of either format.
    #[test]
    fn arbitrary_bytes_never_panic(noise in proptest::collection::vec(0u8..=255, 0..256)) {
        let noise = String::from_utf8_lossy(&noise).into_owned();
        let v1_head = "bgkanon-prior-model v1\ndims 2 2\ntable 0.5 0.5\n";
        let v2_head = "bgkanon-prior-model v2\ndims 2 2\nbandwidth 0.3 0.3\nfamily uniform\n";
        for text in [noise.clone(), format!("{v1_head}{noise}"), format!("{v2_head}{noise}")] {
            check_load(&text)?;
        }
    }
}
