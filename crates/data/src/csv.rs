//! Minimal CSV reader/writer for microdata tables.
//!
//! The format is deliberately simple (comma-separated, no quoting) because
//! the datasets the paper uses — UCI *Adult* — are plain comma-separated
//! text. Rows containing a missing-value marker (`?` by default) are skipped,
//! mirroring the paper's "tuples with missing values are eliminated".
//!
//! Both directions work on bytes, with no allocation or `fmt` call per
//! value. [`read_csv`] streams its input through one reused line buffer, so
//! it never holds more than one line of the file however long the file is.
//! It keeps each field as a byte range of the line and hands the field to
//! [`Attribute::encode`] in place. [`write_csv`] renders each attribute's
//! labels once and copies label bytes per row.
//!
//! Trimming strips ASCII whitespace byte by byte and leaves a field with
//! non-ASCII characters at its edges to `str::trim`. So every input yields
//! the same table, report or error (variant and line number) as a plain
//! `str`-per-line reader, and the writer's bytes are those of
//! [`Attribute::display_value`].

use std::io::{BufRead, BufReader, Read, Write};
use std::iter::once;
use std::ops::Range;
use std::sync::Arc;

use crate::attribute::Attribute;
use crate::error::DataError;
use crate::schema::Schema;
use crate::table::{Table, TableBuilder};

/// Options controlling CSV parsing.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Skip the first line.
    pub has_header: bool,
    /// Rows containing this marker in any field are silently skipped.
    pub missing_marker: Option<String>,
    /// Column indices to read, in schema order (QI columns then the
    /// sensitive column). `None` reads the first `d + 1` columns in order.
    pub columns: Option<Vec<usize>>,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            has_header: false,
            missing_marker: Some("?".to_owned()),
            columns: None,
        }
    }
}

/// Statistics about a parse run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CsvReport {
    /// Rows successfully loaded.
    pub loaded: usize,
    /// Rows skipped because of a missing-value marker.
    pub skipped_missing: usize,
}

/// Rows per ingestion chunk: codes accumulate in fixed-size per-attribute
/// buffers and are appended to the builder's columns one
/// `extend_from_slice` per attribute — never materialized row-major.
const CHUNK_ROWS: usize = 16_384;

/// Bytes [`write_csv`] gathers before handing them to the writer.
const WRITE_CHUNK: usize = 1 << 16;

/// Read a table from CSV text.
///
/// Ingestion is **streamed, chunked and columnar**: lines are read one at
/// a time into a single reused buffer, each field is decoded straight into
/// a per-attribute chunk buffer, and full chunks are appended to the
/// [`TableBuilder`]'s columns via [`push_chunk`](TableBuilder::push_chunk).
/// A 10M-row file streams into the columnar table without holding the
/// file or an intermediate row-major copy.
///
/// Lines are numbered from 1, counting the header and blank lines; errors
/// carry that number. Each line and each field is trimmed of Unicode
/// whitespace (`str::trim`). A line that is not UTF-8 is an
/// [`Io`](DataError::Io) error, as [`BufRead::lines`] reports it.
pub fn read_csv<R: Read>(
    reader: R,
    schema: Arc<Schema>,
    options: &CsvOptions,
) -> Result<(Table, CsvReport), DataError> {
    let d = schema.qi_count();
    let attributes: Vec<&Attribute> = schema
        .qi_attributes()
        .iter()
        .chain(once(schema.sensitive_attribute()))
        .collect();
    let identity: Vec<usize> = (0..=d).collect();
    let selected = options.columns.as_deref().unwrap_or(&identity);
    let mut builder = TableBuilder::new(Arc::clone(&schema));
    let mut report = CsvReport::default();
    // QI chunks `0..d`, then the sensitive chunk at `d`.
    let mut chunks: Vec<Vec<u32>> = (0..=d).map(|_| Vec::with_capacity(CHUNK_ROWS)).collect();
    let mut input = BufReader::new(reader);
    let mut buf: Vec<u8> = Vec::new();
    let mut spans: Vec<Range<usize>> = Vec::new();
    let mut line_no = 0usize;
    loop {
        buf.clear();
        if input.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        line_no += 1;
        let text = std::str::from_utf8(&buf).map_err(|_| not_utf8())?;
        if options.has_header && line_no == 1 {
            continue;
        }
        // The line terminator is whitespace, so trimming also drops it.
        let line = &text[trim_span(text)];
        if line.is_empty() {
            continue;
        }
        split_fields(line, &mut spans);
        let arity = |expected: usize, found: usize| DataError::ArityMismatch {
            expected,
            found,
            line: line_no,
        };
        match &options.columns {
            Some(cols) => {
                if let Some(&c) = cols.iter().find(|&&c| c >= spans.len()) {
                    return Err(arity(c + 1, spans.len()));
                }
                if cols.len() != d + 1 {
                    return Err(arity(d + 1, cols.len()));
                }
            }
            None if spans.len() < d + 1 => return Err(arity(d + 1, spans.len())),
            None => {}
        }
        let field = |c: usize| &line[spans[c].clone()];
        if let Some(marker) = &options.missing_marker {
            if selected.iter().any(|&c| field(c) == marker) {
                report.skipped_missing += 1;
                continue;
            }
        }
        for ((&c, attribute), chunk) in selected.iter().zip(&attributes).zip(&mut chunks) {
            chunk.push(attribute.encode(field(c))?);
        }
        report.loaded += 1;
        if chunks[d].len() == CHUNK_ROWS {
            builder.push_chunk(&chunks[..d], &chunks[d])?;
            chunks.iter_mut().for_each(Vec::clear);
        }
    }
    if !chunks[d].is_empty() {
        builder.push_chunk(&chunks[..d], &chunks[d])?;
    }
    let table = builder.build()?;
    Ok((table, report))
}

/// The error `BufRead::lines` reports for a line that is not UTF-8.
fn not_utf8() -> DataError {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    )
    .into()
}

/// Replace `spans` with the trimmed byte range of each comma-separated
/// field of `line`.
fn split_fields(line: &str, spans: &mut Vec<Range<usize>>) {
    spans.clear();
    let mut start = 0;
    let commas = line.bytes().enumerate().filter(|&(_, b)| b == b',');
    for end in commas.map(|(i, _)| i).chain(once(line.len())) {
        let span = trim_span(&line[start..end]);
        spans.push(start + span.start..start + span.end);
        start = end + 1;
    }
}

/// Byte range of `s.trim()`. ASCII whitespace is stripped byte by byte;
/// `str::trim` decides only when a non-ASCII character is left at either
/// end, since it may be Unicode whitespace.
fn trim_span(s: &str) -> Range<usize> {
    // `char::is_whitespace` on ASCII: space and `\t \n \x0b \x0c \r`.
    let space = |b: u8| b == b' ' || (b'\t'..=b'\r').contains(&b);
    let bytes = s.as_bytes();
    let mut lo = 0;
    let mut hi = bytes.len();
    while lo < hi && space(bytes[lo]) {
        lo += 1;
    }
    while hi > lo && space(bytes[hi - 1]) {
        hi -= 1;
    }
    if lo < hi && !(bytes[lo].is_ascii() && bytes[hi - 1].is_ascii()) {
        let end = s.trim_end().len();
        return (s.len() - s.trim_start().len()).min(end)..end;
    }
    lo..hi
}

/// Write a table as CSV text with a header line.
///
/// Each attribute's labels ([`Attribute::display_value`]) are rendered once;
/// rows are then assembled as bytes in one reused buffer and handed to
/// `writer` in large pieces, so an unbuffered writer is fine. The bytes
/// are one `name,…` header line, then one line per row of comma-joined
/// labels.
pub fn write_csv<W: Write>(table: &Table, mut writer: W) -> Result<(), DataError> {
    let schema = table.schema();
    let d = schema.qi_count();
    let attributes: Vec<&Attribute> = schema
        .qi_attributes()
        .iter()
        .chain(once(schema.sensitive_attribute()))
        .collect();
    let labels: Vec<Vec<String>> = attributes
        .iter()
        .map(|a| (0..a.domain_size()).map(|c| a.display_value(c)).collect())
        .collect();
    let columns: Vec<&[u32]> = (0..d)
        .map(|a| table.qi_col(a).as_slice())
        .chain(once(table.sensitive_col()))
        .collect();
    let mut out: Vec<u8> = Vec::with_capacity(WRITE_CHUNK);
    for (a, attribute) in attributes.iter().enumerate() {
        out.extend_from_slice(attribute.name().as_bytes());
        out.push(if a == d { b'\n' } else { b',' });
    }
    for r in 0..table.len() {
        for (a, (column, labels)) in columns.iter().zip(&labels).enumerate() {
            // A table's codes are validated against their domains on build.
            out.extend_from_slice(labels[column[r] as usize].as_bytes());
            out.push(if a == d { b'\n' } else { b',' });
        }
        if out.len() >= WRITE_CHUNK {
            writer.write_all(&out)?;
            out.clear();
        }
    }
    writer.write_all(&out)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(
                vec![
                    Attribute::numeric_range("Age", 20, 70).unwrap(),
                    Attribute::categorical_flat("Sex", &["F", "M"]).unwrap(),
                ],
                Attribute::categorical_flat("Disease", &["Flu", "Cancer"]).unwrap(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn roundtrip() {
        let text = "25,F,Flu\n60 , M , Cancer\n";
        let (t, rep) = read_csv(text.as_bytes(), schema(), &CsvOptions::default()).unwrap();
        assert_eq!(rep.loaded, 2);
        assert_eq!(t.len(), 2);
        let mut out = Vec::new();
        write_csv(&t, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert_eq!(s, "Age,Sex,Disease\n25,F,Flu\n60,M,Cancer\n");
        // Reading back what we wrote (with header) gives the same table.
        let opts = CsvOptions {
            has_header: true,
            ..CsvOptions::default()
        };
        let (t2, _) = read_csv(s.as_bytes(), schema(), &opts).unwrap();
        assert_eq!(t2.len(), 2);
        assert_eq!(t2.qi(0), t.qi(0));
    }

    #[test]
    fn missing_marker_rows_skipped() {
        let text = "25,F,Flu\n30,?,Cancer\n60,M,Cancer\n";
        let (t, rep) = read_csv(text.as_bytes(), schema(), &CsvOptions::default()).unwrap();
        assert_eq!(rep.loaded, 2);
        assert_eq!(rep.skipped_missing, 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn blank_lines_ignored() {
        let text = "\n25,F,Flu\n\n60,M,Cancer\n\n";
        let (t, _) = read_csv(text.as_bytes(), schema(), &CsvOptions::default()).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn column_projection() {
        // Extra columns in the file; pick 0 (Age), 2 (Sex), 4 (Disease).
        let text = "25,junk,F,junk,Flu\n60,junk,M,junk,Cancer\n";
        let opts = CsvOptions {
            columns: Some(vec![0, 2, 4]),
            ..CsvOptions::default()
        };
        let (t, _) = read_csv(text.as_bytes(), schema(), &opts).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.qi(1), &[40, 1]);
    }

    #[test]
    fn arity_errors_carry_line_numbers() {
        let text = "25,F,Flu\n60,M\n";
        let err = read_csv(text.as_bytes(), schema(), &CsvOptions::default()).unwrap_err();
        match err {
            DataError::ArityMismatch { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unknown_value_propagates() {
        let text = "25,F,Ebola\n";
        assert!(matches!(
            read_csv(text.as_bytes(), schema(), &CsvOptions::default()),
            Err(DataError::UnknownValue { .. })
        ));
    }

    #[test]
    fn all_rows_missing_yields_empty_table_error() {
        let text = "?,F,Flu\n";
        assert!(matches!(
            read_csv(text.as_bytes(), schema(), &CsvOptions::default()),
            Err(DataError::EmptyTable)
        ));
    }

    /// The `str`-per-line codec the byte-level one replaced, with the
    /// `Attribute::encode` it called, kept verbatim as the reference the
    /// equivalence properties compare against.
    mod reference {
        use super::super::*;
        use crate::attribute::AttributeKind;

        pub fn read_csv<R: Read>(
            reader: R,
            schema: Arc<Schema>,
            options: &CsvOptions,
        ) -> Result<(Table, CsvReport), DataError> {
            let d = schema.qi_count();
            let mut builder = TableBuilder::new(Arc::clone(&schema));
            let mut report = CsvReport::default();
            let mut chunk_qi: Vec<Vec<u32>> =
                (0..d).map(|_| Vec::with_capacity(CHUNK_ROWS)).collect();
            let mut chunk_sensitive: Vec<u32> = Vec::with_capacity(CHUNK_ROWS);
            let buf = BufReader::new(reader);
            for (idx, line) in buf.lines().enumerate() {
                let line = line?;
                let line_no = idx + 1;
                if options.has_header && idx == 0 {
                    continue;
                }
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                let raw: Vec<&str> = trimmed.split(',').map(str::trim).collect();
                let fields: Vec<&str> = match &options.columns {
                    Some(cols) => {
                        let mut out = Vec::with_capacity(cols.len());
                        for &c in cols {
                            let f = raw.get(c).ok_or(DataError::ArityMismatch {
                                expected: c + 1,
                                found: raw.len(),
                                line: line_no,
                            })?;
                            out.push(*f);
                        }
                        out
                    }
                    None => {
                        if raw.len() < d + 1 {
                            return Err(DataError::ArityMismatch {
                                expected: d + 1,
                                found: raw.len(),
                                line: line_no,
                            });
                        }
                        raw[..d + 1].to_vec()
                    }
                };
                if fields.len() != d + 1 {
                    return Err(DataError::ArityMismatch {
                        expected: d + 1,
                        found: fields.len(),
                        line: line_no,
                    });
                }
                if let Some(marker) = &options.missing_marker {
                    if fields.iter().any(|f| *f == marker) {
                        report.skipped_missing += 1;
                        continue;
                    }
                }
                let row_result: Result<(), DataError> = (|| {
                    for (a, f) in fields[..d].iter().enumerate() {
                        let code = encode(schema.qi_attribute(a), f)?;
                        chunk_qi[a].push(code);
                    }
                    chunk_sensitive.push(encode(schema.sensitive_attribute(), fields[d])?);
                    Ok(())
                })();
                if let Err(e) = row_result {
                    for col in &mut chunk_qi {
                        col.truncate(chunk_sensitive.len());
                    }
                    return Err(e);
                }
                report.loaded += 1;
                if chunk_sensitive.len() == CHUNK_ROWS {
                    builder.push_chunk(&chunk_qi, &chunk_sensitive)?;
                    for col in &mut chunk_qi {
                        col.clear();
                    }
                    chunk_sensitive.clear();
                }
            }
            if !chunk_sensitive.is_empty() {
                builder.push_chunk(&chunk_qi, &chunk_sensitive)?;
            }
            let table = builder.build()?;
            Ok((table, report))
        }

        /// `Attribute::encode` as it was: a parse per numeric field and a
        /// linear scan of the domain.
        fn encode(attribute: &Attribute, text: &str) -> Result<u32, DataError> {
            let unknown = || DataError::UnknownValue {
                attribute: attribute.name().to_owned(),
                value: text.to_owned(),
            };
            match attribute.kind() {
                AttributeKind::Numeric { values } => {
                    let v: f64 = text.trim().parse().map_err(|_| unknown())?;
                    values
                        .iter()
                        .position(|&x| x == v)
                        .map(|i| i as u32)
                        .ok_or_else(unknown)
                }
                AttributeKind::Categorical { labels, .. } => labels
                    .iter()
                    .position(|l| l == text.trim())
                    .map(|i| i as u32)
                    .ok_or_else(unknown),
            }
        }

        pub fn write_csv<W: Write>(table: &Table, mut writer: W) -> Result<(), DataError> {
            let schema = table.schema();
            let names: Vec<&str> = schema
                .qi_attributes()
                .iter()
                .map(|a| a.name())
                .chain(std::iter::once(schema.sensitive_attribute().name()))
                .collect();
            writeln!(writer, "{}", names.join(","))?;
            let mut qi = Vec::with_capacity(schema.qi_count());
            for r in 0..table.len() {
                table.qi_into(r, &mut qi);
                let mut fields = Vec::with_capacity(schema.qi_count() + 1);
                for (i, &code) in qi.iter().enumerate() {
                    fields.push(schema.qi_attribute(i).display_value(code));
                }
                fields.push(
                    schema
                        .sensitive_attribute()
                        .display_value(table.sensitive_value(r)),
                );
                writeln!(writer, "{}", fields.join(","))?;
            }
            Ok(())
        }
    }

    /// A schema that reaches every decoder path: an integer domain, a
    /// fractional one whose values include `-0`'s twin `0`, `25` written
    /// as `2.5e1` and a value too long for the digit fast path, a label
    /// with a non-ASCII letter, and a label ending in U+00A0 (which no
    /// trimmed field can ever match).
    fn wide_schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(
                vec![
                    Attribute::numeric_range("Age", 20, 70).unwrap(),
                    Attribute::numeric("Score", vec![-1.5, 0.0, 2.5, 25.0, 1e20]).unwrap(),
                    Attribute::categorical_flat("Sex", &["F", "M", "Fé", "Not known"]).unwrap(),
                ],
                Attribute::categorical_flat("Disease", &["Flu", "Cancer", "Flu\u{a0}"]).unwrap(),
            )
            .unwrap(),
        )
    }

    /// Values a field of the wide schema may hold, valid ones per column
    /// first, then values no column (or only some parse paths) accepts.
    const AGES: [&str; 6] = ["25", "70", "20", "025", "+25", "25.0"];
    const SCORES: [&str; 10] = [
        "0",
        "-0",
        "2.5",
        "2.5e1",
        "25",
        "-1.5",
        "1e20",
        "100000000000000000000",
        "000000000000025",
        "0000000000000025",
    ];
    const SEXES: [&str; 4] = ["F", "M", "Fé", "Not known"];
    const DISEASES: [&str; 2] = ["Flu", "Cancer"];
    const ODD: [&str; 13] = [
        "?",
        "",
        "NA",
        "NaN",
        "inf",
        "19",
        "Ebola",
        "x y",
        "١٢",
        "F M",
        "f",
        "0x19",
        "Flu\u{a0}",
    ];
    const PADS: [&str; 9] = [
        "", " ", "  ", "\t", "\u{a0}", "\u{3000}", "\x0b", "\x0c", "\u{85}",
    ];

    /// Deterministic CSV text and options driven by a random tape, so the
    /// vendored proptest (which generates numbers, not strings) can cover
    /// padding, line endings, blank lines, projections and bad values.
    fn csv_from_tape(tape: &[u32]) -> (Vec<u8>, CsvOptions) {
        let mut it = tape.iter().copied().chain(std::iter::repeat(0));
        let mut next = |n: u32| it.next().unwrap_or(0) % n;
        let options = CsvOptions {
            has_header: next(2) == 0,
            missing_marker: match next(4) {
                0 => None,
                1 => Some("NA".to_owned()),
                _ => Some("?".to_owned()),
            },
            columns: match next(4) {
                0 => Some(vec![0, 1, 2, 3]),
                1 => Some(vec![3, 0, 5, 1]),
                2 => {
                    let len = next(6) as usize;
                    Some((0..len).map(|_| next(7) as usize).collect())
                }
                _ => None,
            },
        };
        let mut out = Vec::new();
        let lines = next(12);
        for _ in 0..lines {
            match next(16) {
                0 => out.extend_from_slice(PADS[next(9) as usize].as_bytes()),
                1 => out.extend_from_slice(b"25,F\xff,Flu,0"),
                _ => {
                    let fields = match next(8) {
                        0 => next(7),
                        _ => 4 + next(3),
                    };
                    for f in 0..fields {
                        if f > 0 {
                            out.push(b',');
                        }
                        out.extend_from_slice(PADS[next(9) as usize].as_bytes());
                        let pool: &[&str] = match (next(10), f % 4) {
                            (0, _) => &ODD,
                            (_, 0) => &AGES,
                            (_, 1) => &SCORES,
                            (_, 2) => &SEXES,
                            _ => &DISEASES,
                        };
                        out.extend_from_slice(pool[next(pool.len() as u32) as usize].as_bytes());
                        out.extend_from_slice(PADS[next(9) as usize].as_bytes());
                    }
                }
            }
            match next(6) {
                0 => out.extend_from_slice(b"\r\n"),
                1 => out.extend_from_slice(b"\r"),
                _ => out.push(b'\n'),
            }
        }
        if next(3) == 0 {
            out.extend_from_slice(b"30,0,M,Cancer");
        }
        (out, options)
    }

    type Outcome = Result<(Vec<Vec<u32>>, Vec<u32>, CsvReport), DataError>;

    fn outcome(result: Result<(Table, CsvReport), DataError>) -> Outcome {
        result.map(|(table, report)| {
            let rows = (0..table.len()).map(|r| table.qi(r)).collect();
            (rows, table.sensitive_col().to_vec(), report)
        })
    }

    fn both(bytes: &[u8], schema: &Arc<Schema>, options: &CsvOptions) -> (Outcome, Outcome) {
        (
            outcome(read_csv(bytes, Arc::clone(schema), options)),
            outcome(reference::read_csv(bytes, Arc::clone(schema), options)),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The byte-level reader returns the reference reader's table and
        /// report, or the same error, on generated CSV text.
        #[test]
        fn reader_matches_reference(tape in prop::collection::vec(0u32..1_000_000, 0..200)) {
            let (bytes, options) = csv_from_tape(&tape);
            let (fast, slow) = both(&bytes, &wide_schema(), &options);
            prop_assert_eq!(fast, slow, "input {:?} options {:?}", String::from_utf8_lossy(&bytes), options);
        }

        /// Arbitrary bytes, and random byte edits of generated files, give a
        /// value or a typed error — the reference's — and never a panic.
        #[test]
        fn reader_survives_arbitrary_and_mutated_bytes(
            tape in prop::collection::vec(0u32..1_000_000, 0..200),
            noise in prop::collection::vec(0u8..=255, 0..64),
            edits in prop::collection::vec((0usize..4096, 0u8..=255, 0u8..3), 0..6),
        ) {
            let (mut bytes, options) = csv_from_tape(&tape);
            for &(at, byte, op) in &edits {
                let at = if bytes.is_empty() { 0 } else { at % bytes.len() };
                match op {
                    0 if !bytes.is_empty() => bytes[at] = byte,
                    1 if !bytes.is_empty() => {
                        bytes.remove(at);
                    }
                    _ => bytes.insert(at, byte),
                }
            }
            let schema = wide_schema();
            let (fast, slow) = both(&bytes, &schema, &options);
            prop_assert_eq!(fast, slow, "mutated input {:?}", bytes);
            let (fast, slow) = both(&noise, &schema, &CsvOptions::default());
            prop_assert_eq!(fast, slow, "noise {:?}", noise);
        }

        /// `write_csv` writes exactly the reference writer's bytes.
        #[test]
        fn writer_matches_reference(codes in prop::collection::vec((0u32..51, 0u32..5, 0u32..4, 0u32..3), 1..40)) {
            let schema = wide_schema();
            let mut builder = TableBuilder::new(Arc::clone(&schema));
            for &(age, score, sex, disease) in &codes {
                builder.push_codes(&[age, score, sex], disease).unwrap();
            }
            let table = builder.build().unwrap();
            let (mut fast, mut slow) = (Vec::new(), Vec::new());
            write_csv(&table, &mut fast).unwrap();
            reference::write_csv(&table, &mut slow).unwrap();
            prop_assert_eq!(String::from_utf8_lossy(&fast), String::from_utf8_lossy(&slow));
        }
    }

    /// Several ingestion chunks, a partial last one and a missing row
    /// across the boundary: same table as the reference.
    #[test]
    fn reader_matches_reference_across_chunks() {
        let mut text = String::from("Age,Score,Sex,Disease\n");
        for r in 0..CHUNK_ROWS * 2 + 7 {
            let missing = if r == CHUNK_ROWS { "?" } else { "M" };
            text.push_str(&format!("{}, 2.5 ,{missing},Cancer\n", 20 + r % 51));
        }
        let options = CsvOptions {
            has_header: true,
            ..CsvOptions::default()
        };
        let (fast, slow) = both(text.as_bytes(), &wide_schema(), &options);
        assert_eq!(fast, slow);
        assert_eq!(fast.unwrap().2.loaded, CHUNK_ROWS * 2 + 6);
    }
}
