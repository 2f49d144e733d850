//! Seeded input generation: tables, their CSV round trip, and the two churn
//! patterns of the repository's incremental and fleet benchmarks (uniform
//! scatter and the clustered age-band cohort), rebuilt here on the
//! benchmark's own generator.

use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bgkanon::data::csv::{read_csv, write_csv, CsvOptions};
use bgkanon::data::{adult, Delta, DeltaBuilder, Table};

use crate::util::{digest_table, ms_since, Rng};

/// A pool of synthetic Adult rows that inserted rows are drawn from.
pub struct Donors {
    table: Table,
}

impl Donors {
    pub fn new(rows: usize, seed: u64) -> Self {
        Donors {
            table: adult::generate(rows, seed ^ 0xd0_0a_75),
        }
    }

    fn insert(&self, builder: &mut DeltaBuilder, rng: &mut Rng, age: Option<u32>) {
        let r = rng.below(self.table.len());
        let mut qi = self.table.qi(r);
        if let Some(age) = age {
            qi[0] = age;
        }
        builder
            .insert_codes(&qi, self.table.sensitive_value(r))
            .expect("donor rows share the Adult schema");
    }
}

/// Uniform-scatter churn on a table of `rows` rows: `half` distinct random
/// deletes plus `half` donor inserts, so the size stays constant.
pub fn scatter_delta(table: &Table, rng: &mut Rng, half: usize, donors: &Donors) -> Delta {
    let n = table.len();
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < half.min(n - 1) {
        chosen.insert(rng.below(n));
    }
    let mut builder = DeltaBuilder::new(Arc::clone(table.schema()));
    for &row in &chosen {
        builder.delete(row);
    }
    for _ in 0..chosen.len() {
        donors.insert(&mut builder, rng, None);
    }
    builder.build()
}

/// Clustered-cohort churn: retire up to `half` rows inside one two-code age
/// band (each in-band row taken with probability ½, scanning in row order)
/// and admit as many newcomers with the same ages and fresh remaining
/// attributes. Age marginals are preserved, so the churn stays local to the
/// band's subtrees. A band the sampling leaves empty is re-drawn, so the
/// delta is never empty.
pub fn clustered_delta(table: &Table, rng: &mut Rng, half: usize, donors: &Donors) -> Delta {
    const BAND: u32 = 2;
    let n = table.len();
    let age_domain = table.schema().qi_attribute(0).domain_size();
    let ages_col = table.qi_col(0);
    let mut rows_in_band = Vec::with_capacity(half);
    let mut ages = Vec::with_capacity(half);
    for _attempt in 0..64 {
        let band_lo = rng.below(age_domain.saturating_sub(BAND).max(1) as usize) as u32;
        for row in 0..n {
            if ages.len() == half {
                break;
            }
            let age = ages_col.get(row);
            if age >= band_lo && age < band_lo + BAND && rng.chance(0.5) {
                rows_in_band.push(row);
                ages.push(age);
            }
        }
        if !ages.is_empty() {
            break;
        }
    }
    assert!(!ages.is_empty(), "no populated age band in 64 draws");
    let mut builder = DeltaBuilder::new(Arc::clone(table.schema()));
    for &row in &rows_in_band {
        builder.delete(row);
    }
    for &age in &ages {
        donors.insert(&mut builder, rng, Some(age));
    }
    builder.build()
}

/// A table read back from CSV, and how long the read took.
pub struct Ingest {
    pub table: Table,
    pub read_ms: f64,
}

/// Write `table` as CSV under `path` and read it back through the public
/// reader: the ingest path of a tenant that arrives as a file.
pub fn ingest(table: &Table, path: &Path) -> Result<Ingest, String> {
    {
        let file = std::fs::File::create(path).map_err(|e| format!("create {path:?}: {e}"))?;
        let mut writer = BufWriter::new(file);
        write_csv(table, &mut writer).map_err(|e| format!("write {path:?}: {e}"))?;
        writer.flush().map_err(|e| format!("flush {path:?}: {e}"))?;
    }
    let t = Instant::now();
    let file = std::fs::File::open(path).map_err(|e| format!("open {path:?}: {e}"))?;
    let options = CsvOptions {
        has_header: true,
        ..CsvOptions::default()
    };
    let (read, _) = read_csv(file, adult::adult_schema(), &options)
        .map_err(|e| format!("read {path:?}: {e}"))?;
    let read_ms = ms_since(t);
    Ok(Ingest {
        table: read,
        read_ms,
    })
}

/// Check an ingested table against the generated one, code for code.
pub fn check_ingest(generated: &Table, ingested: &Table) -> Result<(), String> {
    if digest_table(generated) != digest_table(ingested) {
        return Err("CSV round trip changed the table".into());
    }
    Ok(())
}
