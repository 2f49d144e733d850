//! Synthetic reproduction of the UCI *Adult* dataset used in the paper's
//! evaluation (§V, Table IV).
//!
//! The paper uses seven attributes of Adult — Age (74 values), Workclass (8),
//! Education (16), Marital-status (7), Race (5), Gender (2) as
//! quasi-identifiers and Occupation (14) as the sensitive attribute — with
//! roughly 30K tuples after removing rows with missing values.
//!
//! This environment has no network access, so [`generate`] synthesizes a
//! dataset with the exact same schema and realistic marginal distributions
//! *and* QI→Occupation correlations (the ingredient that makes
//! background-knowledge attacks observable). The conditional model multiplies
//! a base occupation distribution (approximating the real Adult marginals) by
//! factors keyed on education group, gender, age band and workclass, then
//! renormalizes — so, e.g., `Prof-specialty` concentrates on degree holders
//! and `Adm-clerical` on women, just as in the genuine data.
//!
//! To run every experiment on the *real* Adult file instead, use
//! [`load_adult_csv`] with a downloaded `adult.data`.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::attribute::Attribute;
use crate::csv::{read_csv, CsvOptions, CsvReport};
use crate::error::DataError;
use crate::hierarchy::HierarchyBuilder;
use crate::schema::Schema;
use crate::table::Table;

/// Number of valid tuples in the paper's copy of Adult ("about 30K").
pub const ADULT_DEFAULT_ROWS: usize = 30_162;

/// Workclass domain labels (8 values), code order.
pub const WORKCLASS: [&str; 8] = [
    "Private",
    "Self-emp-not-inc",
    "Self-emp-inc",
    "Federal-gov",
    "Local-gov",
    "State-gov",
    "Without-pay",
    "Never-worked",
];

/// Education domain labels (16 values), code order.
pub const EDUCATION: [&str; 16] = [
    "Preschool",
    "1st-4th",
    "5th-6th",
    "7th-8th",
    "9th",
    "10th",
    "11th",
    "12th",
    "HS-grad",
    "Some-college",
    "Assoc-voc",
    "Assoc-acdm",
    "Bachelors",
    "Masters",
    "Prof-school",
    "Doctorate",
];

/// Marital-status domain labels (7 values), code order.
pub const MARITAL: [&str; 7] = [
    "Married-civ-spouse",
    "Divorced",
    "Never-married",
    "Separated",
    "Widowed",
    "Married-spouse-absent",
    "Married-AF-spouse",
];

/// Race domain labels (5 values), code order.
pub const RACE: [&str; 5] = [
    "White",
    "Black",
    "Asian-Pac-Islander",
    "Amer-Indian-Eskimo",
    "Other",
];

/// Gender domain labels (2 values), code order.
pub const GENDER: [&str; 2] = ["Female", "Male"];

/// Occupation domain labels (14 values, the sensitive attribute), code order.
pub const OCCUPATION: [&str; 14] = [
    "Tech-support",
    "Craft-repair",
    "Other-service",
    "Sales",
    "Exec-managerial",
    "Prof-specialty",
    "Handlers-cleaners",
    "Machine-op-inspct",
    "Adm-clerical",
    "Farming-fishing",
    "Transport-moving",
    "Priv-house-serv",
    "Protective-serv",
    "Armed-Forces",
];

fn workclass_attribute() -> Attribute {
    // Height-3: root → employed/not-employed → sector → value, so sibling
    // sectors sit at normalized distance 1/3 and the bandwidth range the
    // experiments sweep (0.2–0.5) actually modulates how much workclass
    // knowledge the adversary has.
    let mut b = HierarchyBuilder::new("Any-workclass");
    let employed = b.internal(b.root(), "Employed");
    let private = b.internal(employed, "Private-sector");
    b.leaf(private, "Private");
    let self_emp = b.internal(employed, "Self-employed");
    b.leaf(self_emp, "Self-emp-not-inc");
    b.leaf(self_emp, "Self-emp-inc");
    let gov = b.internal(employed, "Government");
    b.leaf(gov, "Federal-gov");
    b.leaf(gov, "Local-gov");
    b.leaf(gov, "State-gov");
    let unpaid = b.internal(b.root(), "Not-employed");
    let unpaid_inner = b.internal(unpaid, "Unpaid");
    b.leaf(unpaid_inner, "Without-pay");
    b.leaf(unpaid_inner, "Never-worked");
    Attribute::categorical(
        "Workclass",
        WORKCLASS.iter().map(|s| (*s).to_owned()).collect(),
        b.build().expect("static hierarchy"),
    )
    .expect("static attribute")
}

fn education_attribute() -> Attribute {
    // Height-3: root → attainment band → sub-band → value.
    let mut b = HierarchyBuilder::new("Any-education");
    let dropout = b.internal(b.root(), "Without-HS-diploma");
    let elementary = b.internal(dropout, "Elementary");
    for l in &EDUCATION[0..4] {
        b.leaf(elementary, l);
    }
    let some_hs = b.internal(dropout, "Some-HS");
    for l in &EDUCATION[4..8] {
        b.leaf(some_hs, l);
    }
    let secondary = b.internal(b.root(), "Secondary");
    let hs = b.internal(secondary, "HS-level");
    b.leaf(hs, "HS-grad");
    b.leaf(hs, "Some-college");
    let assoc = b.internal(secondary, "Associate");
    b.leaf(assoc, "Assoc-voc");
    b.leaf(assoc, "Assoc-acdm");
    let higher = b.internal(b.root(), "Higher-education");
    let undergrad = b.internal(higher, "Undergraduate");
    b.leaf(undergrad, "Bachelors");
    let grad = b.internal(higher, "Graduate");
    b.leaf(grad, "Masters");
    b.leaf(grad, "Prof-school");
    b.leaf(grad, "Doctorate");
    Attribute::categorical(
        "Education",
        EDUCATION.iter().map(|s| (*s).to_owned()).collect(),
        b.build().expect("static hierarchy"),
    )
    .expect("static attribute")
}

fn marital_attribute() -> Attribute {
    // Height-3: root → married/alone → sub-status → value. Leaf order must
    // match MARITAL's code order, so leaves are added in that sequence.
    let mut b = HierarchyBuilder::new("Any-marital");
    let married = b.internal(b.root(), "Married");
    let present = b.internal(married, "Spouse-present");
    let absent = b.internal(married, "Spouse-absent");
    let alone = b.internal(b.root(), "Alone");
    let was = b.internal(alone, "Was-married");
    let never = b.internal(alone, "Never");
    b.leaf(present, "Married-civ-spouse");
    b.leaf(was, "Divorced");
    b.leaf(never, "Never-married");
    b.leaf(was, "Separated");
    b.leaf(was, "Widowed");
    b.leaf(absent, "Married-spouse-absent");
    b.leaf(present, "Married-AF-spouse");
    Attribute::categorical(
        "Marital-status",
        MARITAL.iter().map(|s| (*s).to_owned()).collect(),
        b.build().expect("static hierarchy"),
    )
    .expect("static attribute")
}

fn race_attribute() -> Attribute {
    // Height-2: root → majority/minority → value.
    let mut b = HierarchyBuilder::new("Any-race");
    let majority = b.internal(b.root(), "Majority");
    b.leaf(majority, "White");
    let minority = b.internal(b.root(), "Minority");
    b.leaf(minority, "Black");
    b.leaf(minority, "Asian-Pac-Islander");
    b.leaf(minority, "Amer-Indian-Eskimo");
    b.leaf(minority, "Other");
    Attribute::categorical(
        "Race",
        RACE.iter().map(|s| (*s).to_owned()).collect(),
        b.build().expect("static hierarchy"),
    )
    .expect("static attribute")
}

fn occupation_attribute() -> Attribute {
    // Height-2 hierarchy as in §IV-B.2 ("Occupation ... domain hierarchy of
    // height 2"): root → three broad sectors → the 14 occupations.
    let mut b = HierarchyBuilder::new("Any-occupation");
    let white = b.internal(b.root(), "White-collar");
    let blue = b.internal(b.root(), "Blue-collar");
    let service = b.internal(b.root(), "Service");
    b.leaf(white, "Tech-support");
    b.leaf(blue, "Craft-repair");
    b.leaf(service, "Other-service");
    b.leaf(white, "Sales");
    b.leaf(white, "Exec-managerial");
    b.leaf(white, "Prof-specialty");
    b.leaf(blue, "Handlers-cleaners");
    b.leaf(blue, "Machine-op-inspct");
    b.leaf(white, "Adm-clerical");
    b.leaf(blue, "Farming-fishing");
    b.leaf(blue, "Transport-moving");
    b.leaf(service, "Priv-house-serv");
    b.leaf(service, "Protective-serv");
    b.leaf(service, "Armed-Forces");
    Attribute::categorical(
        "Occupation",
        OCCUPATION.iter().map(|s| (*s).to_owned()).collect(),
        b.build().expect("static hierarchy"),
    )
    .expect("static attribute")
}

/// The Adult schema of Table IV: six QI attributes and Occupation sensitive.
pub fn adult_schema() -> Arc<Schema> {
    let qi = vec![
        Attribute::numeric_range("Age", 17, 90).expect("static domain"),
        workclass_attribute(),
        education_attribute(),
        marital_attribute(),
        race_attribute(),
        Attribute::categorical_flat("Gender", &GENDER).expect("static domain"),
    ];
    Arc::new(Schema::new(qi, occupation_attribute()).expect("static schema"))
}

/// Index of each QI attribute in [`adult_schema`].
pub mod qi_index {
    /// Age column.
    pub const AGE: usize = 0;
    /// Workclass column.
    pub const WORKCLASS: usize = 1;
    /// Education column.
    pub const EDUCATION: usize = 2;
    /// Marital-status column.
    pub const MARITAL: usize = 3;
    /// Race column.
    pub const RACE: usize = 4;
    /// Gender column.
    pub const GENDER: usize = 5;
}

fn sample_weighted(rng: &mut SmallRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0, "weights must not all be zero");
    let mut x = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Age-band index used by the conditional occupation model.
fn age_band(age: u32) -> usize {
    // Codes are offsets from 17: band by real age.
    let real = age + 17;
    match real {
        0..=24 => 0,
        25..=34 => 1,
        35..=44 => 2,
        45..=54 => 3,
        55..=64 => 4,
        _ => 5,
    }
}

/// Education-group index: 0 = without-HS, 1 = HS-level, 2 = associate,
/// 3 = degree. Mirrors the education hierarchy's internal nodes.
fn education_group(code: u32) -> usize {
    match code {
        0..=7 => 0,
        8..=9 => 1,
        10..=11 => 2,
        _ => 3,
    }
}

/// Base occupation weights, calibrated so the *realized* marginals after
/// applying the conditional boosts match the real Adult distribution
/// (Tech-support ≈ 3%, Craft-repair ≈ 13%, …, Armed-Forces ≈ 0.1%). The
/// calibration matters: the probabilistic ℓ-diversity experiments need the
/// most frequent occupation to stay below 1/ℓ = 1/6 of the data.
const OCC_BASE: [f64; 14] = [
    3.24,  // Tech-support
    10.95, // Craft-repair
    9.18,  // Other-service
    13.0,  // Sales
    14.48, // Exec-managerial
    15.63, // Prof-specialty
    4.04,  // Handlers-cleaners
    6.72,  // Machine-op-inspct
    12.88, // Adm-clerical
    3.80,  // Farming-fishing
    4.91,  // Transport-moving
    0.48,  // Priv-house-serv
    2.88,  // Protective-serv
    0.50,  // Armed-Forces
];

/// Multiplicative boost of each occupation per education group
/// (rows: education group 0..4, columns: occupation 0..14).
const OCC_BY_EDU: [[f64; 14]; 4] = [
    // without HS diploma: manual work dominates, professional work rare
    [
        0.3, 2.0, 2.2, 0.7, 0.25, 0.08, 2.6, 2.4, 0.5, 2.2, 2.0, 3.0, 0.7, 0.5,
    ],
    // HS-level
    [
        1.0, 1.5, 1.2, 1.1, 0.7, 0.25, 1.3, 1.4, 1.2, 1.1, 1.4, 1.0, 1.2, 1.0,
    ],
    // associate
    [
        2.0, 1.1, 0.8, 1.0, 1.0, 0.9, 0.7, 0.8, 1.3, 0.7, 0.8, 0.5, 1.3, 1.2,
    ],
    // degree
    [
        1.3, 0.25, 0.35, 1.1, 2.2, 3.6, 0.2, 0.2, 0.8, 0.3, 0.25, 0.15, 0.7, 1.3,
    ],
];

/// Multiplicative boost per gender (rows: Female, Male).
const OCC_BY_GENDER: [[f64; 14]; 2] = [
    // Female: clerical/service heavy; craft/transport rare
    [
        1.2, 0.1, 1.8, 1.0, 0.8, 1.1, 0.35, 0.7, 2.3, 0.25, 0.1, 3.2, 0.35, 0.2,
    ],
    // Male
    [
        0.9, 1.5, 0.6, 1.0, 1.1, 0.95, 1.35, 1.15, 0.35, 1.4, 1.5, 0.1, 1.35, 1.4,
    ],
];

/// Multiplicative boost per age band (6 bands).
const OCC_BY_AGE: [[f64; 14]; 6] = [
    // ≤24: service/handlers; few executives
    [
        0.9, 0.8, 1.9, 1.3, 0.35, 0.5, 1.9, 0.9, 1.2, 1.1, 0.7, 1.1, 0.8, 2.2,
    ],
    // 25–34
    [
        1.3, 1.1, 1.0, 1.0, 0.9, 1.1, 1.1, 1.0, 1.0, 0.9, 1.0, 0.8, 1.2, 1.4,
    ],
    // 35–44
    [
        1.0, 1.1, 0.85, 0.95, 1.2, 1.15, 0.85, 1.0, 0.95, 0.9, 1.1, 0.8, 1.1, 0.6,
    ],
    // 45–54
    [
        0.8, 1.0, 0.85, 0.9, 1.35, 1.1, 0.7, 1.0, 0.95, 1.0, 1.1, 0.9, 1.0, 0.3,
    ],
    // 55–64
    [
        0.6, 0.9, 1.0, 0.95, 1.3, 1.0, 0.6, 1.0, 1.0, 1.4, 1.0, 1.3, 0.8, 0.1,
    ],
    // 65+
    [
        0.4, 0.7, 1.3, 1.1, 1.1, 0.9, 0.5, 0.7, 0.9, 2.2, 0.7, 2.0, 0.5, 0.05,
    ],
];

/// Multiplicative boost per workclass (8 classes).
const OCC_BY_WORKCLASS: [[f64; 14]; 8] = [
    // Private
    [
        1.1, 1.1, 1.1, 1.0, 0.95, 0.85, 1.2, 1.2, 1.0, 0.6, 1.1, 1.2, 0.5, 0.1,
    ],
    // Self-emp-not-inc
    [
        0.4, 1.9, 0.7, 1.2, 1.0, 0.9, 0.3, 0.3, 0.3, 3.2, 0.7, 0.2, 0.15, 0.05,
    ],
    // Self-emp-inc
    [
        0.4, 1.2, 0.5, 2.0, 2.2, 0.9, 0.2, 0.3, 0.4, 1.4, 0.5, 0.1, 0.15, 0.05,
    ],
    // Federal-gov
    [
        1.6, 0.5, 0.5, 0.4, 1.5, 1.2, 0.4, 0.3, 2.2, 0.2, 0.4, 0.05, 1.3, 3.5,
    ],
    // Local-gov
    [
        0.8, 0.8, 1.0, 0.3, 1.0, 1.8, 0.6, 0.3, 1.3, 0.4, 0.9, 0.1, 3.0, 0.2,
    ],
    // State-gov
    [
        1.2, 0.5, 0.9, 0.3, 1.3, 1.9, 0.4, 0.3, 1.7, 0.3, 0.5, 0.05, 2.2, 0.3,
    ],
    // Without-pay
    [
        0.2, 0.8, 1.5, 0.8, 0.4, 0.4, 1.2, 0.8, 1.0, 4.0, 0.8, 1.0, 0.2, 0.05,
    ],
    // Never-worked
    [
        0.3, 0.5, 2.0, 0.8, 0.2, 0.2, 2.0, 1.0, 0.8, 1.5, 0.5, 1.5, 0.2, 0.05,
    ],
];

/// Draw one row of the synthetic Adult model.
fn sample_row(rng: &mut SmallRng) -> ([u32; 6], u32) {
    // Age: piecewise-weighted over 17..=90 approximating Adult's shape
    // (mode in the late 20s/30s, long right tail).
    let age_code = {
        let weights: Vec<f64> = (17..=90)
            .map(|a| match a {
                17..=19 => 1.6,
                20..=24 => 2.6,
                25..=29 => 3.0,
                30..=34 => 3.0,
                35..=39 => 2.9,
                40..=44 => 2.6,
                45..=49 => 2.1,
                50..=54 => 1.6,
                55..=59 => 1.1,
                60..=64 => 0.8,
                65..=69 => 0.4,
                70..=79 => 0.15,
                _ => 0.05,
            })
            .collect();
        sample_weighted(rng, &weights) as u32
    };
    let age_b = age_band(age_code);

    // Gender: ≈ 67% male in Adult.
    let gender = if rng.gen::<f64>() < 0.669 { 1u32 } else { 0u32 };

    // Race marginals.
    let race = sample_weighted(rng, &[85.5, 9.6, 3.1, 1.0, 0.8]) as u32;

    // Workclass marginals (valid rows of Adult: Private ≈ 75%).
    let workclass = {
        let mut w = [73.8, 8.3, 3.6, 3.1, 6.8, 4.2, 0.15, 0.05];
        // The young are likelier to have never worked.
        if age_b == 0 {
            w[7] *= 6.0;
            w[6] *= 2.0;
        }
        sample_weighted(rng, &w) as u32
    };

    // Education: marginals with an age tilt (older cohorts less college).
    let education = {
        let mut w = [
            0.2, 0.5, 1.1, 2.1, 1.7, 2.9, 3.9, 1.4, // without diploma
            32.3, 22.4, // HS-grad, Some-college
            4.6, 3.5, // Assoc
            16.6, 5.7, 1.9, 1.3, // Bachelors..Doctorate
        ];
        if age_b == 0 {
            // Many under-25s are still mid-education.
            w[9] *= 1.8;
            for x in w.iter_mut().take(8).skip(4) {
                *x *= 1.5;
            }
            for x in w.iter_mut().take(16).skip(13) {
                *x *= 0.2;
            }
        } else if age_b >= 4 {
            for x in w.iter_mut().take(8) {
                *x *= 1.8;
            }
            w[9] *= 0.7;
        }
        sample_weighted(rng, &w) as u32
    };
    let edu_g = education_group(education);

    // Marital status: strongly age-dependent.
    let marital = {
        let w: [f64; 7] = match age_b {
            0 => [4.0, 1.0, 90.0, 1.0, 0.1, 1.5, 0.4],
            1 => [38.0, 7.0, 48.0, 3.0, 0.3, 3.0, 0.7],
            2 => [58.0, 13.0, 20.0, 4.0, 1.0, 3.5, 0.5],
            3 => [62.0, 17.0, 10.0, 4.0, 3.0, 3.8, 0.2],
            4 => [64.0, 15.0, 5.0, 3.0, 9.0, 3.9, 0.1],
            _ => [55.0, 9.0, 3.0, 2.0, 27.0, 3.9, 0.1],
        };
        sample_weighted(rng, &w) as u32
    };

    // Occupation: base marginals modulated by the conditioning factors.
    let occupation = {
        let mut w = [0.0f64; 14];
        for (i, wi) in w.iter_mut().enumerate() {
            *wi = OCC_BASE[i]
                * OCC_BY_EDU[edu_g][i]
                * OCC_BY_GENDER[gender as usize][i]
                * OCC_BY_AGE[age_b][i]
                * OCC_BY_WORKCLASS[workclass as usize][i];
        }
        sample_weighted(rng, &w) as u32
    };

    (
        [age_code, workclass, education, marital, race, gender],
        occupation,
    )
}

/// Generate a synthetic Adult table with `rows` tuples, deterministically
/// from `seed`.
pub fn generate(rows: usize, seed: u64) -> Table {
    assert!(rows > 0, "rows > 0");
    let schema = adult_schema();
    let mut rng = SmallRng::seed_from_u64(seed);
    // Sampled codes stream straight into the per-attribute columns — no
    // per-row staging and no per-code re-validation (the conditional model
    // emits in-domain codes by construction; `all_codes_in_domain` checks
    // it) — so 10M-row generation is bounded by sampling, not layout.
    let mut cols: Vec<Vec<u32>> = (0..schema.qi_count())
        .map(|_| Vec::with_capacity(rows))
        .collect();
    let mut sensitive = Vec::with_capacity(rows);
    for _ in 0..rows {
        let (qi, s) = sample_row(&mut rng);
        for (col, &code) in cols.iter_mut().zip(&qi) {
            col.push(code);
        }
        sensitive.push(s);
    }
    Table::from_raw_columns(schema, cols, sensitive)
}

/// Generate the paper-sized dataset (≈30K tuples) with the default seed.
pub fn generate_default() -> Table {
    generate(ADULT_DEFAULT_ROWS, 42)
}

/// Load the genuine UCI `adult.data` file, projecting the seven attributes
/// of Table IV. Column indices in `adult.data`:
/// age 0, workclass 1, education 3, marital-status 5, occupation 6, race 8,
/// sex 9. Rows with missing values (`?`) are skipped.
pub fn load_adult_csv<R: std::io::Read>(reader: R) -> Result<(Table, CsvReport), DataError> {
    let options = CsvOptions {
        has_header: false,
        missing_marker: Some("?".to_owned()),
        // QI order: Age, Workclass, Education, Marital, Race, Gender; then
        // the sensitive Occupation.
        columns: Some(vec![0, 1, 3, 5, 8, 9, 6]),
    };
    read_csv(reader, adult_schema(), &options)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_matches_table_iv() {
        let s = adult_schema();
        assert_eq!(s.qi_count(), 6);
        let sizes: Vec<u32> = s.qi_attributes().iter().map(|a| a.domain_size()).collect();
        assert_eq!(sizes, vec![74, 8, 16, 7, 5, 2]);
        assert_eq!(s.sensitive_attribute().domain_size(), 14);
        assert_eq!(s.sensitive_attribute().hierarchy().unwrap().height(), 2);
    }

    #[test]
    fn generator_is_deterministic() {
        let a = generate(500, 7);
        let b = generate(500, 7);
        assert_eq!(a.len(), 500);
        for r in 0..a.len() {
            assert_eq!(a.qi(r), b.qi(r));
            assert_eq!(a.sensitive_value(r), b.sensitive_value(r));
        }
        let c = generate(500, 8);
        let same = (0..a.len()).all(|r| a.qi(r) == c.qi(r));
        assert!(!same, "different seeds should differ");
    }

    #[test]
    fn all_codes_in_domain() {
        let t = generate(2000, 1);
        let s = t.schema();
        for row in 0..t.len() {
            for (i, &v) in t.qi(row).iter().enumerate() {
                assert!(v < s.qi_attribute(i).domain_size());
            }
            assert!(t.sensitive_value(row) < 14);
        }
    }

    #[test]
    fn every_occupation_appears() {
        let t = generate(20_000, 42);
        let counts = t.sensitive_counts();
        assert!(counts.iter().all(|&c| c > 0), "counts: {counts:?}");
    }

    #[test]
    fn correlations_exist() {
        // The conditional model must create the correlations the paper's
        // attack exploits: degree holders skew professional, women skew
        // clerical.
        let t = generate(20_000, 42);
        let mut prof_degree = 0u32;
        let mut degree = 0u32;
        let mut prof_nodegree = 0u32;
        let mut nodegree = 0u32;
        let mut cler_f = 0u32;
        let mut f = 0u32;
        let mut cler_m = 0u32;
        let mut m = 0u32;
        for r in 0..t.len() {
            let edu = t.qi_value(r, qi_index::EDUCATION);
            let gender = t.qi_value(r, qi_index::GENDER);
            let occ = t.sensitive_value(r);
            if edu >= 12 {
                degree += 1;
                if occ == 5 {
                    prof_degree += 1;
                }
            } else {
                nodegree += 1;
                if occ == 5 {
                    prof_nodegree += 1;
                }
            }
            if gender == 0 {
                f += 1;
                if occ == 8 {
                    cler_f += 1;
                }
            } else {
                m += 1;
                if occ == 8 {
                    cler_m += 1;
                }
            }
        }
        let p_prof_degree = f64::from(prof_degree) / f64::from(degree);
        let p_prof_nodegree = f64::from(prof_nodegree) / f64::from(nodegree);
        assert!(
            p_prof_degree > 3.0 * p_prof_nodegree,
            "prof|degree {p_prof_degree} vs prof|nodegree {p_prof_nodegree}"
        );
        let p_cler_f = f64::from(cler_f) / f64::from(f);
        let p_cler_m = f64::from(cler_m) / f64::from(m);
        assert!(
            p_cler_f > 2.0 * p_cler_m,
            "clerical|F {p_cler_f} vs clerical|M {p_cler_m}"
        );
    }

    #[test]
    fn load_real_adult_format() {
        // Genuine `adult.data` lines: 15 columns joined by ", ", `?` for a
        // missing value. A `?` in a projected column (workclass, then
        // occupation) skips the row; one in an unprojected column
        // (native-country) does not. CRLF endings, `adult.test`'s trailing
        // `.` and the file's final blank line are all accepted.
        let text = "\
39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical, Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K
50, Self-emp-not-inc, 83311, Bachelors, 13, Married-civ-spouse, Exec-managerial, Husband, White, Male, 0, 0, 13, United-States, <=50K
23, ?, 12345, HS-grad, 9, Never-married, Sales, Own-child, Black, Female, 0, 0, 30, United-States, <=50K
38, Private, 215646, HS-grad, 9, Divorced, Handlers-cleaners, Not-in-family, White, Male, 0, 0, 40, ?, <=50K\r
54, Private, 180211, Some-college, 10, Married-civ-spouse, ?, Husband, Asian-Pac-Islander, Male, 0, 0, 60, South, >50K.
90, Local-gov, 227032, Doctorate, 16, Widowed, Prof-specialty, Unmarried, Amer-Indian-Eskimo, Female, 0, 0, 20, United-States, >50K

";
        let (t, rep) = load_adult_csv(text.as_bytes()).unwrap();
        assert_eq!(rep.loaded, 4);
        assert_eq!(rep.skipped_missing, 2);
        assert_eq!(t.len(), 4);
        assert_eq!(t.qi_value(0, qi_index::AGE), 39 - 17);
        assert_eq!(t.qi_value(0, qi_index::WORKCLASS), 5); // State-gov
        assert_eq!(t.sensitive_value(1), 4); // Exec-managerial

        // Age, Workclass, Education, Marital, Race, Gender; Occupation.
        assert_eq!(t.qi(2), vec![38 - 17, 0, 8, 1, 0, 1]);
        assert_eq!(t.sensitive_value(2), 6); // Handlers-cleaners
        assert_eq!(t.qi(3), vec![90 - 17, 4, 15, 4, 3, 0]);
        assert_eq!(t.sensitive_value(3), 5); // Prof-specialty

        // A short line is an arity error naming its 1-based line.
        let short = "39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical\n";
        assert_eq!(
            load_adult_csv(short.as_bytes()).unwrap_err(),
            DataError::ArityMismatch {
                expected: 9,
                found: 7,
                line: 1
            }
        );
    }

    #[test]
    fn age_band_boundaries() {
        assert_eq!(age_band(0), 0); // real age 17
        assert_eq!(age_band(24 - 17), 0);
        assert_eq!(age_band(25 - 17), 1);
        assert_eq!(age_band(65 - 17), 5);
        assert_eq!(age_band(73), 5); // real age 90
    }

    #[test]
    fn education_group_boundaries() {
        assert_eq!(education_group(0), 0);
        assert_eq!(education_group(7), 0);
        assert_eq!(education_group(8), 1);
        assert_eq!(education_group(9), 1);
        assert_eq!(education_group(10), 2);
        assert_eq!(education_group(12), 3);
        assert_eq!(education_group(15), 3);
    }
}
