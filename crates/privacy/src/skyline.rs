//! The skyline (B,t)-privacy principle (Definition 2, §IV.A).
//!
//! A single (B,t) pair only protects against one adversary profile. Because
//! the worst-case disclosure risk varies *continuously* with `B` (validated
//! empirically in Fig. 3), the data publisher can cover the whole spectrum
//! of adversaries with a well-chosen finite skyline
//! `{(B_1,t_1), …, (B_r,t_r)}`: stronger adversaries (smaller `B`) are
//! allowed larger thresholds, weaker ones smaller thresholds.

use std::fmt;

use bgkanon_data::Table;
use bgkanon_knowledge::bandwidth::BandwidthError;
use bgkanon_knowledge::Bandwidth;

use crate::bt::BTPrivacy;
use crate::requirement::{GroupView, PrivacyRequirement};

/// A conjunction of (B,t)-privacy constraints.
#[derive(Debug, Clone)]
pub struct SkylineBTPrivacy {
    points: Vec<BTPrivacy>,
}

impl SkylineBTPrivacy {
    /// Build from pre-constructed (B,t) requirements.
    pub fn new(points: Vec<BTPrivacy>) -> Self {
        assert!(!points.is_empty(), "skyline needs at least one point");
        SkylineBTPrivacy { points }
    }

    /// Build for `table` from `(b, t)` pairs, each `b` applied uniformly
    /// over all QI attributes (the experiments' convention). An empty pair
    /// list, or a `b` that is zero, negative, NaN or infinite, is an error.
    pub fn from_pairs(table: &Table, pairs: &[(f64, f64)]) -> Result<Self, SkylineError> {
        if pairs.is_empty() {
            return Err(SkylineError::NoPoints);
        }
        let d = table.qi_count();
        let points = pairs
            .iter()
            .map(|&(b, t)| {
                let bandwidth = Bandwidth::uniform(b, d).map_err(SkylineError::Bandwidth)?;
                Ok(BTPrivacy::new(table, bandwidth, t))
            })
            .collect::<Result<_, SkylineError>>()?;
        Ok(SkylineBTPrivacy { points })
    }

    /// The skyline points.
    pub fn points(&self) -> &[BTPrivacy] {
        &self.points
    }
}

/// Why [`SkylineBTPrivacy::from_pairs`] rejected its pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SkylineError {
    /// No `(b, t)` pair was given.
    NoPoints,
    /// A pair's `b` is not a valid bandwidth.
    Bandwidth(BandwidthError),
}

impl fmt::Display for SkylineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkylineError::NoPoints => write!(f, "skyline needs at least one (b, t) point"),
            SkylineError::Bandwidth(e) => write!(f, "invalid skyline bandwidth: {e}"),
        }
    }
}

impl std::error::Error for SkylineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SkylineError::NoPoints => None,
            SkylineError::Bandwidth(e) => Some(e),
        }
    }
}

impl PrivacyRequirement for SkylineBTPrivacy {
    fn name(&self) -> String {
        let inner = self
            .points
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(", ");
        format!("skyline[{inner}]")
    }

    fn is_satisfied(&self, group: &GroupView<'_>) -> bool {
        self.points.iter().all(|p| p.is_satisfied(group))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgkanon_data::toy;

    #[test]
    fn skyline_is_conjunction() {
        let table = toy::hospital_table();
        let sky = SkylineBTPrivacy::from_pairs(&table, &[(0.2, 0.9), (0.5, 0.9)]).unwrap();
        let rows = vec![0usize, 1, 2];
        let mut buf = Vec::new();
        let g = GroupView::compute(&table, &rows, &mut buf);
        // Loose thresholds: both pass.
        assert!(sky.is_satisfied(&g));
        // Make one point impossible: conjunction fails.
        let strict = SkylineBTPrivacy::from_pairs(&table, &[(0.2, 0.9), (0.5, 0.0)]).unwrap();
        assert!(!strict.is_satisfied(&g));
    }

    #[test]
    fn three_point_skyline_holds_iff_every_point_does() {
        let table = bgkanon_data::adult::generate(300, 21);
        let pairs = [(0.2, 0.35), (0.3, 0.25), (0.5, 0.2)];
        let sky = SkylineBTPrivacy::from_pairs(&table, &pairs).unwrap();
        assert_eq!(sky.points().len(), 3);
        let mut verdicts = [0usize; 2];
        for start in (0..240).step_by(12) {
            for len in [3usize, 8, 20, 60] {
                let rows: Vec<usize> = (start..start + len).collect();
                let mut buf = Vec::new();
                let g = GroupView::compute(&table, &rows, &mut buf);
                let each = sky.points().iter().all(|p| p.group_risk(&g) <= p.t());
                assert_eq!(sky.is_satisfied(&g), each, "rows {start}+{len}");
                verdicts[usize::from(each)] += 1;
            }
        }
        // The sweep sees both verdicts, so the conjunction is exercised.
        assert!(verdicts[0] > 0 && verdicts[1] > 0, "{verdicts:?}");
    }

    #[test]
    fn name_lists_points() {
        let table = toy::hospital_table();
        let sky = SkylineBTPrivacy::from_pairs(&table, &[(0.2, 0.3), (0.4, 0.1)]).unwrap();
        let n = sky.name();
        assert!(n.starts_with("skyline["), "{n}");
        assert!(n.contains("t=0.3") && n.contains("t=0.1"), "{n}");
        assert_eq!(sky.points().len(), 2);
    }

    #[test]
    fn empty_skyline_rejected() {
        let table = toy::hospital_table();
        let err = SkylineBTPrivacy::from_pairs(&table, &[]).unwrap_err();
        assert_eq!(err, SkylineError::NoPoints);
        assert!(err.to_string().contains("at least one"), "{err}");
    }

    #[test]
    fn invalid_bandwidths_are_rejected() {
        let table = toy::hospital_table();
        for b in [0.0, -0.3, f64::NAN, f64::INFINITY] {
            let err = SkylineBTPrivacy::from_pairs(&table, &[(0.3, 0.9), (b, 0.5)]).unwrap_err();
            assert!(matches!(err, SkylineError::Bandwidth(_)), "{b}: {err}");
        }
    }
}
