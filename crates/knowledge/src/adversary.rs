//! The parameterized adversary `Adv(B)` (§II.C–D).
//!
//! An [`Adversary`] bundles a bandwidth profile with the prior belief model
//! estimated from a table. Named constructors provide the paper's reference
//! adversaries:
//!
//! * [`Adversary::kernel`] — the general `Adv(B)` with Epanechnikov kernel
//!   regression (the paper's adversary);
//! * [`Adversary::t_closeness`] — prior = whole-table distribution for every
//!   tuple (uniform kernel at full bandwidth, §II.D);
//! * [`Adversary::ignorant`] — the ℓ-diversity "no prior" adversary whose
//!   belief is uniform over the sensitive domain. The paper points out this
//!   belief is *inconsistent with the data* whenever the sensitive attribute
//!   is skewed; it is provided for the comparative experiments.

use std::sync::Arc;

use bgkanon_data::Table;
use bgkanon_stats::Dist;

use crate::bandwidth::Bandwidth;
use crate::estimator::{KernelFamily, PriorEstimator, PriorModel};

/// An adversary with an estimated prior belief function.
///
/// ```
/// use bgkanon_knowledge::{Adversary, Bandwidth};
///
/// let table = bgkanon_data::toy::hospital_table();
/// // Adv(B = 0.3·1): moderate background knowledge on both QI attributes.
/// let adv = Adversary::kernel(&table, Bandwidth::uniform(0.3, 2).unwrap());
/// let prior = adv.prior(&table.qi(0)); // Bob: 69-year-old male
/// assert!((prior.as_slice().iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// // The informed prior for Emphysema exceeds the table-wide 2/9.
/// assert!(prior.get(0) > 2.0 / 9.0);
/// ```
#[derive(Debug, Clone)]
pub struct Adversary {
    label: String,
    bandwidth: Option<Bandwidth>,
    model: AdversaryModel,
}

#[derive(Debug, Clone)]
enum AdversaryModel {
    /// Full kernel-estimated model.
    Kernel(Arc<PriorModel>),
    /// The same distribution for every tuple.
    Constant(Dist),
}

impl Adversary {
    /// The paper's `Adv(B)`: kernel-regression prior with bandwidth `B`.
    pub fn kernel(table: &Table, bandwidth: Bandwidth) -> Self {
        Self::kernel_with_family(table, bandwidth, KernelFamily::Epanechnikov)
    }

    /// `Adv(B)` with an explicit kernel family.
    pub fn kernel_with_family(table: &Table, bandwidth: Bandwidth, family: KernelFamily) -> Self {
        let label = format!("Adv({bandwidth})");
        let estimator =
            PriorEstimator::with_family(Arc::clone(table.schema()), bandwidth.clone(), family);
        let model = estimator.estimate(table);
        Adversary {
            label,
            bandwidth: Some(bandwidth),
            model: AdversaryModel::Kernel(Arc::new(model)),
        }
    }

    /// Build from an already-estimated model (avoids re-estimating when the
    /// same adversary is reused across experiments).
    pub fn from_model(label: &str, bandwidth: Bandwidth, model: Arc<PriorModel>) -> Self {
        Adversary {
            label: label.to_owned(),
            bandwidth: Some(bandwidth),
            model: AdversaryModel::Kernel(model),
        }
    }

    /// The t-closeness adversary: prior is the whole-table distribution `Q`
    /// for every individual.
    pub fn t_closeness(table: &Table) -> Self {
        let q = Dist::new(table.sensitive_distribution()).expect("table distribution is valid");
        Adversary {
            label: "Adv(t-closeness)".to_owned(),
            bandwidth: None,
            model: AdversaryModel::Constant(q),
        }
    }

    /// The ignorant (ℓ-diversity) adversary with a uniform prior. Note this
    /// prior is inconsistent with skewed data (§II.D) — the framework cannot
    /// model it via kernels; it exists for comparison experiments.
    pub fn ignorant(table: &Table) -> Self {
        let m = table.schema().sensitive_domain_size();
        Adversary {
            label: "Adv(ignorant)".to_owned(),
            bandwidth: None,
            model: AdversaryModel::Constant(Dist::uniform(m)),
        }
    }

    /// Display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The bandwidth profile, when the adversary is kernel-parameterized.
    pub fn bandwidth(&self) -> Option<&Bandwidth> {
        self.bandwidth.as_ref()
    }

    /// The estimated prior model behind this adversary — `None` for the
    /// constant-belief reference adversaries. The hub's intern table uses
    /// this to verify content identity before sharing one adversary across
    /// tenants, and to account the model's bytes to exactly one owner.
    pub fn prior_model(&self) -> Option<&Arc<PriorModel>> {
        match &self.model {
            AdversaryModel::Kernel(m) => Some(m),
            AdversaryModel::Constant(_) => None,
        }
    }

    /// Heap bytes of the adversary's owned state: label plus the constant
    /// distribution, when it carries one. The kernel prior model is **not**
    /// included — it is `Arc`-shared (possibly across tenants via the hub's
    /// intern table) and charged to its owner separately via
    /// [`PriorModel::bytes_accounted`].
    pub fn bytes_accounted(&self) -> usize {
        let model = match &self.model {
            AdversaryModel::Kernel(_) => 8,
            AdversaryModel::Constant(d) => d.len() * 8 + 32,
        };
        self.label.len() + self.bandwidth.as_ref().map_or(0, |b| b.len() * 8) + model + 64
    }

    /// Prior belief `Ppri(B, q)` for an individual with QI combination `qi`.
    pub fn prior(&self, qi: &[u32]) -> &Dist {
        match &self.model {
            AdversaryModel::Kernel(m) => m.prior_or_fallback(qi),
            AdversaryModel::Constant(d) => d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgkanon_data::toy;

    #[test]
    fn kernel_adversary_has_label_and_bandwidth() {
        let t = toy::hospital_table();
        let adv = Adversary::kernel(&t, Bandwidth::uniform(0.3, 2).unwrap());
        assert!(adv.label().starts_with("Adv(B(0.3"));
        assert_eq!(adv.bandwidth().unwrap().get(0), 0.3);
        let p = adv.prior(&t.qi(0));
        assert!((p.as_slice().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn t_closeness_adversary_sees_table_distribution() {
        let t = toy::hospital_table();
        let adv = Adversary::t_closeness(&t);
        let q = Dist::new(t.sensitive_distribution()).unwrap();
        for r in 0..t.len() {
            assert!(adv.prior(&t.qi(r)).max_abs_diff(&q) < 1e-15);
        }
        assert!(adv.bandwidth().is_none());
    }

    #[test]
    fn ignorant_adversary_is_uniform() {
        let t = toy::hospital_table();
        let adv = Adversary::ignorant(&t);
        let p = adv.prior(&t.qi(3));
        assert_eq!(p.as_slice(), &[0.25, 0.25, 0.25, 0.25]);
    }

    #[test]
    fn kernel_adversary_is_sharper_than_t_closeness_on_correlated_data() {
        // At Bob's QI point (69, M) the kernel adversary puts more mass on
        // Emphysema than the t-closeness adversary's 2/9.
        let t = toy::hospital_table();
        let kernel = Adversary::kernel(&t, Bandwidth::uniform(0.2, 2).unwrap());
        let tc = Adversary::t_closeness(&t);
        assert!(kernel.prior(&t.qi(0)).get(0) > tc.prior(&t.qi(0)).get(0));
    }
}
