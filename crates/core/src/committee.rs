//! Credibility/confidence scoring and the majority-voting expert committee
//! (Sec. 5 and Fig. 5 of the paper).

use serde::{Deserialize, Serialize};

/// Configuration of a Prom predictor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PromConfig {
    /// Significance parameter ε (paper default 0.1). A prediction's
    /// credibility must reach ε for an expert to accept it, and labels with
    /// p-value above ε enter the prediction set.
    pub epsilon: f64,
    /// Threshold the confidence score must reach for an expert to accept.
    /// With the default Gaussian scale (`c = 3`), 0.95 makes the confidence
    /// check equivalent to "the prediction set is a clean singleton".
    pub confidence_threshold: f64,
    /// Scale `c` of the Gaussian confidence function (paper default 3).
    pub gaussian_c: f64,
    /// Fraction of nearest calibration samples used per test input
    /// (paper default 0.5).
    pub selection_fraction: f64,
    /// Calibration sets smaller than this are used whole (paper default 200).
    pub min_full_size: usize,
    /// Temperature τ of the Eq. 1 distance weighting (paper default 500).
    pub tau: f64,
}

impl Default for PromConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.1,
            confidence_threshold: 0.95,
            gaussian_c: 3.0,
            selection_fraction: 0.5,
            min_full_size: 200,
            tau: 500.0,
        }
    }
}

impl PromConfig {
    /// Validates ranges, returning a human-readable description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.epsilon) {
            return Err(format!("epsilon must be in [0, 1), got {}", self.epsilon));
        }
        if !(0.0..=1.0).contains(&self.confidence_threshold) {
            return Err(format!(
                "confidence_threshold must be in [0, 1], got {}",
                self.confidence_threshold
            ));
        }
        if !(self.gaussian_c > 0.0 && self.gaussian_c.is_finite()) {
            return Err(format!("gaussian_c must be positive and finite, got {}", self.gaussian_c));
        }
        if !(0.0 < self.selection_fraction && self.selection_fraction <= 1.0) {
            return Err(format!(
                "selection_fraction must be in (0, 1], got {}",
                self.selection_fraction
            ));
        }
        if !(self.tau > 0.0 && self.tau.is_finite()) {
            return Err(format!("tau must be positive and finite, got {}", self.tau));
        }
        Ok(())
    }
}

/// The confidence score of Sec. 5.3: a Gaussian of the prediction-set size
/// centred at 1 — an empty set (no plausible label) or a multi-label set
/// (ambiguity) both reduce confidence.
pub fn confidence_score(prediction_set_size: usize, c: f64) -> f64 {
    let x = prediction_set_size as f64;
    (-((x - 1.0) * (x - 1.0)) / (2.0 * c * c)).exp()
}

/// One nonconformity function's verdict on a prediction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpertVerdict {
    /// Name of the nonconformity function.
    pub expert: String,
    /// Credibility score: the p-value of the predicted label.
    pub credibility: f64,
    /// Confidence score: Gaussian of the prediction-set size.
    pub confidence: f64,
    /// Number of labels whose p-value exceeds ε.
    pub prediction_set_size: usize,
    /// `true` if this expert would reject the prediction as drifting.
    pub reject: bool,
}

/// The committee's aggregate judgement for one test input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PromJudgement {
    /// `true` if the committee accepts the underlying model's prediction.
    pub accepted: bool,
    /// Number of experts voting to reject.
    pub reject_votes: usize,
    /// Per-expert detail.
    pub verdicts: Vec<ExpertVerdict>,
}

impl PromJudgement {
    /// Mean credibility across experts (a convenient scalar drift signal;
    /// also what the RISE baseline consumes).
    pub fn mean_credibility(&self) -> f64 {
        if self.verdicts.is_empty() {
            return 0.0;
        }
        self.verdicts.iter().map(|v| v.credibility).sum::<f64>() / self.verdicts.len() as f64
    }

    /// Mean confidence across experts.
    pub fn mean_confidence(&self) -> f64 {
        if self.verdicts.is_empty() {
            return 0.0;
        }
        self.verdicts.iter().map(|v| v.confidence).sum::<f64>() / self.verdicts.len() as f64
    }
}

/// An expert rejects when *both* scores fall below their thresholds
/// (Sec. 5: "If both scores fall below the threshold, the test sample is
/// flagged as drifting").
pub fn expert_rejects(credibility: f64, confidence: f64, config: &PromConfig) -> bool {
    credibility < config.epsilon && confidence < config.confidence_threshold
}

/// Builds one expert's verdict from its per-label p-values — the single
/// scoring-to-vote step shared by the classifier, the regressor, and
/// threshold sweeps: credibility is the p-value of the predicted label, the
/// prediction set is every label with p-value above ε, and confidence is
/// the Gaussian of the set size.
///
/// # Panics
///
/// Panics if `predicted` is out of range for `p_values`.
pub fn verdict_from_p_values(
    expert_name: &str,
    p_values: &[f64],
    predicted: usize,
    config: &PromConfig,
) -> ExpertVerdict {
    let credibility = p_values[predicted];
    let set_size = p_values.iter().filter(|&&p| p > config.epsilon).count();
    let confidence = confidence_score(set_size, config.gaussian_c);
    ExpertVerdict {
        expert: expert_name.to_string(),
        credibility,
        confidence,
        prediction_set_size: set_size,
        reject: expert_rejects(credibility, confidence, config),
    }
}

/// Majority vote over expert verdicts; ties reject (conservative).
pub fn committee_accepts(verdicts: &[ExpertVerdict]) -> (bool, usize) {
    let reject_votes = verdicts.iter().filter(|v| v.reject).count();
    let accepted = reject_votes * 2 < verdicts.len();
    (accepted, reject_votes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(reject: bool) -> ExpertVerdict {
        ExpertVerdict {
            expert: "t".into(),
            credibility: 0.5,
            confidence: 1.0,
            prediction_set_size: 1,
            reject,
        }
    }

    #[test]
    fn confidence_peaks_at_singleton_sets() {
        let c = 3.0;
        assert!((confidence_score(1, c) - 1.0).abs() < 1e-12);
        assert!(confidence_score(0, c) < 1.0);
        assert!(confidence_score(2, c) < 1.0);
        assert!(confidence_score(5, c) < confidence_score(2, c));
    }

    #[test]
    fn confidence_empty_equals_two_by_symmetry() {
        assert!((confidence_score(0, 2.0) - confidence_score(2, 2.0)).abs() < 1e-12);
    }

    #[test]
    fn smaller_c_sharpens_the_penalty() {
        assert!(confidence_score(3, 1.0) < confidence_score(3, 4.0));
    }

    #[test]
    fn default_thresholds_make_confidence_check_singleton() {
        // With c = 3 and threshold 0.95 the confidence test passes exactly
        // for singleton prediction sets.
        let cfg = PromConfig::default();
        assert!(confidence_score(1, cfg.gaussian_c) >= cfg.confidence_threshold);
        assert!(confidence_score(0, cfg.gaussian_c) < cfg.confidence_threshold);
        assert!(confidence_score(2, cfg.gaussian_c) < cfg.confidence_threshold);
    }

    #[test]
    fn expert_needs_both_scores_low_to_reject() {
        let cfg = PromConfig::default();
        assert!(expert_rejects(0.05, 0.9, &cfg)); // both low
        assert!(!expert_rejects(0.5, 0.9, &cfg)); // credible
        assert!(!expert_rejects(0.05, 1.0, &cfg)); // confident singleton
    }

    #[test]
    fn majority_vote_with_tie_rejects() {
        let half: Vec<ExpertVerdict> =
            vec![verdict(true), verdict(true), verdict(false), verdict(false)];
        let (accepted, votes) = committee_accepts(&half);
        assert!(!accepted, "2-2 tie must reject");
        assert_eq!(votes, 2);

        let minority = vec![verdict(true), verdict(false), verdict(false), verdict(false)];
        assert!(committee_accepts(&minority).0);

        let majority = vec![verdict(true), verdict(true), verdict(true), verdict(false)];
        assert!(!committee_accepts(&majority).0);
    }

    #[test]
    fn config_validation_catches_bad_ranges() {
        let mut cfg = PromConfig::default();
        assert!(cfg.validate().is_ok());
        cfg.epsilon = 1.5;
        assert!(cfg.validate().is_err());
        cfg.epsilon = 0.1;
        cfg.tau = 0.0;
        assert!(cfg.validate().is_err());
        cfg.tau = 1.0;
        cfg.selection_fraction = 0.0;
        assert!(cfg.validate().is_err());
        cfg.selection_fraction = 0.5;
        assert!(cfg.validate().is_ok());
        // NaN fails every `<=` test, and an infinite τ turns the
        // "NaN distance ⇒ weight 0" rule into exp(-inf/inf) = NaN.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let tau = PromConfig { tau: bad, ..cfg.clone() };
            assert!(tau.validate().is_err(), "tau = {bad} accepted");
            let c = PromConfig { gaussian_c: bad, ..cfg.clone() };
            assert!(c.validate().is_err(), "gaussian_c = {bad} accepted");
        }
    }

    #[test]
    fn mean_scores_average_over_experts() {
        let j = PromJudgement {
            accepted: true,
            reject_votes: 0,
            verdicts: vec![
                ExpertVerdict {
                    expert: "a".into(),
                    credibility: 0.2,
                    confidence: 0.8,
                    prediction_set_size: 1,
                    reject: false,
                },
                ExpertVerdict {
                    expert: "b".into(),
                    credibility: 0.6,
                    confidence: 0.4,
                    prediction_set_size: 2,
                    reject: false,
                },
            ],
        };
        assert!((j.mean_credibility() - 0.4).abs() < 1e-12);
        assert!((j.mean_confidence() - 0.6).abs() < 1e-12);
    }
}
