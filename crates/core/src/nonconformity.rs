//! Classification nonconformity functions.
//!
//! A nonconformity function maps a model's probability vector and a
//! candidate label to a scalar "strangeness": larger means the label fits
//! the prediction *less*. Prom ships the four functions of the paper's
//! supplemental table — LAC, Top-K, APS, and RAPS — and new ones can be
//! added by implementing [`Nonconformity`].

/// A classification nonconformity measure.
///
/// Implementations must be deterministic and must return larger scores for
/// labels that conform less to the probability vector.
pub trait Nonconformity: Send + Sync {
    /// Short human-readable name (used in reports and committee verdicts).
    fn name(&self) -> &'static str;

    /// Nonconformity of `label` under the model output `probs`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `label >= probs.len()`.
    fn score(&self, probs: &[f64], label: usize) -> f64;

    /// The scores of every label at once: `out[y] = self.score(probs, y)`
    /// for `y` in `0..probs.len()`, **bit for bit**. `out` is cleared
    /// first.
    ///
    /// The default calls [`Nonconformity::score`] per label and ignores the
    /// table. Rank- and mass-based functions override it to read the
    /// table, which one sample's experts share so its O(L²) pass runs at
    /// most once per sample (see [`RankMassTable`]).
    fn scores_into(&self, probs: &[f64], _table: &mut RankMassTable, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..probs.len()).map(|y| self.score(probs, y)));
    }
}

/// Per-label rank counts and cumulative masses of one probability vector,
/// the quantities behind [`TopK`], [`Aps`] and [`Raps`], built for all L
/// labels in one O(L²) pass instead of one O(L) scan per label and expert.
///
/// For label `y` with `p = probs[y]`, the table holds:
/// - the count of labels `i` that rank ahead of `y`: `q_i > p`, or
///   `q_i == p` and `i < y`;
/// - the mass: `q_i` summed over those labels and `y` itself, in index
///   order, from the same start as `Iterator::sum`.
///
/// Both are bit-identical to the per-label definitions in
/// [`TopK::score`] and [`Aps::score`]: each label keeps its own
/// accumulator, and label `i` is added to it in index order, or `-0.0`
/// when it is excluded: `-0.0` is the one addend that leaves every sum
/// unchanged, a `-0.0` sum included.
/// Splitting the scan at `i == y` turns the tie rule into a plain `q >= p`
/// before the label and `q > p` after it, so the inner loops carry no
/// index test and vectorise across labels.
///
/// The table remembers the bits of the vector it was built from and
/// rebuilds only when asked about a different one, so any number of
/// experts can read it for one sample; its buffers are reused across
/// samples.
#[derive(Debug, Clone, Default)]
pub struct RankMassTable {
    /// Bit patterns of the probability vector the table describes.
    key: Vec<u64>,
    outranked: Vec<f64>,
    mass: Vec<f64>,
}

impl RankMassTable {
    /// An empty table (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The table of `probs`, built unless it already describes exactly
    /// these bits.
    pub(crate) fn of(&mut self, probs: &[f64]) -> &Self {
        let same = self.key.len() == probs.len()
            && self.key.iter().zip(probs).all(|(&k, p)| k == p.to_bits());
        if !same {
            self.build(probs);
        }
        self
    }

    /// Per label, how many labels rank ahead of it (as an exact `f64`).
    pub(crate) fn outranked(&self) -> &[f64] {
        &self.outranked
    }

    /// Per label, the inclusive cumulative mass of its rank prefix.
    pub(crate) fn mass(&self) -> &[f64] {
        &self.mass
    }

    fn build(&mut self, probs: &[f64]) {
        let n = probs.len();
        self.key.clear();
        self.key.extend(probs.iter().map(|p| p.to_bits()));
        let start: f64 = std::iter::empty::<f64>().sum();
        self.outranked.clear();
        self.outranked.resize(n, 0.0);
        self.mass.clear();
        self.mass.resize(n, start);
        for (i, &q) in probs.iter().enumerate() {
            // Labels y < i: label i ranks ahead of y only if strictly larger.
            let before = self.outranked[..i].iter_mut().zip(&mut self.mass[..i]).zip(&probs[..i]);
            for ((count, mass), &p) in before {
                let ahead = q > p;
                *count += if ahead { 1.0 } else { 0.0 };
                *mass += if ahead { q } else { -0.0 };
            }
            // y == i: a label's own mass counts unless it is NaN.
            if !q.is_nan() {
                self.mass[i] += q;
            }
            // Labels y > i: a tie also ranks label i ahead of y.
            let after = self.outranked[i + 1..]
                .iter_mut()
                .zip(&mut self.mass[i + 1..])
                .zip(&probs[i + 1..]);
            for ((count, mass), &p) in after {
                let ahead = q >= p;
                *count += if ahead { 1.0 } else { 0.0 };
                *mass += if ahead { q } else { -0.0 };
            }
        }
    }
}

/// LAC (Least Ambiguous set-valued Classifier, Sadinle et al.):
/// `1 - p(label)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lac;

impl Nonconformity for Lac {
    fn name(&self) -> &'static str {
        "LAC"
    }

    fn score(&self, probs: &[f64], label: usize) -> f64 {
        assert!(label < probs.len(), "label out of range");
        1.0 - probs[label]
    }
}

/// Top-K (Angelopoulos et al.): the 1-based rank of the label when classes
/// are sorted by descending probability.
#[derive(Debug, Clone, Copy, Default)]
pub struct TopK;

impl Nonconformity for TopK {
    fn name(&self) -> &'static str {
        "Top-K"
    }

    fn score(&self, probs: &[f64], label: usize) -> f64 {
        assert!(label < probs.len(), "label out of range");
        let p = probs[label];
        // Rank = 1 + number of classes with strictly higher probability;
        // ties broken by index so the score is deterministic.
        let rank =
            1 + probs.iter().enumerate().filter(|&(i, &q)| q > p || (q == p && i < label)).count();
        rank as f64
    }

    fn scores_into(&self, probs: &[f64], table: &mut RankMassTable, out: &mut Vec<f64>) {
        out.clear();
        out.extend(table.of(probs).outranked().iter().map(|&c| 1.0 + c));
    }
}

/// APS (Adaptive Prediction Sets, Romano et al.): cumulative probability
/// mass of all classes at least as probable as the label, inclusive.
#[derive(Debug, Clone, Copy, Default)]
pub struct Aps;

impl Nonconformity for Aps {
    fn name(&self) -> &'static str {
        "APS"
    }

    fn score(&self, probs: &[f64], label: usize) -> f64 {
        assert!(label < probs.len(), "label out of range");
        let p = probs[label];
        probs
            .iter()
            .enumerate()
            .filter(|&(i, &q)| q > p || (q == p && i <= label))
            .map(|(_, &q)| q)
            .sum()
    }

    fn scores_into(&self, probs: &[f64], table: &mut RankMassTable, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(table.of(probs).mass());
    }
}

/// RAPS (Regularized APS, Angelopoulos et al.): APS plus a penalty
/// `lambda * max(rank - k_reg, 0)` discouraging deep labels.
#[derive(Debug, Clone, Copy)]
pub struct Raps {
    /// Regularization weight λ.
    pub lambda: f64,
    /// Number of penalty-free top ranks.
    pub k_reg: usize,
}

impl Default for Raps {
    fn default() -> Self {
        Self { lambda: 0.01, k_reg: 1 }
    }
}

impl Nonconformity for Raps {
    fn name(&self) -> &'static str {
        "RAPS"
    }

    fn score(&self, probs: &[f64], label: usize) -> f64 {
        let aps = Aps.score(probs, label);
        let rank = TopK.score(probs, label);
        self.regularize(aps, rank)
    }

    fn scores_into(&self, probs: &[f64], table: &mut RankMassTable, out: &mut Vec<f64>) {
        let table = table.of(probs);
        out.clear();
        out.extend(
            table
                .mass()
                .iter()
                .zip(table.outranked())
                .map(|(&aps, &c)| self.regularize(aps, 1.0 + c)),
        );
    }
}

impl Raps {
    /// The RAPS score from a label's APS score and 1-based rank.
    fn regularize(&self, aps: f64, rank: f64) -> f64 {
        aps + self.lambda * (rank - self.k_reg as f64).max(0.0)
    }
}

/// The paper's default expert committee: LAC, Top-K, APS, RAPS.
pub fn default_committee() -> Vec<Box<dyn Nonconformity>> {
    vec![Box::new(Lac), Box::new(TopK), Box::new(Aps), Box::new(Raps::default())]
}

/// Builds a single-function committee by name (used by the baselines and
/// the Fig. 11 ablation). Recognised names: `"LAC"`, `"Top-K"`, `"APS"`,
/// `"RAPS"`.
pub fn by_name(name: &str) -> Option<Box<dyn Nonconformity>> {
    match name {
        "LAC" => Some(Box::new(Lac)),
        "Top-K" => Some(Box::new(TopK)),
        "APS" => Some(Box::new(Aps)),
        "RAPS" => Some(Box::new(Raps::default())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROBS: [f64; 4] = [0.5, 0.3, 0.15, 0.05];

    #[test]
    fn lac_is_one_minus_probability() {
        assert!((Lac.score(&PROBS, 0) - 0.5).abs() < 1e-12);
        assert!((Lac.score(&PROBS, 3) - 0.95).abs() < 1e-12);
    }

    #[test]
    fn topk_is_descending_rank() {
        assert_eq!(TopK.score(&PROBS, 0), 1.0);
        assert_eq!(TopK.score(&PROBS, 1), 2.0);
        assert_eq!(TopK.score(&PROBS, 3), 4.0);
    }

    #[test]
    fn topk_breaks_ties_deterministically() {
        let tied = [0.4, 0.4, 0.2];
        assert_eq!(TopK.score(&tied, 0), 1.0);
        assert_eq!(TopK.score(&tied, 1), 2.0);
    }

    #[test]
    fn aps_accumulates_down_to_label() {
        assert!((Aps.score(&PROBS, 0) - 0.5).abs() < 1e-12);
        assert!((Aps.score(&PROBS, 1) - 0.8).abs() < 1e-12);
        assert!((Aps.score(&PROBS, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn raps_penalizes_deep_ranks() {
        let raps = Raps { lambda: 0.1, k_reg: 1 };
        assert!((raps.score(&PROBS, 0) - 0.5).abs() < 1e-12); // rank 1, no penalty
        assert!((raps.score(&PROBS, 2) - (0.95 + 0.2)).abs() < 1e-12); // rank 3
    }

    #[test]
    fn all_functions_increase_for_less_likely_labels() {
        for f in default_committee() {
            let likely = f.score(&PROBS, 0);
            let unlikely = f.score(&PROBS, 3);
            assert!(unlikely > likely, "{} is not monotone", f.name());
        }
    }

    #[test]
    fn by_name_round_trips() {
        for f in default_committee() {
            let rebuilt = by_name(f.name()).expect("name should resolve");
            assert_eq!(rebuilt.name(), f.name());
            assert!((rebuilt.score(&PROBS, 1) - f.score(&PROBS, 1)).abs() < 1e-12);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn rank_mass_table_follows_the_vector_it_is_asked_about() {
        let mut table = RankMassTable::new();
        assert_eq!(table.of(&[0.2, 0.8]).outranked(), &[1.0, 0.0]);
        assert_eq!(table.of(&[0.8, 0.2]).outranked(), &[0.0, 1.0]);
        // -0.0 and 0.0 compare equal but differ in bits: the sum start is
        // -0.0, so only the bit-exact key keeps the table in step.
        assert!(table.of(&[-0.0]).mass()[0].is_sign_negative());
        assert!(table.of(&[0.0]).mass()[0].is_sign_positive());
        assert!(table.of(&[]).mass().is_empty());
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn out_of_range_label_panics() {
        let _ = Lac.score(&PROBS, 4);
    }
}
