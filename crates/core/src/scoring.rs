//! The shared scoring kernel behind every conformal judgement.
//!
//! Before this module existed, each detector re-derived the same machinery
//! per judgement: the classifier and regressor each re-sorted the
//! calibration set by distance and re-allocated per-expert score vectors on
//! **every** `judge` call, and the baselines re-scanned the full calibration
//! set linearly per p-value. This module centralizes that work in two
//! structures built for the batched deployment loop:
//!
//! * [`ScoreTable`] — per-label calibration score tables, **pre-sorted once
//!   at construction**, giving `O(log n)` unweighted p-values by binary
//!   search (the full-set path used by naive CP, TESSERACT, and RISE);
//! * [`ScoringKernel`] + [`JudgeScratch`] — the Eq. 1/Eq. 2 weighted path
//!   used by Prom itself: one distance pass per test sample into a
//!   **reusable scratch buffer**, selection without a sort when the whole
//!   calibration set is kept, and per-expert p-values computed from a
//!   label-grouped view in `O(S + L)` per expert instead of `O(S · L)`.
//!
//! `judge` and `judge_batch` run the exact same kernel code — the batched
//! path only reuses one [`JudgeScratch`] across samples — so batched and
//! looped judgements are bit-identical by construction.

use crate::calibration::{CalibrationRecord, SelectionConfig};
use crate::nonconformity::{Nonconformity, RankMassTable};
use prom_ml::matrix::{l2_distance_sq, l2_distance_sq_bounded, l2_distances_sq_block, l2_norm_sq};
use std::ops::Range;

/// Per-label calibration nonconformity scores, sorted ascending at
/// construction for binary-search p-values.
///
/// This is the unweighted (full calibration set, no Eq. 1 selection)
/// conformal machinery shared by the prior-work baselines: the p-value of a
/// test score under label `y` is the fraction of label-`y` calibration
/// scores at least as large.
#[derive(Debug, Clone)]
pub struct ScoreTable {
    per_label: Vec<Vec<f64>>,
}

impl ScoreTable {
    /// Builds the table from parallel `labels` / `scores` arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays disagree in length, a label is out of range, or
    /// a score is NaN.
    pub fn new(labels: &[usize], scores: &[f64], n_labels: usize) -> Self {
        assert_eq!(labels.len(), scores.len(), "label/score length mismatch");
        let mut per_label = vec![Vec::new(); n_labels];
        for (&label, &score) in labels.iter().zip(scores.iter()) {
            assert!(label < n_labels, "label {label} out of range for {n_labels} labels");
            assert!(!score.is_nan(), "NaN calibration score");
            per_label[label].push(score);
        }
        for bucket in &mut per_label {
            // Scores were asserted non-NaN above; `total_cmp` keeps the
            // sort total-order-safe regardless.
            bucket.sort_unstable_by(f64::total_cmp);
        }
        Self { per_label }
    }

    /// Builds the table from calibration records scored at their true
    /// labels under `ncm` — the construction every unweighted baseline
    /// shares. The table covers at least `min_labels` labels, widened to
    /// the largest calibration label if records exceed it.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ScoreTable::new`].
    pub fn from_records(
        records: &[CalibrationRecord],
        ncm: &dyn Nonconformity,
        min_labels: usize,
    ) -> Self {
        let labels: Vec<usize> = records.iter().map(|r| r.label).collect();
        let scores: Vec<f64> = records.iter().map(|r| ncm.score(&r.probs, r.label)).collect();
        let n_labels = min_labels.max(labels.iter().map(|&l| l + 1).max().unwrap_or(0));
        Self::new(&labels, &scores, n_labels)
    }

    /// Rebuilds a table directly from per-label sorted score buckets — the
    /// snapshot-restore constructor. The buckets must be exactly what
    /// [`ScoreTable::scores`] returned on the table that was snapshotted;
    /// restoring them verbatim reproduces that table bit-for-bit (the
    /// p-value pass reads nothing but these buckets).
    ///
    /// # Panics
    ///
    /// Panics if a bucket contains NaN or is not sorted by `total_cmp` —
    /// a corrupt or hand-edited snapshot fails loudly rather than silently
    /// skewing every future p-value.
    pub fn from_sorted_buckets(per_label: Vec<Vec<f64>>) -> Self {
        for (label, bucket) in per_label.iter().enumerate() {
            assert!(
                bucket.iter().all(|s| !s.is_nan()),
                "NaN calibration score in restored bucket {label}"
            );
            assert!(
                bucket.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
                "restored bucket {label} is not sorted"
            );
        }
        Self { per_label }
    }

    /// Clones every per-label sorted bucket — the snapshot-side twin of
    /// [`ScoreTable::from_sorted_buckets`].
    pub fn sorted_buckets(&self) -> Vec<Vec<f64>> {
        self.per_label.clone()
    }

    /// Number of labels.
    pub fn n_labels(&self) -> usize {
        self.per_label.len()
    }

    /// Total number of calibration scores across all labels.
    pub fn len(&self) -> usize {
        self.per_label.iter().map(Vec::len).sum()
    }

    /// Whether the table holds no calibration scores.
    pub fn is_empty(&self) -> bool {
        self.per_label.iter().all(Vec::is_empty)
    }

    /// The sorted calibration scores of `label` (empty for a label with no
    /// samples, including one beyond the table's range).
    pub fn scores(&self, label: usize) -> &[f64] {
        self.per_label.get(label).map_or(&[], Vec::as_slice)
    }

    /// Inserts one calibration score, maintaining the pre-sorted per-label
    /// invariant: a binary search finds the insertion point, so one insert
    /// costs `O(log n + shift)` instead of the `O(n log n)` full refit.
    /// Because the buckets are totally ordered by `total_cmp`, the grown
    /// table is **bit-identical** to one rebuilt from scratch over the same
    /// score multiset (`tests/recalibration_equivalence.rs`), duplicates
    /// included.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ScoreTable::new`]: an out-of-range label or a
    /// NaN score. The insert boundary is a *recalibration-time* step, so
    /// corrupt inputs fail as loudly here as they do at construction;
    /// callers folding serving-path relabels in must validate first (see
    /// `DriftDetector::absorb_relabeled`).
    pub fn insert(&mut self, label: usize, score: f64) {
        let n_labels = self.per_label.len();
        assert!(label < n_labels, "label {label} out of range for {n_labels} labels");
        assert!(!score.is_nan(), "NaN calibration score");
        let bucket = &mut self.per_label[label];
        let pos = bucket.partition_point(|s| s.total_cmp(&score).is_lt());
        bucket.insert(pos, score);
    }

    /// Inserts parallel `labels` / `scores` arrays — the batched form of
    /// [`ScoreTable::insert`] used when a window's relabels are folded in
    /// together.
    ///
    /// # Panics
    ///
    /// Panics if the arrays disagree in length, plus the per-insert
    /// conditions of [`ScoreTable::insert`].
    pub fn insert_scores(&mut self, labels: &[usize], scores: &[f64]) {
        assert_eq!(labels.len(), scores.len(), "label/score length mismatch");
        for (&label, &score) in labels.iter().zip(scores.iter()) {
            self.insert(label, score);
        }
    }

    /// Inserts one calibration record scored at its true label under `ncm`
    /// — the incremental twin of [`ScoreTable::from_records`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`ScoreTable::insert`]. Unlike `from_records`,
    /// inserting never widens the table: a record labeled beyond
    /// [`ScoreTable::n_labels`] panics.
    pub fn insert_record(&mut self, record: &CalibrationRecord, ncm: &dyn Nonconformity) {
        self.insert(record.label, ncm.score(&record.probs, record.label));
    }

    /// Removes one occurrence of `score` (matched bit-exactly via
    /// `total_cmp`) from `label`'s bucket — the eviction half of a capped
    /// reservoir calibration set. Returns `false` (and leaves the table
    /// unchanged) when the label is out of range or the score is absent.
    pub fn remove(&mut self, label: usize, score: f64) -> bool {
        let Some(bucket) = self.per_label.get_mut(label) else {
            return false;
        };
        let pos = bucket.partition_point(|s| s.total_cmp(&score).is_lt());
        if bucket.get(pos).is_some_and(|s| s.total_cmp(&score).is_eq()) {
            bucket.remove(pos);
            true
        } else {
            false
        }
    }

    /// The Eq. 2 p-value of `test_score` under `label`: the fraction of
    /// label-`label` calibration scores `>= test_score`. Returns 0 for a
    /// label with no calibration samples — including one beyond the table's
    /// range (no evidence of conformity either way).
    pub fn p_value(&self, label: usize, test_score: f64) -> f64 {
        let Some(bucket) = self.per_label.get(label) else {
            return 0.0;
        };
        // A NaN test score (degenerate model output) conforms to nothing:
        // `partition_point` below would count every calibration score as
        // "at least as strange" and silently accept it.
        if bucket.is_empty() || test_score.is_nan() {
            return 0.0;
        }
        // First index whose score is >= test_score; everything from there on
        // counts as "at least as strange".
        let at_least = bucket.len() - bucket.partition_point(|&s| s < test_score);
        at_least as f64 / bucket.len() as f64
    }

    /// P-values for every label given per-label test scores
    /// (`test_scores[y]` is the test nonconformity assuming label `y`).
    pub fn p_values(&self, test_scores: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.p_values_into(test_scores, &mut out);
        out
    }

    /// [`ScoreTable::p_values`] into a caller-owned buffer — the
    /// batched-deployment form, letting a `judge_batch` override reuse one
    /// output vector across a whole window instead of allocating per
    /// sample.
    pub fn p_values_into(&self, test_scores: &[f64], out: &mut Vec<f64>) {
        assert_eq!(test_scores.len(), self.n_labels(), "test-score length mismatch");
        out.clear();
        out.extend(test_scores.iter().enumerate().map(|(y, &t)| self.p_value(y, t)));
    }
}

/// Reusable per-stream scratch space for the weighted scoring kernel.
///
/// Allocate once (per deployment stream, thread, or batch) and pass to
/// every [`ScoringKernel::select`] / [`ScoringKernel::p_values_into`] call;
/// all interior vectors are recycled, so a long `judge_batch` performs no
/// per-sample allocation.
#[derive(Debug, Default)]
pub struct JudgeScratch {
    /// (squared distance, record index) candidates of the pruned path;
    /// after [`ScoringKernel::select`] takes that path, exactly the kept
    /// set (partition-scrambled).
    dist: Vec<(f64, u32)>,
    /// Query-major squared-distance block (`queries × n_records`) filled by
    /// [`ScoringKernel::distance_block`] for the batched judging paths.
    block: Vec<f64>,
    /// The query block gathered contiguously for the blocked distance pass.
    block_queries: Vec<f64>,
    /// The squared-distance row of the last single-query partition-path
    /// [`ScoringKernel::select`].
    row: Vec<f64>,
    /// Where the last selection left its distances, for
    /// [`ScoringKernel::nearest`].
    last: LastSelection,
    /// Selection keys of the partition path, scrambled by the threshold
    /// select.
    keys: Vec<u64>,
    /// The test embedding last passed to [`ScoringKernel::select`] on the
    /// pruned path — kept for [`ScoringKernel::nearest`]'s rare `k > keep`
    /// fallback, which must recompute distances that path never
    /// materialized.
    query: Vec<f64>,
    /// The kept records of the last selection, grouped by label.
    kept: Kept,
    /// Per-label test nonconformity scores; filled by the caller before
    /// [`ScoringKernel::p_values_into`].
    pub test_scores: Vec<f64>,
    /// Rank/mass table of the last probability vector scored by
    /// [`JudgeScratch::fill_test_scores`], shared by its experts.
    ranks: RankMassTable,
    /// Per-label p-values; output of [`ScoringKernel::p_values_into`].
    pub p_values: Vec<f64>,
    /// k-NN record indices; output of [`ScoringKernel::nearest`]. Carried
    /// here so the one scratch a persistent shard worker owns covers the
    /// regression path's neighbour buffer too.
    pub neighbours: Vec<usize>,
}

/// The kept records of a selection, grouped by label: label `y`'s kept
/// record indices are `records[runs[y]]`, with their Eq. 1 weights at the
/// same positions of `weights`. Each label owns a region as long as its
/// record list, in label order, so a selection writes in place without
/// growing or clearing anything.
#[derive(Debug, Default)]
struct Kept {
    records: Vec<u32>,
    /// Squared distances while a selection runs, then Eq. 1 weights.
    weights: Vec<f64>,
    runs: Vec<Range<usize>>,
}

impl Kept {
    /// The kept `(record index, weight)` pairs of one run.
    fn pairs(&self, run: &Range<usize>) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.records[run.clone()].iter().copied().zip(self.weights[run.clone()].iter().copied())
    }
}

/// Which selection last ran on a [`JudgeScratch`], and so where its
/// distances are.
#[derive(Debug, Default, Clone, Copy)]
enum LastSelection {
    /// No selection has run yet.
    #[default]
    None,
    /// The full-pass select over `row`.
    Row,
    /// The full-pass select over row `j` of `block`.
    Block(usize),
    /// The pruned scan: `dist` holds the kept set and `query` the
    /// embedding.
    Pruned,
}

impl JudgeScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fills `test_scores` with `expert`'s score of every label of `probs`
    /// ([`Nonconformity::scores_into`]). Experts scoring the same `probs`
    /// one after another share one rank/mass table, built once.
    pub(crate) fn fill_test_scores(&mut self, expert: &dyn Nonconformity, probs: &[f64]) {
        expert.scores_into(probs, &mut self.ranks, &mut self.test_scores);
    }
}

/// The weighted conformal scoring kernel of Prom's hot path: Eq. 1
/// distance-weighted subset selection plus Eq. 2 per-label p-values for any
/// number of nonconformity experts.
///
/// Built once at detector construction; immutable afterwards, so it is
/// freely shared across threads while each stream judges with its own
/// [`JudgeScratch`].
///
/// Calibration embeddings live in a contiguous row-major store (`n_records
/// × dim` values), not a `Vec<Vec<f64>>`: the distance pass — the hot loop
/// of every judgement — streams cache lines sequentially instead of
/// pointer-chasing per-record heap allocations, which is what lets the
/// chunked [`l2_distance_sq`] kernel run at memory bandwidth. Per-record l2
/// norms are precomputed alongside (and maintained by
/// [`ScoringKernel::insert`] / [`ScoringKernel::replace`]) to power the
/// triangle-inequality pruning bound of the selective path.
#[derive(Debug)]
pub struct ScoringKernel {
    /// Row-major contiguous embedding store: record `i` occupies
    /// `store[i * dim..(i + 1) * dim]`.
    store: Vec<f64>,
    /// Embedding dimensionality (fixed at construction).
    dim: usize,
    /// Per-record l2 norms `‖e_i‖`, for the `|‖e‖ − ‖q‖|` lower bound.
    norms: Vec<f64>,
    labels: Vec<usize>,
    n_labels: usize,
    /// The record indices of each label, ascending — derived from
    /// `labels` and maintained by every edit, so a selection groups its
    /// kept set by label without a per-query bucketing pass.
    label_records: Vec<Vec<u32>>,
    /// `cal_scores[e][i]`: expert `e`'s nonconformity of calibration record
    /// `i` at its true label, precomputed offline.
    cal_scores: Vec<Vec<f64>>,
    selection: SelectionConfig,
}

impl ScoringKernel {
    /// Builds the kernel.
    ///
    /// # Panics
    ///
    /// Panics on empty calibration data, ragged score tables, or an
    /// out-of-range label.
    pub fn new(
        embeddings: Vec<Vec<f64>>,
        labels: Vec<usize>,
        n_labels: usize,
        cal_scores: Vec<Vec<f64>>,
        selection: SelectionConfig,
    ) -> Self {
        assert!(!embeddings.is_empty(), "empty calibration set");
        assert_eq!(embeddings.len(), labels.len(), "embedding/label length mismatch");
        assert!(labels.iter().all(|&l| l < n_labels), "label out of range");
        for scores in &cal_scores {
            assert_eq!(scores.len(), embeddings.len(), "ragged expert score table");
        }
        let dim = embeddings[0].len();
        assert!(dim > 0, "empty calibration embedding");
        let mut store = Vec::with_capacity(embeddings.len() * dim);
        for e in &embeddings {
            assert_eq!(e.len(), dim, "embedding length mismatch");
            store.extend_from_slice(e);
        }
        let norms = store.chunks_exact(dim).map(|row| l2_norm_sq(row).sqrt()).collect();
        let mut label_records = vec![Vec::new(); n_labels];
        for (i, &label) in labels.iter().enumerate() {
            label_records[label].push(i as u32);
        }
        Self { store, dim, norms, labels, n_labels, label_records, cal_scores, selection }
    }

    /// Number of calibration records.
    pub fn n_records(&self) -> usize {
        self.labels.len()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of labels (classes or pseudo-label clusters).
    pub fn n_labels(&self) -> usize {
        self.n_labels
    }

    /// Number of experts whose score tables the kernel holds.
    pub fn n_experts(&self) -> usize {
        self.cal_scores.len()
    }

    /// Borrows the contiguous row-major embedding store (`n_records() *
    /// dim()` values) — pair with [`ScoringKernel::dim`] for flat k-NN
    /// lookups (`prom_ml::knn::k_nearest_flat`).
    pub fn embeddings_flat(&self) -> &[f64] {
        &self.store
    }

    /// Borrows calibration embedding `index`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    pub fn embedding(&self, index: usize) -> &[f64] {
        &self.store[index * self.dim..(index + 1) * self.dim]
    }

    /// Borrows the calibration labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Appends one calibration record: its embedding, (pseudo-)label, and
    /// one precomputed nonconformity score per expert. `O(1)` amortized —
    /// the kernel keeps no distance-dependent state, so growth needs no
    /// refit, and judgements afterwards are **bit-identical** to a kernel
    /// rebuilt from scratch with the record appended to the same
    /// construction order (`select` breaks distance ties by record index,
    /// which appending preserves).
    ///
    /// # Panics
    ///
    /// Panics on an embedding-length mismatch, an out-of-range label, or a
    /// score count that disagrees with [`ScoringKernel::n_experts`].
    pub fn insert(&mut self, embedding: Vec<f64>, label: usize, scores: &[f64]) {
        assert_eq!(embedding.len(), self.dim, "embedding length mismatch on insert");
        assert!(label < self.n_labels, "label {label} out of range for {} labels", self.n_labels);
        assert_eq!(scores.len(), self.cal_scores.len(), "one score per expert required");
        for (table, &score) in self.cal_scores.iter_mut().zip(scores.iter()) {
            table.push(score);
        }
        self.norms.push(l2_norm_sq(&embedding).sqrt());
        self.store.extend_from_slice(&embedding);
        // The new index is the largest, so the label's list stays sorted.
        self.label_records[label].push(self.labels.len() as u32);
        self.labels.push(label);
    }

    /// Overwrites calibration record `index` in place — the `O(1)` eviction
    /// path of a capped reservoir calibration set. The record keeps its
    /// index, so tie-breaking stays well-defined.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ScoringKernel::insert`], plus an out-of-range
    /// `index`.
    pub fn replace(&mut self, index: usize, embedding: Vec<f64>, label: usize, scores: &[f64]) {
        assert!(index < self.labels.len(), "record index {index} out of range");
        assert_eq!(embedding.len(), self.dim, "embedding length mismatch on replace");
        assert!(label < self.n_labels, "label {label} out of range for {} labels", self.n_labels);
        assert_eq!(scores.len(), self.cal_scores.len(), "one score per expert required");
        for (table, &score) in self.cal_scores.iter_mut().zip(scores.iter()) {
            table[index] = score;
        }
        self.norms[index] = l2_norm_sq(&embedding).sqrt();
        self.store[index * self.dim..(index + 1) * self.dim].copy_from_slice(&embedding);
        let old = std::mem::replace(&mut self.labels[index], label);
        if old != label {
            let index = index as u32;
            let from = &mut self.label_records[old];
            let pos = from.binary_search(&index).expect("record listed under its label");
            from.remove(pos);
            let to = &mut self.label_records[label];
            let pos = to.binary_search(&index).expect_err("record listed under one label only");
            to.insert(pos, index);
        }
    }

    /// Removes calibration record `index`, shifting every later record down
    /// one slot — the eviction path of sliding-window base retirement.
    ///
    /// The shift is what makes eviction *bit-equivalent to a from-scratch
    /// refit* on the surviving records: `select` breaks distance ties by
    /// record index, and after the shift the surviving records hold exactly
    /// the indices they would get if a fresh kernel were built from the
    /// surviving sequence in order. `O(n)` in records (a contiguous
    /// `memmove` of the store), which eviction amortizes over a full
    /// absorb window.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range `index`, or when the kernel holds a single
    /// record (an empty kernel cannot judge; construction rejects it too).
    pub fn remove(&mut self, index: usize) {
        let n = self.labels.len();
        assert!(index < n, "record index {index} out of range");
        assert!(n > 1, "cannot remove the last calibration record");
        for table in &mut self.cal_scores {
            table.remove(index);
        }
        self.norms.remove(index);
        let label = self.labels.remove(index);
        self.store.drain(index * self.dim..(index + 1) * self.dim);
        let index = index as u32;
        let list = &mut self.label_records[label];
        let pos = list.binary_search(&index).expect("record listed under its label");
        list.remove(pos);
        for list in &mut self.label_records {
            for i in list.iter_mut() {
                *i -= u32::from(*i > index);
            }
        }
    }

    /// Borrows expert `expert`'s precomputed nonconformity scores, one per
    /// calibration record in store order.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range expert index.
    pub fn expert_scores(&self, expert: usize) -> &[f64] {
        &self.cal_scores[expert]
    }

    /// Runs the Eq. 1 selection for one test embedding into `scratch`:
    /// computes calibration distances (one streaming pass over the
    /// contiguous store, reused buffer), keeps the nearest fraction per
    /// [`SelectionConfig`], weights the kept records by `exp(-d / tau)`,
    /// and groups them into per-label runs for the p-value pass.
    ///
    /// Distances are compared as **squared** distances throughout — the
    /// square root is a monotone bijection on `[0, +inf]`, and every
    /// comparison breaks ties by record index, so the kept *set* is
    /// identical to comparing true distances; `sqrt` is taken once per
    /// *kept* record, exactly where the Eq. 1 weight needs it, so weight
    /// bits match the scalar reference (`calibration::select_weighted_subset`)
    /// which shares the same distance summation.
    ///
    /// When the whole calibration set is kept (small sets, or
    /// `fraction = 1`), no threshold is selected at all — p-values are
    /// counts, so selection order is irrelevant. A selective pass picks
    /// between an O(n) threshold select over the full distance row and,
    /// when `keep` is small relative to `n`, a filtered scan that prunes
    /// provably-too-far records via the precomputed norms
    /// (`|‖e‖ − ‖q‖| > threshold` triangle inequality) and partial-distance
    /// early exit — both produce the same kept set bit-for-bit
    /// (`tests/kernel_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics on an embedding-length mismatch (one check per call — the
    /// store is uniform by construction).
    pub fn select(&self, test_embedding: &[f64], scratch: &mut JudgeScratch) {
        assert_eq!(self.dim, test_embedding.len(), "embedding length mismatch");
        if self.uses_pruned_path() {
            // Keep the query: `nearest` may need distances the pruned path
            // never materialized.
            scratch.query.clear();
            scratch.query.extend_from_slice(test_embedding);
            scratch.last = LastSelection::Pruned;
            self.select_pruned(test_embedding, scratch);
            return;
        }
        scratch.row.clear();
        scratch
            .row
            .extend(self.store.chunks_exact(self.dim).map(|e| l2_distance_sq(e, test_embedding)));
        scratch.last = LastSelection::Row;
        self.select_row(&scratch.row, &mut scratch.keys, &mut scratch.kept);
    }

    /// How many records the Eq. 1 selection keeps for the current
    /// calibration size and [`SelectionConfig`].
    fn keep_count(&self) -> usize {
        let n = self.labels.len();
        if n < self.selection.min_full_size {
            n
        } else {
            ((n as f64 * self.selection.fraction).round() as usize).clamp(1, n)
        }
    }

    /// Whether [`ScoringKernel::select`] takes the norm-pruned filtered
    /// scan instead of the full-pass threshold select. The filtered scan
    /// wins only when few records are kept (its candidate-buffer
    /// maintenance is overhead the full pass does not pay, and a loose
    /// threshold prunes nothing near `fraction = 0.5`); `keep * 4 <= n`
    /// reserves it for genuinely selective configurations.
    ///
    /// Public as a capability probe: the blocked batch-judging paths
    /// precompute full distance rows, which would waste exactly the work
    /// the pruned path exists to skip.
    pub fn uses_pruned_path(&self) -> bool {
        let keep = self.keep_count();
        keep < self.labels.len() && keep * 4 <= self.labels.len()
    }

    /// Fills `scratch` with the squared-distance block for a batch of
    /// queries: `queries.len()` rows of `n_records()` raw squared distances
    /// each, computed by one blocked streaming pass over the store
    /// ([`l2_distances_sq_block`]) instead of one full stream per query.
    /// Pair with [`ScoringKernel::select_from_block`] per query. Only
    /// worthwhile on the partition path (check
    /// [`ScoringKernel::uses_pruned_path`] first — the pruned path exists
    /// to *skip* most of these distances).
    ///
    /// # Panics
    ///
    /// Panics on an embedding-length mismatch in any query.
    pub fn distance_block(&self, queries: &[&[f64]], scratch: &mut JudgeScratch) {
        scratch.block_queries.clear();
        for query in queries {
            assert_eq!(self.dim, query.len(), "embedding length mismatch");
            scratch.block_queries.extend_from_slice(query);
        }
        scratch.block.clear();
        scratch.block.resize(self.labels.len() * queries.len(), 0.0);
        l2_distances_sq_block(&self.store, self.dim, &scratch.block_queries, &mut scratch.block);
    }

    /// Runs the Eq. 1 selection for query `j` of the block last passed to
    /// [`ScoringKernel::distance_block`], **bit-identical** to
    /// [`ScoringKernel::select`] on the same embedding: the blocked pass
    /// computes each pair through the same summation kernel, and both
    /// entry points hand their distance row to the same selection routine.
    ///
    /// # Panics
    ///
    /// Panics if the block row `j` is out of range or `test_embedding`
    /// has the wrong dimension.
    pub fn select_from_block(&self, j: usize, test_embedding: &[f64], scratch: &mut JudgeScratch) {
        assert_eq!(self.dim, test_embedding.len(), "embedding length mismatch");
        let n = self.labels.len();
        let row = &scratch.block[j * n..(j + 1) * n];
        scratch.last = LastSelection::Block(j);
        self.select_row(row, &mut scratch.keys, &mut scratch.kept);
    }

    /// The full-pass selection over one squared-distance row (one entry
    /// per record): finds the threshold of the `keep` smallest
    /// `(d², index)` pairs, writes each label's kept records into `kept`
    /// and weights them.
    ///
    /// Exactness: `selection_key` maps `d²` to its bit pattern (NaN to
    /// `+inf`'s), whose integer order equals `total_cmp` order on the
    /// non-negative values a sum of squares produces. Selecting the
    /// `keep`-th smallest key `T` splits the records into `key < T`
    /// (all kept), `key > T` (all dropped) and the ties `key == T`. When
    /// no tie lies past the selected position, every tie fits and the kept
    /// set is `key <= T`; otherwise the first `quota` ties in index order
    /// are kept — exactly the `(d², index)` rule of the reference.
    fn select_row(&self, row: &[f64], keys: &mut Vec<u64>, kept: &mut Kept) {
        let keep = self.keep_count();
        // Kept iff `(key, index) <= (threshold, cut)`; the defaults keep
        // every record.
        let (mut threshold, mut cut) = (u64::MAX, u32::MAX);
        if keep < row.len() {
            keys.clear();
            keys.extend(row.iter().map(|&d2| selection_key(d2)));
            let (below, &mut t, above) = keys.select_nth_unstable(keep - 1);
            threshold = t;
            if above.contains(&t) {
                // Ties straddle the boundary: keep the first `quota` in
                // index order.
                let quota = keep - below.iter().filter(|&&k| k < t).count();
                let (i, _) = row
                    .iter()
                    .enumerate()
                    .filter(|&(_, &d2)| selection_key(d2) == t)
                    .nth(quota - 1)
                    .expect("the threshold key occurs at least `quota` times");
                cut = i as u32;
            }
        }
        self.reset_kept(kept);
        for (records, run) in self.label_records.iter().zip(&mut kept.runs) {
            let region = run.start..run.start + records.len();
            let (out_records, out_weights) =
                (&mut kept.records[region.clone()], &mut kept.weights[region]);
            // Branchless compaction: write every candidate, advance past
            // the kept ones only.
            let mut len = 0;
            for &i in records {
                let key = selection_key(row[i as usize]);
                out_records[len] = i;
                out_weights[len] = f64::from_bits(key);
                len += usize::from((key < threshold) | ((key == threshold) & (i <= cut)));
            }
            run.end = run.start + len;
        }
        self.weigh(kept);
    }

    /// Empties `kept` to one run per label, each at the start of a region
    /// with room for every record of its label.
    fn reset_kept(&self, kept: &mut Kept) {
        let n = self.labels.len();
        kept.records.resize(n, 0);
        kept.weights.resize(n, 0.0);
        kept.runs.clear();
        let mut start = 0;
        kept.runs.extend(self.label_records.iter().map(|records| {
            let run = start..start;
            start += records.len();
            run
        }));
    }

    /// Replaces every kept squared distance in `kept` by its Eq. 1 weight
    /// — the shared tail of both selection paths. `sqrt` happens here,
    /// once per *kept* record, in the reference's exact expression.
    fn weigh(&self, kept: &mut Kept) {
        let tau = self.selection.tau;
        for run in &kept.runs {
            for w in &mut kept.weights[run.clone()] {
                *w = (-w.sqrt() / tau).exp();
            }
        }
    }

    /// The pruned selective pass: a filtered scan over the store that keeps
    /// a small candidate buffer and a provable upper bound `est` on the
    /// final selection threshold (the `keep`-th lexicographically-smallest
    /// `(d², index)`). Records provably beyond `est` are skipped — by the
    /// norm bound without reading their embedding at all, or by
    /// partial-distance early exit — and the buffer is re-partitioned and
    /// truncated back to `keep` entries (tightening `est`) every time it
    /// doubles, so maintenance stays O(1) amortized per accepted candidate
    /// with none of the pointer-chasing churn of a binary heap. Leaves
    /// exactly the kept set in `scratch.dist` (partition order) and groups
    /// it into the per-label runs.
    ///
    /// Exactness argument, in three parts. (1) *`est` never undershoots*:
    /// `est` is always the `keep`-th smallest `(d², index)` over some
    /// sub-multiset of the true distance multiset (the candidates seen so
    /// far), and a k-th order statistic over a sub-multiset is `>=` the
    /// k-th over the whole — so `est >= t²`, the final threshold, at every
    /// step; skips prove `d² > est >= t²` (strictly, so boundary ties are
    /// never skipped), truncations drop only entries lexicographically
    /// beyond `est`'s pair, and therefore every true member survives to the
    /// final partition, which equals the full-pass selection bit for bit.
    /// (2) *Norm bound*: exact math gives `d(e, q) >= |‖e‖ − ‖q‖|`; the
    /// computed norms and the subtraction carry rounding error, so the
    /// bound is deflated by a conservative slack (a few ulps of
    /// `‖e‖ + ‖q‖`, scaled by dim) before squaring, and the squared bound
    /// is deflated again before comparing — only records *strictly,
    /// provably* beyond `est` are skipped. NaN/overflowed norms make the
    /// comparison false, disabling the prune rather than mis-pruning.
    /// (3) *Early exit* is sound and non-perturbing per
    /// [`l2_distance_sq_bounded`]'s contract; the bound passed is `est`'s
    /// upward neighbour, so an exit proves `d² > est` even at exact ties,
    /// and survivors carry bit-identical sums.
    fn select_pruned(&self, test_embedding: &[f64], scratch: &mut JudgeScratch) {
        let keep = self.keep_count();
        let q_norm = l2_norm_sq(test_embedding).sqrt();
        let norm_slack = 4.0 * self.dim as f64 * f64::EPSILON;
        let square_slack = 1.0 - 32.0 * self.dim as f64 * f64::EPSILON;
        let lex = |a: &(f64, u32), b: &(f64, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        let cand = &mut scratch.dist;
        cand.clear();
        let cap = 2 * keep;
        let mut est = f64::INFINITY;
        for (i, e) in self.store.chunks_exact(self.dim).enumerate() {
            let lower = (self.norms[i] - q_norm).abs() - (self.norms[i] + q_norm) * norm_slack;
            if lower > 0.0 && lower * lower * square_slack > est {
                continue;
            }
            let d2 = if est.is_finite() {
                match l2_distance_sq_bounded(e, test_embedding, next_up(est)) {
                    Some(d2) => d2,
                    None => continue,
                }
            } else {
                // `est` can stay inf past warm-up only if every candidate
                // distance is inf (NaN/overflow queries) — the bounded
                // kernel could then exit on records the tie rule keeps.
                l2_distance_sq(e, test_embedding)
            };
            let d2 = f64::from_bits(selection_key(d2));
            if d2 > est {
                continue;
            }
            cand.push((d2, i as u32));
            if cand.len() == cap {
                cand.select_nth_unstable_by(keep - 1, lex);
                cand.truncate(keep);
                est = cand[keep - 1].0;
            }
        }
        if cand.len() > keep {
            cand.select_nth_unstable_by(keep - 1, lex);
            cand.truncate(keep);
        }

        let kept = &mut scratch.kept;
        self.reset_kept(kept);
        for &(d2, i) in cand.iter() {
            let run = &mut kept.runs[self.labels[i as usize]];
            kept.records[run.end] = i;
            kept.weights[run.end] = d2;
            run.end += 1;
        }
        self.weigh(kept);
    }

    /// The `k` nearest calibration records to the embedding last passed to
    /// [`ScoringKernel::select`] or [`ScoringKernel::select_from_block`],
    /// nearest first (the k-NN ground-truth proxy reuses the selection's
    /// distance pass instead of recomputing it).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or no selection has run.
    pub fn nearest(&self, scratch: &JudgeScratch, k: usize, out: &mut Vec<usize>) {
        assert!(k > 0, "nearest needs k >= 1");
        let n = self.labels.len();
        let k = k.min(n);
        let row = match scratch.last {
            LastSelection::None => panic!("select() must run before nearest()"),
            LastSelection::Row => &scratch.row[..],
            LastSelection::Block(j) => &scratch.block[j * n..(j + 1) * n],
            LastSelection::Pruned if k <= scratch.dist.len() => {
                // The kept subset holds the `keep` globally-nearest
                // records, so its k smallest are the global k smallest.
                k_smallest_into(scratch.dist.iter().copied(), k, out);
                return;
            }
            LastSelection::Pruned => {
                // k > keep (knn_k beyond the selection size — degenerate
                // configurations only): the skipped distances were never
                // materialized, so recompute the full pass against the
                // stashed query. Same kernel, same NaN rule — bit-identical
                // to the row the full pass would have read.
                k_smallest_into(
                    self.store.chunks_exact(self.dim).enumerate().map(|(i, e)| {
                        (f64::from_bits(selection_key(l2_distance_sq(e, &scratch.query))), i as u32)
                    }),
                    k,
                    out,
                );
                return;
            }
        };
        k_smallest_into(
            row.iter().enumerate().map(|(i, &d2)| (f64::from_bits(selection_key(d2)), i as u32)),
            k,
            out,
        );
    }

    /// Eq. 2 p-values for expert `expert` over the selection in `scratch`,
    /// reading per-label test scores from `scratch.test_scores` and writing
    /// per-label p-values to `scratch.p_values`.
    ///
    /// For each label `y`, the p-value is the fraction of *selected*
    /// label-`y` calibration records whose weight-adjusted score
    /// `w_i * a_i` is `>= test_scores[y]`; labels absent from the selection
    /// get 0. Each label's kept records are one contiguous run of
    /// `(index, weight)` pairs, so the whole pass is one scan of the
    /// selection per expert.
    ///
    /// # Panics
    ///
    /// Panics if `expert` is out of range or `scratch.test_scores` has the
    /// wrong length.
    pub fn p_values_into(&self, expert: usize, scratch: &mut JudgeScratch) {
        let scores = &self.cal_scores[expert];
        assert_eq!(scratch.test_scores.len(), self.n_labels, "test-score length mismatch");
        scratch.p_values.clear();
        let kept = &scratch.kept;
        for (run, &test) in kept.runs.iter().zip(&scratch.test_scores) {
            if run.is_empty() {
                scratch.p_values.push(0.0);
                continue;
            }
            let at_least = kept.pairs(run).filter(|&(i, w)| w * scores[i as usize] >= test).count();
            scratch.p_values.push(at_least as f64 / run.len() as f64);
        }
    }
}

/// The selection key of a squared distance: its bit pattern, with NaN
/// (a diverged *test* embedding — calibration embeddings are validated
/// NaN-free at record construction) mapped to `+inf`'s, so the pair
/// conforms to nothing: its Eq. 1 weight is exactly 0 and the judgement
/// stays *defined* instead of panicking in the serving path. Every
/// strictly positive test score then gets p = 0; a test score of exactly
/// 0 (a maximally conforming output) still ties as `0 >= 0`, matching
/// the reference path's tie rule.
///
/// A sum of squares starting at `+0.0` is never negative or `-0.0`, and
/// on `[+0, +inf]` the bit order is `total_cmp` order, so keys compare
/// exactly as the reference's `(d², index)` sort does.
fn selection_key(d2: f64) -> u64 {
    debug_assert!(d2.is_nan() || d2.is_sign_positive(), "negative squared distance {d2}");
    if d2.is_nan() {
        f64::INFINITY.to_bits()
    } else {
        d2.to_bits()
    }
}

/// Insertion-selects the `k` lexicographically-smallest `(d², index)` pairs
/// from `candidates` (any order) into `out`, nearest first. Ties break by
/// record index — the same rule as `prom_ml::knn::k_nearest` — so the
/// result does not depend on the candidate order (which is
/// partition-scrambled). k is tiny on this path (the paper uses k = 3), so an
/// insertion select beats a partition.
fn k_smallest_into(candidates: impl Iterator<Item = (f64, u32)>, k: usize, out: &mut Vec<usize>) {
    let mut best: Vec<(f64, u32)> = Vec::with_capacity(k + 1);
    for (d, i) in candidates {
        let pos = best.partition_point(|&(bd, bi)| bd < d || (bd == d && bi < i));
        if pos < k {
            best.insert(pos, (d, i));
            best.truncate(k);
        }
    }
    out.clear();
    out.extend(best.iter().map(|&(_, i)| i as usize));
}

/// The smallest `f64` strictly greater than `x`, for finite `x >= 0` —
/// the early-exit bound of the pruned scan, which must prove *strict*
/// `d² > est` so records tying the threshold exactly are never skipped.
/// (Squared distances are non-negative, so the bit-increment form is
/// exact; `+0.0` maps to the smallest subnormal.)
fn next_up(x: f64) -> f64 {
    debug_assert!(x.is_finite() && x >= 0.0);
    f64::from_bits(x.to_bits() + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pvalue::{p_value_for_label, ScoredSample};

    impl JudgeScratch {
        /// Each label's kept `(record, weight bits)` run, in array order.
        fn kept_by_label(&self) -> Vec<Vec<(u32, u64)>> {
            let kept = &self.kept;
            kept.runs
                .iter()
                .map(|run| kept.pairs(run).map(|(i, w)| (i, w.to_bits())).collect())
                .collect()
        }

        /// Every kept `(record, weight bits)` pair, sorted by record.
        fn kept_sorted(&self) -> Vec<(u32, u64)> {
            let mut all: Vec<(u32, u64)> = self.kept_by_label().into_iter().flatten().collect();
            all.sort_unstable();
            all
        }

        fn kept_count(&self) -> usize {
            self.kept.runs.iter().map(Range::len).sum()
        }
    }

    #[test]
    fn score_table_matches_linear_scan() {
        let labels = [0, 0, 0, 0, 1, 1, 2];
        let scores = [0.1, 0.4, 0.2, 0.3, 0.9, 0.5, 0.7];
        let table = ScoreTable::new(&labels, &scores, 4);
        let samples: Vec<ScoredSample> = labels
            .iter()
            .zip(scores.iter())
            .map(|(&label, &adjusted_score)| ScoredSample { label, adjusted_score })
            .collect();
        for label in 0..4 {
            for test in [-1.0, 0.0, 0.15, 0.2, 0.35, 0.5, 0.9, 2.0] {
                assert_eq!(
                    table.p_value(label, test),
                    p_value_for_label(&samples, label, test),
                    "label {label}, test {test}"
                );
            }
        }
    }

    #[test]
    fn score_table_ties_count_as_at_least() {
        let table = ScoreTable::new(&[0, 0], &[0.5, 0.5], 1);
        assert_eq!(table.p_value(0, 0.5), 1.0);
        assert_eq!(table.p_value(0, 0.5 + 1e-12), 0.0);
    }

    #[test]
    fn score_table_nan_test_score_rejects() {
        // Matches the pre-kernel linear scan: `score >= NaN` held for no
        // calibration sample, so a NaN model output got p = 0 (rejected).
        let table = ScoreTable::new(&[0, 0], &[0.2, 0.8], 1);
        assert_eq!(table.p_value(0, f64::NAN), 0.0);
        assert_eq!(
            table.p_value(0, f64::NAN),
            p_value_for_label(
                &[
                    ScoredSample { label: 0, adjusted_score: 0.2 },
                    ScoredSample { label: 0, adjusted_score: 0.8 }
                ],
                0,
                f64::NAN
            )
        );
    }

    #[test]
    fn score_table_out_of_range_label_rejects() {
        let table = ScoreTable::new(&[0], &[0.5], 1);
        assert_eq!(table.p_value(7, 0.0), 0.0);
    }

    #[test]
    fn score_table_vector_form() {
        let table = ScoreTable::new(&[0, 1], &[0.2, 0.8], 2);
        assert_eq!(table.p_values(&[0.1, 0.9]), vec![1.0, 0.0]);
    }

    #[test]
    fn insert_grows_bit_identically_to_rebuild() {
        let base_labels = [0, 1, 0, 2, 1];
        let base_scores = [0.4, 0.9, 0.1, 0.5, 0.2];
        // Duplicates (0.4 twice), boundary values, and a -0.0/+0.0 pair —
        // the orderings where a sloppy insert would diverge from a sort.
        let extra_labels = [0, 0, 1, 2, 0, 0];
        let extra_scores = [0.4, -0.0, 0.0, 0.5, 2.0, -1.0];

        let mut grown = ScoreTable::new(&base_labels, &base_scores, 3);
        grown.insert_scores(&extra_labels, &extra_scores);

        let all_labels: Vec<usize> =
            base_labels.iter().chain(extra_labels.iter()).copied().collect();
        let all_scores: Vec<f64> = base_scores.iter().chain(extra_scores.iter()).copied().collect();
        let rebuilt = ScoreTable::new(&all_labels, &all_scores, 3);

        assert_eq!(grown.len(), rebuilt.len());
        for label in 0..3 {
            let g: Vec<u64> = grown.scores(label).iter().map(|s| s.to_bits()).collect();
            let r: Vec<u64> = rebuilt.scores(label).iter().map(|s| s.to_bits()).collect();
            assert_eq!(g, r, "label {label} buckets must match bit-for-bit");
        }
    }

    #[test]
    fn remove_evicts_exactly_one_occurrence() {
        let mut table = ScoreTable::new(&[0, 0, 0], &[0.5, 0.5, 0.2], 1);
        assert!(table.remove(0, 0.5));
        assert_eq!(table.scores(0), &[0.2, 0.5]);
        assert!(!table.remove(0, 0.7), "absent score must not remove anything");
        assert!(!table.remove(5, 0.5), "out-of-range label must not panic");
        assert!(!table.remove(0, f64::NAN), "NaN matches nothing");
        assert_eq!(table.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_label_panics_like_new() {
        let mut table = ScoreTable::new(&[0], &[0.5], 1);
        table.insert(1, 0.5);
    }

    #[test]
    #[should_panic(expected = "NaN calibration score")]
    fn insert_nan_score_panics_like_new() {
        let mut table = ScoreTable::new(&[0], &[0.5], 1);
        table.insert(0, f64::NAN);
    }

    #[test]
    fn insert_record_scores_at_true_label() {
        use crate::nonconformity::Lac;
        let record = CalibrationRecord::new(vec![0.0], vec![0.3, 0.7], 1);
        let mut grown = ScoreTable::new(&[], &[], 2);
        grown.insert_record(&record, &Lac);
        let rebuilt = ScoreTable::from_records(&[record], &Lac, 2);
        for label in 0..2 {
            assert_eq!(grown.scores(label), rebuilt.scores(label));
        }
    }

    #[test]
    fn sorted_buckets_round_trip_restores_the_table_bit_for_bit() {
        let table = ScoreTable::new(&[0, 0, 1, 2, 0, 1], &[0.5, -0.0, 0.9, 0.1, 0.5, 1e-300], 4);
        let restored = ScoreTable::from_sorted_buckets(table.sorted_buckets());
        assert_eq!(restored.n_labels(), table.n_labels());
        for label in 0..table.n_labels() {
            let got: Vec<u64> = restored.scores(label).iter().map(|s| s.to_bits()).collect();
            let want: Vec<u64> = table.scores(label).iter().map(|s| s.to_bits()).collect();
            assert_eq!(got, want, "label {label}");
        }
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn unsorted_restored_bucket_panics() {
        let _ = ScoreTable::from_sorted_buckets(vec![vec![0.9, 0.1]]);
    }

    fn kernel_fixture(n: usize, min_full_size: usize) -> ScoringKernel {
        let embeddings: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 * 0.5]).collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let scores: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin().abs()).collect();
        let scores2: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos().abs()).collect();
        ScoringKernel::new(
            embeddings,
            labels,
            3,
            vec![scores, scores2],
            SelectionConfig { fraction: 0.5, min_full_size, tau: 10.0 },
        )
    }

    /// Reference implementation: the old per-judgement path (allocate,
    /// sort, linear scans) via `calibration::select_weighted_subset` +
    /// `pvalue::p_values`.
    fn reference_p_values(
        kernel: &ScoringKernel,
        expert: usize,
        test: &[f64],
        ts: &[f64],
    ) -> Vec<f64> {
        let rows: Vec<Vec<f64>> =
            (0..kernel.n_records()).map(|i| kernel.embedding(i).to_vec()).collect();
        let selection = crate::calibration::select_weighted_subset(&rows, test, &kernel.selection);
        let samples: Vec<ScoredSample> = selection
            .iter()
            .map(|s| ScoredSample {
                label: kernel.labels()[s.index],
                adjusted_score: s.weight * kernel.cal_scores[expert][s.index],
            })
            .collect();
        crate::pvalue::p_values(&samples, ts)
    }

    #[test]
    fn kernel_matches_reference_when_all_records_kept() {
        let kernel = kernel_fixture(40, 200); // 40 < 200: everything selected
        let mut scratch = JudgeScratch::new();
        for probe in [0.0, 3.3, 19.0] {
            kernel.select(&[probe], &mut scratch);
            for expert in 0..kernel.n_experts() {
                scratch.test_scores.clear();
                scratch.test_scores.extend_from_slice(&[0.2, 0.5, 0.8]);
                kernel.p_values_into(expert, &mut scratch);
                let reference = reference_p_values(&kernel, expert, &[probe], &[0.2, 0.5, 0.8]);
                assert_eq!(scratch.p_values, reference, "probe {probe}, expert {expert}");
            }
        }
    }

    #[test]
    fn kernel_matches_reference_with_nearest_fraction_selection() {
        let kernel = kernel_fixture(300, 200); // 300 >= 200: keep nearest 50%
        let mut scratch = JudgeScratch::new();
        for probe in [0.0, 40.0, 150.0] {
            kernel.select(&[probe], &mut scratch);
            assert_eq!(scratch.kept_count(), 150);
            for expert in 0..kernel.n_experts() {
                scratch.test_scores.clear();
                scratch.test_scores.extend_from_slice(&[0.1, 0.4, 0.9]);
                kernel.p_values_into(expert, &mut scratch);
                let reference = reference_p_values(&kernel, expert, &[probe], &[0.1, 0.4, 0.9]);
                assert_eq!(scratch.p_values, reference, "probe {probe}, expert {expert}");
            }
        }
    }

    #[test]
    fn remove_matches_a_from_scratch_rebuild_bit_for_bit() {
        let n = 60;
        let embeddings: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 * 0.5]).collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let s0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin().abs()).collect();
        let s1: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos().abs()).collect();
        let selection = SelectionConfig { fraction: 0.5, min_full_size: 10, tau: 10.0 };

        let mut evicted = ScoringKernel::new(
            embeddings.clone(),
            labels.clone(),
            3,
            vec![s0.clone(), s1.clone()],
            selection.clone(),
        );
        // Front, middle, and (shifted) back — indices valid at each step.
        evicted.remove(0);
        evicted.remove(20);
        evicted.remove(evicted.n_records() - 1);

        let keep = |v: &[f64], drop: &[usize]| -> Vec<f64> {
            v.iter().enumerate().filter(|(i, _)| !drop.contains(i)).map(|(_, &x)| x).collect()
        };
        // Original indices of the three removals above.
        let dropped = [0usize, 21, 59];
        let rebuilt = ScoringKernel::new(
            embeddings
                .iter()
                .enumerate()
                .filter(|(i, _)| !dropped.contains(i))
                .map(|(_, e)| e.clone())
                .collect(),
            labels
                .iter()
                .enumerate()
                .filter(|(i, _)| !dropped.contains(i))
                .map(|(_, &l)| l)
                .collect(),
            3,
            vec![keep(&s0, &dropped), keep(&s1, &dropped)],
            selection,
        );

        assert_eq!(evicted.n_records(), rebuilt.n_records());
        assert_eq!(evicted.labels(), rebuilt.labels());
        let got: Vec<u64> = evicted.embeddings_flat().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = rebuilt.embeddings_flat().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "stores must match bit-for-bit after the shift");

        let mut scratch_e = JudgeScratch::new();
        let mut scratch_r = JudgeScratch::new();
        for probe in [0.0, 10.2, 29.5] {
            evicted.select(&[probe], &mut scratch_e);
            rebuilt.select(&[probe], &mut scratch_r);
            for expert in 0..2 {
                for scratch in [&mut scratch_e, &mut scratch_r] {
                    scratch.test_scores.clear();
                    scratch.test_scores.extend_from_slice(&[0.2, 0.5, 0.8]);
                }
                evicted.p_values_into(expert, &mut scratch_e);
                rebuilt.p_values_into(expert, &mut scratch_r);
                let got: Vec<u64> = scratch_e.p_values.iter().map(|p| p.to_bits()).collect();
                let want: Vec<u64> = scratch_r.p_values.iter().map(|p| p.to_bits()).collect();
                assert_eq!(got, want, "probe {probe}, expert {expert}");
            }
        }
    }

    #[test]
    fn label_records_track_insert_replace_and_remove() {
        let mut edited = kernel_fixture(30, 10);
        edited.insert(vec![3.25], 1, &[0.4, 0.6]);
        edited.replace(4, vec![8.0], 2, &[0.1, 0.2]); // label 1 -> 2
        edited.replace(9, vec![1.0], 0, &[0.3, 0.3]); // label 0 -> 0
        edited.remove(12);
        edited.remove(0);
        let rows: Vec<Vec<f64>> =
            (0..edited.n_records()).map(|i| edited.embedding(i).to_vec()).collect();
        let rebuilt = ScoringKernel::new(
            rows,
            edited.labels().to_vec(),
            3,
            edited.cal_scores.clone(),
            edited.selection.clone(),
        );
        assert_eq!(edited.label_records, rebuilt.label_records);
    }

    #[test]
    #[should_panic(expected = "cannot remove the last")]
    fn removing_the_last_record_panics() {
        let mut kernel = ScoringKernel::new(
            vec![vec![1.0]],
            vec![0],
            1,
            vec![vec![0.5]],
            SelectionConfig::default(),
        );
        kernel.remove(0);
    }

    /// A fixture whose selection fraction engages the pruned filtered-scan
    /// path (`keep * 4 <= n`), with duplicate embeddings so boundary ties
    /// are exercised.
    fn pruned_fixture(n: usize, dim: usize, fraction: f64) -> ScoringKernel {
        let embeddings: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                // Every 5th record duplicates its predecessor's embedding.
                let base = if i % 5 == 4 { i - 1 } else { i };
                (0..dim).map(|j| (base as f64 * 0.5) + (j as f64 * 0.01)).collect()
            })
            .collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let scores: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin().abs()).collect();
        ScoringKernel::new(
            embeddings,
            labels,
            3,
            vec![scores],
            SelectionConfig { fraction, min_full_size: 1, tau: 10.0 },
        )
    }

    #[test]
    fn pruned_path_matches_reference_bit_for_bit() {
        for dim in [1, 8, 17] {
            let kernel = pruned_fixture(120, dim, 0.1); // keep = 12, 12*4 <= 120
            let mut scratch = JudgeScratch::new();
            for probe_base in [0.0, 11.7, 60.0, 1.0e7] {
                let probe: Vec<f64> = (0..dim).map(|j| probe_base + j as f64 * 0.01).collect();
                kernel.select(&probe, &mut scratch);
                assert_eq!(scratch.kept_count(), 12, "pruned path must keep exactly `keep`");
                scratch.test_scores.clear();
                scratch.test_scores.extend_from_slice(&[0.2, 0.5, 0.8]);
                kernel.p_values_into(0, &mut scratch);
                let reference = reference_p_values(&kernel, 0, &probe, &[0.2, 0.5, 0.8]);
                let got: Vec<u64> = scratch.p_values.iter().map(|p| p.to_bits()).collect();
                let want: Vec<u64> = reference.iter().map(|p| p.to_bits()).collect();
                assert_eq!(got, want, "dim {dim}, probe {probe_base}");
            }
        }
    }

    #[test]
    fn blocked_selection_is_bit_identical_to_single_query_select() {
        // Partition configs only — the blocked pass is gated off the
        // pruned path by callers via `uses_pruned_path`.
        for fraction in [0.5, 1.0] {
            let kernel = pruned_fixture(60, 4, fraction);
            assert!(!kernel.uses_pruned_path());
            let queries: Vec<Vec<f64>> = vec![
                vec![0.0, 0.01, 0.02, 0.03],
                vec![14.5, 14.51, 14.52, 14.53],
                kernel.embedding(10).to_vec(),
                vec![f64::NAN, 0.0, 0.0, 0.0],
            ];
            let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
            let mut blocked = JudgeScratch::new();
            kernel.distance_block(&refs, &mut blocked);
            let mut single = JudgeScratch::new();
            let (mut from_block, mut from_single) = (Vec::new(), Vec::new());
            for (j, query) in queries.iter().enumerate() {
                kernel.select_from_block(j, query, &mut blocked);
                kernel.select(query, &mut single);
                assert_eq!(
                    blocked.kept_by_label(),
                    single.kept_by_label(),
                    "fraction {fraction}, query {j}"
                );
                kernel.nearest(&blocked, 5, &mut from_block);
                kernel.nearest(&single, 5, &mut from_single);
                assert_eq!(from_block, from_single, "fraction {fraction}, query {j}");
            }
        }
    }

    #[test]
    fn pruned_and_partition_paths_keep_the_same_set() {
        // One kernel on the pruned path (fraction 0.1 of 120, keep 12):
        // its kept set and weight bits must equal the full-pass threshold
        // select run over the same query's full distance row at the same
        // keep, and the kept indices must equal the scalar reference's.
        let pruned = pruned_fixture(120, 3, 0.1);
        assert!(pruned.uses_pruned_path());
        let query = [7.0, 7.01, 7.02];
        let mut sp = JudgeScratch::new();
        pruned.select(&query, &mut sp);
        let mut sr = JudgeScratch::new();
        let row: Vec<f64> =
            (0..pruned.n_records()).map(|i| l2_distance_sq(pruned.embedding(i), &query)).collect();
        pruned.select_row(&row, &mut sr.keys, &mut sr.kept);
        assert_eq!(sp.kept_sorted(), sr.kept_sorted(), "pruned and partition kept sets diverge");
        let from_pruned: Vec<u32> = sp.kept_sorted().iter().map(|&(i, _)| i).collect();
        // Reference kept set via the scalar path.
        let rows: Vec<Vec<f64>> =
            (0..pruned.n_records()).map(|i| pruned.embedding(i).to_vec()).collect();
        let reference = crate::calibration::select_weighted_subset(
            &rows,
            &[7.0, 7.01, 7.02],
            &pruned.selection,
        );
        let mut from_reference: Vec<u32> = reference.iter().map(|s| s.index as u32).collect();
        from_reference.sort_unstable();
        assert_eq!(from_pruned, from_reference);
    }

    #[test]
    #[should_panic(expected = "select() must run before nearest()")]
    fn nearest_without_a_selection_panics() {
        kernel_fixture(10, 1).nearest(&JudgeScratch::new(), 3, &mut Vec::new());
    }

    #[test]
    fn nearest_recomputes_when_k_exceeds_pruned_keep() {
        let kernel = pruned_fixture(120, 2, 0.05); // keep = 6
        let mut scratch = JudgeScratch::new();
        let mut out = Vec::new();
        kernel.select(&[30.0, 30.01], &mut scratch);
        assert_eq!(scratch.kept_count(), 6);
        assert_eq!(scratch.dist.len(), 6, "pruned path materializes only the kept set");
        // k = 10 > keep = 6: the fallback must recompute and agree with the
        // flat k-NN helper over the full store.
        kernel.nearest(&scratch, 10, &mut out);
        let expect = prom_ml::knn::k_nearest_flat(
            kernel.embeddings_flat(),
            kernel.dim(),
            &[30.0, 30.01],
            10,
        );
        assert_eq!(out, expect);
        // And k <= keep stays on the kept subset with identical results.
        kernel.nearest(&scratch, 3, &mut out);
        let expect =
            prom_ml::knn::k_nearest_flat(kernel.embeddings_flat(), kernel.dim(), &[30.0, 30.01], 3);
        assert_eq!(out, expect);
    }

    #[test]
    fn replace_maintains_norms_for_the_pruning_bound() {
        let mut kernel = pruned_fixture(120, 2, 0.1);
        // Move record 7 far away; a stale norm would let the pruning bound
        // wrongly skip (or keep) it.
        kernel.replace(7, vec![500.0, 500.0], 0, &[0.3]);
        assert_eq!(kernel.norms[7], prom_ml::matrix::l2_norm(&[500.0, 500.0]));
        let mut scratch = JudgeScratch::new();
        kernel.select(&[500.0, 500.0], &mut scratch);
        assert!(
            scratch.kept_sorted().iter().any(|&(i, _)| i == 7),
            "the relocated record is now nearest and must be kept"
        );
        let reference = reference_p_values(&kernel, 0, &[500.0, 500.0], &[0.2, 0.5, 0.8]);
        scratch.test_scores.clear();
        scratch.test_scores.extend_from_slice(&[0.2, 0.5, 0.8]);
        kernel.p_values_into(0, &mut scratch);
        assert_eq!(scratch.p_values, reference);
    }

    #[test]
    fn scratch_reuse_is_stateless_across_samples() {
        let kernel = kernel_fixture(120, 50);
        let mut reused = JudgeScratch::new();
        for probe in [0.0, 17.0, 3.0, 55.0, 17.0] {
            kernel.select(&[probe], &mut reused);
            reused.test_scores.clear();
            reused.test_scores.extend_from_slice(&[0.3, 0.3, 0.3]);
            kernel.p_values_into(0, &mut reused);
            let from_reused = reused.p_values.clone();

            let mut fresh = JudgeScratch::new();
            kernel.select(&[probe], &mut fresh);
            fresh.test_scores.extend_from_slice(&[0.3, 0.3, 0.3]);
            kernel.p_values_into(0, &mut fresh);
            assert_eq!(from_reused, fresh.p_values, "probe {probe}");
        }
    }

    #[test]
    fn nearest_agrees_with_knn_helper_in_both_selection_modes() {
        for min_full in [10, 1000] {
            let kernel = kernel_fixture(60, min_full);
            let mut scratch = JudgeScratch::new();
            let mut out = Vec::new();
            for probe in [0.0, 7.2, 29.9] {
                kernel.select(&[probe], &mut scratch);
                kernel.nearest(&scratch, 3, &mut out);
                let expect = prom_ml::knn::k_nearest_flat(
                    kernel.embeddings_flat(),
                    kernel.dim(),
                    &[probe],
                    3,
                );
                assert_eq!(out, expect, "probe {probe}, min_full {min_full}");
            }
        }
    }

    #[test]
    fn nan_embedding_yields_zero_weights_and_zero_p_values() {
        // A NaN test embedding makes every distance NaN; the kernel maps
        // them to +inf, so every Eq. 1 weight is exactly 0 and positive
        // test scores get p = 0 on every label — a defined rejection, not
        // a panic, on both selection paths.
        for min_full in [200, 5] {
            let kernel = kernel_fixture(10, min_full);
            let mut scratch = JudgeScratch::new();
            kernel.select(&[f64::NAN], &mut scratch);
            assert_eq!(scratch.kept_count(), kernel.keep_count(), "min_full {min_full}");
            assert!(scratch.kept_sorted().iter().all(|&(_, w)| w == 0), "min_full {min_full}");
            scratch.test_scores.clear();
            scratch.test_scores.extend_from_slice(&[0.2, 0.5, 0.8]);
            kernel.p_values_into(0, &mut scratch);
            assert!(scratch.p_values.iter().all(|&p| p == 0.0), "min_full {min_full}");
        }
    }

    #[test]
    fn scratch_is_send_for_shard_threads() {
        fn assert_send<T: Send>() {}
        assert_send::<JudgeScratch>();
    }

    #[test]
    fn from_records_widens_to_largest_label() {
        use crate::nonconformity::Lac;
        let records = vec![
            CalibrationRecord::new(vec![0.0], vec![0.7, 0.3], 0),
            CalibrationRecord::new(vec![1.0], vec![0.2, 0.8], 1),
        ];
        // min_labels below the data's own range widens to cover label 1…
        let table = ScoreTable::from_records(&records, &Lac, 1);
        assert_eq!(table.n_labels(), 2);
        // …and above it wins outright.
        let table = ScoreTable::from_records(&records, &Lac, 5);
        assert_eq!(table.n_labels(), 5);
        assert_eq!(table.p_value(4, 0.0), 0.0);
    }

    #[test]
    fn kernel_insert_matches_rebuilt_kernel_on_both_selection_paths() {
        // Grow a kernel record-by-record and compare every p-value against
        // a kernel constructed from scratch with the same record order, in
        // both the keep-everything and nearest-fraction selection modes.
        for min_full in [1000, 20] {
            let full = kernel_fixture(60, min_full);
            let mut grown = kernel_fixture(40, min_full);
            for i in 40..60 {
                let scores: Vec<f64> =
                    (0..full.n_experts()).map(|e| full.cal_scores[e][i]).collect();
                grown.insert(full.embedding(i).to_vec(), full.labels()[i], &scores);
            }
            assert_eq!(grown.n_records(), full.n_records());
            let mut sa = JudgeScratch::new();
            let mut sb = JudgeScratch::new();
            for probe in [0.0, 3.3, 19.0, 29.5] {
                grown.select(&[probe], &mut sa);
                full.select(&[probe], &mut sb);
                for expert in 0..full.n_experts() {
                    for scratch in [&mut sa, &mut sb] {
                        scratch.test_scores.clear();
                        scratch.test_scores.extend_from_slice(&[0.2, 0.5, 0.8]);
                    }
                    grown.p_values_into(expert, &mut sa);
                    full.p_values_into(expert, &mut sb);
                    let a: Vec<u64> = sa.p_values.iter().map(|p| p.to_bits()).collect();
                    let b: Vec<u64> = sb.p_values.iter().map(|p| p.to_bits()).collect();
                    assert_eq!(a, b, "probe {probe}, expert {expert}, min_full {min_full}");
                }
            }
        }
    }

    #[test]
    fn kernel_replace_overwrites_in_place() {
        let mut kernel = kernel_fixture(10, 1000);
        kernel.replace(3, vec![99.0], 2, &[0.11, 0.22]);
        assert_eq!(kernel.embedding(3), &[99.0]);
        assert_eq!(kernel.labels()[3], 2);
        assert_eq!(kernel.cal_scores[0][3], 0.11);
        assert_eq!(kernel.cal_scores[1][3], 0.22);
        assert_eq!(kernel.n_records(), 10, "replace must not grow the kernel");
    }

    #[test]
    #[should_panic(expected = "one score per expert")]
    fn kernel_insert_rejects_ragged_scores() {
        let mut kernel = kernel_fixture(10, 1000);
        kernel.insert(vec![0.0], 0, &[0.5]);
    }

    #[test]
    fn unselected_labels_get_zero_p_value() {
        // All label-2 records are far away; with aggressive selection they
        // drop out and label 2's p-value must be 0.
        let embeddings: Vec<Vec<f64>> =
            (0..200).map(|i| vec![if i % 3 == 2 { 1.0e6 } else { i as f64 }]).collect();
        let labels: Vec<usize> = (0..200).map(|i| i % 3).collect();
        let scores = vec![0.5; 200];
        let kernel = ScoringKernel::new(
            embeddings,
            labels,
            3,
            vec![scores],
            SelectionConfig { fraction: 0.25, min_full_size: 10, tau: 100.0 },
        );
        let mut scratch = JudgeScratch::new();
        kernel.select(&[0.0], &mut scratch);
        scratch.test_scores.extend_from_slice(&[0.0, 0.0, 0.0]);
        kernel.p_values_into(0, &mut scratch);
        assert_eq!(scratch.p_values[2], 0.0);
        assert!(scratch.p_values[0] > 0.0);
    }
}
