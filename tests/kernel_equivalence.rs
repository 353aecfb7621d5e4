//! Kernel equivalence: the hardware-fast distance kernel (blocked SoA
//! calibration store, chunked squared-distance accumulation, norm-bound
//! pruning with partial-distance early exit, `select_nth_unstable` k-NN)
//! exists purely to make judging faster — it must never change an output
//! bit. This tier proves, end to end:
//!
//! * **p-values are bit-identical to the scalar reference** — the retained
//!   `select_weighted_subset` full-sort path plus the shared `p_values`
//!   arithmetic — for every `ScoringKernel` selection regime
//!   (keep-everything, partition, norm-bound pruned heap) across
//!   calibration sizes {1, 7, 1000} × embedding dims {1, 3, 17}, on
//!   in-distribution, drifted, exact-duplicate, and NaN test embeddings
//!   (the NaN → +inf distance rule must survive squared-distance space);
//! * **judgements follow**: every `PromClassifier::judge` equals
//!   re-thresholding the reference p-values;
//! * **incremental state keeps the invariant**: after `insert_record` /
//!   `replace_record_at` (including duplicate embeddings), the optimized
//!   store and its cached norms still reproduce the reference bit-for-bit;
//! * **k-NN is order-identical**: `k_nearest` / `k_nearest_flat` equal a
//!   full-sort reference under the canonical `(d², index)` key, duplicate
//!   distances and NaN rows included;
//! * **all five detectors are deterministic through the new kernel**:
//!   `judge_batch` equals a per-sample `judge_one` loop and two identical
//!   constructions agree bit-for-bit;
//! * **the fused fan-out changes nothing**: `MultiPipeline::fanout` over N
//!   threshold configurations reports bit-identically to N standalone
//!   `PromClassifier`s judging the same stream;
//! * **many-class test scores are exact**: on 35-label records shaped like
//!   case study C2, with tie-heavy and zero-heavy probability vectors,
//!   `judge`, `judge_batch`, the fused fan-out and `expert_p_values` (all
//!   fed by the shared rank/mass test-score pass) equal the per-label
//!   reference;
//! * **threshold ties straddling `keep` stay exact**: with many records
//!   at exactly the threshold distance across several labels, the
//!   blocked and single-query selections equal the reference, and after
//!   a label-changing `replace` and a mid-store `remove` the edited
//!   kernel judges bit-identically to a freshly built one;
//! * **(proptest)** duplicate-heavy integer-grid embeddings — maximal tie
//!   mass at the keep boundary — and NaN probes never separate the
//!   optimized paths from the reference.

use proptest::prelude::*;

use prom::baselines::tesseract::LabeledOutcome;
use prom::baselines::{NaiveCp, Rise, Tesseract};
use prom::core::calibration::{select_weighted_subset, CalibrationRecord, SelectionConfig};
use prom::core::committee::PromConfig;
use prom::core::detector::{DriftDetector, Sample};
use prom::core::nonconformity::default_committee;
use prom::core::pipeline::{MultiPipeline, PipelineConfig};
use prom::core::predictor::PromClassifier;
use prom::core::pvalue::{p_values, ScoredSample};
use prom::core::regression::{ClusterChoice, PromRegressor, PromRegressorConfig, RegressionRecord};
use prom::core::scoring::{JudgeScratch, ScoringKernel};
use prom::ml::knn::{k_nearest, k_nearest_flat};
use prom::ml::matrix::{argmax, l2_distance_sq};

const SIZES: [usize; 3] = [1, 7, 1000];
const DIMS: [usize; 3] = [1, 3, 17];

/// One configuration per `ScoringKernel` selection regime. The names
/// document which code path each engages at n = 1000: keep-everything
/// (n < min_full_size), the `select_nth_unstable` partition
/// (keep = n/2 > n/4), and the norm-bound pruned heap (keep = n/10 ≤ n/4).
fn path_configs() -> [(&'static str, PromConfig); 3] {
    let base = PromConfig { tau: 10.0, ..PromConfig::default() };
    [
        ("all-kept", PromConfig { min_full_size: 1_000_000, ..base.clone() }),
        ("partition", PromConfig { selection_fraction: 0.5, min_full_size: 1, ..base.clone() }),
        ("pruned", PromConfig { selection_fraction: 0.1, min_full_size: 1, ..base }),
    ]
}

/// Three-cluster calibration set with exact-duplicate embeddings (every
/// fifth record repeats its predecessor, seeding duplicate distances at
/// every selection boundary) and imperfect model confidence.
fn records(n: usize, dim: usize) -> Vec<CalibrationRecord> {
    let mut out: Vec<CalibrationRecord> = Vec::with_capacity(n);
    for i in 0..n {
        let label = i % 3;
        let embedding: Vec<f64> = if i % 5 == 4 {
            out[i - 1].embedding.clone()
        } else {
            (0..dim).map(|d| label as f64 * 4.0 + ((i * 31 + d * 7) as f64 * 0.37).sin()).collect()
        };
        let conf = 0.55 + 0.4 * ((i * 13 % 23) as f64 / 23.0);
        let assigned = if i % 9 == 4 { (label + 1) % 3 } else { label };
        let mut probs = vec![(1.0 - conf) / 2.0; 3];
        probs[assigned] = conf;
        out.push(CalibrationRecord::new(embedding, probs, label));
    }
    out
}

/// Test embeddings covering each equivalence-relevant regime: a probe
/// equal to a calibration embedding (distance-0 ties), an in-distribution
/// probe, a drifted probe, and a NaN probe.
fn probes(records: &[CalibrationRecord], dim: usize) -> Vec<Vec<f64>> {
    let mut nan_probe = vec![0.5; dim];
    nan_probe[0] = f64::NAN;
    vec![
        records[0].embedding.clone(),
        (0..dim).map(|d| 4.0 + (d as f64 * 0.11).cos() * 0.3).collect(),
        vec![300.0; dim],
        nan_probe,
    ]
}

/// The scalar reference: full-sort subset selection
/// (`select_weighted_subset`, the documented reference path) feeding the
/// shared weighted p-value arithmetic — no SoA store, no partition, no
/// pruning, no early exit.
fn reference_p_values(
    records: &[CalibrationRecord],
    config: &PromConfig,
    embedding: &[f64],
    probs: &[f64],
) -> Vec<Vec<f64>> {
    let rows: Vec<Vec<f64>> = records.iter().map(|r| r.embedding.clone()).collect();
    let selection = select_weighted_subset(
        &rows,
        embedding,
        &SelectionConfig {
            fraction: config.selection_fraction,
            min_full_size: config.min_full_size,
            tau: config.tau,
        },
    );
    default_committee()
        .iter()
        .map(|expert| {
            let samples: Vec<ScoredSample> = selection
                .iter()
                .map(|s| ScoredSample {
                    label: records[s.index].label,
                    adjusted_score: s.weight
                        * expert.score(&records[s.index].probs, records[s.index].label),
                })
                .collect();
            let test_scores: Vec<f64> = (0..probs.len()).map(|y| expert.score(probs, y)).collect();
            p_values(&samples, &test_scores)
        })
        .collect()
}

fn assert_p_value_bits_eq(optimized: &[Vec<f64>], reference: &[Vec<f64>], context: &str) {
    assert_eq!(optimized.len(), reference.len(), "{context}: expert counts diverge");
    for (e, (po, pr)) in optimized.iter().zip(reference).enumerate() {
        assert_eq!(po.len(), pr.len(), "{context}: label counts diverge, expert {e}");
        for (y, (o, r)) in po.iter().zip(pr).enumerate() {
            assert_eq!(
                o.to_bits(),
                r.to_bits(),
                "{context}: p-value bits diverge, expert {e} label {y} ({o} vs {r})"
            );
        }
    }
}

/// Runs the full p-value + judgement equivalence check for one classifier
/// against the scalar reference over `records`.
fn assert_classifier_matches_reference(
    prom: &PromClassifier,
    records: &[CalibrationRecord],
    config: &PromConfig,
    dim: usize,
    context: &str,
) {
    let probs_cases = [vec![0.8, 0.1, 0.1], vec![0.34, 0.33, 0.33]];
    for (p, probe) in probes(records, dim).iter().enumerate() {
        for probs in &probs_cases {
            let reference = reference_p_values(records, config, probe, probs);
            let optimized = prom.expert_p_values(probe, probs);
            assert_p_value_bits_eq(&optimized, &reference, &format!("{context}, probe {p}"));
            assert_eq!(
                prom.judge(probe, probs),
                prom.judgement_from_p_values(&reference, argmax(probs), config),
                "{context}, probe {p}: judgement diverges from re-thresholded reference"
            );
        }
    }
}

#[test]
fn classifier_p_values_match_scalar_reference_across_sizes_dims_and_paths() {
    for size in SIZES {
        for dim in DIMS {
            let records = records(size, dim);
            for (path, config) in path_configs() {
                let prom = PromClassifier::new(records.clone(), config.clone()).unwrap();
                assert_classifier_matches_reference(
                    &prom,
                    &records,
                    &config,
                    dim,
                    &format!("n={size} dim={dim} path={path}"),
                );
            }
        }
    }
}

#[test]
fn post_insert_and_replace_state_still_matches_the_reference() {
    for dim in DIMS {
        let (path, config) = path_configs()[2].clone(); // pruned: norms must track edits
        let mut prom = PromClassifier::new(records(120, dim), config.clone()).unwrap();
        // Grow through the incremental path, duplicates included.
        for record in records(160, dim).into_iter().skip(120) {
            prom.insert_record(record).unwrap();
        }
        // Replace across the store: a far record (stressing the norm
        // bound), an exact duplicate of a neighbour, and a boundary slot.
        let far = CalibrationRecord::new(vec![250.0; dim], vec![0.2, 0.7, 0.1], 1);
        prom.replace_record_at(7, far).unwrap();
        let duplicate = prom.records()[62].clone();
        prom.replace_record_at(63, duplicate).unwrap();
        let last = prom.records().len() - 1;
        let swap = prom.records()[0].clone();
        prom.replace_record_at(last, swap).unwrap();
        // The reference is rebuilt from the classifier's own live records,
        // so any stale store row, label, score, or cached norm shows up.
        let live: Vec<CalibrationRecord> = prom.records().to_vec();
        assert_classifier_matches_reference(
            &prom,
            &live,
            &config,
            dim,
            &format!("post-edit dim={dim} path={path}"),
        );
    }
}

/// Full-sort k-NN reference under the canonical `(d², index)` key.
fn reference_knn(rows: &[Vec<f64>], query: &[f64], k: usize) -> Vec<usize> {
    let mut dist: Vec<(f64, usize)> = rows
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let d2 = l2_distance_sq(row, query);
            (if d2.is_nan() { f64::INFINITY } else { d2 }, i)
        })
        .collect();
    dist.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    dist.into_iter().take(k).map(|(_, i)| i).collect()
}

#[test]
fn k_nearest_orderings_match_the_full_sort_reference() {
    for size in SIZES {
        for dim in DIMS {
            let mut rows: Vec<Vec<f64>> =
                records(size, dim).into_iter().map(|r| r.embedding).collect();
            if size > 2 {
                rows[size / 2] = vec![f64::NAN; dim]; // NaN row sorts last, stably
            }
            let flat: Vec<f64> = rows.iter().flatten().copied().collect();
            for query in probes(&records(size, dim), dim) {
                for k in [1, 3, size, size + 5] {
                    let reference = reference_knn(&rows, &query, k);
                    assert_eq!(
                        k_nearest(&rows, &query, k),
                        reference,
                        "k_nearest diverges: n={size} dim={dim} k={k}"
                    );
                    assert_eq!(
                        k_nearest_flat(&flat, dim, &query, k),
                        reference,
                        "k_nearest_flat diverges: n={size} dim={dim} k={k}"
                    );
                }
            }
        }
    }
}

fn classification_stream(n: usize, dim: usize) -> Vec<Sample> {
    (0..n)
        .map(|i| {
            let drifted = i % 4 == 0;
            let shift = if drifted { 400.0 } else { 0.0 };
            let label = i % 3;
            let embedding: Vec<f64> = if i % 6 == 5 {
                vec![f64::NAN; dim] // the +inf rule must hold end to end
            } else {
                (0..dim)
                    .map(|d| label as f64 * 4.0 + shift + ((i * 17 + d * 3) as f64 * 0.29).sin())
                    .collect()
            };
            let conf = if drifted { 0.4 } else { 0.55 + 0.4 * ((i * 13 % 23) as f64 / 23.0) };
            let mut probs = vec![(1.0 - conf) / 2.0; 3];
            probs[label] = conf;
            Sample::new(embedding, probs)
        })
        .collect()
}

/// `judge_batch` == per-sample `judge_one` loop, and two identical
/// constructions agree — for one detector and stream.
fn assert_deterministic(a: &dyn DriftDetector, b: &dyn DriftDetector, stream: &[Sample]) {
    let batch = a.judge_batch(stream);
    let looped: Vec<_> = stream.iter().map(|s| a.judge_one(&s.embedding, &s.outputs)).collect();
    assert_eq!(batch, looped, "{}: batch vs looped", a.name());
    assert_eq!(batch, b.judge_batch(stream), "{}: twin construction diverges", a.name());
}

#[test]
fn all_five_detectors_judge_deterministically_through_the_new_kernel() {
    for size in [7, 1000] {
        for dim in DIMS {
            let records = records(size, dim);
            let stream = classification_stream(61, dim);
            let config = path_configs()[2].1.clone();

            let prom_a = PromClassifier::new(records.clone(), config.clone()).unwrap();
            let prom_b = PromClassifier::new(records.clone(), config).unwrap();
            assert_deterministic(&prom_a, &prom_b, &stream);

            assert_deterministic(
                &NaiveCp::new(&records, 0.1),
                &NaiveCp::new(&records, 0.1),
                &stream,
            );

            let validation: Vec<LabeledOutcome> = stream
                .iter()
                .enumerate()
                .map(|(i, s)| LabeledOutcome { probs: s.outputs.clone(), correct: i % 4 != 0 })
                .collect();
            assert_deterministic(
                &Tesseract::fit(&records, &validation, 3),
                &Tesseract::fit(&records, &validation, 3),
                &stream,
            );
            assert_deterministic(
                &Rise::fit(&records, &validation, 0.1),
                &Rise::fit(&records, &validation, 0.1),
                &stream,
            );

            let reg_records: Vec<RegressionRecord> = (0..size.max(6))
                .map(|i| {
                    let x: Vec<f64> =
                        (0..dim).map(|d| ((i * 7 + d) as f64 * 0.13).sin() * 2.0).collect();
                    let target = x.iter().sum::<f64>();
                    RegressionRecord::new(x, target + ((i as f64) * 0.41).cos() * 0.3, target)
                })
                .collect();
            let reg_config =
                PromRegressorConfig { clusters: ClusterChoice::Fixed(3), ..Default::default() };
            let reg_stream: Vec<Sample> = (0..41)
                .map(|i| {
                    let x: Vec<f64> =
                        (0..dim).map(|d| ((i * 5 + d) as f64 * 0.17).sin() * 2.0).collect();
                    let y = x.iter().sum::<f64>() + if i % 3 == 0 { 10.0 } else { 0.0 };
                    Sample::regression(x, y)
                })
                .collect();
            assert_deterministic(
                &PromRegressor::new(reg_records.clone(), reg_config.clone()).unwrap(),
                &PromRegressor::new(reg_records, reg_config).unwrap(),
                &reg_stream,
            );
        }
    }
}

#[test]
fn fused_fanout_reports_match_standalone_classifiers() {
    let records = records(160, 3);
    let configs: Vec<PromConfig> = [0.02, 0.1, 0.3]
        .iter()
        .map(|&eps| PromConfig { epsilon: eps, ..path_configs()[2].1.clone() })
        .collect();
    let base = PromClassifier::new(records.clone(), configs[1].clone()).unwrap();
    let standalone: Vec<PromClassifier> =
        configs.iter().map(|c| PromClassifier::new(records.clone(), c.clone()).unwrap()).collect();
    let stream = classification_stream(47, 3);

    let pipeline_config = PipelineConfig { window: 9, shards: 2, ..Default::default() };
    let run = |mut p: MultiPipeline<'_>| {
        let mut reports = p.extend(stream.iter().cloned());
        while let Some(r) = p.flush() {
            reports.push(r);
        }
        reports
    };
    let fused = run(MultiPipeline::fanout(&base, configs.clone(), pipeline_config).unwrap());
    let refs: Vec<&dyn DriftDetector> =
        standalone.iter().map(|d| d as &dyn DriftDetector).collect();
    let independent = run(MultiPipeline::new(refs, pipeline_config));
    assert_eq!(fused.len(), independent.len());
    for (f, ind) in fused.iter().zip(&independent) {
        for (fr, ir) in f.reports.iter().zip(&ind.reports) {
            assert_eq!(fr.judgements, ir.judgements);
            assert_eq!(fr.flagged, ir.flagged);
            assert_eq!(fr.relabel, ir.relabel);
        }
    }
}

/// Labels of the many-class case: C2's 35 vectorization classes.
const MANY: usize = 35;

/// A probability vector over [`MANY`] labels from integer weights, so
/// equal weights give exactly equal probabilities (division by the same
/// total keeps ties) and zero weights give exact zeros.
fn normalized(weights: &[u32]) -> Vec<f64> {
    let total: u32 = weights.iter().sum();
    weights.iter().map(|&w| f64::from(w) / f64::from(total)).collect()
}

/// Tie-heavy and zero-heavy probability vectors: weights from {0, 1, 2}
/// (every value shared by about a dozen labels), one or two non-zero
/// labels among 35, a flat vector, and a two-way tie at the top.
fn many_class_probs(seed: usize) -> Vec<Vec<f64>> {
    let tied: Vec<u32> = (0..MANY).map(|y| ((y * 7 + seed) % 3) as u32).collect();
    let mut sparse = vec![0; MANY];
    sparse[seed % MANY] = 3;
    sparse[(seed * 11 + 5) % MANY] = 1;
    let mut spike = vec![0; MANY];
    spike[(seed * 3) % MANY] = 1;
    let mut top_tie = vec![1; MANY];
    top_tie[seed % MANY] = 9;
    top_tie[(seed + 17) % MANY] = 9;
    [tied, sparse, spike, vec![1; MANY], top_tie].iter().map(|w| normalized(w)).collect()
}

/// Calibration records shaped like C2: 35 labels, a few records each,
/// clustered embeddings with exact duplicates, and tie-heavy or
/// zero-heavy model outputs (sometimes confidently wrong).
fn many_class_records(per_label: usize, dim: usize) -> Vec<CalibrationRecord> {
    let mut out: Vec<CalibrationRecord> = Vec::with_capacity(per_label * MANY);
    for i in 0..per_label * MANY {
        let label = i % MANY;
        let embedding: Vec<f64> = if i % 5 == 4 {
            out[i - 1].embedding.clone()
        } else {
            (0..dim).map(|d| label as f64 * 0.5 + ((i * 31 + d * 7) as f64 * 0.37).sin()).collect()
        };
        let cases = many_class_probs(i);
        let mut weights: Vec<u32> =
            cases[i % cases.len()].iter().map(|&p| (p * 1000.0).round() as u32).collect();
        weights[if i % 7 == 3 { (label + 1) % MANY } else { label }] += 500;
        out.push(CalibrationRecord::new(embedding, normalized(&weights), label));
    }
    out
}

#[test]
fn many_class_judgements_match_the_per_label_reference() {
    let dim = 9;
    let records = many_class_records(8, dim);
    for (path, config) in path_configs() {
        let prom = PromClassifier::new(records.clone(), config.clone()).unwrap();
        let fanned: Vec<PromConfig> = [0.02, 0.1, 0.3]
            .iter()
            .map(|&epsilon| PromConfig { epsilon, ..config.clone() })
            .collect();
        let mut samples = Vec::new();
        let mut references = Vec::new();
        for (p, probe) in probes(&records, dim).into_iter().enumerate() {
            for probs in many_class_probs(p) {
                let reference = reference_p_values(&records, &config, &probe, &probs);
                let context = format!("path={path} probe {p} probs {probs:?}");
                assert_p_value_bits_eq(&prom.expert_p_values(&probe, &probs), &reference, &context);
                assert_eq!(
                    prom.judge(&probe, &probs),
                    prom.judgement_from_p_values(&reference, argmax(&probs), &config),
                    "{context}: judge diverges from the reference"
                );
                samples.push(Sample::new(probe.clone(), probs));
                references.push(reference);
            }
        }
        let expected = |config: &PromConfig| -> Vec<_> {
            samples
                .iter()
                .zip(&references)
                .map(|(s, r)| prom.judgement_from_p_values(r, argmax(&s.outputs), config))
                .collect()
        };
        assert_eq!(prom.judge_batch(&samples), expected(&config), "path={path}: judge_batch");
        let mut scratch = JudgeScratch::new();
        let fanout = prom.judge_batch_fanout_scratch(&samples, &fanned, &mut scratch);
        for (c, judged) in fanned.iter().zip(&fanout) {
            assert_eq!(judged, &expected(c), "path={path} epsilon={}: fan-out", c.epsilon);
        }
    }
}

/// A calibration set built around the origin so that the 50% keep
/// boundary lands inside a large tie class: 12 records at squared
/// distance 1, 24 at exactly 4 (only 12 of them fit) and 12 at 9, all
/// dim 2 and exactly representable, labels cycling over four classes so
/// every label holds records on both sides of the cut.
fn straddling_ties() -> (Vec<Vec<f64>>, Vec<usize>, Vec<Vec<f64>>) {
    let ring = |r: f64, i: usize| -> Vec<f64> {
        match i % 4 {
            0 => vec![r, 0.0],
            1 => vec![0.0, r],
            2 => vec![-r, 0.0],
            _ => vec![0.0, -r],
        }
    };
    let mut embeddings = Vec::new();
    // Interleave the rings so the tie class is spread over the index
    // range rather than one contiguous run.
    for i in 0..48 {
        let r = match i % 4 {
            0 => 1.0,
            1 | 3 => 2.0,
            _ => 3.0,
        };
        embeddings.push(ring(r, i / 4));
    }
    let labels: Vec<usize> = (0..48).map(|i| (i * 7 / 3) % 4).collect();
    let scores: Vec<Vec<f64>> = (0..2)
        .map(|e| (0..48).map(|i| 0.05 + ((i * (5 + e) % 17) as f64 / 17.0)).collect())
        .collect();
    (embeddings, labels, scores)
}

/// Reference p-values of one expert: full-sort selection feeding the
/// shared p-value arithmetic.
fn reference_kernel_p_values(
    embeddings: &[Vec<f64>],
    labels: &[usize],
    scores: &[f64],
    selection: &SelectionConfig,
    query: &[f64],
    test_scores: &[f64],
) -> Vec<f64> {
    let samples: Vec<ScoredSample> = select_weighted_subset(embeddings, query, selection)
        .iter()
        .map(|s| ScoredSample {
            label: labels[s.index],
            adjusted_score: s.weight * scores[s.index],
        })
        .collect();
    p_values(&samples, test_scores)
}

/// Per-label test scores that sit exactly on a kept record's adjusted
/// score, so a single flipped weight bit changes a count.
fn boundary_test_scores(
    embeddings: &[Vec<f64>],
    labels: &[usize],
    scores: &[f64],
    selection: &SelectionConfig,
    query: &[f64],
) -> Vec<f64> {
    let mut out = vec![0.5; 4];
    for s in select_weighted_subset(embeddings, query, selection) {
        out[labels[s.index]] = s.weight * scores[s.index];
    }
    out
}

#[test]
fn straddling_threshold_ties_match_the_reference_through_edits() {
    let (mut embeddings, mut labels, mut scores) = straddling_ties();
    let selection = SelectionConfig { fraction: 0.5, min_full_size: 1, tau: 3.0 };
    let mut kernel = ScoringKernel::new(
        embeddings.clone(),
        labels.clone(),
        4,
        scores.clone(),
        selection.clone(),
    );
    assert!(!kernel.uses_pruned_path(), "keep 24 of 48 runs the full-pass select");
    let queries: Vec<Vec<f64>> =
        vec![vec![0.0, 0.0], vec![f64::NAN, 0.0], vec![1.0, 0.0], vec![0.5, -0.5]];

    for stage in ["built", "edited"] {
        if stage == "edited" {
            // A tie record changes label (and moves to the near ring),
            // then a record from the middle of the store goes.
            let new_embedding = vec![0.0, -1.0];
            let new_scores = [0.71, 0.33];
            let old_label = labels[5];
            let new_label = (old_label + 1) % 4;
            kernel.replace(5, new_embedding.clone(), new_label, &new_scores);
            embeddings[5] = new_embedding;
            labels[5] = new_label;
            for (table, &score) in scores.iter_mut().zip(&new_scores) {
                table[5] = score;
            }
            kernel.remove(21);
            embeddings.remove(21);
            labels.remove(21);
            for table in &mut scores {
                table.remove(21);
            }
        }
        let fresh = ScoringKernel::new(
            embeddings.clone(),
            labels.clone(),
            4,
            scores.clone(),
            selection.clone(),
        );
        let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
        let mut blocked = JudgeScratch::new();
        kernel.distance_block(&refs, &mut blocked);
        let mut single = JudgeScratch::new();
        let mut rebuilt = JudgeScratch::new();
        for (j, query) in queries.iter().enumerate() {
            kernel.select_from_block(j, query, &mut blocked);
            kernel.select(query, &mut single);
            fresh.select(query, &mut rebuilt);
            for (e, expert_scores) in scores.iter().enumerate() {
                let test_scores = if query[0].is_nan() {
                    vec![0.0, 0.2, 0.0, 0.9]
                } else {
                    boundary_test_scores(&embeddings, &labels, expert_scores, &selection, query)
                };
                let reference = reference_kernel_p_values(
                    &embeddings,
                    &labels,
                    expert_scores,
                    &selection,
                    query,
                    &test_scores,
                );
                for (path, scratch, kernel) in [
                    ("blocked", &mut blocked, &kernel),
                    ("single", &mut single, &kernel),
                    ("rebuilt", &mut rebuilt, &fresh),
                ] {
                    scratch.test_scores.clone_from(&test_scores);
                    kernel.p_values_into(e, scratch);
                    let got: Vec<u64> = scratch.p_values.iter().map(|p| p.to_bits()).collect();
                    let want: Vec<u64> = reference.iter().map(|p| p.to_bits()).collect();
                    assert_eq!(got, want, "{stage} {path}: query {j}, expert {e}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Integer-grid embeddings make almost every distance a duplicate, so
    /// the keep boundary of every selection regime lands on a tie class —
    /// exactly where `(d², index)` tie-breaking must agree between the
    /// partition, the pruned heap, the early exit, and the full-sort
    /// reference. A quarter of the cases probe with a NaN coordinate.
    #[test]
    fn kernel_paths_match_reference_under_duplicate_ties_and_nan(
        grid in proptest::collection::vec((0usize..3, 0i32..4), 4..48),
        dim in 1usize..5,
        probe_val in 0i32..4,
        nan_case in 0usize..4,
    ) {
        let records: Vec<CalibrationRecord> = grid
            .iter()
            .enumerate()
            .map(|(i, &(label, g))| {
                let conf = 0.55 + 0.4 * ((i % 7) as f64 / 7.0);
                let mut probs = vec![(1.0 - conf) / 2.0; 3];
                probs[label] = conf;
                CalibrationRecord::new(vec![f64::from(g); dim], probs, label)
            })
            .collect();
        let mut probe = vec![f64::from(probe_val); dim];
        if nan_case == 0 {
            probe[0] = f64::NAN;
        }
        let probs = vec![0.5, 0.3, 0.2];
        for (path, config) in path_configs() {
            let prom = PromClassifier::new(records.clone(), config.clone()).unwrap();
            let optimized = prom.expert_p_values(&probe, &probs);
            let reference = reference_p_values(&records, &config, &probe, &probs);
            for (po, pr) in optimized.iter().zip(&reference) {
                for (o, r) in po.iter().zip(pr) {
                    prop_assert_eq!(o.to_bits(), r.to_bits(), "path {}", path);
                }
            }
            let judged = prom.judge(&probe, &probs);
            let rethresholded =
                prom.judgement_from_p_values(&reference, argmax(&probs), &config);
            prop_assert_eq!(judged, rethresholded, "path {}", path);
        }
    }
}
