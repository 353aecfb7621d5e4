//! The correctness check: every served window report is compared with a
//! synchronous pipeline replay of the same stream, outside the timed
//! window. One producer makes admission order equal submission order, so
//! the two must agree bit for bit.

use prom_core::detector::{DriftDetector, Sample, Truth};
use prom_core::pipeline::{
    DeploymentPipeline, MultiPipeline, MultiReport, PipelineConfig, WindowReport,
};

/// Replays `samples` through a synchronous single-detector pipeline:
/// frozen when `labels` is `None`, online (the oracle answering
/// `labels[i]`) otherwise.
pub fn replay_single(
    detector: &mut dyn DriftDetector,
    config: PipelineConfig,
    samples: &[Sample],
    labels: Option<&[usize]>,
) -> Vec<WindowReport> {
    let mut pipeline = match labels {
        None => DeploymentPipeline::new(detector, config),
        Some(labels) => DeploymentPipeline::online(detector, config, move |i, _: &Sample| {
            labels.get(i).map(|&l| Truth::Label(l))
        }),
    };
    let mut reports = pipeline.extend(samples.iter().cloned());
    while let Some(report) = pipeline.flush() {
        reports.push(report);
    }
    reports
}

/// Failed samples of a served single-detector report sequence against a
/// stored reference (see `window_failures`).
pub fn failures(served: &[WindowReport], reference: &[WindowReport]) -> u64 {
    reference
        .iter()
        .enumerate()
        .map(|(w, theirs)| match served.get(w) {
            Some(ours) => window_failures(&[ours], &[theirs]),
            None => theirs.judgements.len() as u64,
        })
        .sum()
}

/// Replays `samples` through a synchronous frozen multi-detector pipeline
/// window by window, comparing each replayed window with the served one
/// as it comes (no reference is stored), and returns the failed samples.
pub fn check_multi(
    served: &[MultiReport],
    detectors: Vec<&dyn DriftDetector>,
    config: PipelineConfig,
    samples: impl IntoIterator<Item = Sample>,
) -> u64 {
    let mut pipeline = MultiPipeline::new(detectors, config);
    let mut failed = 0;
    let mut window = 0;
    let mut compare = |theirs: MultiReport| {
        let theirs: Vec<&WindowReport> = theirs.reports.iter().collect();
        failed += match served.get(window) {
            Some(ours) => window_failures(&ours.reports.iter().collect::<Vec<_>>(), &theirs),
            None => theirs.first().map_or(0, |r| r.judgements.len() as u64),
        };
        window += 1;
    };
    for sample in samples {
        if let Some(report) = pipeline.push(sample) {
            compare(report);
        }
    }
    while let Some(report) = pipeline.flush() {
        compare(report);
    }
    failed
}

/// Failed samples of one window, given each detector's served and
/// replayed report: a sample fails when any detector's flat judgement
/// differs or is missing, or when the window's bookkeeping differs
/// (start, flags, absorbed and replaced counts, calibration size); every
/// relabel pick only one side made counts once more.
fn window_failures(served: &[&WindowReport], reference: &[&WindowReport]) -> u64 {
    let len = reference.first().map_or(0, |r| r.judgements.len());
    let mut bad = vec![served.len() != reference.len(); len];
    let mut pick_diff = 0u64;
    for (ours, theirs) in served.iter().zip(reference) {
        let same_window = ours.start == theirs.start
            && ours.flagged == theirs.flagged
            && ours.absorbed == theirs.absorbed
            && ours.replaced == theirs.replaced
            && ours.calibration_size == theirs.calibration_size;
        for (i, slot) in bad.iter_mut().enumerate() {
            if !same_window || ours.judgements.get(i) != theirs.judgements.get(i) {
                *slot = true;
            }
        }
        pick_diff += ours.relabel.iter().filter(|i| !theirs.relabel.contains(i)).count() as u64;
        pick_diff += theirs.relabel.iter().filter(|i| !ours.relabel.contains(i)).count() as u64;
    }
    bad.iter().filter(|b| **b).count() as u64 + pick_diff
}
