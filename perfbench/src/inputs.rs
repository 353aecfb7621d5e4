//! Workload inputs, all made from the `--seed`.
//!
//! The deployed models and calibration sets are fitted from fixed seeds:
//! they are the system under test, the same in every run. The seed drives
//! what the system is fed: which pool samples arrive in which order, and
//! the order the synthetic base is cycled in.

use prom_baselines::NaiveCp;
use prom_core::calibration::CalibrationRecord;
use prom_core::committee::PromConfig;
use prom_core::detector::Sample;
use prom_core::predictor::PromClassifier;
use prom_eval::drift::{synthetic_base, BaseStream, DriftScenario, Schedule, ShiftKind};
use prom_eval::registry::{models_for, CaseId};
use prom_eval::scenario::{deployment_samples, fit_scenario, misprediction_flags};
use prom_eval::suite::SuiteScale;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::measure::process_cpu_secs;

/// Seed of the case-study model fits (the deployed models are fixed).
pub const FIT_SEED: u64 = 0;
/// Seed of the synthetic calibration worlds (fixed, like the models).
pub const WORLD_SEED: u64 = 0x05ee_dca1;
/// ε of the cold naive-CP detector served next to the hot committee.
pub const COLD_EPSILON: f64 = 0.1;
/// Classes of the synthetic worlds.
pub const SYNTH_CLASSES: usize = 4;
/// Embedding width of the synthetic worlds.
pub const SYNTH_DIM: usize = 8;
/// Records per class of `largecal-stream`'s calibration set (4,096 in all).
pub const LARGECAL_PER_CLASS: usize = 1024;
/// Records per class of `online-relabel`'s initial calibration set.
pub const ONLINE_PER_CLASS: usize = 256;
/// τ of the synthetic workloads' Eq. 1 weights (their distances are a few
/// units, so the case studies' τ of several hundred would weight nothing).
pub const SYNTH_TAU: f64 = 20.0;

/// Mixes a workload seed with a stream tag (splitmix64), so every stream
/// of a run gets its own independent RNG.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One fitted case study: its deployment pools with misprediction truth,
/// the hot Prom committee and the cold naive-CP detector.
pub struct Case {
    /// Short name for tables (`C2`, `C3`).
    pub name: &'static str,
    /// The i.i.d. test pool as model outputs.
    pub iid: Vec<Sample>,
    /// The drifted test pool as model outputs.
    pub drift: Vec<Sample>,
    /// Whether the model mispredicts each i.i.d. pool sample.
    pub iid_mispredicted: Vec<bool>,
    /// Whether the model mispredicts each drifted pool sample.
    pub drift_mispredicted: Vec<bool>,
    /// The hot detector: the full Prom committee.
    pub hot: PromClassifier,
    /// The cold detector: naive split conformal prediction.
    pub cold: NaiveCp,
}

/// Fits `models_for(case)[0]` at full scale and builds both detectors.
/// Also returns the process CPU seconds spent fitting and building the
/// detectors — the set-up work `setup_s` times; running the model over
/// the test pools afterwards makes the inputs and is not counted.
pub fn fit_case(case: CaseId, name: &'static str) -> (Case, f64) {
    let started = process_cpu_secs();
    let scale = SuiteScale { seed: FIT_SEED, ..SuiteScale::default() };
    let fitted = fit_scenario(&scale.scenario(case, models_for(case)[0]));
    let cold = NaiveCp::new(&fitted.records, COLD_EPSILON);
    let setup = process_cpu_secs() - started;
    let iid = deployment_samples(&fitted.model, &fitted.data.iid_test);
    let drift = deployment_samples(&fitted.model, &fitted.data.drift_test);
    let case = Case {
        name,
        iid_mispredicted: misprediction_flags(&fitted.data.iid_test, &iid),
        drift_mispredicted: misprediction_flags(&fitted.data.drift_test, &drift),
        iid,
        drift,
        hot: fitted.prom,
        cold,
    };
    (case, setup)
}

/// The two case studies `casestudy-serve` serves, in serving order — C2
/// loop vectorization, then C3 heterogeneous device mapping — with the
/// summed set-up seconds of both.
pub fn fit_cases() -> ([Case; 2], f64) {
    let (c2, s2) = fit_case(CaseId::Vectorization, "C2");
    let (c3, s3) = fit_case(CaseId::Devmap, "C3");
    ([c2, c3], s2 + s3)
}

/// One position of a case-study stream: a pool and an index into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolRef {
    /// Drawn from the drifted pool (else the i.i.d. pool).
    pub drifted: bool,
    /// Index into that pool.
    pub index: u32,
}

/// A case-study stream of `n` samples: the first half drawn uniformly
/// from the i.i.d. pool, the rest from the drifted pool. `tag` names the
/// stream within a run (a reference segment, a closed-loop round).
pub fn case_stream(case: &Case, seed: u64, tag: u64, n: usize) -> Vec<PoolRef> {
    let mut rng = StdRng::seed_from_u64(mix(seed, tag));
    (0..n)
        .map(|i| {
            let drifted = i >= n / 2;
            let pool = if drifted { case.drift.len() } else { case.iid.len() };
            let index = u32::try_from(rng.gen_range(0..pool)).expect("pools are small");
            PoolRef { drifted, index }
        })
        .collect()
}

impl Case {
    /// The samples a stream refers to.
    pub fn materialize(&self, stream: &[PoolRef]) -> Vec<Sample> {
        stream.iter().map(|r| self.sample(*r).clone()).collect()
    }

    /// The sample at one stream position.
    pub fn sample(&self, r: PoolRef) -> &Sample {
        let pool = if r.drifted { &self.drift } else { &self.iid };
        &pool[r.index as usize]
    }

    /// Whether the model mispredicts the sample at one stream position.
    pub fn mispredicted(&self, r: PoolRef) -> bool {
        let flags = if r.drifted { &self.drift_mispredicted } else { &self.iid_mispredicted };
        flags[r.index as usize]
    }
}

/// A synthetic calibration world: the clean base pool and an independent
/// calibration draw from the same distribution.
pub struct World {
    /// The clean pool streams are cycled from.
    pub base: BaseStream,
    /// The calibration records detectors are built from.
    pub records: Vec<CalibrationRecord>,
}

/// The synthetic world with `per_class` records per class.
pub fn world(per_class: usize) -> World {
    let (base, records) = synthetic_base(SYNTH_CLASSES, SYNTH_DIM, per_class, WORLD_SEED);
    World { base, records }
}

/// The Prom configuration of the synthetic workloads.
pub fn synth_config() -> PromConfig {
    PromConfig { tau: SYNTH_TAU, ..PromConfig::default() }
}

/// Builds the hot detector over a synthetic world. Generating the world
/// (the synthetic workloads' stand-in for fitting) and this are the
/// set-up work `setup_s` times there.
pub fn synth_detector(records: &[CalibrationRecord]) -> PromClassifier {
    PromClassifier::new(records.to_vec(), synth_config()).expect("synthetic records are valid")
}

/// A generated stream with ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// Samples in stream order.
    pub samples: Vec<Sample>,
    /// Ground-truth class per sample (what the relabel oracle answers).
    pub labels: Vec<usize>,
    /// Whether the generating distribution was drifted at each position.
    pub drifted: Vec<bool>,
}

impl Stream {
    /// Whether the model's argmax prediction at position `i` is wrong.
    pub fn mispredicted(&self, i: usize) -> bool {
        prom_ml::matrix::argmax(&self.samples[i].outputs) != self.labels[i]
    }

    /// Whether position `i` is a drifted sample of the second half.
    pub fn late_drift(&self, i: usize) -> bool {
        i >= self.samples.len() / 2 && self.drifted[i]
    }
}

/// `n` samples cycled from a seeded shuffle of `base`, under `schedule`'s
/// translate drift. The drift direction is part of the workload, fixed
/// like the world: a random direction per seed would move the quality
/// metrics more than any change to the engine could.
fn drifted_stream(
    base: &BaseStream,
    seed: u64,
    n: usize,
    schedule: Schedule,
    magnitude: f64,
) -> Stream {
    let mut order: Vec<usize> = (0..base.samples.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(mix(seed, 1)));
    let shuffled = BaseStream::new(
        order.iter().map(|&i| base.samples[i].clone()).collect(),
        order.iter().map(|&i| base.labels[i]).collect(),
    );
    let scenario =
        DriftScenario::single(ShiftKind::Translate, schedule, magnitude, mix(WORLD_SEED, 2));
    let generated = scenario.generate(&shuffled, n);
    Stream {
        samples: generated.samples,
        labels: generated.labels,
        drifted: generated.annotations.iter().map(|a| a.drifted).collect(),
    }
}

/// `largecal-stream`'s input: clean for the first half, then a gradual
/// translate drift that ramps in over the third quarter.
pub fn largecal_stream(base: &BaseStream, seed: u64, n: usize) -> Stream {
    let schedule = Schedule::Gradual { start: n / 2, len: (n / 4).max(1) };
    drifted_stream(base, seed, n, schedule, 1.5)
}

/// `online-relabel`'s input: a translate drift that recurs every quarter
/// of the stream, drifted for the second half of each quarter.
pub fn online_stream(base: &BaseStream, seed: u64, n: usize) -> Stream {
    let schedule = Schedule::Recurring { period: (n / 4).max(1), duty: 0.5 };
    drifted_stream(base, seed, n, schedule, 2.0)
}
