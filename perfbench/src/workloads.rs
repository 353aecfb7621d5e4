//! The three workloads and their metrics.
//!
//! Every workload serves through [`ServingFrontEnd`] with one producer
//! thread and runs alone, with `PipelineConfig::shards` fixed at 2. Each
//! served stream is checked against a synchronous replay (see
//! [`crate::check`]) outside the timed window.
//!
//! * `casestudy-serve` — the fitted C2 and C3 models, each served hot
//!   (Prom committee) and cold (naive CP) through `serve_multi`: open-loop
//!   segments at [`REF_RATE`] for detection quality (and wall-clock
//!   latency, printed), then closed-loop saturation rounds for the CPU
//!   cost per sample.
//! * `largecal-stream` — closed loop over a 4,096-record frozen Prom
//!   committee under a gradual translate drift, through `serve`.
//! * `online-relabel` — closed loop through `serve_online`: reservoir
//!   calibration, sliding base eviction, credibility-ranked relabeling
//!   with a ground-truth oracle, then a snapshot and restore.
//!
//! The gated timings are read from the process CPU clock
//! ([`process_cpu_secs`]) and scaled by the host's speed around each
//! measured call ([`HostSpeed::time_scaled`]): on a shared host the wall
//! clock measures how busy the host is, and two sets of runs of the same
//! code differ by more than any useful bound. Wall-clock throughput and
//! latency are printed in the report but not gated.

use std::sync::Arc;
use std::time::Instant;

use prom_core::detector::{DriftDetector, Judgement, Sample, Truth};
use prom_core::incremental::RelabelBudget;
use prom_core::metrics::{MetricsRegistry, MetricsSink};
use prom_core::pipeline::{
    BaseEviction, CalibrationPolicy, PipelineConfig, SelectionPolicy, WindowReport,
};
use prom_core::predictor::PromClassifier;
use prom_core::serving::{ServingConfig, ServingFrontEnd};
use prom_core::{LatencyHistogram, ReservoirCalibration, ShardPool};

use crate::check::{check_multi, failures, replay_single};
use crate::cli::{Args, Workload};
use crate::inputs::{self, mix, Case, Stream};
use crate::measure::{
    geomean, mean, median, pct_ms, peak_rss_mib, process_cpu_secs, ratio, steal_seconds, HostSpeed,
    Interval, Quality,
};
use crate::report::{metric, Metric, RunResult};
use crate::serve::{produce, Pace, Submitted};
use crate::trace::{self, OnlineFold, StageReplay, Tracer};

/// Shard workers of every served pipeline.
pub const SHARDS: usize = 2;
/// Window of every served pipeline.
pub const WINDOW: usize = 64;
/// Admission queue of every front-end.
pub const QUEUE: usize = 256;
/// Offered rate of `casestudy-serve`'s reference phase, samples/s.
pub const REF_RATE: f64 = 20_000.0;
/// Relabel budget of `online-relabel`.
pub const ONLINE_BUDGET: RelabelBudget = RelabelBudget { fraction: 0.1, min_count: 1 };
/// Reservoir capacity of `online-relabel`.
pub const RESERVOIR_CAP: usize = 256;
/// Base records `online-relabel`'s sliding window never evicts past.
pub const MIN_BASE: usize = 512;
/// Stream positions the restored detector is probed on.
const SNAPSHOT_PROBE: usize = 512;

/// How much work a run does.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Seconds the run measures.
    pub seconds: f64,
    /// Set-up repetitions `setup_s` is the mean of on the synthetic
    /// workloads, spread over the run (`casestudy-serve` times seven fits).
    pub setup_reps: usize,
    /// Samples per `online-relabel` stream (`largecal-stream`: a quarter;
    /// `casestudy-serve`: a quarter per saturation round).
    pub stream_len: usize,
    /// Segments of `casestudy-serve`'s reference phase, per case.
    pub segments: usize,
    /// Streams `online-relabel` cycles through; its quality metrics pool
    /// them.
    pub online_streams: usize,
}

impl Scale {
    /// The scale of a benchmark run measuring `seconds`.
    pub fn for_seconds(seconds: f64) -> Self {
        Self { seconds, setup_reps: 31, stream_len: 32_768, segments: 20, online_streams: 8 }
    }

    /// A tiny scale for the benchmark's own tests.
    pub fn tiny() -> Self {
        Self { seconds: 0.05, setup_reps: 2, stream_len: 1_536, segments: 2, online_streams: 2 }
    }
}

/// Runs one workload.
pub fn run(args: &Args, scale: &Scale) -> RunResult {
    let started = Instant::now();
    let steal = steal_seconds();
    let mut result = match args.workload {
        Workload::CasestudyServe => casestudy(args, scale),
        Workload::LargecalStream | Workload::OnlineRelabel => synthetic(args, scale),
    };
    result.failed = result.failed.min(result.attempted);
    result.notes.push(format!(
        "host steal {:.2} s of {:.2} s wall",
        steal_seconds() - steal,
        started.elapsed().as_secs_f64()
    ));
    result
}

/// The frozen pipeline of `casestudy-serve` and `largecal-stream`:
/// window 64, two shards, default relabel budget and selection.
pub fn frozen_pipeline() -> PipelineConfig {
    PipelineConfig { window: WINDOW, shards: SHARDS, ..PipelineConfig::default() }
}

/// `online-relabel`'s pipeline: reservoir calibration seeded from the
/// stream's seed, sliding base eviction, credibility-ranked relabeling.
pub fn online_pipeline(seed: u64) -> PipelineConfig {
    PipelineConfig {
        window: WINDOW,
        shards: SHARDS,
        budget: ONLINE_BUDGET,
        selection: SelectionPolicy::CredibilityRank,
        policy: CalibrationPolicy::Reservoir { cap: RESERVOIR_CAP, seed: mix(seed, 3) },
        eviction: BaseEviction::SlidingWindow { per_absorb: 1, min_base: MIN_BASE },
        ..PipelineConfig::default()
    }
}

fn front(pipeline: PipelineConfig, sink: Option<&MetricsSink>) -> ServingFrontEnd {
    ServingFrontEnd::new(ServingConfig {
        pipeline,
        queue: QUEUE,
        record_admitted: false,
        metrics: sink.cloned(),
    })
}

/// One serve call's headline figures.
#[derive(Debug, Clone, Copy)]
struct Round {
    /// Samples judged per second of the serve call's wall time.
    throughput: f64,
    /// Admission→judgement latency percentiles, ms.
    p50: f64,
    p99: f64,
    /// p99 due→admission wait, ms.
    wait_p99: f64,
}

/// Totals over the serve calls of one phase, plus each call's wall-clock
/// figures for the report.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    judged: u64,
    serve_secs: f64,
    cpu_secs: f64,
    /// `cpu_secs` of the calls timed between host-speed passes, each
    /// call's scaled by the passes around it.
    scaled_cpu_secs: f64,
    latency: LatencyHistogram,
    call: LatencyHistogram,
    depth_max: i64,
    rounds: Vec<Round>,
}

impl Tally {
    /// Adds one serve call: what the producer saw, the engine's latency
    /// histogram, samples judged, its interval, and failed samples.
    fn add(
        &mut self,
        sub: &Submitted,
        latency: &LatencyHistogram,
        judged: usize,
        span: Interval,
        failed: u64,
    ) {
        let secs = span.secs();
        self.attempted += sub.count;
        self.failed += failed;
        self.judged += judged as u64;
        self.serve_secs += secs;
        self.cpu_secs += span.cpu;
        self.latency.merge(latency);
        self.call.merge(&sub.call);
        self.depth_max = self.depth_max.max(sub.queue_depth_max);
        self.rounds.push(Round {
            throughput: ratio(judged as f64, secs),
            p50: pct_ms(latency, 0.5),
            p99: pct_ms(latency, 0.99),
            wait_p99: pct_ms(&sub.wait, 0.99),
        });
    }

    /// Process CPU microseconds per judged sample over every call.
    fn cpu_us_per_sample(&self) -> f64 {
        ratio(self.cpu_secs * 1e6, self.judged as f64)
    }

    /// The same, scaled to the reference host speed.
    fn scaled_cpu_us_per_sample(&self) -> f64 {
        ratio(self.scaled_cpu_secs * 1e6, self.judged as f64)
    }

    /// The median over calls of one figure.
    fn median_of(&self, field: impl Fn(&Round) -> f64) -> f64 {
        median(&self.rounds.iter().map(field).collect::<Vec<_>>())
    }

    /// The wall-clock figures, medians over calls, for the report.
    fn wall_note(&self, what: &str) -> String {
        format!(
            "{what}: {} calls, median {:.0} sps wall, latency p50 {:.3} ms p99 {:.3} ms over {} samples, admit wait p99 {:.3} ms; {:.3} CPU us/sample unscaled",
            self.rounds.len(),
            self.median_of(|r| r.throughput),
            self.median_of(|r| r.p50),
            self.median_of(|r| r.p99),
            self.latency.count(),
            self.median_of(|r| r.wait_p99),
            self.cpu_us_per_sample(),
        )
    }
}

/// The engine's queue-depth gauge in `registry`, resolved the way the
/// front-end resolves it, so the producer can read it after each submit.
fn depth_gauge(registry: &MetricsRegistry) -> Arc<prom_core::Gauge> {
    registry.gauge("prom_serving_queue_depth", "Admission queue depth (racy snapshot)", &[])
}

// ---------------------------------------------------------------------------
// casestudy-serve
// ---------------------------------------------------------------------------

/// Serves `refs` of `case` at `pace` through a fresh front-end, checks
/// the reports against a synchronous replay, and returns the producer's
/// view, the served hot judgements, the engine's latency, the serve
/// call's interval, and the failed count.
fn serve_case(
    case: &Case,
    refs: &[inputs::PoolRef],
    pace: Pace,
    sink: Option<&MetricsSink>,
    tracer: Option<&mut Tracer>,
) -> (Submitted, Vec<Judgement>, LatencyHistogram, Interval, u64) {
    let samples = refs.iter().map(|r| case.sample(*r).clone());
    let front = front(frozen_pipeline(), sink);
    let depth = sink.map(|s| depth_gauge(s.registry()));
    let detectors: Vec<&dyn DriftDetector> = vec![&case.hot, &case.cold];
    let interval = Interval::begin();
    let serve =
        || front.serve_multi(detectors.clone(), |h| produce(&h, samples, pace, depth.as_deref()));
    let (sub, outcome) = match tracer {
        Some(t) => t.span("serving.serve_multi", serve),
        None => serve(),
    };
    let span = interval.end();
    let failed = check_multi(
        &outcome.reports,
        detectors,
        frozen_pipeline(),
        refs.iter().map(|r| case.sample(*r).clone()),
    );
    let hot: Vec<Judgement> =
        outcome.reports.iter().flat_map(|r| r.reports[0].judgements.iter().cloned()).collect();
    (sub, hot, outcome.latency, span, failed)
}

/// Kinds of case-study stream within a run: reference segments,
/// closed-loop rounds.
const TAG_REF: u64 = 1;
const TAG_CLOSED: u64 = 2;

/// The tag of stream `index` of one kind for one case: distinct for every
/// stream of a run.
fn case_tag(kind: u64, index: u64, case: usize) -> u64 {
    (kind << 40) | (index << 8) | case as u64
}

/// CPU seconds one more fit of both case studies takes (the fit is
/// discarded), scaled by the host-speed passes around it.
fn time_case_setup(speed: &mut HostSpeed) -> f64 {
    speed.time_scaled(inputs::fit_cases).1
}

fn casestudy(args: &Args, scale: &Scale) -> RunResult {
    let mut result = RunResult::default();
    // The first fit warms the allocator and pages up and is not timed.
    let (cases, _) = inputs::fit_cases();
    if args.trace {
        casestudy_traced(args, scale, &cases, &mut result);
        return result;
    }
    // Timed fits at the start, between the phases and at the end; a
    // reference pass around each fit and each closed-loop serve call.
    let mut speed = HostSpeed::default();
    let mut setups = vec![time_case_setup(&mut speed), time_case_setup(&mut speed)];

    // Reference phase: detection quality (and wall-clock latency and
    // lateness, printed) at a fixed offered rate, served as many short
    // segments that alternate between the cases.
    let segment_len =
        ((REF_RATE * scale.seconds * 0.3 / scale.segments as f64 / 2.0) as usize).max(2 * WINDOW);
    let mut reference = [Tally::default(), Tally::default()];
    let mut quality = Quality::default();
    for segment in 0..scale.segments {
        for (c, case) in cases.iter().enumerate() {
            let tag = case_tag(TAG_REF, segment as u64, c);
            let refs = inputs::case_stream(case, args.seed, tag, segment_len);
            let (sub, hot, lat, span, failed) =
                serve_case(case, &refs, Pace::Rate(REF_RATE), None, None);
            reference[c].add(&sub, &lat, hot.len(), span, failed);
            for (r, j) in refs.iter().zip(&hot) {
                quality.record(!j.accepted, case.mispredicted(*r), r.drifted);
            }
        }
    }
    for (case, tally) in cases.iter().zip(&reference) {
        result.notes.push(tally.wall_note(&format!(
            "{} open loop @ {REF_RATE} sps, {segment_len}-sample segments",
            case.name
        )));
    }
    setups.extend([time_case_setup(&mut speed), time_case_setup(&mut speed)]);

    // Saturation: closed loop, blocking submits, no pacing; rounds
    // alternate between the cases. The CPU cost per sample is read here,
    // where the engine is never idle between samples.
    let round_len = (scale.stream_len / 4).max(2 * WINDOW);
    let mut saturated = [Tally::default(), Tally::default()];
    let mut round = 0u64;
    while round < 4 || saturated.iter().map(|t| t.serve_secs).sum::<f64>() < scale.seconds * 0.45 {
        let c = (round % 2) as usize;
        let refs =
            inputs::case_stream(&cases[c], args.seed, case_tag(TAG_CLOSED, round, c), round_len);
        let ((sub, hot, lat, span, failed), scaled) = speed.time_scaled(|| {
            let served = serve_case(&cases[c], &refs, Pace::Closed, None, None);
            let cpu = served.3.cpu;
            (served, cpu)
        });
        saturated[c].add(&sub, &lat, hot.len(), span, failed);
        saturated[c].scaled_cpu_secs += scaled;
        round += 1;
    }
    for (case, tally) in cases.iter().zip(&saturated) {
        result.notes.push(
            tally.wall_note(&format!("{} closed loop, {round_len}-sample rounds", case.name)),
        );
    }
    setups.extend((0..3).map(|_| time_case_setup(&mut speed)));
    for tally in reference.iter().chain(&saturated) {
        result.attempted += tally.attempted;
        result.failed += tally.failed;
    }
    result.notes.push(format!(
        "setup_s: mean CPU time of {} fits of both cases, each scaled by the passes around it: {:.4?} s",
        setups.len(),
        setups
    ));
    result.notes.push(speed.note());

    result.metrics = vec![
        metric("setup_s", mean(&setups), "s"),
        metric(
            "cpu_us_per_sample",
            geomean(&saturated.each_ref().map(Tally::scaled_cpu_us_per_sample)),
            "us",
        ),
        metric("mispred_recall", quality.recall(), "ratio"),
        metric("false_alarm_rate", quality.false_alarm_rate(), "ratio"),
        metric("adapted_reject_rate", quality.drift_reject_rate(), "ratio"),
        metric("peak_rss_mb", peak_rss_mib(), "MiB"),
    ];
    result
}

/// The traced case-study run: untraced and traced closed-loop phases for
/// the overhead ratio, a traced open-loop phase at [`REF_RATE`] for the
/// serving and pipeline instruments, then the stage replay of each case.
fn casestudy_traced(args: &Args, scale: &Scale, cases: &[Case; 2], result: &mut RunResult) {
    let closed_len = (scale.stream_len / 2).max(2 * WINDOW);
    let mut tracer = Tracer::new();
    let mut phases = [Tally::default(), Tally::default()];
    let registry = Arc::new(MetricsRegistry::new());
    let sink = MetricsSink::new(Arc::clone(&registry));
    let mut speed = HostSpeed::default();
    for (p, tally) in phases.iter_mut().enumerate() {
        let traced = p == 1;
        let mut round = 0usize;
        while round < 2 || tally.serve_secs < scale.seconds * 0.2 {
            let c = round % 2;
            let refs =
                inputs::case_stream(&cases[c], args.seed, case_tag(TAG_CLOSED, 0, c), closed_len);
            let ((sub, _, lat, span, failed), scaled) = speed.time_scaled(|| {
                let served = if traced {
                    serve_case(&cases[c], &refs, Pace::Closed, Some(&sink), Some(&mut tracer))
                } else {
                    serve_case(&cases[c], &refs, Pace::Closed, None, None)
                };
                let cpu = served.3.cpu;
                (served, cpu)
            });
            tally.add(&sub, &lat, sub.count as usize, span, failed);
            tally.scaled_cpu_secs += scaled;
            round += 1;
        }
    }

    // Open loop at the reference rate, instrumented: what the serving
    // and pipeline layers do under the workload's own arrival pattern.
    let open_registry = Arc::new(MetricsRegistry::new());
    let open_sink = MetricsSink::new(Arc::clone(&open_registry));
    let mut open = Tally::default();
    for (c, case) in cases.iter().enumerate() {
        let n = ((REF_RATE * scale.seconds * 0.1) as usize).max(2 * WINDOW);
        let refs = inputs::case_stream(case, args.seed, case_tag(TAG_REF, 0, c), n);
        let (sub, _, lat, span, failed) =
            serve_case(case, &refs, Pace::Rate(REF_RATE), Some(&open_sink), Some(&mut tracer));
        open.add(&sub, &lat, sub.count as usize, span, failed);
    }

    let pool = ShardPool::new(SHARDS);
    let mut replays = Vec::new();
    for (c, case) in cases.iter().enumerate() {
        let refs = inputs::case_stream(case, args.seed, case_tag(TAG_REF, 0, c), scale.stream_len);
        let samples = case.materialize(&refs);
        let replay = StageReplay {
            detector: &case.hot,
            naive: &case.cold,
            pool: &pool,
            budget: RelabelBudget::default(),
            credibility_rank: false,
        };
        let mut case_tracer = Tracer::new();
        let started = Instant::now();
        for window in samples.chunks(WINDOW) {
            let out = replay.window(&mut case_tracer, window);
            if !out.stages_agree {
                result
                    .violations
                    .push(format!("{}: stage replay disagrees with judge_batch", case.name));
                break;
            }
            if started.elapsed().as_secs_f64() > scale.seconds * 0.15 {
                break;
            }
        }
        result.notes.push(trace::stage_table(&case_tracer, case.name));
        replays.push((case.name, case_tracer));
    }

    for tally in phases.iter().chain([&open]) {
        result.attempted += tally.attempted;
        result.failed += tally.failed;
    }
    let overhead =
        ratio(phases[0].scaled_cpu_us_per_sample(), phases[1].scaled_cpu_us_per_sample());
    let groups: Vec<(&str, &Tracer)> = std::iter::once(("serving", &tracer))
        .chain(replays.iter().map(|(name, t)| (*name, t)))
        .collect();
    result.metrics = layer_metrics(&LayerInputs {
        replays: &replays.iter().map(|(_, t)| t).collect::<Vec<_>>(),
        registry: &open_registry,
        serve: &open,
        overhead,
        snapshot: None,
    });
    write_spans(args, &groups, result);
}

// ---------------------------------------------------------------------------
// largecal-stream and online-relabel
// ---------------------------------------------------------------------------

/// One synthetic workload's fixed parts.
struct Synth {
    online: bool,
    per_class: usize,
    records: Vec<prom_core::CalibrationRecord>,
    /// The streams rounds cycle through, each made from its own seed.
    streams: Vec<Stream>,
    /// Each stream's pipeline (online, the reservoir is seeded per stream).
    configs: Vec<PipelineConfig>,
}

/// A stream's synchronous replay and, online, the replayed detector's
/// final state.
struct Reference {
    reports: Vec<WindowReport>,
    state: Option<String>,
}

impl Synth {
    fn new(args: &Args, scale: &Scale) -> Self {
        let online = args.workload == Workload::OnlineRelabel;
        let (per_class, streams) = if online {
            (inputs::ONLINE_PER_CLASS, scale.online_streams)
        } else {
            (inputs::LARGECAL_PER_CLASS, 1)
        };
        let world = inputs::world(per_class);
        let seeds: Vec<u64> = (0..streams as u64).map(|k| mix(args.seed, 100 + k)).collect();
        let streams = seeds
            .iter()
            .map(|&seed| {
                if online {
                    inputs::online_stream(&world.base, seed, scale.stream_len)
                } else {
                    // A sample costs about five times more here: a quarter-length
                    // stream keeps a round near half a second, so a stall of the
                    // host lands in few rounds.
                    inputs::largecal_stream(&world.base, seed, scale.stream_len / 4)
                }
            })
            .collect();
        let configs = seeds
            .iter()
            .map(|&seed| if online { online_pipeline(seed) } else { frozen_pipeline() })
            .collect();
        Self { online, per_class, records: world.records, streams, configs }
    }

    /// Serves stream `k` once through a fresh front-end (and, online, a
    /// fresh detector, returned for the snapshot), closed loop.
    fn serve(
        &self,
        k: usize,
        hot: &PromClassifier,
        sink: Option<&MetricsSink>,
        tracer: Option<&mut Tracer>,
    ) -> (Submitted, Vec<WindowReport>, LatencyHistogram, Interval, Option<PromClassifier>) {
        let stream = &self.streams[k];
        let samples = stream.samples.iter().cloned();
        let front = front(self.configs[k], sink);
        let depth = sink.map(|s| depth_gauge(s.registry()));
        let mut fresh = self.online.then(|| inputs::synth_detector(&self.records));
        let interval = Interval::begin();
        let serve = || {
            let produce = |h: prom_core::ServingHandle<'_>| {
                produce(&h, samples, Pace::Closed, depth.as_deref())
            };
            match fresh.as_mut() {
                Some(det) => {
                    let oracle = |i, _: &Sample| stream.labels.get(i).map(|&l| Truth::Label(l));
                    front.serve_online(det, oracle, produce)
                }
                None => front.serve(hot, produce),
            }
        };
        let (sub, outcome) = match tracer {
            Some(t) => {
                t.span(if self.online { "serving.serve_online" } else { "serving.serve" }, serve)
            }
            None => serve(),
        };
        (sub, outcome.reports, outcome.latency, interval.end(), fresh)
    }

    /// Replays every stream synchronously.
    fn references(&self) -> Vec<Reference> {
        self.streams
            .iter()
            .zip(&self.configs)
            .map(|(stream, &config)| {
                let mut det = inputs::synth_detector(&self.records);
                let labels = self.online.then_some(&stream.labels[..]);
                let reports = replay_single(&mut det, config, &stream.samples, labels);
                Reference { reports, state: self.online.then(|| snapshot_json(&det)) }
            })
            .collect()
    }

    fn quality(&self, k: usize, reports: &[WindowReport]) -> Quality {
        let stream = &self.streams[k];
        let mut q = Quality::default();
        for (i, j) in reports.iter().flat_map(|r| r.judgements.iter()).enumerate() {
            q.record(!j.accepted, stream.mispredicted(i), stream.late_drift(i));
        }
        q
    }
}

fn snapshot_json(det: &PromClassifier) -> String {
    serde::to_json_string(&det.snapshot_state().expect("Prom detectors expose portable state"))
}

/// Serves rounds until `secs` of serving have passed and every stream
/// was served once (round `r` serves stream `r mod streams`), checking
/// every round against its stream's reference. Each round's CPU time is
/// scaled by the host-speed passes around it. `traced` attaches a
/// metrics sink and a tracer. Returns the tally, the last round's online
/// detector, and each stream's quality.
fn rounds(
    synth: &Synth,
    hot: &PromClassifier,
    references: &[Reference],
    secs: f64,
    mut traced: Option<(&MetricsSink, &mut Tracer)>,
    speed: &mut HostSpeed,
    result: &mut RunResult,
) -> (Tally, Option<PromClassifier>, Vec<Quality>) {
    let mut tally = Tally::default();
    let mut last = None;
    let mut quality = Vec::new();
    while tally.rounds.len() < synth.streams.len() || tally.serve_secs < secs {
        let k = tally.rounds.len() % synth.streams.len();
        let ((sub, reports, lat, span, det), scaled) = speed.time_scaled(|| {
            let (sink, tracer) = match traced.as_mut() {
                Some((sink, tracer)) => (Some(*sink), Some(&mut **tracer)),
                None => (None, None),
            };
            let served = synth.serve(k, hot, sink, tracer);
            let cpu = served.3.cpu;
            (served, cpu)
        });
        let judged: usize = reports.iter().map(|r| r.judgements.len()).sum();
        let mut failed = failures(&reports, &references[k].reports);
        if let (Some(det), Some(expected)) = (&det, &references[k].state) {
            if snapshot_json(det) != *expected {
                result.violations.push("online calibration state differs from the replay".into());
                failed += 1;
            }
        }
        tally.add(&sub, &lat, judged, span, failed);
        tally.scaled_cpu_secs += scaled;
        if quality.len() == k {
            quality.push(synth.quality(k, &reports));
        }
        last = det;
    }
    (tally, last, quality)
}

/// Snapshots an online detector after its stream, restores the snapshot
/// into a fresh detector and checks the two judge a probe identically.
/// Returns `(snapshot ms, snapshot bytes)`.
fn snapshot_round_trip(synth: &Synth, det: &PromClassifier, result: &mut RunResult) -> (f64, f64) {
    let started = Instant::now();
    let json = snapshot_json(det);
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let mut restored = inputs::synth_detector(&synth.records);
    let state = serde::from_json_str::<serde::Value>(&json);
    match state.map(|v| restored.restore_state(&v)) {
        Ok(Ok(())) => {
            let samples = &synth.streams[0].samples;
            let probe = &samples[..SNAPSHOT_PROBE.min(samples.len())];
            if DriftDetector::judge_batch(det, probe)
                != DriftDetector::judge_batch(&restored, probe)
            {
                result.violations.push("restored detector judges differently".into());
            }
        }
        _ => result.violations.push("snapshot did not restore".into()),
    }
    (ms, json.len() as f64)
}

fn synthetic(args: &Args, scale: &Scale) -> RunResult {
    let mut result = RunResult::default();
    let synth = Synth::new(args, scale);
    // Set-up repetitions in CPU seconds, each scaled by the host-speed
    // passes around it: half before the measured rounds, half after.
    let mut speed = HostSpeed::default();
    let time_setup = |speed: &mut HostSpeed| {
        speed.time_scaled(|| {
            let started = process_cpu_secs();
            let world = inputs::world(synth.per_class);
            let det = inputs::synth_detector(&world.records);
            (det, process_cpu_secs() - started)
        })
    };
    let (hot, first) = time_setup(&mut speed);
    let references = synth.references();

    if args.trace {
        synthetic_traced(args, scale, &synth, &hot, &references, &mut result);
        return result;
    }
    let reps = scale.setup_reps;
    let mut setups = vec![first];
    setups.extend((1..reps / 2).map(|_| time_setup(&mut speed).1));

    let (tally, last, quality) =
        rounds(&synth, &hot, &references, scale.seconds, None, &mut speed, &mut result);
    setups.extend((setups.len()..reps).map(|_| time_setup(&mut speed).1));
    result.notes.push(format!(
        "per stream: mispred_recall {:.4?}, false_alarm_rate {:.4?}, adapted_reject_rate {:.4?}",
        quality.iter().map(Quality::recall).collect::<Vec<_>>(),
        quality.iter().map(Quality::false_alarm_rate).collect::<Vec<_>>(),
        quality.iter().map(Quality::drift_reject_rate).collect::<Vec<_>>(),
    ));
    let quality = quality.iter().fold(Quality::default(), |mut all, q| {
        all.merge(q);
        all
    });
    result.attempted += tally.attempted;
    result.failed += tally.failed;
    if let Some(det) = &last {
        let (ms, bytes) = snapshot_round_trip(&synth, det, &mut result);
        result.notes.push(format!("snapshot {ms:.3} ms, {bytes} bytes; restored and probed"));
    }
    result.notes.push(tally.wall_note(&format!(
        "closed loop, {}-sample rounds over {} streams (quality pools the streams)",
        synth.streams[0].samples.len(),
        synth.streams.len(),
    )));
    result.notes.push(format!(
        "setup_s: mean CPU time of {} set-ups, each scaled by the passes around it: {:.6} s",
        setups.len(),
        mean(&setups)
    ));
    result.notes.push(speed.note());
    result.metrics = vec![
        metric("setup_s", mean(&setups), "s"),
        metric("cpu_us_per_sample", tally.scaled_cpu_us_per_sample(), "us"),
        metric("mispred_recall", quality.recall(), "ratio"),
        metric("false_alarm_rate", quality.false_alarm_rate(), "ratio"),
        metric("adapted_reject_rate", quality.drift_reject_rate(), "ratio"),
        metric("peak_rss_mb", peak_rss_mib(), "MiB"),
    ];
    result
}

fn synthetic_traced(
    args: &Args,
    scale: &Scale,
    synth: &Synth,
    hot: &PromClassifier,
    references: &[Reference],
    result: &mut RunResult,
) {
    let phase_secs = scale.seconds * 0.25;
    let mut speed = HostSpeed::default();
    let (plain, _, _) = rounds(synth, hot, references, phase_secs, None, &mut speed, result);
    let registry = Arc::new(MetricsRegistry::new());
    let sink = MetricsSink::new(Arc::clone(&registry));
    let mut tracer = Tracer::new();
    let (traced, last, _) =
        rounds(synth, hot, references, phase_secs, Some((&sink, &mut tracer)), &mut speed, result);
    for tally in [&plain, &traced] {
        result.attempted += tally.attempted;
        result.failed += tally.failed;
    }
    let snapshot = last
        .as_ref()
        .map(|det| tracer.span("predictor.snapshot", || snapshot_round_trip(synth, det, result)));

    // Stage replay over the stream's own windows; online, the replay also
    // folds each window's picks into its own detector, as the pipeline did.
    let pool = ShardPool::new(SHARDS);
    let naive = prom_baselines::NaiveCp::new(&synth.records, inputs::COLD_EPSILON);
    let config = synth.configs[0];
    let mut live = inputs::synth_detector(&synth.records);
    let mut fold_state = match config.policy {
        CalibrationPolicy::Reservoir { cap, seed } => Some(OnlineFold {
            reservoir: ReservoirCalibration::new(cap, seed),
            eviction: config.eviction,
        }),
        _ => None,
    };
    let mut replay_tracer = Tracer::new();
    let started = Instant::now();
    let (stream, reference) = (&synth.streams[0], &references[0]);
    for (w, window) in stream.samples.chunks(config.window).enumerate() {
        let start = w * config.window;
        let replay = StageReplay {
            detector: &live,
            naive: &naive,
            pool: &pool,
            budget: config.budget,
            credibility_rank: synth.online,
        };
        let out = replay.window(&mut replay_tracer, window);
        let served = &reference.reports[w];
        let picks: Vec<usize> = out.picks.iter().map(|i| start + i).collect();
        if !out.stages_agree || out.judgements != served.judgements || picks != served.relabel {
            result
                .violations
                .push(format!("stage replay disagrees with the pipeline in window {w}"));
            break;
        }
        if let Some(state) = fold_state.as_mut() {
            let items = picks.iter().map(|&g| (stream.samples[g].clone(), stream.labels[g]));
            let (absorbed, replaced) = trace::fold(&mut replay_tracer, &mut live, state, items);
            if (absorbed, replaced) != (served.absorbed, served.replaced) {
                result
                    .violations
                    .push(format!("replayed fold disagrees with the pipeline in window {w}"));
                break;
            }
        }
        if started.elapsed().as_secs_f64() > scale.seconds * 0.3 {
            break;
        }
    }
    result.notes.push(trace::stage_table(&replay_tracer, args.workload.name()));
    result.metrics = layer_metrics(&LayerInputs {
        replays: &[&replay_tracer],
        registry: &registry,
        serve: &traced,
        overhead: ratio(plain.scaled_cpu_us_per_sample(), traced.scaled_cpu_us_per_sample()),
        snapshot,
    });
    write_spans(args, &[("serving", &tracer), (args.workload.name(), &replay_tracer)], result);
}

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

/// What the per-layer metrics are read from.
struct LayerInputs<'a> {
    /// Stage-replay tracers (one per case study, or one).
    replays: &'a [&'a Tracer],
    /// The registry the instrumented serve calls published into.
    registry: &'a MetricsRegistry,
    /// Producer-side totals of those serve calls.
    serve: &'a Tally,
    /// Traced over untraced throughput.
    overhead: f64,
    /// Snapshot (ms, bytes) of the online detector, when there is one.
    snapshot: Option<(f64, f64)>,
}

fn layer_metrics(inp: &LayerInputs<'_>) -> Vec<Metric> {
    let sum = |name: &str| -> (f64, f64) {
        inp.replays.iter().fold((0.0, 0.0), |(ns, calls), t| {
            let totals = t.totals(name);
            (ns + totals.total_ns as f64, calls + totals.calls as f64)
        })
    };
    let queries = sum(trace::STAGES[1]).1;
    let per_query = |name: &str| ratio(sum(name).0, queries);
    let per_call = |name: &str| {
        let (ns, calls) = sum(name);
        ratio(ns, calls)
    };
    let stages: Vec<f64> = trace::STAGES.iter().map(|s| per_query(s)).collect();
    let judge = per_query(trace::JUDGE);
    let reg = inp.registry;
    let window_judge = reg.histogram("prom_serving_window_judge_ns", "", &[]).snapshot();
    // The pipeline labels its instruments with `DriftDetector::name`,
    // which is "PROM" for the hot committee.
    let prom = &[("detector", "PROM")][..];
    let (snapshot_ms, snapshot_bytes) = inp.snapshot.unwrap_or((0.0, 0.0));
    vec![
        metric("scoring.distance_ns_per_query", stages[0], "ns"),
        metric("scoring.select_ns_per_query", stages[1], "ns"),
        metric("scoring.pvalue_ns_per_query", stages[2], "ns"),
        metric("committee.vote_ns_per_query", stages[3], "ns"),
        metric("predictor.judge_ns_per_sample", judge, "ns"),
        metric("predictor.stage_sum_ratio", ratio(judge, stages.iter().sum()), "ratio"),
        metric("baselines.naive_cp_ns_per_sample", per_query(trace::NAIVE), "ns"),
        metric("pool.judge_ns_per_window", per_call(trace::POOL), "ns"),
        metric(
            "pool.jobs_total",
            reg.counter("prom_pool_jobs_total", "", &[]).get() as f64,
            "count",
        ),
        metric("pipeline.window_judge_p99_ms", pct_ms(&window_judge, 0.99), "ms"),
        metric(
            "pipeline.collator_busy_share",
            ratio(window_judge.total_ns() as f64 / 1e9, inp.serve.serve_secs),
            "ratio",
        ),
        metric("serving.submit_p99_us", pct_ms(&inp.serve.call, 0.99) * 1e3, "us"),
        metric("serving.queue_depth_max", inp.serve.depth_max as f64, "count"),
        metric(
            "serving.admitted_total",
            reg.counter("prom_serving_admitted_total", "", &[]).get() as f64,
            "count",
        ),
        metric("incremental.select_ns_per_window", per_call(trace::SELECT), "ns"),
        metric("calibration.absorb_ns_per_record", per_call(trace::FOLD), "ns"),
        metric(
            "calibration.size_final",
            reg.gauge("prom_pipeline_calibration_size", "", prom).get() as f64,
            "count",
        ),
        metric(
            "calibration.replaced_total",
            reg.counter("prom_pipeline_reservoir_replaced_total", "", prom).get() as f64,
            "count",
        ),
        metric("predictor.snapshot_ms", snapshot_ms, "ms"),
        metric("predictor.snapshot_bytes", snapshot_bytes, "bytes"),
        metric("trace.overhead_ratio", inp.overhead, "ratio"),
    ]
}

/// Writes every tracer's stored spans to `perfbench/out/`.
fn write_spans(args: &Args, groups: &[(&str, &Tracer)], result: &mut RunResult) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload.name(), args.seed));
    let body: Vec<String> = groups.iter().map(|(g, t)| t.spans_json(g)).collect();
    let json = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"groups\": [{}]}}\n",
        args.workload.name(),
        args.seed,
        body.join(", ")
    );
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => result.notes.push(format!("spans written to {}", path.display())),
        Err(err) => result.notes.push(format!("spans not written ({err})")),
    }
}
