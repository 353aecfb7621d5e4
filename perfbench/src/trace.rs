//! Spans and the stage replay of the traced run.
//!
//! A [`Tracer`] records one span — name, start, end, parent — around each
//! call the benchmark makes into a layer's public functions, keeps the
//! spans in memory, and writes them out when the run ends. Per-name
//! totals (calls, total and self time) are kept for every span, also past
//! the stored-span cap.
//!
//! [`StageReplay`] re-runs the judgement of a window stage by stage on the
//! workload's own inputs: the blocked distance pass, the Eq. 1 selection
//! (partition plus weights), the per-expert test scores and p-values, and
//! the committee vote — then the whole judgement, the naive-CP baseline,
//! the shard pool and the relabel selection over the same window.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use prom_baselines::NaiveCp;
use prom_core::calibration::{ReservoirCalibration, ReservoirDecision, SelectionConfig};
use prom_core::committee::{committee_accepts, verdict_from_p_values, PromJudgement};
use prom_core::detector::{DriftDetector, Judgement, Relabeled, Sample, Truth};
use prom_core::incremental::{select_flagged, select_for_relabeling, RelabelBudget};
use prom_core::nonconformity::{default_committee, Nonconformity};
use prom_core::pipeline::BaseEviction;
use prom_core::predictor::PromClassifier;
use prom_core::scoring::{JudgeScratch, ScoringKernel};
use prom_core::ShardPool;

/// Spans stored for the trace file; totals keep counting past it.
const SPAN_CAP: usize = 100_000;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Identifier, unique within the tracer.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer-qualified name (`scoring.distance_block`, …).
    pub name: &'static str,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// End, ns since the tracer was made.
    pub end_ns: u64,
}

/// Per-name span totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans closed.
    pub calls: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed durations minus the time direct children covered, ns.
    pub self_ns: u64,
}

/// An open span on the tracer's stack.
struct Open {
    id: u32,
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

/// Records spans around calls into the engine's layers.
pub struct Tracer {
    epoch: Instant,
    next_id: u32,
    stack: Vec<Open>,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Totals>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Opens a span named `name` inside the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open { id, name, start: Instant::now(), child_ns: 0 });
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    pub fn exit(&mut self) {
        let end = Instant::now();
        let open = self.stack.pop().expect("exit matches an enter");
        let dur = u64::try_from((end - open.start).as_nanos()).unwrap_or(u64::MAX);
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        let totals = self.totals.entry(open.name).or_default();
        totals.calls += 1;
        totals.total_ns += dur;
        totals.self_ns += dur.saturating_sub(open.child_ns);
        if self.spans.len() < SPAN_CAP {
            let since = |t: Instant| u64::try_from((t - self.epoch).as_nanos()).unwrap_or(u64::MAX);
            self.spans.push(Span {
                id: open.id,
                parent,
                name: open.name,
                start_ns: since(open.start),
                end_ns: since(end),
            });
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Totals of the spans named `name` (zero when none closed).
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Mean duration of the spans named `name`, in ns (0 when none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let t = self.totals(name);
        if t.calls == 0 {
            0.0
        } else {
            t.total_ns as f64 / t.calls as f64
        }
    }

    /// The stored spans as a JSON object, tagged with `group`.
    pub fn spans_json(&self, group: &str) -> String {
        let mut out = format!("{{\"group\": \"{group}\", \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}");
        out
    }
}

/// Span names of the four judgement stages, in pipeline order.
pub const STAGES: [&str; 4] =
    ["scoring.distance_block", "scoring.select_from_block", "scoring.p_values", "committee.vote"];
/// Span name of a whole batched judgement.
pub const JUDGE: &str = "predictor.judge_batch_scratch";
/// Span name of the naive-CP baseline judging a window.
pub const NAIVE: &str = "baselines.naive_cp.judge_batch";
/// Span name of the shard pool judging a window.
pub const POOL: &str = "pool.judge";
/// Span name of the relabel selection of a window.
pub const SELECT: &str = "incremental.select";
/// Span name of folding one relabel pick into the calibration set.
pub const FOLD: &str = "calibration.fold";
/// Span name of one window of the stage replay.
pub const WINDOW: &str = "replay.window";
/// Queries of one blocked distance pass — the batched judging path's
/// block size.
pub const QUERY_BLOCK: usize = 8;

/// The replay's calibration-fold state: the reservoir sampler and the
/// base-eviction policy of the online pipeline it mirrors.
pub struct OnlineFold {
    /// The reservoir sampler, seeded as the pipeline's.
    pub reservoir: ReservoirCalibration,
    /// Base eviction after each absorb.
    pub eviction: BaseEviction,
}

/// The stage-by-stage replay of one detector over windows of a stream.
pub struct StageReplay<'a> {
    /// The detector whose judgement is decomposed.
    pub detector: &'a PromClassifier,
    /// The baseline timed over the same windows.
    pub naive: &'a NaiveCp,
    /// The pool timed over the same windows.
    pub pool: &'a ShardPool,
    /// The relabel budget of the served pipeline.
    pub budget: RelabelBudget,
    /// Rank relabels by credibility (else by reject votes).
    pub credibility_rank: bool,
}

/// What one replayed window produced.
pub struct ReplayedWindow {
    /// Relabel picks, window-local.
    pub picks: Vec<usize>,
    /// Whether the stage-by-stage accept bits and the pool's judgements
    /// equal the detector's own.
    pub stages_agree: bool,
    /// Flat judgements of the window.
    pub judgements: Vec<Judgement>,
}

impl StageReplay<'_> {
    /// Replays one window under `tracer`: times the whole judgement, its
    /// four stages, the baseline, the pool and the relabel selection.
    pub fn window(&self, tracer: &mut Tracer, window: &[Sample]) -> ReplayedWindow {
        tracer.enter(WINDOW);
        let det = self.detector;
        let mut scratch = JudgeScratch::new();
        let rich: Vec<PromJudgement> =
            tracer.span(JUDGE, || det.judge_batch_scratch(window, det.config(), &mut scratch));
        let staged = self.stages(tracer, window, &mut scratch);
        let stages_agree =
            staged.len() == rich.len() && staged.iter().zip(&rich).all(|(a, j)| *a == j.accepted);
        let naive = tracer.span(NAIVE, || self.naive.judge_batch(window));
        std::hint::black_box(naive);
        let pooled = tracer.span(POOL, || self.pool.judge(det, window));
        let judgements: Vec<Judgement> = rich.iter().map(Judgement::from).collect();
        let stages_agree = stages_agree && pooled == judgements;
        let picks = tracer.span(SELECT, || {
            if self.credibility_rank {
                select_for_relabeling(&rich, self.budget)
            } else {
                select_flagged(&judgements, self.budget)
            }
        });
        tracer.exit();
        ReplayedWindow { picks, stages_agree, judgements }
    }

    /// The four stages over `window`, returning each sample's accept bit.
    fn stages(
        &self,
        tracer: &mut Tracer,
        window: &[Sample],
        scratch: &mut JudgeScratch,
    ) -> Vec<bool> {
        let det = self.detector;
        let config = det.config();
        let experts = default_committee();
        let kernel = kernel_of(det, &experts);
        let n_classes = det.n_classes();
        let mut p_values: Vec<Vec<f64>> = vec![Vec::new(); experts.len()];
        let mut accepted = Vec::with_capacity(window.len());
        let blocked = window.len() > 1 && !kernel.uses_pruned_path();
        for chunk in window.chunks(QUERY_BLOCK) {
            if blocked {
                let queries: Vec<&[f64]> = chunk.iter().map(|s| s.embedding.as_slice()).collect();
                tracer.span(STAGES[0], || kernel.distance_block(&queries, scratch));
            }
            for (j, s) in chunk.iter().enumerate() {
                tracer.span(STAGES[1], || {
                    if blocked {
                        kernel.select_from_block(j, &s.embedding, scratch);
                    } else {
                        kernel.select(&s.embedding, scratch);
                    }
                });
                tracer.span(STAGES[2], || {
                    for (e, expert) in experts.iter().enumerate() {
                        scratch.test_scores.clear();
                        scratch
                            .test_scores
                            .extend((0..n_classes).map(|y| expert.score(&s.outputs, y)));
                        kernel.p_values_into(e, scratch);
                        p_values[e].clone_from(&scratch.p_values);
                    }
                });
                let ok = tracer.span(STAGES[3], || {
                    let predicted = prom_ml::matrix::argmax(&s.outputs);
                    let verdicts: Vec<_> = experts
                        .iter()
                        .zip(&p_values)
                        .map(|(e, ps)| verdict_from_p_values(e.name(), ps, predicted, config))
                        .collect();
                    committee_accepts(&verdicts).0
                });
                accepted.push(ok);
            }
        }
        accepted
    }
}

/// A scoring kernel equal to the one inside `det`: its live records, the
/// default committee's calibration scores, its selection parameters.
pub fn kernel_of(det: &PromClassifier, experts: &[Box<dyn Nonconformity>]) -> ScoringKernel {
    let records = det.records();
    let config = det.config();
    ScoringKernel::new(
        records.iter().map(|r| r.embedding.clone()).collect(),
        records.iter().map(|r| r.label).collect(),
        det.n_classes(),
        experts
            .iter()
            .map(|e| records.iter().map(|r| e.score(&r.probs, r.label)).collect())
            .collect(),
        SelectionConfig {
            fraction: config.selection_fraction,
            min_full_size: config.min_full_size,
            tau: config.tau,
        },
    )
}

/// Folds one window's relabel picks into `det` the way the online
/// pipeline does — screen, reservoir offer, absorb or slot replacement,
/// then base eviction — timing each pick as a [`FOLD`] span. Returns
/// `(absorbed, replaced)`.
pub fn fold(
    tracer: &mut Tracer,
    det: &mut PromClassifier,
    state: &mut OnlineFold,
    picks: impl IntoIterator<Item = (Sample, usize)>,
) -> (usize, usize) {
    let mut absorbed = 0;
    let mut replaced = 0;
    for (sample, label) in picks {
        let item = Relabeled { sample, truth: Truth::Label(label) };
        tracer.enter(FOLD);
        if det.can_absorb(&item) {
            let done = match state.reservoir.offer() {
                decision @ ReservoirDecision::Appended(_) => {
                    let ok = det.absorb_relabeled(std::slice::from_ref(&item)) == 1;
                    if !ok {
                        state.reservoir.retract(decision);
                    }
                    ok
                }
                decision @ ReservoirDecision::Replaced(slot) => {
                    let ok = det.replace_online_slot(slot, &item);
                    if ok {
                        replaced += 1;
                    } else {
                        state.reservoir.retract(decision);
                    }
                    ok
                }
                ReservoirDecision::Skipped => false,
            };
            if done {
                absorbed += 1;
                if let BaseEviction::SlidingWindow { per_absorb, min_base } = state.eviction {
                    for _ in 0..per_absorb {
                        match det.base_len() {
                            Some(base) if base > min_base => {
                                if !det.evict_oldest_base() {
                                    break;
                                }
                            }
                            _ => break,
                        }
                    }
                }
            }
        }
        tracer.exit();
    }
    (absorbed, replaced)
}

/// The per-stage table of one replay: calls, ns per query or call, and
/// each judgement stage's share of the four stages' sum.
pub fn stage_table(tracer: &Tracer, group: &str) -> String {
    let queries = tracer.totals(STAGES[1]).calls.max(1) as f64;
    let stage_sum: u64 = STAGES.iter().map(|s| tracer.totals(s).total_ns).sum();
    let mut out = format!(
        "stage table [{group}]  ({} queries)\n{:<34} {:>9} {:>14} {:>8}\n",
        queries, "span", "calls", "ns/query", "share"
    );
    for name in STAGES {
        let t = tracer.totals(name);
        let _ = writeln!(
            out,
            "{:<34} {:>9} {:>14.1} {:>7.1}%",
            name,
            t.calls,
            t.total_ns as f64 / queries,
            100.0 * t.total_ns as f64 / stage_sum.max(1) as f64
        );
    }
    let judged = tracer.totals(JUDGE);
    let _ = writeln!(
        out,
        "{:<34} {:>9} {:>14.1}   (stage sum {:.1})",
        JUDGE,
        judged.calls,
        judged.total_ns as f64 / queries,
        stage_sum as f64 / queries
    );
    for name in [NAIVE, POOL, SELECT, FOLD, WINDOW] {
        let t = tracer.totals(name);
        let _ = writeln!(
            out,
            "{:<34} {:>9} {:>14.1}   ns/call, self {:.1}",
            name,
            t.calls,
            tracer.mean_ns(name),
            t.self_ns as f64 / t.calls.max(1) as f64
        );
    }
    out
}
