//! Small measurement helpers: medians, percentiles, resident memory, and
//! the process CPU clock the gated timings are read from.

use std::time::Instant;

use prom_core::LatencyHistogram;

/// The median of `values` (mean of the middle pair for even counts); 0
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The arithmetic mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// Percentile `q` of `h` in milliseconds.
pub fn pct_ms(h: &LatencyHistogram, q: f64) -> f64 {
    h.percentile_ns(q) as f64 / 1e6
}

/// Geometric mean of positive values; 0 when any is 0 or the slice is
/// empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// This process's peak resident set size in MiB (`VmHWM` from
/// `/proc/self/status`; 0 where that file does not exist).
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Detection quality of a detector's rejects against misprediction truth,
/// plus its reject rate on the drifted samples of the stream's second
/// half.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    /// Mispredicted samples rejected.
    pub caught: u64,
    /// Mispredicted samples seen.
    pub mispredicted: u64,
    /// Correctly predicted samples rejected.
    pub false_alarms: u64,
    /// Correctly predicted samples seen.
    pub correct: u64,
    /// Drifted second-half samples rejected.
    pub drift_rejected: u64,
    /// Drifted second-half samples seen.
    pub drifted: u64,
}

impl Quality {
    /// Tallies one judged sample.
    pub fn record(&mut self, rejected: bool, mispredicted: bool, late_drift: bool) {
        if mispredicted {
            self.mispredicted += 1;
            self.caught += u64::from(rejected);
        } else {
            self.correct += 1;
            self.false_alarms += u64::from(rejected);
        }
        if late_drift {
            self.drifted += 1;
            self.drift_rejected += u64::from(rejected);
        }
    }

    /// Adds another tally to this one.
    pub fn merge(&mut self, other: &Quality) {
        self.caught += other.caught;
        self.mispredicted += other.mispredicted;
        self.false_alarms += other.false_alarms;
        self.correct += other.correct;
        self.drift_rejected += other.drift_rejected;
        self.drifted += other.drifted;
    }

    /// Share of mispredictions rejected.
    pub fn recall(&self) -> f64 {
        ratio(self.caught as f64, self.mispredicted as f64)
    }

    /// Share of correct predictions rejected.
    pub fn false_alarm_rate(&self) -> f64 {
        ratio(self.false_alarms as f64, self.correct as f64)
    }

    /// Reject rate on drifted second-half samples.
    pub fn drift_reject_rate(&self) -> f64 {
        ratio(self.drift_rejected as f64, self.drifted as f64)
    }
}

/// CPU time the hypervisor gave to other guests while this guest wanted
/// to run (`steal` in `/proc/stat`), in seconds summed over CPUs; 0 where
/// the file does not exist.
pub fn steal_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    stat.lines()
        .find(|line| line.starts_with("cpu "))
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Reads a POSIX CPU-time clock in seconds (Linux).
fn cpu_clock_secs(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux); callers pass only the two CPU-time clock
    // ids, which every Linux kernel supports.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds every thread of this process has run
/// (`CLOCK_PROCESS_CPUTIME_ID`). Time the hypervisor steals and time
/// other processes hold the CPUs are not counted.
pub fn process_cpu_secs() -> f64 {
    cpu_clock_secs(2)
}

/// CPU seconds the calling thread has run (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_secs() -> f64 {
    cpu_clock_secs(3)
}

/// CPU seconds one pass of [`reference_work`] takes at the nominal host
/// speed every gated timing is scaled to (about what a pass took on the
/// 2-vCPU Xeon VM the bounds were set on, when its host was quiet).
pub const REFERENCE_PASS_SECS: f64 = 0.006;

/// A fixed CPU kernel of the benchmark's own, shaped like the engine's
/// judging (distances from queries to a point set, a partial sort,
/// exponential weights) but sharing no code with it, so no change to the
/// engine changes its cost.
pub fn reference_work() -> f64 {
    const POINTS: usize = 2048;
    const DIM: usize = 8;
    const QUERIES: usize = 512;
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let points: Vec<f64> = (0..POINTS * DIM).map(|_| next()).collect();
    let mut dist = vec![0.0; POINTS];
    let mut acc = 0.0;
    for _ in 0..QUERIES {
        let q: [f64; DIM] = std::array::from_fn(|_| next());
        for (d, p) in dist.iter_mut().zip(points.chunks_exact(DIM)) {
            *d = p.iter().zip(&q).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        }
        let kth = *dist.select_nth_unstable_by(POINTS / 4, f64::total_cmp).1;
        acc += dist.iter().filter(|d| **d <= kth).map(|d| (-d / 0.5).exp()).sum::<f64>();
    }
    acc
}

/// How fast the host runs CPU work during a run, from passes of
/// [`reference_work`] spread through it.
///
/// A shared host's speed per CPU-second drifts with what its other guests
/// run: on the VM the bounds were set on, a reference pass took either
/// about 6.6 or about 10 ms, switching every few seconds, and the share of
/// slow time changed from one quarter hour to the next (the same fit took
/// 0.6 s of CPU in one and 1.15 s in another). Gated timings are CPU
/// times, each multiplied by [`REFERENCE_PASS_SECS`] over the passes
/// around it ([`HostSpeed::time_scaled`]): what they would read on a host
/// that runs the reference pass in that time. Runs report means of them,
/// not medians: a run mixes the two speeds, and a median would jump from
/// one to the other.
#[derive(Debug, Default)]
pub struct HostSpeed {
    passes: Vec<f64>,
}

impl HostSpeed {
    /// Times one reference pass on each CPU at once, each on its own
    /// thread's CPU clock, and records and returns their mean. One thread
    /// would measure whichever CPU it landed on, and the CPUs of a shared
    /// host need not run at one speed; the engine's threads use them all.
    pub fn sample(&mut self) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let passes: Vec<f64> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..cpus)
                .map(|_| {
                    s.spawn(|| {
                        let started = thread_cpu_secs();
                        std::hint::black_box(reference_work());
                        thread_cpu_secs() - started
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().expect("reference pass")).collect()
        });
        let pass = mean(&passes);
        self.passes.push(pass);
        pass
    }

    /// Runs `work`, which returns its result and the CPU seconds it
    /// measured, between two reference passes, and returns those seconds
    /// scaled by the two passes: a set-up repetition or a serve call is
    /// about as long as the host's spells of one speed or shorter, so the
    /// passes around it see the speed it ran at.
    pub fn time_scaled<T>(&mut self, work: impl FnOnce() -> (T, f64)) -> (T, f64) {
        let before = self.sample();
        let (out, secs) = work();
        let after = self.sample();
        (out, secs * ratio(2.0 * REFERENCE_PASS_SECS, before + after))
    }

    /// The mean pass in milliseconds, the spread of the passes and their
    /// number, for the report.
    pub fn note(&self) -> String {
        let mut sorted = self.passes.clone();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| {
            sorted
                .get((q * sorted.len().saturating_sub(1) as f64) as usize)
                .map_or(0.0, |s| s * 1e3)
        };
        format!(
            "host speed: mean reference pass {:.3} ms of CPU over {} passes (p10 {:.3}, p90 {:.3}); gated timings scaled to {:.3} ms",
            mean(&self.passes) * 1e3,
            self.passes.len(),
            at(0.1),
            at(0.9),
            REFERENCE_PASS_SECS * 1e3
        )
    }
}

/// The wall-clock interval of one measured call and the process CPU time
/// spent during it.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    /// When the call started.
    pub start: Instant,
    /// When it ended.
    pub end: Instant,
    /// Process CPU seconds (every thread) during the call.
    pub cpu: f64,
}

/// An interval being measured: see [`Interval::begin`].
pub struct OpenInterval {
    start: Instant,
    cpu: f64,
}

impl Interval {
    /// Starts measuring an interval now.
    pub fn begin() -> OpenInterval {
        OpenInterval { start: Instant::now(), cpu: process_cpu_secs() }
    }

    /// Length in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

impl OpenInterval {
    /// Ends the interval now.
    pub fn end(self) -> Interval {
        Interval { start: self.start, end: Instant::now(), cpu: process_cpu_secs() - self.cpu }
    }
}
