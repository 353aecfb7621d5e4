//! The benchmark's single producer: it builds each sample right before
//! submitting it into a [`ServingHandle`], in an open loop at a fixed
//! offered rate or in a closed loop with blocking submits, and times each
//! admission.

use std::time::{Duration, Instant};

use prom_core::detector::Sample;
use prom_core::serving::ServingHandle;
use prom_core::{Gauge, LatencyHistogram};

/// How the producer paces its submissions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Closed loop: the next sample is due as soon as the previous
    /// submit returns.
    Closed,
    /// Open loop: sample `i` is due at `start + i / rate` seconds.
    Rate(f64),
}

/// What the producer saw while submitting one stream.
#[derive(Debug, Default)]
pub struct Submitted {
    /// Samples submitted (all admitted: submits block, never shed).
    pub count: u64,
    /// Per sample, the time from when it was due to its admission — the
    /// generator's lateness in an open loop, the backpressure wait in a
    /// closed loop.
    pub wait: LatencyHistogram,
    /// Per sample, the duration of the `submit` call alone.
    pub call: LatencyHistogram,
    /// Largest admission-queue depth read after a submit (0 unless a
    /// depth gauge was given).
    pub queue_depth_max: i64,
}

/// Submits every sample of `samples`, in order, through `handle`. Samples
/// are drawn from the iterator (typically cloning from a pool) only when
/// due, so a stream is never held in memory twice.
///
/// # Panics
///
/// Panics if the collator is gone (it panicked; the serve call re-raises
/// that panic).
pub fn produce(
    handle: &ServingHandle<'_>,
    samples: impl Iterator<Item = Sample>,
    pace: Pace,
    depth: Option<&Gauge>,
) -> Submitted {
    let mut out = Submitted::default();
    let interval_ns = match pace {
        Pace::Closed => 0.0,
        Pace::Rate(rate) => 1e9 / rate,
    };
    let start = Instant::now();
    for (i, sample) in samples.enumerate() {
        let due = match pace {
            Pace::Closed => Instant::now(),
            Pace::Rate(_) => {
                let due = start + Duration::from_nanos((i as f64 * interval_ns) as u64);
                wait_until(due);
                due
            }
        };
        let called = Instant::now();
        handle.submit(sample).expect("the collator runs until the producer returns");
        let admitted = Instant::now();
        out.call.record(admitted - called);
        let wait = admitted.saturating_duration_since(due);
        out.wait.record(wait);
        if let Some(gauge) = depth {
            out.queue_depth_max = out.queue_depth_max.max(gauge.get());
        }
        out.count += 1;
    }
    out
}

/// Sleeps until `due`. The producer never spins: on a host with few
/// cores a spinning producer takes a core from the engine it measures.
/// Sleeps overshoot by the timer slack, and the samples that fell due
/// meanwhile go out back to back, so high rates are offered in small
/// bursts and their lateness is counted.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if now < due {
        std::thread::sleep(due - now);
    }
}
