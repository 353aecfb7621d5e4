//! Command-line arguments: `--workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`, all required.

/// The three workloads, by the names `BENCHMARK.json` gives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop over the fitted C2 and C3 case-study models.
    CasestudyServe,
    /// Closed loop over a 4,096-record frozen calibration set.
    LargecalStream,
    /// Closed loop over an online pipeline that relabels and folds.
    OnlineRelabel,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::CasestudyServe, Workload::LargecalStream, Workload::OnlineRelabel];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CasestudyServe => "casestudy-serve",
            Workload::LargecalStream => "largecal-stream",
            Workload::OnlineRelabel => "online-relabel",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Checked arguments of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is made from.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// `true` for the traced run that reports per-layer metrics.
    pub trace: bool,
}

/// Usage text printed on a bad command line.
pub const USAGE: &str =
    "usage: perfbench --workload <casestudy-serve|largecal-stream|online-relabel> \
--seed <u64> --seconds <1..=600> --trace <0|1>";

/// Parses the arguments after the program name.
///
/// # Errors
///
/// A description of the first missing, unknown or malformed argument.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("bad --seed `{value}`"))?);
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds must be in 1..=600, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}
