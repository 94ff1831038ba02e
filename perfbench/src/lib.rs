//! The repository benchmark: four closed-loop workloads driven through
//! the system's public functions, timed from the benchmark's own code.
//!
//! * `farm_day` — the paper's whole loop (sensors → 5G → CSPOT →
//!   Laminar → pilot/HPC → CFD → results) over simulated days.
//! * `ran_slicing` — a sliced 4-cell RAN under a near-RT RIC.
//! * `cfd_field` — the Fig. 3 CFD problem at full resolution.
//! * `log_ingest` — durable CSPOT appends, replication and recovery.
//!
//! Untraced runs give the end-to-end metrics; a traced run gives the
//! per-layer table (see `NOTES.md`).

pub mod alloc;
pub mod calib;
pub mod cfd_field;
pub mod farm_day;
pub mod layers;
pub mod log_ingest;
pub mod ran_slicing;
pub mod report;
pub mod stats;

use layers::Layers;
use report::{Detail, Metric, Outcome};
use std::path::PathBuf;
use std::time::Instant;

/// The seed whose episode-0 digests are committed as golden values.
pub const DEFAULT_SEED: u64 = 42;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Simulated farm days of the whole closed loop.
    FarmDay,
    /// A sliced RAN fleet under the RIC.
    RanSlicing,
    /// The full-resolution CFD field.
    CfdField,
    /// Durable appends, replication and recovery.
    LogIngest,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::FarmDay,
        Workload::RanSlicing,
        Workload::CfdField,
        Workload::LogIngest,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FarmDay => "farm_day",
            Workload::RanSlicing => "ran_slicing",
            Workload::CfdField => "cfd_field",
            Workload::LogIngest => "log_ingest",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Episode sizes: the full benchmark, or a reduced-length smoke run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `NOTES.md` documents.
    Full,
    /// Short episodes for the benchmark's own tests.
    Smoke,
}

/// How one run is made.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Seed every input derives from.
    pub seed: u64,
    /// Seconds of measurement (at least two episodes always run).
    pub seconds: f64,
    /// Traced run (per-layer table) instead of untraced (end to end).
    pub trace: bool,
    /// Episode sizes.
    pub scale: Scale,
    /// Scratch directory for on-disk state (`log_ingest`); created and
    /// removed by the workload.
    pub work_dir: PathBuf,
}

impl Plan {
    /// Whether the committed golden digest applies to this run.
    pub fn golden_applies(&self) -> bool {
        self.seed == DEFAULT_SEED && self.scale == Scale::Full
    }
}

/// What one workload run measured and checked.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, failed output checks included.
    pub failed: u64,
    /// Why each failure happened.
    pub failures: Vec<String>,
    /// Peak resident memory (MB) after the first episode — before the
    /// benchmark's own sample buffers grow with run length.
    pub peak_rss_mb: Option<f64>,
    /// Set-up times (s), one per timed build of the system.
    pub setup_s: Vec<f64>,
    /// Latency of the workload's unit operation (µs), one per call.
    pub op_us: Vec<f64>,
    /// Host cost per unit of work (ms), one per episode or round.
    pub unit_ms: Vec<f64>,
    /// Reference-kernel timings taken between episodes.
    pub calib: calib::Calibration,
    /// The workload-specific end-to-end figures, with units and sample counts.
    pub details: Vec<Detail>,
    /// Per-layer values (traced runs only).
    pub layers: Option<Layers>,
    /// Simulated-time rows next to the paper's figures.
    pub sim_notes: Vec<(&'static str, &'static str)>,
    /// Digest of episode 0's outputs.
    pub digest: u64,
    /// Episode 0's work shape (counts that do not depend on the seed).
    pub shape: Counts,
}

impl RunReport {
    /// Record a failed output check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.failures.push(why.into());
    }

    /// Compare episode 0's digest with the committed value.
    pub fn check_golden(&mut self, plan: &Plan, golden: u64) {
        if plan.golden_applies() && self.digest != golden {
            self.fail(format!(
                "digest {:016x} differs from the committed {golden:016x}",
                self.digest
            ));
        }
    }

    /// Require two runs of the same seed to give the same counts.
    pub fn check_same_counts(
        &mut self,
        what: &str,
        a: &[(&'static str, u64)],
        b: &[(&'static str, u64)],
    ) {
        if a != b {
            self.fail(format!(
                "{what}: counts differ between runs of one seed: {a:?} vs {b:?}"
            ));
        }
    }
}

/// Run one workload.
pub fn run(workload: Workload, plan: &Plan) -> RunReport {
    match workload {
        Workload::FarmDay => farm_day::run(plan),
        Workload::RanSlicing => ran_slicing::run(plan),
        Workload::CfdField => cfd_field::run(plan),
        Workload::LogIngest => log_ingest::run(plan),
    }
}

/// Named work or allocation counts, exact for a seed.
pub type Counts = Vec<(&'static str, u64)>;

/// The value of `name` in a list of counts (0 when absent).
pub fn count_of(counts: &[(&'static str, u64)], name: &str) -> u64 {
    counts
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// `counts` without the allocation counts: a traced run allocates
/// wall-time histogram buckets, so only its other counts are exact.
pub fn timeless(counts: &[(&'static str, u64)]) -> Counts {
    counts
        .iter()
        .filter(|(n, _)| !n.ends_with("allocs"))
        .copied()
        .collect()
}

/// Tracing overhead (%): median traced wall over median untraced wall
/// of the same episode, minus one.
pub fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    let base = stats::median(untraced);
    100.0 * (stats::median(traced) - base) / base
}

/// Builds of the system timed before every episode. Spreading the
/// builds over the whole run, instead of timing them back to back,
/// keeps one moment of host noise from deciding `setup_s`.
pub const SETUPS_PER_EPISODE: usize = 3;

/// Time `build` `n` times and return the times in seconds. Each built
/// value is dropped outside the timed window.
pub fn time_setup<T>(n: usize, mut build: impl FnMut() -> T) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let (built, ns) = alloc::timed(alloc::Span::Setup, &mut build);
            drop(built);
            ns as f64 / 1e9
        })
        .collect()
}

/// A deadline-driven episode loop: keeps calling `episode(i)` until at
/// least `min` episodes ran and `seconds` elapsed.
pub fn episodes(seconds: f64, min: usize, mut episode: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < min || start.elapsed().as_secs_f64() < seconds {
        episode(i);
        i += 1;
    }
}

/// Reference-kernel samples taken after every untraced episode.
pub const CALIBRATIONS_PER_EPISODE: usize = 2;

/// Peak resident set of this process (MB), from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end metrics every workload reports, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_us", "us"),
    ("unit_ms", "ms"),
];

/// The raw host times behind the scaled end-to-end metrics, and the
/// reference-kernel reading that scales them.
pub fn render_calibration(report: &RunReport) -> String {
    format!(
        "host speed: reference kernel {:.4} ms (nominal {:.4} ms, n={}), scale {:.4}\n\
         raw host time: setup_s {:.6e} s, op_p50_us {:.4} us, unit_ms {:.4} ms\n",
        report.calib.median_ns() / 1e6,
        calib::NOMINAL_REF_NS / 1e6,
        report.calib.len(),
        report.calib.scale(),
        stats::median(&report.setup_s),
        stats::median(&report.op_us),
        stats::median(&report.unit_ms),
    )
}

/// Build the result line: end-to-end metrics for an untraced run (the
/// timed ones scaled to the nominal host, see [`calib`]), the per-layer
/// metrics for a traced one.
pub fn outcome(report: &RunReport, trace: bool) -> Outcome {
    let mut failed = report.failed;
    let mut correct = report.failures.is_empty();
    let metrics = if trace {
        match &report.layers {
            Some(l) => l.metrics(),
            None => {
                correct = false;
                failed += 1;
                Vec::new()
            }
        }
    } else {
        let rss = report.peak_rss_mb;
        if rss.is_none() {
            correct = false;
        }
        let k = report.calib.scale();
        let values = [
            k * stats::median(&report.setup_s),
            rss.unwrap_or(0.0),
            k * stats::median(&report.op_us),
            k * stats::median(&report.unit_ms),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((n, u), v)| Metric::new(n, u, v))
            .collect()
    };
    Outcome {
        correct,
        attempted: report.attempted.max(1),
        failed,
        metrics,
    }
}
