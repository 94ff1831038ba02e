//! Host-speed calibration.
//!
//! The development host is a 2-vCPU VM whose speed drifts by tens of
//! percent over minutes (co-tenants, steal time, shared caches). Eight
//! 25 s runs of `ran_slicing` spread by ~25% in raw host time, and
//! `cfd_field` by ~17%: no margin under the largest bound the benchmark
//! may set (25%). A fixed reference kernel is therefore timed after every
//! untraced episode, and the timed end-to-end metrics are reported
//! scaled to a nominal host: `scaled = raw × NOMINAL_REF_NS /
//! median(reference times of the run)`. The same eight runs then spread
//! by 8–13%. The kernel runs none of the program's code, so a program
//! change moves the scaled and the raw figures alike. Only host drift
//! cancels. The raw figures are printed above the result line.

use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's time on the nominal host (ns): about its
/// median on the 2-vCPU development VM.
pub const NOMINAL_REF_NS: f64 = 5_500_000.0;

/// Elements of the kernel's compute buffer (1 MiB of f64).
const CELLS: usize = 1 << 17;
/// Elements of its streaming buffer (8 MiB of f64): beyond the
/// per-core caches, so memory contention slows the kernel as it slows
/// the workloads' own state.
const STREAM: usize = 1 << 20;
/// Smoothing sweeps and streaming passes per call.
const SWEEPS: usize = 4;
const PASSES: usize = 2;

/// Reference-kernel timings of one run.
#[derive(Clone, Debug, Default)]
pub struct Calibration {
    buf: Vec<f64>,
    stream: Vec<f64>,
    samples_ns: Vec<f64>,
}

impl Calibration {
    /// Time the reference kernel `n` times.
    pub fn sample(&mut self, n: usize) {
        if self.buf.is_empty() {
            self.buf = (0..CELLS).map(|i| (i % 97) as f64).collect();
            self.stream = (0..STREAM).map(|i| (i % 89) as f64).collect();
        }
        for _ in 0..n {
            let start = Instant::now();
            black_box(kernel(
                black_box(&mut self.buf),
                black_box(&mut self.stream),
            ));
            self.samples_ns.push(start.elapsed().as_nanos() as f64);
        }
    }

    /// Median reference time of this run (ns).
    pub fn median_ns(&self) -> f64 {
        crate::stats::median(&self.samples_ns)
    }

    /// Samples taken.
    pub fn len(&self) -> usize {
        self.samples_ns.len()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.samples_ns.is_empty()
    }

    /// Factor that scales a raw host time of this run to the nominal
    /// host (1.0 before any sample).
    pub fn scale(&self) -> f64 {
        if self.samples_ns.is_empty() {
            1.0
        } else {
            NOMINAL_REF_NS / self.median_ns()
        }
    }
}

/// Dependent float work (smoothing sweeps over the compute buffer),
/// streaming memory traffic (scaling passes over the stream buffer) and
/// integer hashing.
fn kernel(buf: &mut [f64], stream: &mut [f64]) -> u64 {
    let n = buf.len();
    for _ in 0..SWEEPS {
        for i in 1..n - 1 {
            buf[i] = 0.25 * buf[i - 1] + 0.5 * buf[i] + 0.25 * buf[i + 1] + 1e-3;
        }
    }
    for _ in 0..PASSES {
        for x in stream.iter_mut() {
            *x = *x * 0.999 + 1.0;
        }
    }
    let mut h = crate::stats::Fnv::default();
    for x in buf.iter().chain(stream.iter()).step_by(64) {
        h.f64(*x);
    }
    h.finish()
}
