//! The per-layer table: one row per crate, wall domain only.
//!
//! Self times come from benchmark-side spans around the calls into each
//! layer, or — inside `run_report_cycle`, where the layers run within
//! one call — from the wall-domain phase spans (`fabric.cycle/fabric.*`)
//! and wall-time profile scopes the program already emits. Simulated
//! time (`sim.*`) is kept in a block of its own and is never added to
//! host time.

use crate::report::Metric;
use std::fmt::Write as _;

/// Every per-layer metric, in report order, with its unit. A workload
/// that does not run a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("xg-cfd.self_ms", "ms"),
    ("xg-cfd.cell_steps", "count"),
    ("xg-cfd.poisson_iters", "count"),
    ("xg-cfd.allocs", "count"),
    ("xg-net.self_ms", "ms"),
    ("xg-net.ttis", "count"),
    ("xg-net.active_ttis", "count"),
    ("xg-net.allocs", "count"),
    ("xg-ric.self_ms", "ms"),
    ("xg-ric.periods", "count"),
    ("xg-ric.actions", "count"),
    ("xg-ric.held", "count"),
    ("xg-ric.allocs", "count"),
    ("xg-cspot.ship_self_ms", "ms"),
    ("xg-cspot.appends", "count"),
    ("xg-cspot.append_retries", "count"),
    ("xg-cspot.append_self_ms", "ms"),
    ("xg-cspot.sync_self_ms", "ms"),
    ("xg-cspot.replicate_self_ms", "ms"),
    ("xg-cspot.recover_self_ms", "ms"),
    ("xg-cspot.records", "count"),
    ("xg-cspot.disk_bytes", "bytes"),
    ("xg-cspot.allocs_per_append", "count"),
    ("xg-hpc.self_ms", "ms"),
    ("xg-hpc.tasks_dispatched", "count"),
    ("xg-hpc.pilots_submitted", "count"),
    ("xg-laminar.self_ms", "ms"),
    ("xg-laminar.detections", "count"),
    ("xg-sensors.self_ms", "ms"),
    ("xg-sensors.records", "count"),
    ("xg-obs.slo_self_ms", "ms"),
    ("xg-obs.overhead_pct", "%"),
    ("xg-fabric.self_ms", "ms"),
    ("xg-fabric.allocs_per_cycle", "count"),
    ("unattributed_ms", "ms"),
    ("traced_wall_ms", "ms"),
    ("sim.transfer_ms_p50", "ms"),
    ("sim.cfd_runtime_s", "s"),
    ("sim.seconds", "s"),
];

/// Per-layer values of one traced run, keyed by [`PER_LAYER`] name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Layers {
    values: Vec<(&'static str, f64)>,
}

impl Layers {
    /// Set one value. Panics on a name outside [`PER_LAYER`]: that is a
    /// bug in the benchmark, not a measurement.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// A value, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    }

    /// Close the attribution: `unattributed_ms` is the traced wall minus
    /// every layer's self time, so the table sums to the wall exactly.
    pub fn close(&mut self, traced_wall_ms: f64) {
        let attributed: f64 = self.self_times().iter().map(|(_, v)| v).sum();
        self.set("traced_wall_ms", traced_wall_ms);
        self.set("unattributed_ms", traced_wall_ms - attributed);
    }

    /// Every wall-domain self-time row (name ends in `self_ms`).
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .filter(|(n, _)| n.ends_with("self_ms"))
            .map(|(n, _)| (*n, self.get(n)))
            .collect()
    }

    /// All per-layer metrics in report order.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(n, u)| Metric::new(n, u, self.get(n)))
            .collect()
    }

    /// The human-readable table: wall rows with their share of the
    /// traced wall, then counters, then the simulated-time block.
    pub fn render(&self, sim_notes: &[(&str, &str)]) -> String {
        let wall = self.get("traced_wall_ms");
        let mut s = String::from("per-layer table (traced run, wall domain, layer = crate)\n");
        let mut rows = self.self_times();
        rows.push(("unattributed_ms", self.get("unattributed_ms")));
        for (n, v) in rows {
            let share = if wall > 0.0 { 100.0 * v / wall } else { 0.0 };
            let _ = writeln!(s, "  {n:<28} {v:>12.3} ms  {share:>6.2}%");
        }
        let _ = writeln!(s, "  {:<28} {wall:>12.3} ms", "traced wall");
        s.push_str("counters (exact for a seed)\n");
        for (n, u) in PER_LAYER {
            if n.ends_with("self_ms")
                || n.starts_with("sim.")
                || matches!(
                    *n,
                    "unattributed_ms" | "traced_wall_ms" | "xg-obs.overhead_pct"
                )
            {
                continue;
            }
            let _ = writeln!(s, "  {n:<28} {:>14} {u}", self.get(n));
        }
        let _ = writeln!(
            s,
            "  {:<28} {:>14.2} %",
            "xg-obs.overhead_pct",
            self.get("xg-obs.overhead_pct")
        );
        s.push_str("simulated time (reported apart, never added to host time)\n");
        for (n, u) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("sim.")) {
            let note = sim_notes
                .iter()
                .find(|(k, _)| k == n)
                .map(|(_, v)| *v)
                .unwrap_or("");
            let _ = writeln!(s, "  {n:<28} {:>14.3} {u:<3} {note}", self.get(n));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_sums_to_the_traced_wall() {
        let mut l = Layers::default();
        l.set("xg-cfd.self_ms", 90.0);
        l.set("xg-net.self_ms", 6.5);
        l.set("xg-cfd.cell_steps", 1e6);
        l.set("sim.seconds", 86_400.0);
        l.close(100.0);
        let sum: f64 =
            l.self_times().iter().map(|(_, v)| v).sum::<f64>() + l.get("unattributed_ms");
        assert!((sum - 100.0).abs() < 1e-9);
        assert!((l.get("unattributed_ms") - 3.5).abs() < 1e-9);
    }

    #[test]
    fn every_metric_is_reported_once() {
        let l = Layers::default();
        let names: Vec<String> = l.metrics().into_iter().map(|m| m.name).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
