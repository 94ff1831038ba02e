//! `farm_day`: fixed-seed simulated days of the whole closed loop.
//!
//! One episode is one simulated day (288 five-minute report cycles) of
//! an `XgFabric` built on `FabricConfig::default()` plus a sliced 3-cell
//! RAN with a weather UE and a pest camera on the gateway cell, the
//! three-xApp RIC at a 300 s period, ANVIL as failover site, a scripted
//! 30 min UNL-5G↔UCSB partition, a sibling-cell fade, a forced weather
//! front every 4 simulated hours and a west-wall screen breach mid-day.
//! The closed loop calls `run_report_cycle` as soon as the previous
//! call returns.

use crate::alloc::{self, Span};
use crate::layers::Layers;
use crate::report::Detail;
use crate::stats::{episode_seed, median, quantile, Fnv, SplitMix};
use crate::{
    count_of, episodes, overhead_pct, time_setup, Counts, Plan, RunReport, Scale,
    SETUPS_PER_EPISODE,
};
use std::collections::BTreeMap;
use xg_fabric::orchestrator::{FabricConfig, XgFabric};
use xg_fabric::ran::{RanCellSpec, RanTopology, ScenarioUe};
use xg_fabric::timeline::Event;
use xg_faults::{FaultKind, FaultPlan};
use xg_hpc::site::SiteProfile;
use xg_net::fleet::CellId;
use xg_net::prelude::{CellConfig, DeviceClass, Duplex, MHz, Rat};
use xg_net::slice::{SliceConfig, SliceProfile, Snssai};
use xg_net::traffic::TrafficModel;
use xg_obs::{ClockDomain, Obs};
use xg_ric::{BurstGuard, DemandSlicer, McsCapper, Ric};
use xg_sensors::breach::Breach;
use xg_sensors::facility::Wall;

/// Episode-0 digest for [`crate::DEFAULT_SEED`].
pub const GOLDEN: u64 = 0x90dc_e462_66a2_43e6;

/// Report cycles per simulated day at the paper's 300 s interval.
const CYCLES_PER_DAY: usize = 288;
/// A forced weather front every 4 simulated hours.
const FRONT_EVERY: usize = 48;
/// The first front, once the detector has a history window.
const FIRST_FRONT: usize = 24;
/// Untimed cycles allowed after midnight for in-flight solves to land.
const MAX_DRAIN_CYCLES: usize = 24;
/// Report interval (s) of `FabricConfig::default()`.
const INTERVAL_S: f64 = 300.0;

/// The seeded script of one simulated day.
#[derive(Clone, Debug)]
pub struct DayScript {
    /// Fabric seed.
    pub seed: u64,
    /// Report cycles in the day.
    pub cycles: usize,
    /// Start of the 30 min UNL-5G↔UCSB partition (s).
    pub partition_start_s: f64,
    /// Start of the sibling-cell fade (s).
    pub fade_start_s: f64,
    /// Fade length (s).
    pub fade_s: f64,
    /// Fade depth (dB, negative).
    pub fade_db: f64,
    /// Pest-camera burst window on the gateway cell (fleet seconds; the
    /// probe advances the fleet one second per report cycle).
    pub burst_s: (f64, f64),
    /// West-wall panel breached mid-day.
    pub breach_panel: usize,
}

impl DayScript {
    /// The day's script for `seed`.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let cycles = match scale {
            Scale::Full => CYCLES_PER_DAY,
            Scale::Smoke => 96,
        };
        let mut r = SplitMix::new(seed);
        let c = cycles as f64;
        let partition_cycle = r.range(c * 0.25, c * 0.45).floor();
        let fade_cycle = r.range(c * 0.5, c * 0.7).floor();
        let burst = r.range(c * 0.2, c * 0.4).floor();
        DayScript {
            seed,
            cycles,
            partition_start_s: partition_cycle * INTERVAL_S + 150.0,
            fade_start_s: fade_cycle * INTERVAL_S + 150.0,
            fade_s: r.range(2.0, 4.0).floor() * 3_600.0 * c / CYCLES_PER_DAY as f64,
            fade_db: -r.range(10.0, 20.0),
            burst_s: (burst, burst + (c / 12.0).floor()),
            breach_panel: 2 + (r.next_u64() % 8) as usize,
        }
    }

    fn topology(&self) -> RanTopology {
        let mut topo = RanTopology::with_cells(&["UNL-5G", "FIELD-B", "FIELD-C"]);
        let sliced = CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(20.0)).with_slices(
            SliceConfig::new(vec![
                SliceProfile {
                    snssai: Snssai::miot(1),
                    prb_share: 0.5,
                },
                SliceProfile {
                    snssai: Snssai::embb(1),
                    prb_share: 0.5,
                },
            ])
            .expect("two 0.5 shares are a valid slice table"),
        );
        topo.cells[0] = RanCellSpec::paper_default("UNL-5G")
            .with_config(sliced)
            .with_scenario_ue(ScenarioUe {
                device: DeviceClass::RaspberryPi,
                snssai: Snssai::miot(1),
                traffic: TrafficModel::Cbr { rate_mbps: 8.0 },
            })
            .with_scenario_ue(ScenarioUe {
                device: DeviceClass::RaspberryPi,
                snssai: Snssai::embb(1),
                traffic: TrafficModel::pest_camera(8.0, 80.0, self.burst_s.0, self.burst_s.1),
            });
        topo.workers = 1;
        topo
    }

    /// The fabric configuration of this day.
    pub fn config(&self, obs: &Obs) -> FabricConfig {
        let mut ric = Ric::new(self.seed, 300.0);
        ric.register(DemandSlicer::try_new(0.1, 0.5).expect("0.1 floor, 0.5 alpha are valid"));
        ric.register(BurstGuard::new(Snssai::miot(1)));
        ric.register(McsCapper::try_new(7.4).expect("positive max_eff"));
        let faults = FaultPlan::builder(self.seed)
            .scripted(
                self.partition_start_s,
                1_800.0,
                FaultKind::RoutePartition {
                    from: "UNL-5G".into(),
                    to: "UCSB".into(),
                },
            )
            .fade_cell(self.fade_start_s, self.fade_s, "FIELD-B", self.fade_db)
            .build();
        FabricConfig {
            seed: self.seed,
            failover_sites: vec![SiteProfile::anvil()],
            ran: self.topology(),
            ric: Some(ric),
            faults,
            obs: obs.clone(),
            ..FabricConfig::default()
        }
    }
}

/// One simulated day as run.
pub struct Day {
    /// The fabric after the day (its timeline, RAN and RIC state).
    pub fab: XgFabric,
    /// Wall time of each `run_report_cycle` (ns).
    pub cycle_ns: Vec<u64>,
    /// Whether a CFD solve completed inside each cycle.
    pub cfd_cycle: Vec<bool>,
    /// Cycles that returned an error.
    pub errors: u64,
    /// Output-check failures.
    pub failures: Vec<String>,
    /// Digest of the timeline and reliability report.
    pub digest: u64,
    /// Allocations made inside the timed `run_report_cycle` calls.
    pub allocs: u64,
    /// Untimed cycles run after midnight to drain in-flight solves.
    pub drained: usize,
}

impl Day {
    /// Total wall time of the day's cycles (ns).
    pub fn wall_ns(&self) -> u64 {
        self.cycle_ns.iter().sum()
    }

    /// Counts that do not depend on wall time (equal for every run of
    /// one seed, traced or not).
    pub fn counts(&self) -> Counts {
        let fleet = self.fab.ran().fleet();
        let (mut ttis, mut active) = (0, 0);
        for i in 0..fleet.len() {
            let cell = fleet.cell(CellId(i as u32)).expect("cell index in range");
            ttis += cell.slots_elapsed();
            active += cell.active_slots();
        }
        let rel = self.fab.reliability_report();
        vec![
            ("cycles", self.cycle_ns.len() as u64),
            ("drain_cycles", self.drained as u64),
            (
                "cfd_cycles",
                self.cfd_cycle.iter().filter(|&&c| c).count() as u64,
            ),
            ("ttis", ttis),
            ("active_ttis", active),
            (
                "ric_periods",
                self.fab.ric().map(|r| r.periods()).unwrap_or(0),
            ),
            ("detections", u64::from(rel.detections)),
            ("cfd_triggered", u64::from(rel.cfd_triggered)),
            ("records", telemetry_records(&self.fab)),
        ]
    }
}

fn telemetry_records(fab: &XgFabric) -> u64 {
    fab.timeline()
        .events
        .iter()
        .map(|e| match e {
            Event::TelemetryShipped { records, .. } => *records as u64,
            _ => 0,
        })
        .sum()
}

/// Run one simulated day, closed loop, timing every report cycle.
pub fn run_day(script: &DayScript, obs: &Obs) -> Day {
    let mut fab = XgFabric::try_new(script.config(obs)).expect("the day's fabric builds");
    let mut cycle_ns = Vec::with_capacity(script.cycles);
    let mut cfd_cycle = Vec::with_capacity(script.cycles);
    let mut errors = 0;
    let mut failures = Vec::new();
    let allocs_before = alloc::allocs(Span::FabricCycle);
    for c in 0..script.cycles {
        if c >= FIRST_FRONT
            && (c - FIRST_FRONT).is_multiple_of(FRONT_EVERY)
            && c + FIRST_FRONT <= script.cycles
        {
            fab.force_front();
        }
        if c == script.cycles / 2 {
            fab.inject_breach(Breach::new(Wall::West, script.breach_panel, 12.0));
        }
        let seen = fab.timeline().events.len();
        let (res, ns) = alloc::timed(Span::FabricCycle, || fab.run_report_cycle());
        if let Err(e) = res {
            errors += 1;
            failures.push(format!("cycle {c}: {e}"));
        }
        cycle_ns.push(ns);
        cfd_cycle.push(
            fab.timeline().events[seen..]
                .iter()
                .any(|e| matches!(e, Event::CfdCompleted { .. })),
        );
    }
    Day {
        allocs: alloc::allocs(Span::FabricCycle) - allocs_before,
        fab,
        cycle_ns,
        cfd_cycle,
        errors,
        failures,
        digest: 0,
        drained: 0,
    }
}

/// Close a day: drain in-flight solves, check the outputs, digest the
/// timeline. A front detected late in the day leaves its solve in
/// flight at midnight, so untimed cycles run until every triggered
/// solve completed (at most [`MAX_DRAIN_CYCLES`]).
pub fn finish_day(day: &mut Day) {
    let fab = &mut day.fab;
    while day.drained < MAX_DRAIN_CYCLES {
        let rel = fab.reliability_report();
        if rel.cfd_completed == rel.cfd_triggered {
            break;
        }
        if let Err(e) = fab.run_report_cycle() {
            day.errors += 1;
            day.failures
                .push(format!("drain cycle {}: {e}", day.drained));
        }
        day.drained += 1;
    }
    let rel = fab.reliability_report();
    if !rel.lossless() {
        day.failures.push(format!("telemetry lost: {rel}"));
    }
    if rel.cfd_completed != rel.cfd_triggered {
        day.failures.push(format!(
            "cfd_completed {} != cfd_triggered {}",
            rel.cfd_completed, rel.cfd_triggered
        ));
    }
    if rel.cfd_triggered == 0 {
        day.failures
            .push("no forced front triggered a CFD solve".into());
    }
    let mut h = Fnv::default();
    for e in &fab.timeline().events {
        h.write(format!("{e:?}").as_bytes());
    }
    h.write(format!("{rel:?}").as_bytes());
    day.digest = h.finish();
}

/// Total duration (µs) of every wall-domain span, by name.
fn wall_span_totals(spans: &[xg_obs::SpanRecord]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.domain == ClockDomain::Wall) {
        *out.entry(s.name.clone()).or_insert(0) += s.end_us.saturating_sub(s.start_us);
    }
    out
}

/// The per-layer table of one traced day.
///
/// Phase spans split the cycle; the wall-time profile scopes the
/// program emits (`cfd.step`, `ran.fleet.batch`, `ric.step`) split
/// the phases that contain them. Sim-domain spans and the sim-domain
/// `ran.fleet.sim` profile subtree are never summed here.
fn traced_layers(day: &Day, obs: &Obs) -> (Layers, Counts) {
    let tracer = obs.tracer().expect("traced day has a tracer");
    let spans = tracer.take_spans();
    let wall = wall_span_totals(&spans);
    let span_ms = |name: &str| wall.get(name).copied().unwrap_or(0) as f64 / 1e3;
    let prof = obs
        .profiler()
        .expect("traced day has a profiler")
        .snapshot();
    let scope_ms = |path: &str| prof.nodes.get(path).map(|n| n.total_ns).unwrap_or(0) as f64 / 1e6;
    let reg = obs.registry().expect("traced day has a registry");

    let phases = [
        "fabric.faults.advance",
        "fabric.ran.probe",
        "fabric.ric.step",
        "fabric.sense.poll",
        "fabric.gateway.ship",
        "fabric.hpc.advance",
        "fabric.slo.observe",
        "fabric.change.detect",
    ];
    let phase_sum: f64 = phases.iter().map(|p| span_ms(p)).sum();
    let cfd = scope_ms("cfd.step");
    let net = scope_ms("ran.fleet.batch");
    let ric = scope_ms("ric.step");
    let glue = (span_ms("fabric.cycle") - phase_sum)
        + span_ms("fabric.faults.advance")
        + (span_ms("fabric.ran.probe") - net)
        + (span_ms("fabric.ric.step") - ric);

    let mut l = Layers::default();
    l.set("xg-cfd.self_ms", cfd);
    l.set("xg-hpc.self_ms", span_ms("fabric.hpc.advance") - cfd);
    l.set("xg-net.self_ms", net);
    l.set("xg-ric.self_ms", ric);
    l.set("xg-sensors.self_ms", span_ms("fabric.sense.poll"));
    l.set("xg-cspot.ship_self_ms", span_ms("fabric.gateway.ship"));
    l.set("xg-laminar.self_ms", span_ms("fabric.change.detect"));
    l.set("xg-obs.slo_self_ms", span_ms("fabric.slo.observe"));
    l.set("xg-fabric.self_ms", glue);
    l.close(day.wall_ns() as f64 / 1e6);

    // Work counters the program emits, plus the CFD work the solve
    // spans describe (cells × steps per completed solve).
    let mut cell_steps = 0u64;
    for s in spans.iter().filter(|s| s.name == "cfd.solve") {
        let attr = |k: &str| {
            s.attrs
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| v.as_str())
        };
        let cells: u64 = attr("cells")
            .map(|c| c.split('x').filter_map(|d| d.parse::<u64>().ok()).product())
            .unwrap_or(0);
        let steps: u64 = attr("steps").and_then(|v| v.parse().ok()).unwrap_or(0);
        cell_steps += cells * steps;
    }
    let counter = |n: &str| reg.counter(n).get();
    let poisson = reg.histogram("cfd.poisson.iterations").snapshot().sum() as u64;
    let base = day.counts();
    let get = |k: &str| count_of(&base, k);
    let traced_counts = vec![
        ("cell_steps", cell_steps),
        ("poisson_iters", poisson),
        ("ric_actions", counter("fabric.ric.actions")),
        ("ric_held", counter("fabric.ric.held")),
        ("appends", counter("cspot.append.ok")),
        ("append_retries", counter("cspot.append.retries")),
        ("tasks_dispatched", counter("hpc.tasks.dispatched")),
        ("pilots_submitted", counter("hpc.pilots.submitted")),
    ];
    let tget = |k: &str| count_of(&traced_counts, k) as f64;
    l.set("xg-cfd.cell_steps", tget("cell_steps"));
    l.set("xg-cfd.poisson_iters", tget("poisson_iters"));
    l.set("xg-net.ttis", get("ttis") as f64);
    l.set("xg-net.active_ttis", get("active_ttis") as f64);
    l.set("xg-ric.periods", get("ric_periods") as f64);
    l.set("xg-ric.actions", tget("ric_actions"));
    l.set("xg-ric.held", tget("ric_held"));
    l.set("xg-cspot.appends", tget("appends"));
    l.set("xg-cspot.append_retries", tget("append_retries"));
    l.set("xg-hpc.tasks_dispatched", tget("tasks_dispatched"));
    l.set("xg-hpc.pilots_submitted", tget("pilots_submitted"));
    l.set("xg-laminar.detections", get("detections") as f64);
    l.set("xg-sensors.records", get("records") as f64);
    set_sim_rows(&mut l, &day.fab);
    let mut all = base;
    all.extend(traced_counts);
    (l, all)
}

fn set_sim_rows(l: &mut Layers, fab: &XgFabric) {
    let runtimes: Vec<f64> = fab
        .timeline()
        .events
        .iter()
        .filter_map(|e| match e {
            Event::CfdCompleted {
                model_runtime_s, ..
            } => Some(*model_runtime_s),
            _ => None,
        })
        .collect();
    l.set(
        "sim.transfer_ms_p50",
        median(&fab.timeline().telemetry_latencies_ms()),
    );
    l.set("sim.cfd_runtime_s", median(&runtimes));
    l.set("sim.seconds", fab.now_s());
}

/// The paper's figures the simulated-time rows sit next to.
const SIM_NOTES: &[(&str, &str)] = &[
    (
        "sim.transfer_ms_p50",
        "(paper §4.4 / Table 1: ~200 ms per message pair over 5G)",
    ),
    ("sim.cfd_runtime_s", "(paper §4.4: ~7 min CFD on 64 cores)"),
    (
        "sim.seconds",
        "(paper §4.4: 300 s duty cycle, 12 cycles per simulated hour)",
    ),
];

fn absorb_day(r: &mut RunReport, day: &Day) {
    r.attempted += (day.cycle_ns.len() + day.drained) as u64;
    r.failed += day.errors;
    for f in &day.failures {
        r.fail(f.clone());
    }
}

/// Run `farm_day` under `plan`.
pub fn run(plan: &Plan) -> RunReport {
    let mut r = RunReport {
        sim_notes: SIM_NOTES.to_vec(),
        ..RunReport::default()
    };
    let script0 = DayScript::new(episode_seed(plan.seed, 0), plan.scale);
    // Warm-up outside the measurement: lazy statics, first-touch pages.
    let warm = DayScript {
        cycles: 12,
        ..script0.clone()
    };
    finish_day(&mut run_day(&warm, &Obs::disabled()));
    if plan.trace {
        return run_traced(plan, &script0, r);
    }
    let mut quiet_us = Vec::new();
    let mut cfd_ms = Vec::new();
    let mut hour_ms = Vec::new();
    episodes(plan.seconds, 2, |i| {
        let script = DayScript::new(episode_seed(plan.seed, i), plan.scale);
        r.setup_s.extend(time_setup(SETUPS_PER_EPISODE, || {
            XgFabric::try_new(script.config(&Obs::disabled()))
        }));
        let mut day = run_day(&script, &Obs::disabled());
        finish_day(&mut day);
        absorb_day(&mut r, &day);
        for (&ns, &cfd) in day.cycle_ns.iter().zip(&day.cfd_cycle) {
            if cfd {
                cfd_ms.push(ns as f64 / 1e6);
            } else {
                quiet_us.push(ns as f64 / 1e3);
            }
        }
        let sim_hours = script.cycles as f64 * INTERVAL_S / 3_600.0;
        hour_ms.push(day.wall_ns() as f64 / 1e6 / sim_hours);
        if i == 0 {
            r.peak_rss_mb = crate::peak_rss_mb();
            r.digest = day.digest;
            r.shape = vec![
                ("cycles", day.cycle_ns.len() as u64),
                ("cells", day.fab.ran().len() as u64),
            ];
        }
        // After the episode: the first RSS reading precedes the
        // reference kernel's buffers.
        r.calib.sample(crate::CALIBRATIONS_PER_EPISODE);
    });
    r.check_golden(plan, GOLDEN);
    r.details = vec![
        Detail::new(
            "host_ms_per_sim_hour",
            "ms",
            median(&hour_ms),
            hour_ms.len(),
        )
        .note("(§4.4 virtual budget: 12 report cycles = 3,600,000 ms per simulated hour)"),
        Detail::new(
            "quiet_cycle_p50_us",
            "us",
            median(&quiet_us),
            quiet_us.len(),
        ),
        Detail::new(
            "quiet_cycle_p99_us",
            "us",
            quantile(&quiet_us, 0.99).unwrap_or(0.0),
            quiet_us.len(),
        ),
        Detail::new("cfd_cycle_p50_ms", "ms", median(&cfd_ms), cfd_ms.len()),
    ];
    r.op_us = quiet_us;
    r.unit_ms = hour_ms;
    r
}

/// Traced run: the same day untraced and traced, alternately. The
/// traced days give the per-layer table; the untraced ones the
/// allocation counts and the tracing overhead.
fn run_traced(plan: &Plan, script: &DayScript, mut r: RunReport) -> RunReport {
    let mut untraced: Vec<Day> = Vec::new();
    let mut traced: Vec<(Day, Layers, Counts)> = Vec::new();
    episodes(plan.seconds, 2, |_| {
        let mut day = run_day(script, &Obs::disabled());
        finish_day(&mut day);
        absorb_day(&mut r, &day);
        untraced.push(day);
        // The table covers the timed cycles: read it before the drain.
        let obs = Obs::enabled();
        let mut day = run_day(script, &obs);
        let (layers, counts) = traced_layers(&day, &obs);
        finish_day(&mut day);
        absorb_day(&mut r, &day);
        traced.push((day, layers, counts));
    });
    let digest = untraced[0].digest;
    r.digest = digest;
    r.check_golden(plan, GOLDEN);
    for (day, _, counts) in &traced[1..] {
        r.check_same_counts("traced farm_day", &traced[0].2, counts);
        if day.digest != digest {
            r.fail("timeline digest differs between tracing on and off");
        }
    }
    if traced[0].0.digest != digest {
        r.fail("timeline digest differs between tracing on and off");
    }
    let alloc_counts = |d: &Day| {
        let mut c = d.counts();
        c.push(("allocs", d.allocs));
        c
    };
    for day in &untraced[1..] {
        r.check_same_counts(
            "untraced farm_day",
            &alloc_counts(&untraced[0]),
            &alloc_counts(day),
        );
    }
    // Report the traced day with the median wall time.
    traced.sort_by_key(|(d, _, _)| d.wall_ns());
    let (mid_day, mid, _) = &traced[(traced.len() - 1) / 2];
    let mut layers = mid.clone();
    let untraced_ms: Vec<f64> = untraced.iter().map(|d| d.wall_ns() as f64 / 1e6).collect();
    let traced_ms: Vec<f64> = traced
        .iter()
        .map(|(d, _, _)| d.wall_ns() as f64 / 1e6)
        .collect();
    layers.set(
        "xg-obs.overhead_pct",
        overhead_pct(&untraced_ms, &traced_ms),
    );
    layers.set(
        "xg-fabric.allocs_per_cycle",
        untraced[0].allocs as f64 / untraced[0].cycle_ns.len() as f64,
    );
    r.shape = vec![("cycles", untraced[0].cycle_ns.len() as u64)];
    r.details = vec![Detail::new(
        "traced_wall_ms",
        "ms",
        mid_day.wall_ns() as f64 / 1e6,
        traced.len(),
    )];
    r.layers = Some(layers);
    r
}
