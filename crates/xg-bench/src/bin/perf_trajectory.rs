//! Perf trajectory: a schema-versioned performance snapshot of the hot
//! paths, plus a regression gate over a committed baseline.
//!
//! The probes cover the layers a change typically touches:
//!
//! * `histogram_record_ns` — one log-linear histogram record (the cost
//!   every instrumented call site pays when observability is on);
//! * `span_record_ns` — one completed span through the tracer *and* the
//!   black-box flight-recorder sink;
//! * `cspot_append_us` — one two-phase remote append over the paper
//!   topology into a *durable* segmented log that already holds a
//!   million records (protocol + storage-engine CPU; group commit keeps
//!   fsyncs off the per-append path, and the virtual clock makes the
//!   simulated network free);
//! * `cspot_recovery_ms` — full crash recovery (mount + record-level
//!   verification of every sealed segment) over that same million-record
//!   log;
//! * `cfd_sweep_ms` — one solver step on a small mesh;
//! * `fleet_cell_second_ms` — one cell-second of batched TTI stepping
//!   across a 4-cell RAN fleet (serial shard, so the number tracks the
//!   per-cell cost rather than the host's core count);
//! * `idle_hour_ms` — one idle-heavy simulated hour (a quiet weather
//!   cell reporting 48 bytes per 300 s) through the event engine's
//!   `advance_to`; the probe also gates on the idle-skip speedup over
//!   the stepped reference engine, failing the run if skipping idle
//!   TTIs stops paying for itself;
//! * `cycle_wall_ms` — one full orchestrated report cycle, wall clock,
//!   with `cycle_transfer_virtual_ms` (deterministic virtual time) from
//!   the same run as a machine-independent companion;
//! * `ric_loop_us` — one near-RT RIC control period (indication ingest,
//!   the shipping three-xApp stack, conflict resolution) over a
//!   synthetic four-cell burst indication — the budget the RIC spends
//!   inside every report cycle;
//! * `ric_reaction_ms` — deterministic virtual time from a pest-image
//!   burst's onset to the burst-guard's corrective action landing on
//!   the live fleet, over the orchestrated pest scenario. The onset is
//!   placed *partway through* an indication period, so the sample
//!   resolves below the 300 s period (a healthy loop reacts in under
//!   two periods; the distribution's spread is the sub-period onset
//!   phase, not noise);
//! * `profile_overhead_ns` — one hierarchical-profiler scoped guard
//!   (enter + timed exit), the cost every profiled hot path pays;
//! * `critical_path_extract_us` — critical-path extraction over a
//!   synthetic report-cycle span tree (the per-cycle analysis cost the
//!   orchestrator pays when observability is on);
//! * `lint_workspace_ms` — one full two-pass `xg-lint` run over the
//!   live workspace (walk, parallel per-file semantic analysis,
//!   cross-file obs-schema and stale-waiver finalize) — the latency the
//!   CI gate and every pre-commit hook pays end to end.
//!
//! Run: `cargo run -p xg-bench --release --bin perf_trajectory`
//! (writes `results/perf_trajectory.json`), or
//! `-- --emit BENCH_pr4.json` to write a baseline, or
//! `-- --compare BENCH_pr4.json [--tolerance 0.10]` to run the gate: it
//! exits nonzero when any metric's p99 regresses more than the tolerance
//! over the baseline. `XG_PERF_SCALE=0.1` shrinks iteration counts for
//! CI; wall-clock numbers move with the host, so CI gates should widen
//! the tolerance rather than trust a baseline from another machine.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use xg_bench::traj::{
    compare, perf_scale, render, scaled, summarize, write_atomic, Summary, SCHEMA,
};
use xg_bench::{effective_seed, obs_from_env, print_run_header, write_results};
use xg_cfd::prelude::*;
use xg_cspot::netsim::{SimClock, Topology};
use xg_cspot::node::CspotNode;
use xg_cspot::protocol::{RemoteAppender, RemoteConfig};
use xg_cspot::segment::{SegmentConfig, SyncPolicy};
use xg_fabric::orchestrator::{FabricConfig, XgFabric};
use xg_fabric::ran::{RanCellSpec, RanTopology, ScenarioUe};
use xg_fabric::timeline::Event;
use xg_net::e2::{CellIndication, SliceReport, UeReport};
use xg_net::prelude::*;
use xg_net::slice::SliceProfile;
use xg_net::traffic::TrafficModel;
use xg_obs::Obs;
use xg_ric::{BurstGuard, DemandSlicer, McsCapper, Ric};

fn bench_histogram_record() -> Summary {
    let obs = Obs::enabled();
    let h = obs.registry().expect("obs enabled").histogram("bench.hist");
    const BATCH: usize = 128;
    let batches = scaled(256);
    let mut samples = Vec::with_capacity(batches);
    for b in 0..batches {
        let start = Instant::now();
        for i in 0..BATCH {
            h.record(1.0 + (b * BATCH + i) as f64);
        }
        samples.push(start.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    summarize("histogram_record_ns", "ns", samples)
}

fn bench_span_record() -> Summary {
    let obs = Obs::enabled();
    let tracer = obs.tracer().expect("obs enabled");
    let trace = tracer.new_trace();
    const BATCH: usize = 32;
    let batches = scaled(128);
    let mut samples = Vec::with_capacity(batches);
    for b in 0..batches {
        let start = Instant::now();
        for i in 0..BATCH {
            let t = (b * BATCH + i) as f64;
            tracer.record_sim_s(trace, None, "bench.span", t, t + 0.5, vec![]);
        }
        samples.push(start.elapsed().as_nanos() as f64 / BATCH as f64);
        // Keep the tracer's buffer flat so later batches don't pay for
        // earlier ones; the recorder ring is bounded by construction.
        tracer.take_spans();
    }
    summarize("span_record_ns", "ns", samples)
}

/// Durable CSPOT storage probes, sharing one populated store: append
/// latency against a million-record segmented log, then full crash
/// recovery over the same directory.
fn bench_cspot_storage(seed: u64) -> (Summary, Summary) {
    let dir = std::env::temp_dir().join(format!("xg-bench-seglog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let storage = SegmentConfig {
        segment_bytes: 4 * 1024 * 1024,
        retain_segments: None,
        sync: SyncPolicy::GroupCommit { every: 1024 },
        index_stride: 256,
    };
    const ELEMENT: usize = 64;
    let server = Arc::new(CspotNode::durable_with_storage(
        "UCSB",
        &dir,
        storage.clone(),
    ));
    server
        .create_log("bench", ELEMENT, 4096)
        .expect("fresh log");
    let log = server.log("bench").expect("just created");
    // Grow the log to a million durable records so the measured appends
    // run against realistic segment counts and index sizes, not an empty
    // file. (Scaled down in CI via XG_PERF_SCALE.)
    let payload = vec![0u8; ELEMENT];
    for _ in 0..scaled(1_000_000) {
        log.append(&payload).expect("populate append");
    }
    // Drain the group-commit window so measurement starts cold.
    log.sync().expect("populate sync");

    let topo = Topology::paper();
    let mut appender = RemoteAppender::new(
        SimClock::new(),
        topo.route("UNL-5G", "UCSB").expect("route exists").clone(),
        RemoteConfig::default(),
        seed,
    );
    // Warm-up outside the measured window: connection establishment and
    // first-touch allocations land here, the way the paper discards its
    // first latency sample (§4.2's start-up penalty).
    for _ in 0..32 {
        appender
            .append(&server, "bench", &payload)
            .expect("warm-up append");
    }
    let appends = scaled(400);
    let mut samples = Vec::with_capacity(appends);
    for _ in 0..appends {
        let start = Instant::now();
        appender
            .append(&server, "bench", &payload)
            .expect("append over healthy route");
        samples.push(start.elapsed().as_nanos() as f64 / 1_000.0);
    }
    let append_summary = summarize("cspot_append_us", "us", samples);
    log.sync().expect("post-measure sync");
    drop(log);
    drop(server);

    // Crash recovery over the same store: mount + footer checks + full
    // record-level verification of every sealed segment.
    let rounds = scaled(5);
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        let node = CspotNode::durable_with_storage("UCSB", &dir, storage.clone());
        let log = node.open_log("bench", ELEMENT, 4096).expect("recovery");
        assert!(log.latest_seq().is_some(), "recovered records");
        samples.push(start.elapsed().as_secs_f64() * 1_000.0);
    }
    let _ = std::fs::remove_dir_all(&dir);
    (
        append_summary,
        summarize("cspot_recovery_ms", "ms", samples),
    )
}

fn bench_cfd_sweep() -> Summary {
    let mesh = Mesh::generate(&DomainSpec::cups_default().with_cells(16, 12, 4));
    let bc = BoundarySpec::intact(6.0, 270.0, 24.0);
    let mut sim = Simulation::new(mesh, bc, SolverConfig::default());
    let steps = scaled(40);
    let mut samples = Vec::with_capacity(steps);
    for _ in 0..steps {
        let start = Instant::now();
        sim.step();
        samples.push(start.elapsed().as_secs_f64() * 1_000.0);
    }
    summarize("cfd_sweep_ms", "ms", samples)
}

fn bench_fleet_step(seed: u64) -> Summary {
    const CELLS: u32 = 4;
    const UES_PER_CELL: usize = 4;
    let mut fleet = RanFleet::builder(seed)
        .cells(
            CELLS as usize,
            CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(20.0)),
        )
        .workers(1)
        .build()
        .expect("paper cell config is valid");
    for c in 0..CELLS {
        for _ in 0..UES_PER_CELL {
            let ue = fleet
                .attach(CellId(c), DeviceClass::RaspberryPi, Modem::Rm530nGl)
                .expect("cell exists");
            fleet.set_backlogged(ue, true).expect("ue exists");
        }
    }
    let batches = scaled(24);
    let mut samples = Vec::with_capacity(batches);
    for _ in 0..batches {
        let start = Instant::now();
        fleet.measure_seconds(1);
        samples.push(start.elapsed().as_secs_f64() * 1_000.0 / CELLS as f64);
    }
    summarize("fleet_cell_second_ms", "ms", samples)
}

/// A quiet weather-station cell: one UE trickling 48 bytes per 300 s.
fn quiet_cell(seed: u64) -> LinkSimulator {
    let cell = CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(20.0));
    let mut sim = LinkSimulator::try_new(cell, seed).expect("paper cell config is valid");
    let ue = sim
        .attach(
            DeviceClass::RaspberryPi,
            Modem::paper_default(DeviceClass::RaspberryPi, Rat::Nr5g),
        )
        .expect("attach");
    sim.set_traffic(
        ue,
        TrafficModel::Periodic {
            payload_bytes: 48,
            interval_s: 300.0,
        },
    )
    .expect("known ue");
    sim
}

fn bench_idle_skip(seed: u64) -> Summary {
    // One idle-heavy simulated hour per sample: the event engine
    // executes only the ~12 report arrivals and skips the other ~3.6M
    // TTIs in O(1) jumps, so the wall cost is O(events).
    let rounds = scaled(8).max(2);
    let mut samples = Vec::with_capacity(rounds);
    for i in 0..rounds {
        let mut sim = quiet_cell(seed.wrapping_add(i as u64));
        let start = Instant::now();
        sim.advance_to(SimNs::from_secs(3_600)).expect("infallible");
        samples.push(start.elapsed().as_secs_f64() * 1_000.0);
        std::hint::black_box(sim.active_slots());
    }
    // The speedup gate: the same quiet minute through the stepped
    // reference engine must cost decisively more than through the event
    // engine, or idle skipping has silently stopped working.
    let mut event = quiet_cell(seed);
    let start = Instant::now();
    event.advance_to(SimNs::from_secs(60)).expect("infallible");
    let event_s = start.elapsed().as_secs_f64().max(1e-9);
    let mut stepped = quiet_cell(seed);
    let start = Instant::now();
    stepped.advance_to_stepped(SimNs::from_secs(60));
    let stepped_s = start.elapsed().as_secs_f64();
    let speedup = stepped_s / event_s;
    eprintln!("    idle-skip speedup over stepped: {speedup:.0}x");
    assert!(
        speedup >= 5.0,
        "idle-skip must beat the stepped engine by >=5x on an idle minute, got {speedup:.1}x"
    );
    summarize("idle_hour_ms", "ms", samples)
}

fn bench_closed_loop(seed: u64) -> (Summary, Summary) {
    let obs = Obs::enabled();
    let mut fab = XgFabric::new(FabricConfig {
        seed,
        cfd_cells: [14, 12, 5],
        cfd_steps: 25,
        obs: obs.clone(),
        ..Default::default()
    });
    let cycles = scaled(30);
    let mut wall = Vec::with_capacity(cycles);
    for c in 0..cycles {
        // A weather front partway through makes some cycles carry the
        // full detect → CFD → return path, not just telemetry.
        if c == cycles / 2 {
            fab.force_front();
        }
        let start = Instant::now();
        fab.run_report_cycle().expect("healthy closed loop");
        wall.push(start.elapsed().as_secs_f64() * 1_000.0);
    }
    // XG_TRACE_DUMP=<path> writes the run's span JSONL for offline
    // `xg-trace` analysis (CI uploads this when the perf gate fails).
    if let Ok(path) = std::env::var("XG_TRACE_DUMP") {
        if !path.is_empty() {
            if let Some(tracer) = obs.tracer() {
                let jsonl = xg_obs::spans_to_jsonl(&tracer.take_spans());
                match std::fs::write(&path, jsonl) {
                    Ok(()) => eprintln!("  wrote span dump to {path}"),
                    Err(e) => eprintln!("  span dump to {path} failed: {e}"),
                }
            }
        }
    }
    let virtual_ms = fab.timeline().telemetry_latencies_ms();
    (
        summarize("cycle_wall_ms", "ms", wall),
        summarize("cycle_transfer_virtual_ms", "ms", virtual_ms),
    )
}

/// One cell's worth of synthetic burst-shaped E2 state: an overloaded
/// eMBB slice next to a steady mIoT slice, with one noisy-channel UE per
/// slice — enough measured signal that all three shipping xApps do real
/// work every period.
fn synthetic_indication(cell: u32, ues_per_slice: usize) -> CellIndication {
    const TOTAL_PRBS: u32 = 106;
    const UL_SLOTS: u64 = 1_000;
    const BITS_PER_PRB_TTI: f64 = 471.7; // ~50 Mbps over the full grid
    let mut ues = Vec::new();
    let mut slices = Vec::new();
    for (si, snssai) in [Snssai::miot(1), Snssai::embb(1)].into_iter().enumerate() {
        let granted = (TOTAL_PRBS as u64 / 2) * UL_SLOTS;
        let capacity_bits = granted as f64 * BITS_PER_PRB_TTI;
        let offered = if si == 0 { 8e6 } else { 80e6 };
        let served = capacity_bits.min(offered);
        slices.push(SliceReport {
            slice: si as u16,
            snssai,
            prb_share: 0.5,
            quota_prbs: TOTAL_PRBS / 2,
            granted_prb_ttis: granted,
            capacity_prb_ttis: granted,
            offered_bits: offered,
            served_bits: served,
            queued_bits: (offered - served).max(0.0),
        });
        for u in 0..ues_per_slice {
            ues.push(UeReport {
                ue: (si * ues_per_slice + u) as u32,
                slice: si as u16,
                granted_prb_ttis: granted / ues_per_slice as u64,
                sched_ttis: UL_SLOTS / 2,
                served_bits: served / ues_per_slice as f64,
                queued_bits: 0.0,
                cqi: 9,
                harq_nack_rate: if u == 0 { 0.3 } else { 0.02 },
            });
        }
    }
    CellIndication {
        cell,
        window_s: 1.0,
        ul_slots: UL_SLOTS,
        total_prbs: TOTAL_PRBS,
        ues,
        slices,
    }
}

/// The shipping xApp stack in registration order.
fn paper_ric(seed: u64, period_s: f64) -> Ric {
    let mut ric = Ric::new(seed, period_s);
    ric.register(DemandSlicer::try_new(0.1, 0.5).expect("valid slicer params"));
    ric.register(BurstGuard::new(Snssai::miot(1)));
    ric.register(McsCapper::try_new(7.4).expect("valid max_eff"));
    ric
}

fn bench_ric_loop(seed: u64) -> Summary {
    const CELLS: u32 = 4;
    const UES_PER_SLICE: usize = 4;
    // One sample = the mean of BATCH consecutive engine periods. A lone
    // period runs ~1 µs, so a single scheduler blip (tens of µs) would
    // otherwise land wholly inside one sample and dominate the p99 at
    // reduced CI scale; batching amortises the blip across the sample
    // without moving the per-period p50.
    const BATCH: usize = 8;
    let mut ric = paper_ric(seed, 1.0);
    let steps = scaled(400);
    // Pre-build every period's indication batch so the timed window is
    // the engine alone, not allocation of the synthetic fleet state.
    let mut batches: Vec<Vec<CellIndication>> = (0..steps * BATCH)
        .map(|_| {
            (0..CELLS)
                .map(|c| synthetic_indication(c, UES_PER_SLICE))
                .collect()
        })
        .collect();
    let mut samples = Vec::with_capacity(steps);
    let mut period = 0usize;
    for chunk in batches.chunks_mut(BATCH) {
        let start = Instant::now();
        for fresh in chunk.iter_mut() {
            let outcome = ric.step(std::mem::take(fresh), period as f64);
            std::hint::black_box(outcome);
            period += 1;
        }
        samples.push(start.elapsed().as_nanos() as f64 / 1_000.0 / BATCH as f64);
    }
    summarize("ric_loop_us", "us", samples)
}

fn bench_ric_reaction(seed: u64) -> Summary {
    // The pest-burst scenario from the acceptance suite: a weather
    // cluster on mIoT, a pest camera bursting 10x on eMBB. The sample is
    // *virtual* time from the last pre-onset report to the burst-guard's
    // corrective action — one indication period when the loop reacts on
    // the first indication that shows the surge.
    let runs = scaled(8).max(1);
    let mut samples = Vec::with_capacity(runs);
    for i in 0..runs {
        let run_seed = seed.wrapping_add(i as u64);
        // The burst begins inside cycle `onset_cycle + 1`, at a
        // sub-period onset phase: partway through the RAN-sim second
        // that cycle advances. With an integer onset the sample
        // degenerates to a constant full period (onset at a cycle
        // boundary, action at the next boundary); the fractional phase
        // makes the measured reaction the *actual* onset-to-action
        // distance at sub-period resolution.
        let onset_cycle = 3 + (i % 3) as u64;
        let frac = 0.2 + 0.6 * (i as f64 / runs.max(2) as f64);
        let burst_start_s = onset_cycle as f64 + frac;
        let mut topo = RanTopology::default();
        topo.cells[0] = RanCellSpec::paper_default("UNL-5G")
            .with_config(
                CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(20.0)).with_slices(
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
                    .expect("valid slice table"),
                ),
            )
            .with_scenario_ue(ScenarioUe {
                device: DeviceClass::RaspberryPi,
                snssai: Snssai::miot(1),
                traffic: TrafficModel::Cbr { rate_mbps: 8.0 },
            })
            .with_scenario_ue(ScenarioUe {
                device: DeviceClass::RaspberryPi,
                snssai: Snssai::embb(1),
                traffic: TrafficModel::pest_camera(8.0, 80.0, burst_start_s, f64::INFINITY),
            });
        topo.cells[0].probe_ues = 0;
        let mut fab = XgFabric::new(FabricConfig {
            seed: run_seed,
            cfd_cells: [12, 10, 4],
            cfd_steps: 10,
            ran: topo,
            ric: Some(paper_ric(run_seed, 300.0)),
            ..Default::default()
        });
        fab.run_cycles(onset_cycle as usize + 4)
            .expect("healthy closed loop");
        let action_t = fab
            .timeline()
            .events
            .iter()
            .find_map(|e| match e {
                Event::RicAction { t_s, xapp, .. } if xapp == "burst-guard" => Some(*t_s),
                _ => None,
            })
            .expect("the guard must fire during the burst");
        let reaction_ms = (action_t - burst_start_s * 300.0) * 1_000.0;
        assert!(
            reaction_ms > 0.0 && reaction_ms <= 2.0 * 300_000.0,
            "guard reacted in {reaction_ms} ms — outside (0, 2 periods]"
        );
        samples.push(reaction_ms);
    }
    summarize("ric_reaction_ms", "ms", samples)
}

fn bench_profile_overhead() -> Summary {
    let obs = Obs::enabled();
    let prof = obs.profiler().expect("obs enabled");
    const BATCH: usize = 128;
    let batches = scaled(256);
    let mut samples = Vec::with_capacity(batches);
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..BATCH {
            prof.scope("bench.scope").finish();
        }
        samples.push(start.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    summarize("profile_overhead_ns", "ns", samples)
}

fn bench_critical_extract() -> Summary {
    use xg_obs::span::SpanRecord;
    use xg_obs::ClockDomain;
    // A synthetic report-cycle tree shaped like the orchestrator's: one
    // root, a fan of phases, a sub-fan under the longest phase — 64
    // spans, comfortably above a real cycle's span count.
    let mut spans = vec![SpanRecord {
        trace: 1,
        id: 1,
        parent: None,
        name: "fabric.cycle".into(),
        domain: ClockDomain::Wall,
        start_us: 0,
        end_us: 1_000_000,
        attrs: vec![],
    }];
    for id in 2..=64u64 {
        let parent = if id <= 9 { 1 } else { 2 + (id % 8) };
        spans.push(SpanRecord {
            trace: 1,
            id,
            parent: Some(parent),
            name: format!("phase.{id}"),
            domain: ClockDomain::Wall,
            start_us: 0,
            end_us: 1_000_000 / id,
            attrs: vec![],
        });
    }
    let rounds = scaled(400);
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        let path = xg_obs::extract_critical(&spans, 1).expect("non-empty trace");
        samples.push(start.elapsed().as_nanos() as f64 / 1_000.0);
        std::hint::black_box(path);
    }
    summarize("critical_path_extract_us", "us", samples)
}

fn bench_lint_workspace() -> Summary {
    // The workspace root, two levels above this crate's manifest. The
    // probe lints the real tree (not a synthetic corpus) so the number
    // moves when the workspace grows — that drift is the point: it is
    // the latency the CI gate actually pays.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent().map(PathBuf::from))
        .expect("crate lives two levels under the workspace root");
    let cfg = xg_lint::Config::workspace();
    // One warm-up run so the page cache holds the sources before the
    // measured window, matching a CI runner that just built the tree.
    let warm = xg_lint::lint_root(&root, &cfg).expect("workspace lints");
    std::hint::black_box(warm.findings.len());
    let rounds = scaled(6).max(2);
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        let report = xg_lint::lint_root(&root, &cfg).expect("workspace lints");
        samples.push(start.elapsed().as_secs_f64() * 1_000.0);
        std::hint::black_box(report.findings.len());
    }
    summarize("lint_workspace_ms", "ms", samples)
}

fn run_probes(seed: u64) -> Vec<Summary> {
    let mut out = Vec::new();
    eprintln!("  histogram record ...");
    out.push(bench_histogram_record());
    eprintln!("  span record ...");
    out.push(bench_span_record());
    eprintln!("  cspot storage (append + recovery) ...");
    let (append, recovery) = bench_cspot_storage(seed);
    out.push(append);
    out.push(recovery);
    eprintln!("  cfd sweep ...");
    out.push(bench_cfd_sweep());
    eprintln!("  fleet step ...");
    out.push(bench_fleet_step(seed));
    eprintln!("  idle skip ...");
    out.push(bench_idle_skip(seed));
    eprintln!("  closed loop ...");
    let (wall, virt) = bench_closed_loop(seed);
    out.push(wall);
    out.push(virt);
    eprintln!("  ric loop ...");
    out.push(bench_ric_loop(seed));
    eprintln!("  ric reaction ...");
    out.push(bench_ric_reaction(seed));
    eprintln!("  profile overhead ...");
    out.push(bench_profile_overhead());
    eprintln!("  critical path extract ...");
    out.push(bench_critical_extract());
    eprintln!("  lint workspace ...");
    out.push(bench_lint_workspace());
    out
}

fn main() -> ExitCode {
    let mut emit: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut tolerance = 0.10;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--emit" => emit = args.next().map(PathBuf::from),
            "--compare" => baseline = args.next().map(PathBuf::from),
            "--tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--tolerance takes a fraction, e.g. 0.10");
            }
            other => {
                eprintln!("unknown argument {other}; flags: --emit PATH | --compare PATH | --tolerance FRAC");
                return ExitCode::FAILURE;
            }
        }
    }

    let seed = effective_seed(42);
    println!("Perf trajectory — {SCHEMA} (scale {})", perf_scale());
    print_run_header(seed, &obs_from_env());
    let metrics = run_probes(seed);
    println!(
        "\n{:<28} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "metric", "n", "p50", "p99", "mean", "max"
    );
    for m in &metrics {
        println!(
            "{:<28} {:>6} {:>9.3} {} {:>9.3} {} {:>9.3} {} {:>9.3} {}",
            m.name, m.n, m.p50, m.unit, m.p99, m.unit, m.mean, m.unit, m.max, m.unit
        );
    }
    let doc = render(seed, &metrics);
    if let Some(path) = &emit {
        write_atomic(path, &doc);
        println!("\nwrote {}", path.display());
    } else {
        let p = write_results("perf_trajectory.json", &doc);
        println!("\nwrote {}", p.display());
    }
    match &baseline {
        Some(b) => {
            if compare(b, &metrics, tolerance) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        None => ExitCode::SUCCESS,
    }
}
