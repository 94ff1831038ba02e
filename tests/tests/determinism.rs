//! Same-seed reproducibility regression tests.
//!
//! The xg-lint `unordered-iter` rule exists because one `HashMap`
//! iteration on a deterministic path silently breaks the repo's core
//! claim: every figure-shaped result is a function of the seed. These
//! tests pin the claim end-to-end — two closed-loop runs under the same
//! seed (with faults active, so the netsim/route, RAN-fleet, and
//! store-and-forward paths all execute) must produce *byte-identical*
//! timelines. They passed before the `BTreeMap` migrations and must
//! keep passing after; a reintroduced unordered container that leaks
//! into event order fails here even if it slips past the linter.
//!
//! Two runs in one process agree even when a refactor changes behaviour
//! the same way in both, so the golden tests below also pin committed
//! FNV-1a digests of a closed-loop run and of the sensors' report
//! stream. A digest moves with any change to what the loop does or the
//! order it does it in.

use xg_fabric::orchestrator::{FabricConfig, XgFabric};
use xg_fabric::ran::{RanCellSpec, RanTopology, ScenarioUe};
use xg_fabric::timeline::Event;
use xg_faults::{FaultKind, FaultPlan};
use xg_hpc::site::SiteProfile;
use xg_net::prelude::*;
use xg_net::slice::{SliceConfig, SliceProfile, Snssai};
use xg_net::traffic::TrafficModel;
use xg_ric::{BurstGuard, DemandSlicer, McsCapper, Ric};
use xg_sensors::facility::CupsFacility;
use xg_sensors::network::SensorNetwork;

/// One scaled-down closed-loop run; returns the full timeline and
/// reliability report rendered to bytes. `Debug` formatting of floats
/// is shortest-round-trip, so equal bytes means equal values, order,
/// and event count — not merely equal summaries.
fn run_once(seed: u64) -> (String, String) {
    let faults = FaultPlan::builder(seed)
        .scripted(
            3_600.0,
            1_200.0,
            FaultKind::RoutePartition {
                from: "UNL-5G".into(),
                to: "UCSB".into(),
            },
        )
        .build();
    let mut fab = XgFabric::new(FabricConfig {
        seed,
        cfd_cells: [12, 10, 4],
        cfd_steps: 10,
        faults,
        ..Default::default()
    });
    fab.run_cycles(36)
        .expect("closed loop must survive the run");
    let timeline = format!("{:?}", fab.timeline());
    let report = format!("{:?}", fab.reliability_report());
    (timeline, report)
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let (timeline_a, report_a) = run_once(97);
    let (timeline_b, report_b) = run_once(97);
    assert!(
        !timeline_a.is_empty() && timeline_a.contains("TelemetryShipped"),
        "run must actually produce events"
    );
    assert_eq!(
        timeline_a, timeline_b,
        "same seed must replay a byte-identical timeline"
    );
    assert_eq!(
        report_a, report_b,
        "same seed must replay a byte-identical reliability report"
    );
}

#[test]
fn different_seeds_diverge() {
    // Guards the test itself: if the timeline were constant (or empty),
    // the byte-identical assertion above would be vacuous.
    let (timeline_a, _) = run_once(97);
    let (timeline_c, _) = run_once(98);
    assert_ne!(
        timeline_a, timeline_c,
        "different seeds must not produce identical timelines"
    );
}

/// FNV-1a (64-bit) over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The paper's 20 MHz UNL cell sliced 50/50 mIoT/eMBB, carrying a
/// weather cluster and a pest camera that bursts over fleet seconds
/// 10..16, so the three-xApp RIC has something to correct.
fn sliced_topology() -> RanTopology {
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
                .expect("two 0.5 shares are a valid slice table"),
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
            traffic: TrafficModel::pest_camera(8.0, 80.0, 10.0, 16.0),
        });
    topo.cells[0].probe_ues = 0;
    topo
}

/// Behaviour lock on the whole closed loop: FNV-1a over the `Debug`
/// bytes of the timeline and the reliability report of one fixed-seed
/// run. The run forces a front, partitions the UNL-5G↔UCSB route,
/// takes ND-CRC down so the CFD lands on ANVIL, and drives the sliced
/// cell with the three-xApp RIC, so telemetry, detection, pilot, CFD,
/// results-return, fault and RIC events all feed the digest. Any change
/// to what the fabric does, or to the order it does it in, moves it.
/// Re-bless only for a deliberate behaviour change: edit the constant
/// and add a line to CHANGES.md.
#[test]
fn golden_closed_loop_digest() {
    const GOLDEN: u64 = 0x02aa_0ab5_0b69_a0dd;
    let seed = 3;
    let faults = FaultPlan::builder(seed)
        .scripted(
            1_800.0,
            1_200.0,
            FaultKind::RoutePartition {
                from: "UNL-5G".into(),
                to: "UCSB".into(),
            },
        )
        .scripted(
            3_000.0,
            4.0 * 3_600.0,
            FaultKind::HpcSiteOutage {
                site: "ND-CRC".into(),
            },
        )
        .build();
    let mut ric = Ric::new(seed, 300.0);
    ric.register(DemandSlicer::try_new(0.1, 0.5).expect("0.1 floor, 0.5 alpha are valid"));
    ric.register(BurstGuard::new(Snssai::miot(1)));
    ric.register(McsCapper::try_new(7.4).expect("positive max_eff"));
    let mut fab = XgFabric::new(FabricConfig {
        seed,
        cfd_cells: [12, 10, 4],
        cfd_steps: 10,
        failover_sites: vec![SiteProfile::anvil()],
        ran: sliced_topology(),
        ric: Some(ric),
        faults,
        ..Default::default()
    });
    fab.run_cycles(12).expect("healthy loop");
    fab.force_front();
    fab.run_cycles(24)
        .expect("closed loop must survive the run");
    let tl = fab.timeline();
    for (what, n) in [
        ("CFD runs", tl.cfd_runs()),
        ("RIC actions", tl.ric_actions()),
        ("fault activations", tl.fault_activations()),
        (
            "pilot decisions",
            tl.count(|e| matches!(e, Event::PilotEvaluated { .. })),
        ),
        (
            "results returns",
            tl.count(|e| matches!(e, Event::ResultsReturned { .. })),
        ),
    ] {
        assert!(n > 0, "the locked run must contain {what}");
    }
    let bytes = format!("{:?}{:?}", tl, fab.reliability_report());
    let digest = fnv1a64(bytes.as_bytes());
    assert_eq!(digest, GOLDEN, "closed-loop digest {digest:#018x}");
}

/// Behaviour lock on the station network alone: FNV-1a over the `Debug`
/// bytes of 60 report rounds, drained one round at a time through
/// `advance_to` + `take_reports`, with station 1 down for rounds 10–39
/// and station 6 stuck from round 5 on, and a forced front at round 20.
/// Re-bless as for [`golden_closed_loop_digest`].
#[test]
fn golden_sensor_report_stream_digest() {
    const GOLDEN: u64 = 0x4ba9_e185_9fdd_edc6;
    let mut net = SensorNetwork::cups_default(CupsFacility::default(), 41);
    let mut bytes = String::new();
    for round in 1..=60u64 {
        match round {
            5 => net.set_station_stuck(6, true),
            10 => net.set_station_down(1, true),
            20 => net.force_front(),
            40 => net.set_station_down(1, false),
            _ => {}
        }
        net.advance_to(SimNs::from_secs(300 * round))
            .expect("infallible");
        let reports = net.take_reports();
        assert!(!reports.is_empty(), "round {round} must report");
        bytes.push_str(&format!("{reports:?}"));
    }
    let digest = fnv1a64(bytes.as_bytes());
    assert_eq!(digest, GOLDEN, "sensor report digest {digest:#018x}");
}
