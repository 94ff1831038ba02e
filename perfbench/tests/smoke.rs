//! The benchmark's own tests: a reduced-length run of every workload,
//! traced and untraced; a round-trip of the result line; seed changes
//! that move the digest but not the workload's shape; and the closure
//! of the traced `farm_day` table.

use std::path::PathBuf;
use std::sync::Mutex;
use xg_perfbench::alloc::CountingAlloc;
use xg_perfbench::layers::PER_LAYER;
use xg_perfbench::report::Outcome;
use xg_perfbench::{outcome, run, Plan, RunReport, Scale, Workload, END_TO_END};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation counts are charged to one process-wide open span, so the
/// tests run one workload at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(workload: Workload, seed: u64, trace: bool) -> RunReport {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let plan = Plan {
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{}-{seed}-{trace}", workload.name())),
    };
    run(workload, &plan)
}

#[test]
fn every_workload_runs_untraced_and_reports_every_end_to_end_metric() {
    for w in Workload::ALL {
        let r = smoke(w, 7, false);
        assert!(r.failures.is_empty(), "{}: {:?}", w.name(), r.failures);
        assert!(r.attempted > 0, "{}", w.name());
        let o = outcome(&r, false);
        assert!(o.correct && o.failed == 0, "{}: {o:?}", w.name());
        let names: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{}", w.name());
        for m in &o.metrics {
            assert!(m.value > 0.0 && m.value.is_finite(), "{}: {m:?}", w.name());
        }
        assert!(
            !r.details.is_empty(),
            "{}: workload-specific figures",
            w.name()
        );
        for d in &r.details {
            assert!(d.samples > 0, "{}: {} has no samples", w.name(), d.name);
        }
    }
}

#[test]
fn every_workload_runs_traced_and_reports_every_per_layer_metric() {
    for w in Workload::ALL {
        let r = smoke(w, 7, true);
        assert!(r.failures.is_empty(), "{}: {:?}", w.name(), r.failures);
        let o = outcome(&r, true);
        assert!(o.correct, "{}: {o:?}", w.name());
        let names: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{}", w.name());
        let layers = r.layers.expect("traced run has a table");
        assert!(layers.get("traced_wall_ms") > 0.0, "{}", w.name());
    }
}

#[test]
fn result_line_round_trips() {
    for trace in [false, true] {
        let o = outcome(&smoke(Workload::CfdField, 3, trace), trace);
        let line = o.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(Outcome::parse(&line).expect("own output parses"), o);
    }
}

#[test]
fn another_seed_changes_the_digest_but_not_the_shape() {
    for w in Workload::ALL {
        let a = smoke(w, 11, false);
        let b = smoke(w, 12, false);
        let again = smoke(w, 11, false);
        assert_eq!(
            a.digest,
            again.digest,
            "{}: same seed, same digest",
            w.name()
        );
        assert_ne!(
            a.digest,
            b.digest,
            "{}: another seed, another digest",
            w.name()
        );
        assert!(!a.shape.is_empty(), "{}", w.name());
        assert_eq!(
            a.shape,
            b.shape,
            "{}: the workload's shape is seed-independent",
            w.name()
        );
    }
}

#[test]
fn traced_farm_day_table_closes_on_the_wall_and_holds_no_sim_time() {
    let r = smoke(Workload::FarmDay, 5, true);
    assert!(r.failures.is_empty(), "{:?}", r.failures);
    let l = r.layers.expect("traced run has a table");
    let wall = l.get("traced_wall_ms");
    let unattributed = l.get("unattributed_ms");
    assert!(
        unattributed.abs() <= 0.05 * wall,
        "unattributed {unattributed} ms of {wall} ms"
    );
    // Every layer the loop runs shows up with time of its own.
    for layer in [
        "xg-cfd.self_ms",
        "xg-net.self_ms",
        "xg-ric.self_ms",
        "xg-cspot.ship_self_ms",
        "xg-hpc.self_ms",
        "xg-laminar.self_ms",
        "xg-sensors.self_ms",
        "xg-obs.slo_self_ms",
        "xg-fabric.self_ms",
    ] {
        assert!(l.get(layer) > 0.0, "{layer} missing from the table");
    }
    // No sim-domain value: every row is a share of the wall, and the
    // simulated day (hours of sim time) is reported apart.
    for (name, v) in l.self_times() {
        assert!(
            v >= 0.0 && v <= wall,
            "{name} = {v} ms outside the {wall} ms wall"
        );
    }
    assert!(
        l.get("sim.seconds") > 1_000.0 * wall / 1e3,
        "sim time is reported apart"
    );
}

#[test]
fn benchmark_manifest_lists_exactly_the_reported_metrics() {
    let manifest = include_str!("../../BENCHMARK.json");
    let names: Vec<&str> = manifest
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .collect();
    let mut want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    want.extend(END_TO_END.iter().map(|(n, _)| *n));
    want.extend(PER_LAYER.iter().map(|(n, _)| *n));
    assert_eq!(names, want);
    for (n, u) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{n}\",\n      \"unit\": \"{u}\"");
        assert!(
            manifest.contains(&entry),
            "{n} must be listed with unit {u}"
        );
    }
}
