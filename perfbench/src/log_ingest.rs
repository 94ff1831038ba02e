//! `log_ingest`: durable CSPOT appends, replication and recovery.
//!
//! A durable `SegmentedBackend` primary at UCSB (4 MiB segments, group
//! commit every 1,024 records) takes 64-byte telemetry appends through
//! `RemoteAppender` over the UNL-5G→UCSB route. After every 1,024
//! appends, `Log::sync` runs and `Replicator::catch_up` brings a durable
//! ND follower up to date. An episode (32 rounds) ends with crash
//! recovery: the primary is reopened with full verification. Every call
//! is made as soon as the previous one returns.

use crate::alloc::{self, Span};
use crate::layers::Layers;
use crate::report::Detail;
use crate::stats::{episode_seed, median, quantile, Fnv, SplitMix};
use crate::{
    count_of, episodes, overhead_pct, timeless, Counts, Plan, RunReport, Scale, SETUPS_PER_EPISODE,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use xg_cspot::prelude::{
    CspotNode, Log, RemoteAppender, RemoteConfig, ReplicationConfig, Replicator, SegmentConfig,
    SimClock, SyncPolicy, Topology,
};
use xg_cspot::CspotError;
use xg_obs::Obs;

/// Episode-0 digest for [`crate::DEFAULT_SEED`].
pub const GOLDEN: u64 = 0xffc4_d549_c341_3643;

const LOG: &str = "telemetry";
const ELEMENT: usize = 64;
const HISTORY: usize = 4096;
const ROUND: usize = 1024;
const SPOT_CHECKS: usize = 16;

fn storage() -> SegmentConfig {
    SegmentConfig {
        segment_bytes: 4 * 1024 * 1024,
        retain_segments: None,
        sync: SyncPolicy::GroupCommit { every: 1024 },
        index_stride: 256,
    }
}

fn rounds_for(scale: Scale) -> usize {
    match scale {
        Scale::Full => 32,
        Scale::Smoke => 2,
    }
}

/// The payload of record `seq` in an episode seeded with `seed`.
pub fn payload(seed: u64, seq: u64) -> [u8; ELEMENT] {
    let mut r = SplitMix::new(seed ^ seq.wrapping_mul(0xA24B_AED4_963E_E407));
    let mut out = [0u8; ELEMENT];
    for chunk in out.chunks_mut(8) {
        chunk.copy_from_slice(&r.next_u64().to_le_bytes());
    }
    out
}

/// The durable nodes, logs and links of one episode.
pub struct Ingest {
    primary: Arc<CspotNode>,
    primary_log: Arc<Log>,
    follower_log: Arc<Log>,
    appender: RemoteAppender,
    replicator: Replicator,
}

/// Build an episode's system under `dir` (which must not exist yet).
pub fn build(dir: &Path, seed: u64, obs: &Obs) -> Result<Ingest, CspotError> {
    let primary = Arc::new(CspotNode::durable_with_storage(
        "UCSB",
        dir.join("ucsb"),
        storage(),
    ));
    let follower = CspotNode::durable_with_storage("ND", dir.join("nd"), storage());
    let primary_log = primary.create_log(LOG, ELEMENT, HISTORY)?;
    let follower_log = follower.create_log(LOG, ELEMENT, HISTORY)?;
    let topo = Topology::paper();
    let route = |a: &str, b: &str| topo.route(a, b).expect("paper topology route").clone();
    let mut appender = RemoteAppender::new(
        SimClock::new(),
        route("UNL-5G", "UCSB"),
        RemoteConfig::default(),
        seed,
    );
    appender.set_obs(obs);
    let mut replicator = Replicator::new(
        SimClock::new(),
        route("UCSB", "ND"),
        ReplicationConfig::default(),
        seed ^ 0x5245_504C,
    );
    replicator.set_obs(obs);
    Ok(Ingest {
        primary,
        primary_log,
        follower_log,
        appender,
        replicator,
    })
}

/// One episode as run.
#[derive(Debug, Default)]
pub struct Episode {
    /// Wall time of each append (ns).
    pub append_ns: Vec<u64>,
    /// Sync + catch-up wall time of each round (ns).
    pub round_ns: Vec<u64>,
    /// Σ `Log::sync` (ns).
    pub sync_ns: u64,
    /// Σ `Replicator::catch_up` (ns).
    pub replicate_ns: u64,
    /// Reopen + full verification of the primary (ns).
    pub recover_ns: u64,
    /// Wall time of the whole episode after set-up, checks included (ns).
    pub loop_ns: u64,
    /// Output-check failures.
    pub failures: Vec<String>,
    /// Operations attempted (appends, syncs, catch-ups, the recovery).
    pub attempted: u64,
    /// Digest of append outcomes and recovered payloads.
    pub digest: u64,
    /// Counts that do not depend on wall time.
    pub counts: Counts,
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Run one episode in `dir` (removed afterwards).
pub fn run_episode(dir: &Path, seed: u64, rounds: usize, obs: &Obs) -> Episode {
    let mut ep = Episode::default();
    let _ = std::fs::remove_dir_all(dir);
    let result = episode_body(dir, seed, rounds, obs, &mut ep);
    if let Err(e) = result {
        ep.failures.push(format!("storage error: {e}"));
    }
    let _ = std::fs::remove_dir_all(dir);
    ep
}

fn episode_body(
    dir: &Path,
    seed: u64,
    rounds: usize,
    obs: &Obs,
    ep: &mut Episode,
) -> Result<(), CspotError> {
    let mut sys = build(dir, seed, obs)?;
    let append_allocs0 = alloc::allocs(Span::LogAppend);
    let mut h = Fnv::default();
    let start = std::time::Instant::now();
    let mut seq = 0u64;
    for round in 0..rounds {
        for _ in 0..ROUND {
            let data = payload(seed, seq + 1);
            let (res, ns) = alloc::timed(Span::LogAppend, || {
                sys.appender.append(&sys.primary, LOG, &data)
            });
            ep.attempted += 1;
            ep.append_ns.push(ns);
            match res {
                Ok(o) => {
                    seq += 1;
                    if o.seq != seq {
                        ep.failures
                            .push(format!("append got seq {} expected {seq}", o.seq));
                    }
                    h.u64(o.seq);
                    h.u64(u64::from(o.attempts));
                    h.f64(o.latency_ms);
                }
                Err(e) => ep.failures.push(format!("append: {e}")),
            }
        }
        let (synced, sync_ns) = alloc::timed(Span::LogSync, || sys.primary_log.sync());
        synced?;
        let (applied, repl_ns) = alloc::timed(Span::LogReplicate, || {
            sys.replicator
                .catch_up(&sys.primary_log, &sys.follower_log, 1 << 16)
        });
        let applied = applied?;
        ep.attempted += 2;
        ep.sync_ns += sync_ns;
        ep.replicate_ns += repl_ns;
        ep.round_ns.push(sync_ns + repl_ns);
        h.u64(applied);
        let (p, f) = (sys.primary_log.latest_seq(), sys.follower_log.latest_seq());
        if p != f || p != Some(seq) {
            ep.failures.push(format!(
                "round {round}: primary at {p:?}, follower at {f:?}, appended {seq}"
            ));
        }
    }
    let appends_ok = seq;
    let append_allocs = alloc::allocs(Span::LogAppend) - append_allocs0;
    let disk_bytes = dir_bytes(&dir.join("ucsb"));
    // Crash: drop every handle on the primary without a shutdown path,
    // then reopen it with full verification.
    let follower_log = Arc::clone(&sys.follower_log);
    drop(sys);
    let (recovered, recover_ns) = alloc::timed(Span::LogRecover, || {
        let node = CspotNode::durable_with_storage("UCSB", dir.join("ucsb"), storage());
        node.open_log(LOG, ELEMENT, HISTORY)
    });
    let recovered = recovered?;
    ep.attempted += 1;
    ep.recover_ns = recover_ns;
    if recovered.latest_seq() != Some(appends_ok) {
        ep.failures.push(format!(
            "recovered seq {:?} != {appends_ok} records appended",
            recovered.latest_seq()
        ));
    }
    let mut r = SplitMix::new(seed ^ 0x5350_4F54);
    for _ in 0..SPOT_CHECKS.min(appends_ok as usize) {
        let s = 1 + r.next_u64() % appends_ok;
        let want = payload(seed, s);
        for (who, log) in [("primary", &recovered), ("follower", &follower_log)] {
            let got = log.read_records_from(s, 1)?;
            match got.first() {
                Some(rec) if rec.seq == s && rec.payload == want => h.write(&rec.payload),
                _ => ep
                    .failures
                    .push(format!("{who} record {s} does not hold its payload")),
            }
        }
    }
    ep.loop_ns = start.elapsed().as_nanos() as u64;
    ep.digest = h.finish();
    ep.counts = vec![
        ("appends", appends_ok),
        ("rounds", rounds as u64),
        ("disk_bytes", disk_bytes),
        ("append_allocs", append_allocs),
    ];
    Ok(())
}

/// Run `log_ingest` under `plan`.
pub fn run(plan: &Plan) -> RunReport {
    let r = run_in(plan);
    let _ = std::fs::remove_dir_all(&plan.work_dir);
    if let Some(parent) = plan.work_dir.parent() {
        // Only succeeds when no other run still uses it.
        let _ = std::fs::remove_dir(parent);
    }
    r
}

/// Time [`SETUPS_PER_EPISODE`] builds of the system under `dir`. The
/// node data directories exist beforehand, as on a provisioned host;
/// creating each log's own directory is part of the timed build.
fn time_builds(dir: &Path, seed: u64) -> Vec<f64> {
    (0..SETUPS_PER_EPISODE)
        .map(|k| {
            let root = dir.join(format!("setup{k}"));
            for node in ["ucsb", "nd"] {
                let _ = std::fs::create_dir_all(root.join(node));
            }
            let (built, ns) = alloc::timed(Span::Setup, || build(&root, seed, &Obs::disabled()));
            drop(built);
            let _ = std::fs::remove_dir_all(&root);
            ns as f64 / 1e9
        })
        .collect()
}

fn run_in(plan: &Plan) -> RunReport {
    let rounds = rounds_for(plan.scale);
    let mut r = RunReport::default();
    let seed0 = episode_seed(plan.seed, 0);
    let ep_dir = |i: usize| -> PathBuf { plan.work_dir.join(format!("ep{i}")) };
    drop(run_episode(&ep_dir(0), seed0, 1, &Obs::disabled()));
    if plan.trace {
        return run_traced(plan, seed0, rounds, r);
    }
    let mut append_us = Vec::new();
    let mut round_ms = Vec::new();
    let mut recover_ms = Vec::new();
    episodes(plan.seconds, 2, |i| {
        let seed = episode_seed(plan.seed, i);
        r.setup_s.extend(time_builds(&ep_dir(i), seed));
        let ep = run_episode(&ep_dir(i), seed, rounds, &Obs::disabled());
        r.attempted += ep.attempted;
        for f in &ep.failures {
            r.fail(f.clone());
        }
        append_us.extend(ep.append_ns.iter().map(|&ns| ns as f64 / 1e3));
        round_ms.extend(ep.round_ns.iter().map(|&ns| ns as f64 / 1e6));
        recover_ms.push(ep.recover_ns as f64 / 1e6);
        if i == 0 {
            r.peak_rss_mb = crate::peak_rss_mb();
            r.digest = ep.digest;
            r.shape = ep
                .counts
                .iter()
                .filter(|(n, _)| matches!(*n, "appends" | "rounds"))
                .copied()
                .collect();
        }
        // After the episode: the first RSS reading precedes the
        // reference kernel's buffers.
        r.calib.sample(crate::CALIBRATIONS_PER_EPISODE);
    });
    r.check_golden(plan, GOLDEN);
    r.details = vec![
        Detail::new("append_p50_us", "us", median(&append_us), append_us.len()),
        Detail::new(
            "append_p99_us",
            "us",
            quantile(&append_us, 0.99).unwrap_or(0.0),
            append_us.len(),
        ),
        Detail::new(
            "replicate_ms_per_1k",
            "ms",
            median(&round_ms),
            round_ms.len(),
        )
        .note("(Log::sync + Replicator::catch_up per 1,024 records)"),
        Detail::new("recovery_ms", "ms", median(&recover_ms), recover_ms.len()).note(format!(
            "(reopen + full verification of {} records)",
            rounds * ROUND
        )),
    ];
    r.op_us = append_us;
    r.unit_ms = round_ms;
    r
}

fn run_traced(plan: &Plan, seed: u64, rounds: usize, mut r: RunReport) -> RunReport {
    let dir = plan.work_dir.join("traced");
    let mut untraced: Vec<Episode> = Vec::new();
    let mut traced: Vec<(Episode, u64, u64)> = Vec::new();
    episodes(plan.seconds, 2, |_| {
        let ep = run_episode(&dir, seed, rounds, &Obs::disabled());
        r.attempted += ep.attempted;
        untraced.push(ep);
        let obs = Obs::enabled();
        let ep = run_episode(&dir, seed, rounds, &obs);
        r.attempted += ep.attempted;
        let reg = obs.registry().expect("traced run has a registry");
        let (ok, retries) = (
            reg.counter("cspot.append.ok").get(),
            reg.counter("cspot.append.retries").get(),
        );
        traced.push((ep, ok, retries));
    });
    for ep in untraced.iter().chain(traced.iter().map(|(e, _, _)| e)) {
        for f in &ep.failures {
            r.fail(f.clone());
        }
    }
    r.digest = untraced[0].digest;
    r.check_golden(plan, GOLDEN);
    for ep in untraced.iter().skip(1) {
        r.check_same_counts("untraced log_ingest", &untraced[0].counts, &ep.counts);
    }
    for (ep, ok, retries) in &traced {
        r.check_same_counts(
            "traced log_ingest",
            &timeless(&untraced[0].counts),
            &timeless(&ep.counts),
        );
        r.check_same_counts(
            "traced log_ingest counters",
            &[
                ("appends", count_of(&untraced[0].counts, "appends")),
                ("retries", traced[0].2),
            ],
            &[("appends", *ok), ("retries", *retries)],
        );
        if ep.digest != untraced[0].digest {
            r.fail("log digest differs between tracing on and off");
        }
    }
    traced.sort_by_key(|(e, _, _)| e.loop_ns);
    let (mid, ok, retries) = &traced[(traced.len() - 1) / 2];
    let base = &untraced[0];
    let mut l = Layers::default();
    l.set(
        "xg-cspot.append_self_ms",
        mid.append_ns.iter().sum::<u64>() as f64 / 1e6,
    );
    l.set("xg-cspot.sync_self_ms", mid.sync_ns as f64 / 1e6);
    l.set("xg-cspot.replicate_self_ms", mid.replicate_ns as f64 / 1e6);
    l.set("xg-cspot.recover_self_ms", mid.recover_ns as f64 / 1e6);
    l.close(mid.loop_ns as f64 / 1e6);
    l.set("xg-cspot.appends", *ok as f64);
    l.set("xg-cspot.append_retries", *retries as f64);
    l.set("xg-cspot.records", count_of(&base.counts, "appends") as f64);
    l.set(
        "xg-cspot.disk_bytes",
        count_of(&base.counts, "disk_bytes") as f64,
    );
    l.set(
        "xg-cspot.allocs_per_append",
        count_of(&base.counts, "append_allocs") as f64
            / count_of(&base.counts, "appends").max(1) as f64,
    );
    let u: Vec<f64> = untraced.iter().map(|e| e.loop_ns as f64).collect();
    let t: Vec<f64> = traced.iter().map(|(e, _, _)| e.loop_ns as f64).collect();
    l.set("xg-obs.overhead_pct", overhead_pct(&u, &t));
    r.shape = base.counts.clone();
    r.layers = Some(l);
    r
}
