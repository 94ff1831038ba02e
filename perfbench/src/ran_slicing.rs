//! `ran_slicing`: a sliced 4-cell RAN fleet under the near-RT RIC.
//!
//! Four NR 20 MHz FDD cells, each sliced mIoT/eMBB 50/50, carry eight
//! UEs: four 0.5 Mbps CBR weather stations on mIoT, two pest cameras
//! bursting 4→60 Mbps at staggered onsets and two 20 Mbps CBR uplinks on
//! eMBB. Each 1 s period runs `measure_seconds(1)`, then
//! `collect_indications`, then `Ric::step`, then applies the RIC's
//! actions through the `LinkSimulator` setters — a closed loop: the
//! next period starts when the previous one returns. One episode is a
//! fresh fleet and RIC run for 300 periods.

use crate::alloc::{self, Span};
use crate::layers::Layers;
use crate::report::Detail;
use crate::stats::{episode_seed, median, quantile, Fnv, SplitMix};
use crate::{
    count_of, episodes, overhead_pct, time_setup, timeless, Counts, Plan, RunReport, Scale,
    SETUPS_PER_EPISODE,
};
use xg_net::device::UnitVariation;
use xg_net::prelude::{
    CellConfig, CellId, DeviceClass, Duplex, MHz, Modem, NetError, RanFleet, Rat, UeHandle,
};
use xg_net::slice::{SliceConfig, SliceProfile, Snssai};
use xg_net::traffic::TrafficModel;
use xg_obs::Obs;
use xg_ric::{BurstGuard, DemandSlicer, McsCapper, Ric, RicAction};

/// Episode-0 digest for [`crate::DEFAULT_SEED`].
pub const GOLDEN: u64 = 0x01d4_e36f_8d04_7e65;

const CELLS: u32 = 4;

fn sliced_cell() -> CellConfig {
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
    )
}

/// The fleet and RIC of one episode.
pub struct Loop {
    fleet: RanFleet,
    ric: Ric,
}

/// Build the episode's fleet and RIC from `seed`.
pub fn build(seed: u64, periods: usize, obs: &Obs) -> Result<Loop, NetError> {
    let mut fleet = RanFleet::builder(seed)
        .cells(CELLS as usize, sliced_cell())
        .workers(1)
        .obs(obs)
        .build()?;
    let mut r = SplitMix::new(seed);
    let device = DeviceClass::RaspberryPi;
    let modem = Modem::paper_default(device, Rat::Nr5g);
    let span = periods as f64;
    for c in 0..CELLS {
        let cell = CellId(c);
        let mut attach = |slice: Snssai, traffic: TrafficModel| -> Result<(), NetError> {
            let ue = fleet.attach_with(cell, device, modem, slice, UnitVariation::default())?;
            fleet.set_traffic(ue, traffic)
        };
        for _ in 0..4 {
            attach(Snssai::miot(1), TrafficModel::Cbr { rate_mbps: 0.5 })?;
        }
        // Staggered camera bursts of a fixed length: the seed moves the
        // onsets, not the offered load of an episode.
        let first = r.range(0.1, 0.3) * span;
        let second = first + r.range(0.15, 0.3) * span;
        for onset in [first, second] {
            let start = onset.floor();
            let end = start + (0.25 * span).ceil();
            attach(
                Snssai::embb(1),
                TrafficModel::pest_camera(4.0, 60.0, start, end),
            )?;
        }
        for _ in 0..2 {
            attach(Snssai::embb(1), TrafficModel::Cbr { rate_mbps: 20.0 })?;
        }
    }
    let mut ric = Ric::new(seed, 1.0);
    ric.register(DemandSlicer::try_new(0.1, 0.5).expect("0.1 floor, 0.5 alpha are valid"));
    ric.register(BurstGuard::new(Snssai::miot(1)));
    ric.register(McsCapper::try_new(7.4).expect("positive max_eff"));
    ric.set_obs(obs);
    Ok(Loop { fleet, ric })
}

/// Apply one RIC action through the `LinkSimulator` setters.
fn apply(fleet: &mut RanFleet, action: &RicAction) -> Result<(), NetError> {
    match action {
        RicAction::ReapportionSlices { cell, shares } => {
            let config = SliceConfig::new(
                shares
                    .iter()
                    .map(|&(snssai, prb_share)| SliceProfile { snssai, prb_share })
                    .collect(),
            )?;
            fleet.cell_mut(CellId(*cell))?.set_slices(config)
        }
        RicAction::SetPfWeight { cell, ue, weight } => fleet
            .cell_mut(CellId(*cell))?
            .set_pf_weight(UeHandle::from_id(*ue), *weight),
        RicAction::CapUeMcs { cell, ue, max_eff } => fleet
            .cell_mut(CellId(*cell))?
            .set_mcs_cap(UeHandle::from_id(*ue), *max_eff),
    }
}

/// One episode as run.
#[derive(Debug, Default)]
pub struct Episode {
    /// Wall time of each period (ns).
    pub period_ns: Vec<u64>,
    /// Wall time of the whole period loop, checks included (ns).
    pub loop_ns: u64,
    /// xg-net time: measure + collect + apply (ns).
    pub net_ns: u64,
    /// xg-ric time: `Ric::step` (ns).
    pub ric_ns: u64,
    /// Output-check failures.
    pub failures: Vec<String>,
    /// Digest of every goodput sample and RIC action.
    pub digest: u64,
    /// Counts that do not depend on wall time.
    pub counts: Counts,
}

/// Run one episode of `periods` closed-loop periods.
pub fn run_episode(seed: u64, periods: usize, obs: &Obs) -> Episode {
    let mut ep = Episode::default();
    let mut lp = match build(seed, periods, obs) {
        Ok(lp) => lp,
        Err(e) => {
            ep.failures.push(format!("fleet build: {e}"));
            return ep;
        }
    };
    let net_allocs = || {
        alloc::allocs(Span::RanMeasure)
            + alloc::allocs(Span::RanCollect)
            + alloc::allocs(Span::RanApply)
    };
    let (net0, ric0) = (net_allocs(), alloc::allocs(Span::RicStep));
    let mut h = Fnv::default();
    let (mut actions, mut held, mut samples) = (0u64, 0u64, 0u64);
    let mut goodput = 0.0;
    let start = std::time::Instant::now();
    for p in 1..=periods {
        let (batches, t_measure) = alloc::timed(Span::RanMeasure, || lp.fleet.measure_seconds(1));
        let (fresh, t_collect) = alloc::timed(Span::RanCollect, || lp.fleet.collect_indications());
        let (outcome, t_ric) = alloc::timed(Span::RicStep, || lp.ric.step(fresh, p as f64));
        let (applied, t_apply) = alloc::timed(Span::RanApply, || {
            outcome
                .actions
                .iter()
                .map(|(_, a)| apply(&mut lp.fleet, a))
                .collect::<Vec<_>>()
        });
        ep.period_ns.push(t_measure + t_collect + t_ric + t_apply);
        ep.net_ns += t_measure + t_collect + t_apply;
        ep.ric_ns += t_ric;
        for b in &batches {
            for sec in &b.seconds {
                for &(ue, mbps) in sec {
                    if !(mbps.is_finite() && mbps >= 0.0) {
                        ep.failures
                            .push(format!("period {p}: goodput {mbps} on cell {}", b.cell.0));
                    }
                    h.u64(u64::from(b.cell.0) << 32 | u64::from(ue.id()));
                    h.f64(mbps);
                    goodput += mbps;
                    samples += 1;
                }
            }
        }
        for ((xapp, action), res) in outcome.actions.iter().zip(&applied) {
            if let Err(e) = res {
                ep.failures
                    .push(format!("period {p}: {xapp} action rejected: {e}"));
            }
            h.write(xapp.as_bytes());
            h.write(format!("{action:?}").as_bytes());
        }
        actions += outcome.actions.len() as u64;
        held += outcome.held as u64;
    }
    ep.loop_ns = start.elapsed().as_nanos() as u64;
    if goodput <= 0.0 {
        ep.failures.push("no goodput measured".into());
    }
    let (mut ttis, mut active) = (0, 0);
    let slot_ns = lp.fleet.cell(CellId(0)).map(|c| c.slot_ns()).unwrap_or(0);
    for c in 0..CELLS {
        let cell = lp.fleet.cell(CellId(c)).expect("cell index in range");
        ttis += cell.slots_elapsed();
        active += cell.active_slots();
    }
    ep.digest = h.finish();
    ep.counts = vec![
        ("periods", periods as u64),
        ("samples", samples),
        ("ttis", ttis),
        ("active_ttis", active),
        ("slot_ns", slot_ns),
        ("actions", actions),
        ("held", held),
        ("net_allocs", net_allocs() - net0),
        ("ric_allocs", alloc::allocs(Span::RicStep) - ric0),
    ];
    ep
}

fn periods_for(scale: Scale) -> usize {
    match scale {
        Scale::Full => 300,
        Scale::Smoke => 20,
    }
}

/// Run `ran_slicing` under `plan`.
pub fn run(plan: &Plan) -> RunReport {
    let periods = periods_for(plan.scale);
    let mut r = RunReport::default();
    let seed0 = episode_seed(plan.seed, 0);
    drop(run_episode(seed0, periods.min(10), &Obs::disabled()));
    if plan.trace {
        return run_traced(plan, seed0, periods, r);
    }
    let mut period_us = Vec::new();
    let mut ns_per_cell_tti = Vec::new();
    let mut slot_ns = 0;
    episodes(plan.seconds, 2, |i| {
        let seed = episode_seed(plan.seed, i);
        r.setup_s.extend(time_setup(SETUPS_PER_EPISODE, || {
            build(seed, periods, &Obs::disabled())
        }));
        let ep = run_episode(seed, periods, &Obs::disabled());
        r.attempted += periods as u64;
        for f in &ep.failures {
            r.fail(f.clone());
        }
        period_us.extend(ep.period_ns.iter().map(|&ns| ns as f64 / 1e3));
        let wall: u64 = ep.period_ns.iter().sum();
        ns_per_cell_tti.push(wall as f64 / count_of(&ep.counts, "ttis").max(1) as f64);
        if i == 0 {
            r.peak_rss_mb = crate::peak_rss_mb();
            r.digest = ep.digest;
            slot_ns = count_of(&ep.counts, "slot_ns");
            r.shape = ep
                .counts
                .iter()
                .filter(|(n, _)| matches!(*n, "periods" | "samples" | "ttis"))
                .copied()
                .collect();
        }
        // After the episode: the first RSS reading precedes the
        // reference kernel's buffers.
        r.calib.sample(crate::CALIBRATIONS_PER_EPISODE);
    });
    r.check_golden(plan, GOLDEN);
    r.details = vec![
        Detail::new(
            "host_ns_per_cell_tti",
            "ns",
            median(&ns_per_cell_tti),
            ns_per_cell_tti.len(),
        )
        .note(format!(
            "(median over episodes; one TTI is {slot_ns} ns of air time)"
        )),
        Detail::new("period_p50_us", "us", median(&period_us), period_us.len()),
        Detail::new(
            "period_p99_us",
            "us",
            quantile(&period_us, 0.99).unwrap_or(0.0),
            period_us.len(),
        ),
    ];
    r.op_us = period_us;
    // ns per cell-TTI = ms per million cell-TTIs.
    r.unit_ms = ns_per_cell_tti;
    r
}

fn run_traced(plan: &Plan, seed: u64, periods: usize, mut r: RunReport) -> RunReport {
    let mut untraced: Vec<Episode> = Vec::new();
    let mut traced: Vec<Episode> = Vec::new();
    episodes(plan.seconds, 2, |_| {
        for (obs, out) in [
            (Obs::disabled(), &mut untraced),
            (Obs::enabled(), &mut traced),
        ] {
            let ep = run_episode(seed, periods, &obs);
            r.attempted += periods as u64;
            for f in &ep.failures {
                r.fail(f.clone());
            }
            out.push(ep);
        }
    });
    r.digest = untraced[0].digest;
    r.check_golden(plan, GOLDEN);
    for ep in untraced.iter().skip(1) {
        r.check_same_counts("untraced ran_slicing", &untraced[0].counts, &ep.counts);
    }
    for ep in &traced {
        r.check_same_counts(
            "traced ran_slicing",
            &timeless(&untraced[0].counts),
            &timeless(&ep.counts),
        );
        if ep.digest != untraced[0].digest {
            r.fail("goodput digest differs between tracing on and off");
        }
    }
    let wall = |ep: &Episode| ep.loop_ns;
    traced.sort_by_key(wall);
    let mid = &traced[(traced.len() - 1) / 2];
    let base = &untraced[0];
    let mut l = Layers::default();
    l.set("xg-net.self_ms", mid.net_ns as f64 / 1e6);
    l.set("xg-ric.self_ms", mid.ric_ns as f64 / 1e6);
    l.close(wall(mid) as f64 / 1e6);
    l.set("xg-net.ttis", count_of(&base.counts, "ttis") as f64);
    l.set(
        "xg-net.active_ttis",
        count_of(&base.counts, "active_ttis") as f64,
    );
    l.set("xg-net.allocs", count_of(&base.counts, "net_allocs") as f64);
    l.set("xg-ric.periods", periods as f64);
    l.set("xg-ric.actions", count_of(&base.counts, "actions") as f64);
    l.set("xg-ric.held", count_of(&base.counts, "held") as f64);
    l.set("xg-ric.allocs", count_of(&base.counts, "ric_allocs") as f64);
    l.set("sim.seconds", periods as f64);
    let u: Vec<f64> = untraced.iter().map(|e| wall(e) as f64).collect();
    let t: Vec<f64> = traced.iter().map(|e| wall(e) as f64).collect();
    l.set("xg-obs.overhead_pct", overhead_pct(&u, &t));
    r.shape = base.counts.clone();
    r.layers = Some(l);
    r
}
