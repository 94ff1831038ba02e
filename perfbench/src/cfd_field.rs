//! `cfd_field`: the Fig. 3 CFD problem stepped by `Simulation::step`.
//!
//! `DomainSpec::cups_default()` at 48×40×10 = 19,200 cells with one
//! breached west-wall panel. The wind, temperature and breached panel
//! come from the seed. One episode is a fresh mesh and simulation
//! stepped 40 times, each step called as soon as the previous returns.

use crate::alloc::{self, Span};
use crate::layers::Layers;
use crate::report::Detail;
use crate::stats::{episode_seed, median, quantile, Fnv, SplitMix};
use crate::{
    count_of, episodes, overhead_pct, time_setup, Counts, Plan, RunReport, Scale,
    SETUPS_PER_EPISODE,
};
use xg_cfd::prelude::{BoundarySpec, DomainSpec, Mesh, Simulation, SolverConfig};
use xg_obs::Obs;

/// Episode-0 digest for [`crate::DEFAULT_SEED`].
pub const GOLDEN: u64 = 0x5fb6_d039_f008_5647;

/// Largest velocity divergence (1/s) a healthy projection leaves after
/// an episode; the Poisson solve is iteration-capped, so the field is
/// only approximately divergence-free, but a blow-up exceeds this by
/// orders of magnitude.
const DIVERGENCE_BOUND: f64 = 1.0;

/// Build the episode's simulation from `seed`.
pub fn build(seed: u64, scale: Scale) -> Simulation {
    let mut r = SplitMix::new(seed);
    let spec = match scale {
        Scale::Full => DomainSpec::cups_default(),
        Scale::Smoke => DomainSpec::cups_default().with_cells(16, 12, 5),
    };
    let mut bc = BoundarySpec::intact(
        r.range(3.0, 8.0),
        r.range(240.0, 300.0),
        r.range(15.0, 30.0),
    );
    let panels = bc.west.panels.len().max(1);
    bc.west
        .set_panel((r.next_u64() % panels as u64) as usize, 1.0);
    Simulation::new(Mesh::generate(&spec), bc, SolverConfig::default())
}

fn steps_for(scale: Scale) -> usize {
    match scale {
        Scale::Full => 40,
        Scale::Smoke => 4,
    }
}

/// One episode as run.
#[derive(Debug, Default)]
pub struct Episode {
    /// Wall time of each step (ns).
    pub step_ns: Vec<u64>,
    /// Wall time of the whole step loop, checks included (ns).
    pub loop_ns: u64,
    /// Output-check failures.
    pub failures: Vec<String>,
    /// Digest of the final fields.
    pub digest: u64,
    /// Largest velocity divergence at the end.
    pub max_div: f64,
    /// Counts that do not depend on wall time.
    pub counts: Counts,
}

/// Run one episode.
pub fn run_episode(seed: u64, scale: Scale, obs: &Obs) -> Episode {
    let mut sim = build(seed, scale);
    sim.set_obs(obs);
    let steps = steps_for(scale);
    let allocs0 = alloc::allocs(Span::CfdStep);
    let mut ep = Episode::default();
    let start = std::time::Instant::now();
    for _ in 0..steps {
        let ((), ns) = alloc::timed(Span::CfdStep, || sim.step());
        ep.step_ns.push(ns);
    }
    ep.loop_ns = start.elapsed().as_nanos() as u64;
    let allocs = alloc::allocs(Span::CfdStep) - allocs0;
    let mut h = Fnv::default();
    let mut finite = true;
    for f in [&sim.u, &sim.v, &sim.w, &sim.t, &sim.p] {
        for &x in f.as_slice() {
            finite &= x.is_finite();
            h.f64(x);
        }
    }
    if !finite {
        ep.failures.push("non-finite value in the field".into());
    }
    ep.max_div = sim.divergence().max_abs();
    if !ep.max_div.is_finite() || ep.max_div > DIVERGENCE_BOUND {
        ep.failures.push(format!(
            "max divergence {} exceeds {DIVERGENCE_BOUND}",
            ep.max_div
        ));
    }
    ep.digest = h.finish();
    let cells = sim.mesh.cell_count() as u64;
    ep.counts = vec![
        ("steps", steps as u64),
        ("cells", cells),
        ("cell_steps", cells * steps as u64),
        ("allocs", allocs),
    ];
    ep
}

/// Run `cfd_field` under `plan`.
pub fn run(plan: &Plan) -> RunReport {
    let mut r = RunReport::default();
    let seed0 = episode_seed(plan.seed, 0);
    drop(run_episode(seed0, Scale::Smoke, &Obs::disabled()));
    if plan.trace {
        return run_traced(plan, seed0, r);
    }
    let mut step_us = Vec::new();
    let mut ns_per_cell_step = Vec::new();
    let mut divs = Vec::new();
    episodes(plan.seconds, 2, |i| {
        let seed = episode_seed(plan.seed, i);
        r.setup_s
            .extend(time_setup(SETUPS_PER_EPISODE, || build(seed, plan.scale)));
        let ep = run_episode(seed, plan.scale, &Obs::disabled());
        r.attempted += ep.step_ns.len() as u64;
        for f in &ep.failures {
            r.fail(f.clone());
        }
        step_us.extend(ep.step_ns.iter().map(|&ns| ns as f64 / 1e3));
        let wall: u64 = ep.step_ns.iter().sum();
        ns_per_cell_step.push(wall as f64 / count_of(&ep.counts, "cell_steps").max(1) as f64);
        divs.push(ep.max_div);
        if i == 0 {
            r.peak_rss_mb = crate::peak_rss_mb();
            r.digest = ep.digest;
            r.shape = ep
                .counts
                .iter()
                .filter(|(n, _)| *n != "allocs")
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
            "cfd_step_p50_ms",
            "ms",
            median(&step_us) / 1e3,
            step_us.len(),
        ),
        Detail::new(
            "cfd_step_p99_ms",
            "ms",
            quantile(&step_us, 0.99).unwrap_or(0.0) / 1e3,
            step_us.len(),
        ),
        Detail::new(
            "host_ns_per_cell_step",
            "ns",
            median(&ns_per_cell_step),
            ns_per_cell_step.len(),
        ),
        Detail::new(
            "max_divergence",
            "1/s",
            quantile(&divs, 1.0).unwrap_or(0.0),
            divs.len(),
        )
        .note(format!("(bound {DIVERGENCE_BOUND})")),
    ];
    r.op_us = step_us;
    // ns per cell-step = ms per million cell-steps.
    r.unit_ms = ns_per_cell_step;
    r
}

fn run_traced(plan: &Plan, seed: u64, mut r: RunReport) -> RunReport {
    let mut untraced: Vec<Episode> = Vec::new();
    let mut traced: Vec<(Episode, u64)> = Vec::new();
    episodes(plan.seconds, 2, |_| {
        let ep = run_episode(seed, plan.scale, &Obs::disabled());
        r.attempted += ep.step_ns.len() as u64;
        untraced.push(ep);
        let obs = Obs::enabled();
        let ep = run_episode(seed, plan.scale, &obs);
        r.attempted += ep.step_ns.len() as u64;
        let reg = obs.registry().expect("traced run has a registry");
        let iters = reg.histogram("cfd.poisson.iterations").snapshot().sum() as u64;
        traced.push((ep, iters));
    });
    for ep in untraced.iter().chain(traced.iter().map(|(e, _)| e)) {
        for f in &ep.failures {
            r.fail(f.clone());
        }
    }
    r.digest = untraced[0].digest;
    r.check_golden(plan, GOLDEN);
    for ep in untraced.iter().skip(1) {
        r.check_same_counts("untraced cfd_field", &untraced[0].counts, &ep.counts);
    }
    for (ep, iters) in &traced {
        r.check_same_counts(
            "traced cfd_field",
            &[("poisson_iters", traced[0].1)],
            &[("poisson_iters", *iters)],
        );
        if ep.digest != untraced[0].digest {
            r.fail("field digest differs between tracing on and off");
        }
    }
    traced.sort_by_key(|(e, _)| e.loop_ns);
    let (mid, iters) = &traced[(traced.len() - 1) / 2];
    let base = &untraced[0];
    let mut l = Layers::default();
    l.set(
        "xg-cfd.self_ms",
        mid.step_ns.iter().sum::<u64>() as f64 / 1e6,
    );
    l.close(mid.loop_ns as f64 / 1e6);
    l.set(
        "xg-cfd.cell_steps",
        count_of(&base.counts, "cell_steps") as f64,
    );
    l.set("xg-cfd.poisson_iters", *iters as f64);
    l.set("xg-cfd.allocs", count_of(&base.counts, "allocs") as f64);
    l.set(
        "sim.seconds",
        steps_for(plan.scale) as f64 * SolverConfig::default().dt_s,
    );
    let u: Vec<f64> = untraced.iter().map(|e| e.loop_ns as f64).collect();
    let t: Vec<f64> = traced.iter().map(|(e, _)| e.loop_ns as f64).collect();
    l.set("xg-obs.overhead_pct", overhead_pct(&u, &t));
    r.shape = base.counts.clone();
    r.layers = Some(l);
    r
}
