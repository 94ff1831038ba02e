//! Benchmark command line:
//! `xg-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints the workload's figures, then as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`. Exits
//! 1 when an output check failed and 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;
use xg_perfbench::alloc::CountingAlloc;
use xg_perfbench::report::render_details;
use xg_perfbench::{outcome, render_calibration, run, Plan, Scale, Workload, DEFAULT_SEED};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: xg-perfbench --workload <farm_day|ran_slicing|cfd_field|log_ingest> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::Full,
        work_dir: PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            args.workload.name(),
            std::process::id()
        )),
    };
    println!(
        "workload {}  seed {}  seconds {}  trace {}  threads 1 (host parallelism {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    let report = run(args.workload, &plan);
    if args.trace {
        if let Some(layers) = &report.layers {
            print!("{}", layers.render(&report.sim_notes));
        }
    } else {
        print!(
            "{}",
            render_details(
                "end-to-end (raw host wall time, tracing off)",
                &report.details
            )
        );
        print!("{}", render_calibration(&report));
    }
    for f in &report.failures {
        println!("FAILED: {f}");
    }
    println!(
        "ops attempted {} failed {}  digest {:016x}",
        report.attempted, report.failed, report.digest
    );
    let out = outcome(&report, args.trace);
    println!("{}", out.to_json());
    if out.correct && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
