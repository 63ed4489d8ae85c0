//! `etlbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path etlbench/Cargo.toml -- \
//!     --workload <bulk_import|dirty_import|mixed_ops> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Replays one workload against fresh default nodes over TCP for about
//! `--seconds`, checks every output, prints each metric with its unit
//! and a run record, and ends with one JSON result line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` turns the probes on in
//! alternate passes and reports the per-layer metrics. The exit code is
//! nonzero when any correctness check failed. See `README.md`.

mod layers;
mod report;
mod run;
mod stats;
mod store;
mod wire;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use layers::Metric;
use stats::tail_percentile;
use workload::{Plan, Workload};

/// A run that has not finished by then is stopped (the harness allows
/// 180 s per run).
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: etlbench --workload <bulk_import|dirty_import|mixed_ops> \
                     --seed <n> --seconds <1..=60> --trace <0|1>";

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value '{value}' for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    let s: u64 = value.parse().map_err(|_| bad())?;
                    seconds = Some(s).filter(|s| (1..=60).contains(s));
                    seconds.ok_or_else(bad)?;
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// The checkout's git revision, read from `.git` in the working
/// directory; `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|rev| rev.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("etlbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Detached on purpose: it only ever ends the process.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("etlbench: run exceeded {WATCHDOG:?}, stopping");
        std::process::exit(3);
    });

    let plan = match Plan::new(args.workload, args.seed) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("etlbench: bad inputs: {e}");
            return ExitCode::from(1);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"git_rev\": \"{}\", \"profile\": \"{}\", \"obs\": {}, \
         \"trace_fingerprint\": \"{:016x}\"}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_revision(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        etlv_core::obs::enabled(),
        plan.trace.fingerprint(),
    );

    let run = match run::run(&plan, args.seconds, args.trace) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("etlbench: run aborted: {e}");
            return ExitCode::from(1);
        }
    };

    let untraced = run.passes.iter().filter(|p| !p.traced).count();
    let jobs = untraced * plan.jobs.len();
    let attempted: u64 = run.passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = run.passes.iter().map(|p| p.failed).sum();
    let supported = tail_percentile(jobs).map_or("none".into(), |p| format!("p{p}"));
    println!(
        "{}: {} passes ({untraced} untraced), {} jobs a pass, {} set-ups; \
         {jobs} timed jobs support {supported}; fail_frac {:.6} ({failed} of {attempted})",
        args.workload.name(),
        run.passes.len(),
        plan.jobs.len(),
        run.setups.len(),
        stats::ratio(failed as f64, attempted as f64),
    );
    for (i, p) in run.passes.iter().enumerate() {
        println!(
            "  pass {i}: seed {:<20} {:<8} setup {:>7.3} ms  wall {:>7.3} s  {:>10.1} rows/s  \
             final exports {:?} ms  rss {:>7.1} MB",
            p.seed,
            if p.traced { "traced" } else { "untraced" },
            p.setup.as_secs_f64() * 1e3,
            p.wall.as_secs_f64(),
            stats::ratio(p.rows_landed as f64, p.wall.as_secs_f64()),
            p.verify_exports
                .iter()
                .map(|j| j.service_ms.round())
                .collect::<Vec<_>>(),
            p.rss_mb,
        );
    }
    let e2e = report::end_to_end(&run);
    print_metrics("end-to-end (untraced passes):", &e2e);
    print_metrics(
        "by job kind (untraced passes, not gated):",
        &report::by_kind(&run),
    );
    let metrics = if args.trace {
        let layers = report::per_layer(&run);
        print_metrics("per-layer (traced passes):", &layers);
        layers
    } else {
        e2e
    };
    for failure in &run.checks.failures {
        println!("CHECK FAILED: {failure}");
    }
    let correct = run.checks.failures.is_empty();
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
