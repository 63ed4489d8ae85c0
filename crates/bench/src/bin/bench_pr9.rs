//! PR 9 continuous-profiling evidence, two claims on trial:
//!
//! 1. **Overhead**: the per-chunk work the always-on profiler adds to the
//!    conversion hot path — the thread-CPU clock read bracketing each
//!    convert, the one `Obs::record_stage` call that closes the stage
//!    (stage and tenant histograms, CPU counter, journal span), the
//!    tracked-lock queue handoff, and the busy-worker gauge — costs no
//!    more than 3% of conversion throughput on the wide workload (the
//!    same gate shape bench_pr4 and bench_pr8 applied to their layers).
//!    Measured bench_pr4-style: both variants interleaved inside every
//!    timed iteration, min-of-N.
//! 2. **Reconciliation**: a seeded `error_heavy` workloadgen replay over
//!    real TCP must fold every replayed job into the flamegraph at close,
//!    with no job missed for an incomplete or orphaned trace, and the
//!    folded per-stage wall totals must agree with the PR 4 critical-path
//!    attribution (the `Trace` surface, re-assembled job by job) within
//!    5%.
//!
//! Writes `BENCH_PR9.json` at the repo root (format documented in
//! EXPERIMENTS.md).
//!
//! Usage: `bench_pr9 [--smoke] [--out PATH]`
//!   --smoke  shrink workloads and iteration counts for a CI sanity run
//!            (the reconciliation gates still apply; the overhead gate
//!            needs full scale)
//!   --out    output path (default BENCH_PR9.json)

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use etlv_core::convert::{ConvertScratch, DataConverter};
use etlv_core::obs::{CpuTimer, Obs, SpanIds, StageSpan, TrackedMutex};
use etlv_core::trace::Stage;
use etlv_core::workload::{customer_workload, CustomerSpec, Workload};
use etlv_core::{Virtualizer, VirtualizerConfig};
use etlv_legacy_client::{Connect, TcpConnector};
use etlv_script::{compile, parse_script, JobPlan};
use etlv_workloadgen::{replay, synthesize, ReplayOptions, Scenario};

const SEED: u64 = 0x00E7_510C;
const CHUNK_ROWS: usize = 1_000;
const OVERHEAD_GATE_PCT: f64 = 3.0;
const RECONCILE_GATE_PCT: f64 = 5.0;

// ---------------------------------------------------------------------
// Part 1: hot-loop overhead kernel
// ---------------------------------------------------------------------

struct KernelResult {
    name: &'static str,
    rows: u64,
    bytes: u64,
    chunks: usize,
    base_rows_per_s: f64,
    profiled_rows_per_s: f64,
    overhead_pct: f64,
}

fn converter_for(workload: &Workload) -> DataConverter {
    let JobPlan::Import(job) = compile(&parse_script(&workload.script).unwrap()).unwrap() else {
        panic!("workload script is not an import job")
    };
    DataConverter::new(
        job.layout,
        job.format,
        VirtualizerConfig::default().staging_delimiter,
    )
}

fn chunked(data: &[u8]) -> Vec<&[u8]> {
    let mut chunks = Vec::new();
    let mut start = 0usize;
    let mut rows = 0usize;
    for (i, &b) in data.iter().enumerate() {
        if b == b'\n' {
            rows += 1;
            if rows == CHUNK_ROWS {
                chunks.push(&data[start..=i]);
                start = i + 1;
                rows = 0;
            }
        }
    }
    if start < data.len() {
        chunks.push(&data[start..]);
    }
    chunks
}

/// PR 8 baseline vs profiling, interleaved per timed iteration. The
/// baseline performs what the PR 8 pipeline did per chunk (node counters
/// and the convert histogram); the profiled variant does what the worker
/// loop does now: a tracked-mutex queue handoff, the busy-worker gauge
/// swing, the thread-CPU clock read bracketing the convert, and the one
/// stage record in place of the bare histogram.
fn bench_kernel(
    name: &'static str,
    workload: &Workload,
    iters: u32,
    obs: &Arc<Obs>,
) -> KernelResult {
    let conv = converter_for(workload);
    let chunks = chunked(&workload.data);
    let mut out = Vec::new();
    let mut scratch = ConvertScratch::new();
    // The queue lock the worker loop takes once per dequeued chunk.
    let queue = TrackedMutex::new(obs.registry.lock_site("bench.queue"), 0u64);
    let tenant = obs.tenant("bench");
    let root = SpanIds {
        trace: 1,
        span: obs.journal.next_span_id(),
        parent: 0,
    };

    let run_base = |out: &mut Vec<u8>, scratch: &mut ConvertScratch| {
        let mut total = 0u64;
        for (i, chunk) in chunks.iter().enumerate() {
            let started = Instant::now();
            out.clear();
            let rows = conv
                .convert_into((i * CHUNK_ROWS + 1) as u64, chunk, out, scratch)
                .unwrap();
            let elapsed = started.elapsed();
            obs.pipeline.convert_chunks.inc();
            obs.pipeline.convert_rows.add(rows as u64);
            obs.pipeline.convert_bytes.add(chunk.len() as u64);
            obs.pipeline.convert_us.record_duration(elapsed);
            total += rows as u64;
            std::hint::black_box(&*out);
        }
        assert_eq!(total, workload.rows);
    };
    let run_profiled = |out: &mut Vec<u8>, scratch: &mut ConvertScratch| {
        let mut total = 0u64;
        for (i, chunk) in chunks.iter().enumerate() {
            // Worker dequeue: tracked queue lock, busy gauge up.
            *queue.lock() += 1;
            obs.pool.busy_workers.add(1);
            let started = Instant::now();
            let cpu = CpuTimer::start();
            out.clear();
            let rows = conv
                .convert_into((i * CHUNK_ROWS + 1) as u64, chunk, out, scratch)
                .unwrap();
            let span = StageSpan {
                tenant: &tenant,
                job: 1,
                ids: root.child(obs.journal.next_span_id()),
                chunk: (i * CHUNK_ROWS + 1) as u64,
                value: rows as u64,
            };
            obs.record_stage(Stage::Convert, started, started.elapsed(), Some(&cpu), span);
            obs.pipeline.convert_chunks.inc();
            obs.pipeline.convert_rows.add(rows as u64);
            obs.pipeline.convert_bytes.add(chunk.len() as u64);
            obs.pool.busy_workers.sub(1);
            total += rows as u64;
            std::hint::black_box(&*out);
        }
        assert_eq!(total, workload.rows);
    };

    run_base(&mut out, &mut scratch);
    run_profiled(&mut out, &mut scratch);
    let mut base = Duration::MAX;
    let mut profiled = Duration::MAX;
    for _ in 0..iters {
        let start = Instant::now();
        run_base(&mut out, &mut scratch);
        base = base.min(start.elapsed());
        let start = Instant::now();
        run_profiled(&mut out, &mut scratch);
        profiled = profiled.min(start.elapsed());
    }

    let base_s = base.as_secs_f64().max(1e-9);
    let profiled_s = profiled.as_secs_f64().max(1e-9);
    KernelResult {
        name,
        rows: workload.rows,
        bytes: workload.data.len() as u64,
        chunks: chunks.len(),
        base_rows_per_s: workload.rows as f64 / base_s,
        profiled_rows_per_s: workload.rows as f64 / profiled_s,
        overhead_pct: (profiled_s / base_s - 1.0) * 100.0,
    }
}

fn customer(rows: u64, row_bytes: usize) -> Workload {
    customer_workload(&CustomerSpec {
        rows,
        row_bytes,
        sessions: 4,
        unique_key: false,
        ..Default::default()
    })
}

// ---------------------------------------------------------------------
// Part 2: folded flamegraph vs trace attribution under error_heavy
// ---------------------------------------------------------------------

/// The folded-path remap PR 9 applies to attribution stages, restated
/// here so the bench derives its expectation from the `Trace` surface
/// independently of the profiler's own aggregation.
fn folded_path(stage: &str) -> &'static str {
    match stage {
        "ack_wait" => "job;acquisition;ack_wait",
        "queue_wait" => "job;acquisition;queue_wait",
        "convert" => "job;acquisition;convert",
        "upload" => "job;acquisition;upload",
        "copy" => "job;acquisition;copy",
        "apply" => "job;application;apply",
        _ => "job;other",
    }
}

struct ReconcileResult {
    jobs_replayed: u64,
    folded_jobs: u64,
    folded_missed_jobs: u64,
    folded_lines: usize,
    folded_total_us: u64,
    trace_total_us: u64,
    worst_path: String,
    worst_delta_pct: f64,
    contended_sites: usize,
}

fn run_reconcile(scenario: &Scenario, options: &ReplayOptions) -> ReconcileResult {
    // A journal big enough to retain every job of the replay: the
    // reconciliation compares two views of the same retained events, so
    // eviction mid-ring would turn a measurement into an apples/oranges
    // diff.
    let v = Virtualizer::new(VirtualizerConfig {
        journal_capacity: 65_536,
        ..Default::default()
    });
    let handle = v.listen_tcp("127.0.0.1:0").expect("bind TCP listener");
    let connector: Arc<dyn Connect> = Arc::new(TcpConnector::new(handle.addr().to_string()));
    let trace = synthesize(scenario);
    let report = replay(&connector, &trace, options).expect("replay runs to completion");
    let counts = report.counts();

    let profile = v.profile();
    // Per-path folded totals as the profiler reports them.
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for line in profile.folded.lines() {
        if let Some((path, value)) = line.rsplit_once(' ') {
            *folded.entry(path.to_string()).or_default() += value.parse::<u64>().unwrap_or(0);
        }
    }
    // The same totals re-derived job by job from the Trace surface.
    let mut expected: BTreeMap<String, u64> = BTreeMap::new();
    let mut traced_jobs = 0u64;
    for token in 1..=(counts.jobs * 4).max(64) {
        let Some(job_trace) = v.trace(token) else {
            continue;
        };
        traced_jobs += 1;
        for (stage, micros) in &job_trace.attribution {
            if *micros > 0 {
                *expected.entry(folded_path(stage).to_string()).or_default() += micros;
            }
        }
    }
    let contended_sites = profile.locks.len();
    handle.shutdown();

    let mut worst_path = String::new();
    let mut worst_delta_pct = 0.0f64;
    let paths: std::collections::BTreeSet<&String> = folded.keys().chain(expected.keys()).collect();
    for path in paths {
        let got = *folded.get(path).unwrap_or(&0) as f64;
        let want = *expected.get(path).unwrap_or(&0) as f64;
        let delta = if want > 0.0 {
            ((got - want).abs() / want) * 100.0
        } else if got > 0.0 {
            100.0
        } else {
            0.0
        };
        if delta > worst_delta_pct {
            worst_delta_pct = delta;
            worst_path = path.to_string();
        }
    }
    let _ = traced_jobs;
    ReconcileResult {
        jobs_replayed: counts.jobs,
        folded_jobs: profile.folded_jobs,
        folded_missed_jobs: profile.folded_missed_jobs,
        folded_lines: folded.len(),
        folded_total_us: folded.values().sum(),
        trace_total_us: expected.values().sum(),
        worst_path,
        worst_delta_pct,
        contended_sites,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR9.json".into());
    let obs_compiled = etlv_core::obs::enabled();

    let (total_bytes, kernel_iters) = if smoke {
        (1_000_000u64, 3u32)
    } else {
        (12_500_000u64, 15u32)
    };

    let obs = Arc::new(Obs::default());
    eprintln!("kernel: narrow (250 B rows), profiling hot path...");
    let narrow = customer(total_bytes / 250, 250);
    let k_narrow = bench_kernel("narrow_250B", &narrow, kernel_iters, &obs);
    eprintln!("kernel: wide (2000 B rows), profiling hot path...");
    let wide = customer(total_bytes / 2000, 2000);
    let k_wide = bench_kernel("wide_2000B", &wide, kernel_iters, &obs);
    let kernels = [k_narrow, k_wide];

    eprintln!("scenario: error_heavy replay over TCP, folded vs trace...");
    let mut scenario = Scenario::error_heavy(SEED);
    if smoke {
        scenario.jobs = (scenario.jobs / 4).max(6);
        scenario.tenants = scenario.tenants.min(3);
        scenario.horizon_ms /= 4;
        scenario.rows_hot = (scenario.rows_hot / 4).max(scenario.rows_base.min(40));
        scenario.rows_base = scenario.rows_base.min(40);
    }
    let options = ReplayOptions {
        time_scale: 0.25,
        chunk_rows: 200,
        read_timeout: Some(Duration::from_secs(120)),
        ..Default::default()
    };
    let reconcile = run_reconcile(&scenario, &options);
    eprintln!(
        "  jobs {}  folded_jobs {}  missed {}  stacks {}  folded {} us  traced {} us  \
         worst {} {:+.3}%  contended sites {}",
        reconcile.jobs_replayed,
        reconcile.folded_jobs,
        reconcile.folded_missed_jobs,
        reconcile.folded_lines,
        reconcile.folded_total_us,
        reconcile.trace_total_us,
        reconcile.worst_path,
        reconcile.worst_delta_pct,
        reconcile.contended_sites
    );

    // --- report --------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"obs_compiled\": {obs_compiled},\n"));
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str(&format!("  \"chunk_rows\": {CHUNK_ROWS},\n"));
    json.push_str("  \"kernel\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"rows\": {}, \"bytes\": {}, \"chunks\": {}, \
             \"base_rows_per_s\": {:.0}, \"profiled_rows_per_s\": {:.0}, \
             \"overhead_pct\": {:.3}}}",
            k.name,
            k.rows,
            k.bytes,
            k.chunks,
            k.base_rows_per_s,
            k.profiled_rows_per_s,
            k.overhead_pct
        ));
        json.push_str(if i + 1 < kernels.len() { ",\n" } else { "\n" });
        eprintln!(
            "  {:>12}: {:>12.0} -> {:>12.0} rows/s  ({:+.3}% overhead)",
            k.name, k.base_rows_per_s, k.profiled_rows_per_s, k.overhead_pct
        );
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"reconcile\": {{\"scenario\": \"{}\", \"jobs_replayed\": {}, \
         \"folded_jobs\": {}, \"folded_missed_jobs\": {}, \"folded_stacks\": {}, \
         \"folded_total_us\": {}, \"trace_total_us\": {}, \"worst_path\": \"{}\", \
         \"worst_delta_pct\": {:.3}, \"contended_sites\": {}}}\n",
        scenario.name,
        reconcile.jobs_replayed,
        reconcile.folded_jobs,
        reconcile.folded_missed_jobs,
        reconcile.folded_lines,
        reconcile.folded_total_us,
        reconcile.trace_total_us,
        reconcile.worst_path,
        reconcile.worst_delta_pct,
        reconcile.contended_sites
    ));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write bench report");
    eprintln!("wrote {out_path}");

    // Gates. Reconciliation holds at any scale when obs is compiled in;
    // the overhead comparison is only meaningful at full scale.
    let mut failed = false;
    if obs_compiled {
        if reconcile.folded_jobs == 0 || reconcile.folded_lines == 0 {
            eprintln!("FAIL: error_heavy replay left an empty folded flamegraph");
            failed = true;
        }
        if reconcile.folded_missed_jobs != 0 {
            eprintln!(
                "FAIL: {} job(s) closed with an incomplete or orphaned trace",
                reconcile.folded_missed_jobs
            );
            failed = true;
        }
        if reconcile.folded_jobs != reconcile.jobs_replayed {
            eprintln!(
                "FAIL: folded flamegraph covered {} of {} replayed jobs",
                reconcile.folded_jobs, reconcile.jobs_replayed
            );
            failed = true;
        }
        if reconcile.worst_delta_pct > RECONCILE_GATE_PCT {
            eprintln!(
                "FAIL: folded/trace per-stage disagreement {:.3}% on {} > {RECONCILE_GATE_PCT}%",
                reconcile.worst_delta_pct, reconcile.worst_path
            );
            failed = true;
        }
    }
    let gated = &kernels[1];
    if !smoke && obs_compiled && gated.overhead_pct > OVERHEAD_GATE_PCT {
        eprintln!(
            "FAIL: {} profiling overhead {:.3}% > {OVERHEAD_GATE_PCT}%",
            gated.name, gated.overhead_pct
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
