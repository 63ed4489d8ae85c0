//! The benchmark runner: five named suites over the shared harness in
//! `etlv_bench`, each writing one JSON record (common header, the
//! suite's fields, the gates that failed) and exiting 1 when a gate
//! fails.
//!
//! Usage: `etlv-bench --suite <kernel|e2e|replay|sessions|obs-cost>
//! [--smoke] [--out PATH]`
//!   --smoke  shrink workloads for a CI run; gates that hold at any scale
//!            still apply, the timing gates need the full run
//!   --out    write the record to PATH instead of stdout
//!
//! Build with `--no-default-features` to run with observability compiled
//! out (`obs_compiled` in the header flips to false).

use std::cell::RefCell;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use etlv_bench::{
    bench_kernel, chunked, connector, converter_for, counts_json, create_target, customer,
    import_into, os_threads, overhead_within, replay_slo_policy, retarget, run_import,
    run_scenario, shrink, virtualizer_with_cdw, virtualizer_with_latency, KernelResult,
    PeakSampler, Record, ScenarioResult, Suite,
};
use etlv_cdw::CdwConfig;
use etlv_core::config::RuntimeMode;
use etlv_core::convert::ConvertScratch;
use etlv_core::obs::{
    CpuTimer, Obs, Sampler, SloEngine, SloPolicy, SpanIds, StageSpan, TrackedMutex,
};
use etlv_core::trace::Stage;
use etlv_core::workload::{customer_workload, wide_workload, CustomerSpec, Workload};
use etlv_core::{ConverterMode, Virtualizer, VirtualizerConfig};
use etlv_legacy_client::{ClientOptions, Connect, Session, TcpConnector};
use etlv_protocol::message::{Message, SessionRole};
use etlv_workloadgen::slo::percentile;
use etlv_workloadgen::{
    synthesize, tenant_user, ImportSpec, JobKind, ReplayOptions, Scenario, TraceEvent,
    WorkloadTrace,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let Some(suite) = value("--suite").and_then(|s| Suite::parse(s)) else {
        let names: Vec<&str> = Suite::ALL.iter().map(|s| s.name()).collect();
        eprintln!(
            "usage: etlv-bench --suite <{}> [--smoke] [--out PATH]",
            names.join("|")
        );
        std::process::exit(2);
    };
    let mut record = Record::new(suite, args.iter().any(|a| a == "--smoke"));
    match suite {
        Suite::Kernel => kernel(&mut record),
        Suite::E2e => e2e(&mut record),
        Suite::Replay => replay_suite(&mut record),
        Suite::Sessions => sessions(&mut record),
        Suite::ObsCost => obs_cost(&mut record),
    }
    let json = record.to_json();
    match value("--out") {
        Some(path) => {
            std::fs::write(path, &json).expect("write bench record");
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
    if !record.failures().is_empty() {
        std::process::exit(1);
    }
}

/// A JSON array of already-rendered items, one per line.
fn json_array(items: &[String]) -> String {
    format!("[\n    {}\n  ]", items.join(",\n    "))
}

// ---------------------------------------------------------------------
// kernel

/// The retained reference conversion (`convert_reference`, the
/// pre-kernel hot path) against the streaming kernel (`convert_into`)
/// over whole Figure 8/10 inputs. Gate: the wide-row kernel at least
/// doubles throughput (median of paired speedups).
fn kernel(r: &mut Record) {
    let (total_bytes, iters) = if r.smoke() {
        (1_000_000u64, 3)
    } else {
        (12_500_000u64, 7)
    };
    let workloads = [
        ("fig8_narrow_250B", customer(total_bytes / 250, 250)),
        ("fig8_wide_2000B", customer(total_bytes / 2000, 2000)),
        (
            "fig10_50_columns",
            wide_workload(total_bytes / 500, 50, 9, 42),
        ),
    ];
    let mut rows = Vec::new();
    for (name, w) in &workloads {
        let conv = converter_for(w);
        let mut out = Vec::new();
        let mut scratch = ConvertScratch::new();
        let k = bench_kernel(
            name,
            w,
            iters,
            1,
            |_| {
                let chunk = conv.convert_reference(1, &w.data).unwrap();
                assert_eq!(chunk.rows as u64, w.rows);
                black_box(&chunk.bytes);
            },
            |_| {
                out.clear();
                let n = conv
                    .convert_into(1, &w.data, &mut out, &mut scratch)
                    .unwrap();
                assert_eq!(n as u64, w.rows);
                black_box(&out);
            },
        );
        let speedup = k.speedup();
        let (base, after) = k.median_rows_per_s();
        let (best_base, best_after) = k.best_rows_per_s();
        eprintln!(
            "  {name:>18}: {base:>12.0} -> {after:>12.0} rows/s  speedup {:.2}x [{:.2}, {:.2}]",
            speedup.median, speedup.q1, speedup.q3
        );
        rows.push(format!(
            "{{\"workload\": \"{name}\", \"rows\": {}, \"bytes\": {}, \"pairs\": {}, \
             \"baseline_rows_per_s\": {base:.0}, \"after_rows_per_s\": {after:.0}, \
             \"speedup\": {}, \"best_of_speedup\": {:.2}}}",
            k.rows,
            k.bytes,
            k.pairs.len(),
            speedup.to_json(2),
            best_after / best_base
        ));
        if *name == "fig8_wide_2000B" {
            r.gate(r.smoke() || speedup.median >= 2.0, || {
                format!("{name} kernel speedup {:.2}x < 2.0x", speedup.median)
            });
        }
    }
    r.field("kernel", json_array(&rows));
}

// ---------------------------------------------------------------------
// e2e

/// Rows per second of each of `imports` successive clean imports of
/// `rows_per_import` rows into one warm target (disjoint key ranges of
/// one generated workload). The first lands in an empty table; every
/// later one runs the uniqueness-emulation conflict probe against a
/// larger target, O(batch × target) for a scanning engine and
/// O(batch × log target) for an indexed one.
fn warm_target(v: &Virtualizer, rows_per_import: u64, imports: usize) -> Vec<f64> {
    let whole = customer_workload(&CustomerSpec {
        rows: rows_per_import * imports as u64,
        row_bytes: 250,
        sessions: 1,
        seed: 0x9A5E,
        ..Default::default()
    });
    create_target(v, &whole);
    let conn = connector(v);
    let lines: Vec<&[u8]> = whole.data.split_inclusive(|b| *b == b'\n').collect();
    lines
        .chunks(rows_per_import as usize)
        .map(|part| {
            let slice = Workload {
                data: part.concat(),
                rows: part.len() as u64,
                ..whole.clone()
            };
            let started = Instant::now();
            import_into(&conn, &slice);
            slice.rows as f64 / started.elapsed().as_secs_f64().max(1e-9)
        })
        .collect()
}

/// Whole-job imports for the Figure 7/8/9 shapes (best of N), after the
/// warm-target run against the `planner = false` scan engine, the
/// labelled reference. Gates: the indexed engine beats the scan engine
/// on the warm target by ≥1.10× and holds ≥70% of its own cold rate.
fn e2e(r: &mut Record) {
    let smoke = r.smoke();
    // The warm-target run goes first, on a cold process: earlier imports
    // leave allocator residue that costs a double-digit percentage. 4k-row
    // imports keep the scan engine's last probe (48M row pairs) bounded.
    let (rows_per_import, imports) = if smoke { (2_000, 2) } else { (4_000, 4) };
    let indexed = warm_target(
        &virtualizer_with_latency(VirtualizerConfig::default(), Duration::ZERO),
        rows_per_import,
        imports,
    );
    let scan = warm_target(
        &virtualizer_with_cdw(
            VirtualizerConfig::default(),
            CdwConfig {
                native_unique: false,
                planner: false,
                ..Default::default()
            },
        ),
        rows_per_import,
        imports,
    );
    let (warm, cold, warm_scan) = (indexed[imports - 1], indexed[0], scan[imports - 1]);
    let speedup = warm / warm_scan.max(1e-9);
    eprintln!(
        "  warm target: indexed {warm:.0} rows/s (cold {cold:.0}) vs scan reference \
         {warm_scan:.0} rows/s ({speedup:.2}x)"
    );
    let series = |v: &[f64]| {
        let items: Vec<String> = v.iter().map(|x| format!("{x:.0}")).collect();
        items.join(", ")
    };
    r.field(
        "warm_target",
        format!(
            "{{\"rows_per_import\": {rows_per_import}, \"imports\": {imports}, \
             \"indexed_rows_per_s\": [{}], \"scan_reference_rows_per_s\": [{}], \
             \"warm_speedup\": {speedup:.3}}}",
            series(&indexed),
            series(&scan)
        ),
    );
    r.gate(smoke || speedup >= 1.10, || {
        format!("warm-target indexed rate is {speedup:.2}x the scan engine's; gate ≥ 1.10x")
    });
    r.gate(smoke || warm >= 0.7 * cold, || {
        format!("indexed warm-target rate {warm:.0} rows/s < 70% of its cold rate {cold:.0}")
    });

    let (total_bytes, runs) = if smoke {
        (1_000_000u64, 1)
    } else {
        (12_500_000u64, 3)
    };
    let mut cases = vec![(
        "fig7_dataset".to_string(),
        customer(total_bytes / 100, 100),
        VirtualizerConfig::default(),
    )];
    for width in [250usize, 2000] {
        cases.push((
            format!("fig8_width_{width}B"),
            customer(total_bytes / width as u64, width),
            VirtualizerConfig::default(),
        ));
    }
    for workers in [1usize, 2, 4] {
        let config = VirtualizerConfig {
            converter_mode: ConverterMode::Pool(workers),
            file_writers: (workers / 4).max(1),
            credits: workers * 4,
            ..Default::default()
        };
        cases.push((
            format!("fig9_pool_{workers}"),
            customer(total_bytes / 250, 250),
            config,
        ));
    }
    let options = ClientOptions {
        chunk_rows: 1_000,
        sessions: Some(4),
        ..Default::default()
    };
    let mut rows = Vec::new();
    for (name, w, config) in cases {
        let report = (0..runs)
            .map(|_| run_import(config.clone(), Duration::ZERO, &w, options.clone()).1)
            .min_by_key(|report| report.total())
            .expect("at least one run");
        let secs = report.total().as_secs_f64().max(1e-9);
        eprintln!("  {name:>18}: {:>12.0} rows/s", w.rows as f64 / secs);
        rows.push(format!(
            "{{\"workload\": \"{name}\", \"rows\": {}, \"bytes\": {}, \"rows_per_s\": {:.0}, \
             \"bytes_per_s\": {:.0}, \"acquisition_s\": {:.3}, \"application_s\": {:.3}}}",
            w.rows,
            w.data.len(),
            w.rows as f64 / secs,
            w.data.len() as f64 / secs,
            report.acquisition.as_secs_f64(),
            report.application.as_secs_f64()
        ));
    }
    r.field("imports", json_array(&rows));
}

// ---------------------------------------------------------------------
// replay

/// A p95 job latency no full-size synthesized replay may exceed: 5×
/// under the first recorded `error_heavy` p95 (9093 ms), before the
/// indexed apply path.
const REPLAY_P95_GATE_MS: f64 = 1800.0;
/// Largest folded/trace per-stack disagreement, percent.
const RECONCILE_GATE_PCT: f64 = 5.0;

/// Two tenants on one node: a big one spending ~15% of its rows on bad
/// dates against a 0.1% error budget and a small clean one, each
/// issuing its imports back to back.
fn tenant_slo_trace(smoke: bool) -> WorkloadTrace {
    const SEED: u64 = 0x00E7_510B;
    let (heavy_jobs, heavy_rows, light_jobs, light_rows) = if smoke {
        (2u16, 500u32, 2u16, 100u32)
    } else {
        (6, 2_000, 6, 200)
    };
    let jobs = (0..heavy_jobs)
        .map(|j| (0u16, j, heavy_rows, 150_000u32))
        .chain((0..light_jobs).map(|j| (1u16, j, light_rows, 0)));
    let events = jobs
        .enumerate()
        .map(|(seq, (tenant, job, rows, date_error_ppm))| {
            let mut spec = ImportSpec {
                table: format!("WG_T{tenant:02}_TAB{job:02}"),
                user: tenant_user(tenant),
                rows,
                row_bytes: 80,
                date_error_ppm,
                dup_key_ppm: 0,
                sessions: 2,
                key_space: u32::from(tenant) << 8 | u32::from(job),
                data_seed: SEED ^ (u64::from(tenant) << 32) ^ u64::from(job),
                planned_bad_dates: 0,
                planned_dup_keys: 0,
            };
            (spec.planned_bad_dates, spec.planned_dup_keys) = spec.shape();
            TraceEvent {
                seq: seq as u32,
                at_us: 0,
                tenant,
                kind: JobKind::Import(spec),
            }
        })
        .collect::<Vec<_>>();
    WorkloadTrace {
        scenario: Scenario {
            name: "tenant_slo".into(),
            tenants: 2,
            jobs: events.len() as u32,
            row_bytes: 80,
            ..Scenario::steady(SEED)
        },
        events,
    }
}

/// Every workloadgen scenario set at the seed it was introduced with,
/// each scenario replayed twice on fresh nodes, every gate applied to
/// every replay: identical outcome counts across the two replays, every
/// job completed, ET/UV equal to the planned error mix, index
/// maintenance and seeks in the plan counters, p95 under the gate (full
/// runs of synthesized traces), per-tenant alert precision, and the
/// folded flamegraph covering every import and agreeing with the Trace
/// surface.
fn replay_suite(r: &mut Record) {
    let smoke = r.smoke();
    let paced = ReplayOptions {
        time_scale: if smoke { 0.5 } else { 1.0 },
        // The error-heavy tail convoys on serialized uniqueness probes;
        // leave slack for loaded machines. The gates police the tail.
        read_timeout: Some(Duration::from_secs(120)),
        ..ReplayOptions::default()
    };
    let profiled = ReplayOptions {
        time_scale: 0.25,
        ..paced.clone()
    };
    let mut indexed = Scenario::presets(0x00E7_C007);
    indexed.push(Scenario::error_heavy_big(0x00E7_C007));
    let sets = [
        ("presets", Scenario::presets(0x00E7_C006), &paced),
        ("indexed", indexed, &paced),
        (
            "profiled",
            vec![Scenario::error_heavy(0x00E7_510C)],
            &profiled,
        ),
    ];
    let mut results = Vec::new();
    for (set, scenarios, options) in sets {
        for mut scenario in scenarios {
            if smoke {
                shrink(&mut scenario);
            }
            results.push(run_scenario(set, &synthesize(&scenario), true, options));
        }
    }
    results.push(run_scenario(
        "tenant_slo",
        &tenant_slo_trace(smoke),
        false,
        &profiled,
    ));

    let mut items = Vec::new();
    for res in &results {
        replay_gates(r, res);
        items.push(scenario_json(res));
    }
    r.field("scenarios", json_array(&items));
}

fn replay_gates(r: &mut Record, res: &ScenarioResult) {
    let smoke = r.smoke();
    let name = format!("{}/{}", res.set, res.name);
    let [first, second] = &res.runs;
    r.gate(first.counts == second.counts, || {
        format!(
            "'{name}' replays disagree: {:?} vs {:?}",
            first.counts, second.counts
        )
    });
    // A tenant whose error fraction is twice what fires both burn windows
    // must alert on error_rate; a tenant with no error rows must not alert.
    let policy = replay_slo_policy();
    let alert_fraction =
        policy.fast_burn.max(policy.slow_burn) * (1.0 - policy.error_rate_objective);
    for run in &res.runs {
        let c = &run.counts;
        r.gate(c.completed == c.jobs, || {
            format!(
                "'{name}' completed {} of {} jobs ({} rejected, {} failed)",
                c.completed, c.jobs, c.rejected, c.failed
            )
        });
        r.gate(
            c.errors_et == res.planned_bad_dates && c.errors_uv == res.planned_dup_keys,
            || {
                format!(
                    "'{name}' error accounting: ET {} (planned {}), UV {} (planned {})",
                    c.errors_et, res.planned_bad_dates, c.errors_uv, res.planned_dup_keys
                )
            },
        );
        // A hand-built trace due all at once measures each job from the
        // start, so its p95 is a sum of service times: reported, not gated.
        r.gate(
            smoke || !res.synthesized || run.slo.p95_ms <= REPLAY_P95_GATE_MS,
            || {
                format!(
                    "'{name}' p95 {:.1} ms exceeds the {REPLAY_P95_GATE_MS:.0} ms gate",
                    run.slo.p95_ms
                )
            },
        );
        if !etlv_core::obs::enabled() {
            continue;
        }
        r.gate(
            run.plan.index_maintain > 0 && run.plan.index_seek > 0,
            || {
                format!(
                    "'{name}' plan counters show no index use: {} seeks, {} maintains",
                    run.plan.index_seek, run.plan.index_maintain
                )
            },
        );
        for t in &run.tenants {
            let noisy = t.errors as f64 >= 2.0 * alert_fraction * t.rows as f64;
            let ok = if t.errors == 0 {
                t.alerts.is_empty()
            } else {
                !noisy || t.alerts.iter().any(|a| a == "error_rate")
            };
            r.gate(ok, || {
                format!(
                    "'{name}' tenant {} ({} error rows of {}) alerts {:?}",
                    t.user, t.errors, t.rows, t.alerts
                )
            });
        }
        let rc = &run.reconcile;
        r.gate(
            rc.folded_jobs == run.imports_completed && rc.folded_missed_jobs == 0,
            || {
                format!(
                    "'{name}' folded {} of {} completed imports, {} with an incomplete trace",
                    rc.folded_jobs, run.imports_completed, rc.folded_missed_jobs
                )
            },
        );
        r.gate(run.imports_completed == 0 || rc.folded_stacks > 0, || {
            format!("'{name}' left an empty folded flamegraph")
        });
        r.gate(rc.worst_delta_pct <= RECONCILE_GATE_PCT, || {
            format!(
                "'{name}' folded/trace disagreement {:.3}% on {} > {RECONCILE_GATE_PCT}%",
                rc.worst_delta_pct, rc.worst_path
            )
        });
    }
}

fn scenario_json(res: &ScenarioResult) -> String {
    let run = &res.runs[0];
    let (slo, plan, rc) = (&run.slo, &run.plan, &run.reconcile);
    eprintln!(
        "  {:<10} {:<16} jobs {:>3}  p50 {:>7.1} ms  p95 {:>7.1} ms  p99 {:>7.1} ms  et {}  uv {}  \
         seeks {}  maintains {}  folded {}/{}",
        res.set,
        res.name,
        slo.jobs,
        slo.p50_ms,
        slo.p95_ms,
        slo.p99_ms,
        slo.errors_et,
        slo.errors_uv,
        plan.index_seek,
        plan.index_maintain,
        rc.folded_jobs,
        run.imports_completed,
    );
    let tenants: Vec<String> = run
        .tenants
        .iter()
        .map(|t| {
            let alerts: Vec<String> = t.alerts.iter().map(|a| format!("\"{a}\"")).collect();
            format!(
                "{{\"tenant\": \"{}\", \"rows\": {}, \"error_rows\": {}, \"alerts\": [{}]}}",
                t.user,
                t.rows,
                t.errors,
                alerts.join(", ")
            )
        })
        .collect();
    format!(
        "{{\"set\": \"{}\", \"name\": \"{}\", \"trace_fingerprint\": \"{:#018x}\", \
         \"planned_bad_dates\": {}, \"planned_dup_keys\": {}, \"counts_run1\": {}, \
         \"counts_run2\": {}, \"plan\": {{\"index_seek\": {}, \"full_scan\": {}, \
         \"index_maintain\": {}}}, \"reconcile\": {{\"folded_jobs\": {}, \
         \"folded_missed_jobs\": {}, \"folded_stacks\": {}, \"folded_total_us\": {}, \
         \"trace_total_us\": {}, \"worst_delta_pct\": {:.3}}}, \"tenants\": [{}], \"slo\": {}}}",
        res.set,
        res.name,
        res.fingerprint,
        res.planned_bad_dates,
        res.planned_dup_keys,
        counts_json(&run.counts),
        counts_json(&res.runs[1].counts),
        plan.index_seek,
        plan.full_scan,
        plan.index_maintain,
        rc.folded_jobs,
        rc.folded_missed_jobs,
        rc.folded_stacks,
        rc.folded_total_us,
        rc.trace_total_us,
        rc.worst_delta_pct,
        tenants.join(", "),
        slo.to_json()
    )
}

// ---------------------------------------------------------------------
// sessions

/// A node with `jobs` retargeted copies of one customer workload, their
/// tables created.
fn burst_node(
    config: VirtualizerConfig,
    jobs: usize,
    rows: u64,
    row_bytes: usize,
    seed: u64,
) -> (Virtualizer, Vec<Workload>) {
    let v = virtualizer_with_latency(config, Duration::ZERO);
    let base = customer_workload(&CustomerSpec {
        rows,
        row_bytes,
        sessions: 1,
        seed,
        ..Default::default()
    });
    let workloads: Vec<Workload> = (0..jobs).map(|i| retarget(&base, i)).collect();
    for w in &workloads {
        create_target(&v, w);
    }
    (v, workloads)
}

struct Burst {
    rows_per_s: f64,
    pool_workers: u64,
    threads_started: u64,
    peak_os_threads: usize,
}

/// `jobs` concurrent imports, over reactor TCP or the in-memory duplex.
fn burst(config: VirtualizerConfig, tcp: bool, jobs: usize, rows: u64, seed: u64) -> Burst {
    let (v, workloads) = burst_node(config, jobs, rows, 250, seed);
    let server = tcp.then(|| v.listen_tcp("127.0.0.1:0").expect("bind"));
    let conn: Arc<dyn Connect> = match &server {
        Some(s) => Arc::new(TcpConnector::new(s.addr().to_string())),
        None => connector(&v),
    };
    let threads_before = v.obs().runtime.threads_started.value();
    let peak = PeakSampler::start();
    let started = Instant::now();
    let handles: Vec<_> = workloads
        .into_iter()
        .map(|w| {
            let conn = Arc::clone(&conn);
            std::thread::spawn(move || import_into(&conn, &w))
        })
        .collect();
    for h in handles {
        h.join().expect("import thread panicked");
    }
    let wall = started.elapsed().as_secs_f64().max(1e-9);
    let peak_os_threads = peak.finish();
    if let Some(s) = server {
        s.shutdown();
    }
    Burst {
        rows_per_s: rows as f64 * jobs as f64 / wall,
        pool_workers: v.obs().runtime.workers.value(),
        threads_started: v.obs().runtime.threads_started.value() - threads_before,
        peak_os_threads,
    }
}

/// Client threads holding the keepalive sessions.
const HOLDER_THREADS: usize = 4;
/// Allowed OS-thread drift between scale points (scheduler and runtime
/// noise, never per-connection growth).
const THREAD_SLACK: usize = 8;

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

// The workspace carries no libc crate; these resolve from the C library
// std already links.
extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

const RLIMIT_NOFILE: i32 = 7;

/// Raise the soft fd limit to the hard limit; returns the resulting soft
/// limit (0 when unreadable).
fn raise_fd_limit() -> u64 {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a live, writable `struct rlimit` (two `rlim_t`
    // fields, `repr(C)`) for the duration of the call.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 0;
    }
    if lim.cur < lim.max {
        let want = RLimit {
            cur: lim.max,
            max: lim.max,
        };
        // SAFETY: `want` is a live `struct rlimit` the call only reads.
        if unsafe { setrlimit(RLIMIT_NOFILE, &want) } == 0 {
            return lim.max;
        }
    }
    lim.cur
}

struct ScalePoint {
    sessions: usize,
    held: usize,
    keepalive_p50_us: u64,
    keepalive_p99_us: u64,
    jobs_wall_s: f64,
    /// OS threads with every session held and no job running — the
    /// number that must not depend on `sessions`.
    held_os_threads: usize,
    peak_os_threads: usize,
    reactor_conns: u64,
}

/// Hold `sessions` logged-on keepalive sessions, then run `jobs` imports
/// while every held session answers one keepalive.
fn scale_point(sessions: usize, jobs: usize, rows: u64) -> ScalePoint {
    let config = VirtualizerConfig {
        max_sessions: sessions + 256,
        max_concurrent_jobs: 128,
        ..Default::default()
    };
    let (v, workloads) = burst_node(config, jobs, rows, 120, 0xB10 + sessions as u64);
    let server = v.listen_tcp("127.0.0.1:0").expect("bind");
    let addr = server.addr().to_string();

    let peak = PeakSampler::start();
    let logged_on = Arc::new(AtomicU64::new(0));
    let start_sweep = Arc::new(AtomicBool::new(false));
    let per_holder = sessions.div_ceil(HOLDER_THREADS);
    let holders: Vec<_> = (0..HOLDER_THREADS)
        .map(|t| {
            let connector = TcpConnector::new(addr.clone());
            let logged_on = Arc::clone(&logged_on);
            let start_sweep = Arc::clone(&start_sweep);
            let count = per_holder.min(sessions.saturating_sub(t * per_holder));
            std::thread::spawn(move || -> Vec<u64> {
                let mut held = Vec::with_capacity(count);
                for i in 0..count {
                    let user = format!("hold-{t}-{}", i % 16);
                    match Session::logon(&connector, &user, "p", SessionRole::Control, 0) {
                        Ok(s) => held.push(s),
                        Err(e) => panic!("holder logon failed at {i}: {e}"),
                    }
                    logged_on.fetch_add(1, Ordering::Relaxed);
                }
                while !start_sweep.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let rtts = held
                    .iter_mut()
                    .map(|session| {
                        let t0 = Instant::now();
                        let reply = session.request(Message::Keepalive).expect("keepalive");
                        assert!(matches!(reply, Message::Keepalive));
                        t0.elapsed().as_micros() as u64
                    })
                    .collect();
                for session in held {
                    session.logoff();
                }
                rtts
            })
        })
        .collect();
    while (logged_on.load(Ordering::Relaxed) as usize) < sessions {
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(100));
    let held_os_threads = os_threads();
    let reactor_conns = v.obs().reactor.conns.value();

    // The sweep runs during the job burst, so RTTs see a busy node.
    let jobs_started = Instant::now();
    let job_threads: Vec<_> = workloads
        .into_iter()
        .map(|w| {
            let conn: Arc<dyn Connect> = Arc::new(TcpConnector::new(addr.clone()));
            std::thread::spawn(move || import_into(&conn, &w))
        })
        .collect();
    start_sweep.store(true, Ordering::Relaxed);
    let mut rtts: Vec<u64> = Vec::with_capacity(sessions);
    for h in holders {
        rtts.extend(h.join().expect("holder panicked"));
    }
    for h in job_threads {
        h.join().expect("job thread panicked");
    }
    let jobs_wall_s = jobs_started.elapsed().as_secs_f64();
    let peak_os_threads = peak.finish();
    server.shutdown();
    rtts.sort_unstable();
    ScalePoint {
        sessions,
        held: rtts.len(),
        keepalive_p50_us: percentile(&rtts, 50.0),
        keepalive_p99_us: percentile(&rtts, 99.0),
        jobs_wall_s,
        held_os_threads,
        peak_os_threads,
        reactor_conns,
    }
}

/// The shared worker runtime against per-job spawning at 1/4/16
/// concurrent jobs, reactor TCP against the blocking duplex at 16 jobs,
/// and held keepalive sessions at two scales. Gates: the shared runtime
/// starts no worker thread during a 16-job burst; full runs hold ≥85% of
/// the per-job rate at 16 jobs and ≥95% reactor/duplex parity; every
/// held session answers, the reactor's connection gauge reaches the
/// held count, and steady-state OS threads do not grow between scales.
fn sessions(r: &mut Record) {
    let smoke = r.smoke();
    let (rows_per_job, reps) = if smoke { (2_000, 1) } else { (15_000, 3) };

    // Modes alternate inside every repetition; each keeps its best rate
    // and its worst thread count.
    let mut runtime_rows = Vec::new();
    let mut at16 = [0f64; 2];
    for jobs in [1usize, 4, 16] {
        let mut best: [Option<Burst>; 2] = [None, None];
        let mut threads = [0u64; 2];
        for _ in 0..reps {
            for (slot, mode) in [RuntimeMode::Shared, RuntimeMode::PerJob]
                .into_iter()
                .enumerate()
            {
                let config = VirtualizerConfig {
                    runtime_mode: mode,
                    ..Default::default()
                };
                let b = burst(config, false, jobs, rows_per_job, 0x9A5E + jobs as u64);
                threads[slot] = threads[slot].max(b.threads_started);
                if best[slot]
                    .as_ref()
                    .is_none_or(|prev| b.rows_per_s > prev.rows_per_s)
                {
                    best[slot] = Some(b);
                }
            }
        }
        for (slot, mode) in ["shared", "per_job"].into_iter().enumerate() {
            let b = best[slot].as_ref().expect("at least one repetition");
            eprintln!(
                "  {mode:>7} x{jobs:<2}: {:>10.0} rows/s, pool {} workers, +{} threads, \
                 OS peak {}",
                b.rows_per_s, b.pool_workers, threads[slot], b.peak_os_threads
            );
            runtime_rows.push(format!(
                "{{\"mode\": \"{mode}\", \"jobs\": {jobs}, \"rows_per_s\": {:.0}, \
                 \"pool_workers\": {}, \"threads_started_during_run\": {}, \
                 \"peak_os_threads\": {}}}",
                b.rows_per_s, b.pool_workers, threads[slot], b.peak_os_threads
            ));
            if jobs == 16 {
                at16[slot] = b.rows_per_s;
            }
        }
        if jobs == 16 {
            r.gate(threads[0] == 0, || {
                format!(
                    "shared runtime started {} worker threads in a burst",
                    threads[0]
                )
            });
        }
    }
    r.field("runtime", json_array(&runtime_rows));
    r.gate(smoke || at16[0] >= 0.85 * at16[1], || {
        format!(
            "shared runtime {:.0} rows/s < 85% of per-job {:.0} rows/s at 16 jobs",
            at16[0], at16[1]
        )
    });

    let (mut mem, mut tcp) = (0f64, 0f64);
    for _ in 0..reps {
        for over_tcp in [false, true] {
            let rate = burst(
                VirtualizerConfig::default(),
                over_tcp,
                16,
                rows_per_job,
                0xA10 + 16,
            )
            .rows_per_s;
            let best = if over_tcp { &mut tcp } else { &mut mem };
            *best = best.max(rate);
        }
    }
    let parity = tcp / mem.max(1e-9);
    eprintln!("  parity x16: duplex {mem:.0} rows/s, reactor TCP {tcp:.0} rows/s ({parity:.3})");
    r.field(
        "parity",
        format!(
            "{{\"jobs\": 16, \"rows_per_job\": {rows_per_job}, \"duplex_rows_per_s\": {mem:.0}, \
             \"reactor_tcp_rows_per_s\": {tcp:.0}, \"ratio\": {parity:.4}}}"
        ),
    );
    r.gate(smoke || parity >= 0.95, || {
        format!("reactor TCP {tcp:.0} rows/s < 95% of the blocking duplex {mem:.0} rows/s")
    });

    // Two fds per held session (both ends live in this process), plus
    // headroom for jobs, loops and the runtime. Two points even in smoke:
    // the fixed-thread gate is a comparison.
    let fd_limit = raise_fd_limit();
    let fd_sessions = (fd_limit.saturating_sub(1024) / 2) as usize;
    let (scales, jobs, rows) = if smoke {
        ([64, 512], 16, 200)
    } else {
        ([1_000, 5_000], 100, 400)
    };
    let points: Vec<ScalePoint> = scales
        .into_iter()
        .map(|s| scale_point(s.min(fd_sessions), jobs, rows))
        .collect();
    let mut items = Vec::new();
    for p in &points {
        eprintln!(
            "  {:>5} sessions + {jobs} jobs: keepalive p50/p99 {}/{} us, jobs {:.2}s, \
             OS threads held/peak {}/{}",
            p.sessions,
            p.keepalive_p50_us,
            p.keepalive_p99_us,
            p.jobs_wall_s,
            p.held_os_threads,
            p.peak_os_threads
        );
        items.push(format!(
            "{{\"sessions\": {}, \"held\": {}, \"jobs\": {jobs}, \"keepalive_p50_us\": {}, \
             \"keepalive_p99_us\": {}, \"jobs_wall_s\": {:.3}, \"held_os_threads\": {}, \
             \"peak_os_threads\": {}, \"reactor_conns\": {}}}",
            p.sessions,
            p.held,
            p.keepalive_p50_us,
            p.keepalive_p99_us,
            p.jobs_wall_s,
            p.held_os_threads,
            p.peak_os_threads,
            p.reactor_conns
        ));
        r.gate(p.held == p.sessions, || {
            format!("held {} of {} sessions", p.held, p.sessions)
        });
        r.gate(p.reactor_conns >= p.sessions as u64, || {
            format!(
                "reactor.conns {} never reached the {} held sessions",
                p.reactor_conns, p.sessions
            )
        });
    }
    r.field("fd_limit", fd_limit.to_string());
    let capped = scales.iter().any(|&s| s > fd_sessions);
    r.field("capped_by_fd_limit", capped.to_string());
    r.field("scale", json_array(&items));
    let (first, last) = (&points[0], &points[points.len() - 1]);
    r.gate(
        last.held_os_threads <= first.held_os_threads + THREAD_SLACK,
        || {
            format!(
                "steady-state OS threads grew with connections: {} sessions -> {}, {} -> {}",
                first.sessions, first.held_os_threads, last.sessions, last.held_os_threads
            )
        },
    );
}

// ---------------------------------------------------------------------
// obs-cost

/// Rows per chunk, as the legacy client sends them by default.
const CHUNK_ROWS: usize = 1_000;
/// The ≤3% budget for all per-chunk observability together.
const OBS_COST_GATE_PCT: f64 = 3.0;
const TENANT: &str = "bench";

/// Chunk conversion bare (A) against the same conversion with all the
/// per-chunk instrumentation the import path performs (B): gateway
/// intake accounting, the worker's tracked queue lock (A takes an
/// untracked one) and busy gauge, everything `pipeline::convert_work`
/// records (the queue-wait stage, the thread-CPU clock, the convert
/// counters and stage), and the retire-side gauge release. Each pair is
/// one chunk run by both sides back to back: on this class of shared
/// 2-CPU host, whole-pass pairs 20–60 ms apart differed by up to ±10%
/// with no instrumentation compiled in, and chunk pairs do not.
fn chunk_loop_ab(name: &str, w: &Workload, iters: u32, obs: &Obs) -> KernelResult {
    let conv = converter_for(w);
    let chunks = chunked(&w.data, CHUNK_ROWS);
    let tenant = obs.tenant(TENANT);
    let root = SpanIds {
        trace: 1,
        span: obs.journal.next_span_id(),
        parent: 0,
    };
    let plain_queue = Mutex::new(0u64);
    let tracked_queue = TrackedMutex::new(obs.registry.lock_site("bench.queue"), 0u64);
    let ack_wait_micros = AtomicU64::new(0);
    // One output buffer and scratch for both sides, as in the pipeline's
    // steady state, so neither side gets a better-placed buffer.
    let buffers = RefCell::new((Vec::new(), ConvertScratch::new()));
    let seq = |i: usize| (i * CHUNK_ROWS + 1) as u64;
    let span = |chunk: u64, value: u64| StageSpan {
        tenant: &tenant,
        job: 1,
        ids: root.child(obs.journal.next_span_id()),
        chunk,
        value,
    };
    bench_kernel(
        name,
        w,
        iters,
        chunks.len(),
        |i| {
            let (out, scratch) = &mut *buffers.borrow_mut();
            *plain_queue.lock().expect("queue lock") += 1;
            out.clear();
            let rows = conv.convert_into(seq(i), chunks[i], out, scratch).unwrap();
            black_box((rows, &out));
        },
        |i| {
            let (out, scratch) = &mut *buffers.borrow_mut();
            let chunk = chunks[i];
            let bytes = chunk.len() as u64;
            let enqueued = Instant::now();
            tenant.credit_held.add(1);
            tenant.memory_held.add(bytes);
            obs.gateway.chunks_received.inc();
            obs.gateway.chunk_bytes.add(bytes);
            tenant.chunks.inc();
            tenant.chunk_bytes.add(bytes);
            let handled = enqueued.elapsed();
            obs.gateway.chunk_handle_us.record_duration(handled);
            ack_wait_micros.fetch_add(handled.as_micros() as u64, Ordering::Relaxed);

            *tracked_queue.lock() += 1;
            obs.pool.busy_workers.add(1);
            obs.record_stage(
                Stage::QueueWait,
                enqueued,
                enqueued.elapsed(),
                None,
                span(seq(i), bytes),
            );
            let started = Instant::now();
            let cpu = CpuTimer::start();
            out.clear();
            let rows = conv.convert_into(seq(i), chunk, out, scratch).unwrap() as u64;
            let wall = started.elapsed();
            obs.pipeline.convert_chunks.inc();
            obs.pipeline.convert_rows.add(rows);
            obs.pipeline.convert_bytes.add(out.len() as u64);
            obs.record_stage(
                Stage::Convert,
                started,
                wall,
                Some(&cpu),
                span(seq(i), rows),
            );
            obs.pool.busy_workers.sub(1);
            tenant.credit_held.sub(1);
            tenant.memory_held.sub(bytes);
            black_box((rows, &out));
        },
    )
}

fn overhead_json(k: &KernelResult) -> String {
    let overhead = k.overhead_pct();
    let (plain, instrumented) = k.median_rows_per_s();
    let (best_plain, best_instrumented) = k.best_rows_per_s();
    eprintln!(
        "  {:>18}: {plain:>12.0} -> {instrumented:>12.0} rows/s  overhead {:+.3}% [{:+.3}, {:+.3}]",
        k.name, overhead.median, overhead.q1, overhead.q3
    );
    format!(
        "{{\"workload\": \"{}\", \"rows\": {}, \"bytes\": {}, \"pairs\": {}, \
         \"plain_rows_per_s\": {plain:.0}, \"instrumented_rows_per_s\": {instrumented:.0}, \
         \"overhead_pct\": {}, \"best_of_overhead_pct\": {:.3}}}",
        k.name,
        k.rows,
        k.bytes,
        k.pairs.len(),
        overhead.to_json(3),
        (best_plain / best_instrumented - 1.0) * 100.0
    )
}

/// The total per-chunk cost of observability, on narrow and wide rows,
/// then on wide rows again with a live 2 ms sampler streaming node and
/// tenant series into a burn-rate engine. Gate (full runs): the median
/// of the paired per-chunk overheads is ≤3% on narrow and on wide.
fn obs_cost(r: &mut Record) {
    let (total_bytes, iters) = if r.smoke() {
        (1_000_000u64, 5)
    } else {
        (12_500_000u64, 61)
    };
    let narrow = customer(total_bytes / 250, 250);
    let wide = customer(total_bytes / 2000, 2000);
    let quiet = Obs::default();
    let mut kernels = vec![
        chunk_loop_ab("narrow_250B", &narrow, iters, &quiet),
        chunk_loop_ab("wide_2000B", &wide, iters, &quiet),
    ];

    let sampled = Arc::new(Obs::default());
    let engine = SloEngine::new(SloPolicy::default());
    let (refresh_obs, refresh_engine) = (Arc::clone(&sampled), engine.clone());
    let sampler = Sampler::start(
        Arc::clone(&sampled),
        Box::new(move || refresh_engine.observe(&refresh_obs)),
        Duration::from_millis(2),
        4096,
        etlv_core::config::default_sampler_metrics(),
        etlv_core::config::default_sampler_tenant_metrics(),
    );
    kernels.push(chunk_loop_ab("wide_2000B_sampled", &wide, iters, &sampled));
    let points = sampler.points_for("pipeline.convert_rows");
    let tenant_points = sampler.tenant_points_for("chunks", TENANT);
    sampler.stop();
    // Two separate kernels, not pairs: carries the host's run-to-run
    // spread, so it is reported and not gated.
    let sampler_pct =
        (kernels[1].median_rows_per_s().1 / kernels[2].median_rows_per_s().1 - 1.0) * 100.0;
    eprintln!(
        "  sampler: {points} points, {tenant_points} tenant points, {sampler_pct:+.3}% vs quiet"
    );

    let items: Vec<String> = kernels.iter().map(overhead_json).collect();
    r.field("chunk_rows", CHUNK_ROWS.to_string());
    r.field("kernel", json_array(&items));
    r.field(
        "sampler",
        format!(
            "{{\"tick_ms\": 2, \"points\": {points}, \"tenant_points\": {tenant_points}, \
             \"overhead_vs_quiet_pct\": {sampler_pct:.3}}}"
        ),
    );
    for k in &kernels[..2] {
        let overhead = k.overhead_pct();
        r.gate(
            r.smoke() || overhead_within(&overhead, OBS_COST_GATE_PCT),
            || {
                format!(
                    "{} observability overhead median {:.3}% [{:.3}, {:.3}] > {OBS_COST_GATE_PCT}%",
                    k.name, overhead.median, overhead.q1, overhead.q3
                )
            },
        );
    }
}
