//! Shared harness for the figure benches and the `etlv-bench` suites:
//! stand up a virtualizer, create the workload's target table, and run
//! imports end-to-end through the real legacy client; time paired A/B
//! kernels; replay workloadgen traces and read back what the node saw;
//! and render every suite's result as one common JSON record.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use etlv_cdw::{Cdw, CdwConfig};
use etlv_cloudstore::{MemStore, ObjectStore};
use etlv_core::convert::DataConverter;
use etlv_core::obs::SloPolicy;
use etlv_core::report::JobReport;
use etlv_core::workload::{customer_workload, CustomerSpec, Workload};
use etlv_core::{Virtualizer, VirtualizerConfig};
use etlv_legacy_client::{
    ClientOptions, Connect, FnConnector, ImportResult, LegacyEtlClient, TcpConnector,
};
use etlv_protocol::transport::{duplex, Transport};
use etlv_script::{compile, parse_script, JobPlan};
use etlv_workloadgen::{
    replay, JobStatus, OutcomeCounts, ReplayOptions, Scenario, SloSummary, WorkloadTrace,
};

/// Build an in-memory connector for a virtualizer node.
pub fn connector(v: &Virtualizer) -> Arc<dyn Connect> {
    let v = v.clone();
    Arc::new(FnConnector(move || {
        let (client_end, server_end) = duplex();
        let v = v.clone();
        std::thread::spawn(move || {
            let _ = v.serve(server_end);
        });
        Ok(Box::new(client_end) as Box<dyn Transport>)
    }))
}

/// Create a virtualizer over a fresh in-memory store and a CDW built
/// with `cdw`.
pub fn virtualizer_with_cdw(config: VirtualizerConfig, cdw: CdwConfig) -> Virtualizer {
    let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let cdw = Cdw::with_config(cdw, Some(Arc::clone(&store)));
    Virtualizer::with_backends(config, cdw, store)
}

/// Create a virtualizer whose CDW simulates `statement_latency` per round
/// trip (0 = in-process speed).
pub fn virtualizer_with_latency(
    config: VirtualizerConfig,
    statement_latency: Duration,
) -> Virtualizer {
    virtualizer_with_cdw(
        config,
        CdwConfig {
            native_unique: false,
            statement_latency,
            ..Default::default()
        },
    )
}

/// One full import run: fresh virtualizer, DDL, load, report.
pub fn run_import(
    config: VirtualizerConfig,
    statement_latency: Duration,
    workload: &Workload,
    options: ClientOptions,
) -> (ImportResult, JobReport) {
    let v = virtualizer_with_latency(config, statement_latency);
    run_import_on(&v, workload, options)
}

/// Import against an existing node (target table is (re)created first).
pub fn run_import_on(
    v: &Virtualizer,
    workload: &Workload,
    options: ClientOptions,
) -> (ImportResult, JobReport) {
    v.cdw()
        .execute(&format!("DROP TABLE IF EXISTS {}", workload.target))
        .unwrap();
    create_target(v, workload);
    let client = LegacyEtlClient::with_options(connector(v), options);
    let result = client
        .run_import_data(&import_job(workload), &workload.data)
        .expect("import job failed");
    let report = v.last_job_report().expect("job report recorded");
    (result, report)
}

/// Render seconds with 3 decimals for figure tables.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// MB/s for figure tables.
pub fn rate_mb_s(bytes: u64, d: Duration) -> f64 {
    if d.is_zero() {
        return f64::INFINITY;
    }
    bytes as f64 / 1_000_000.0 / d.as_secs_f64()
}

// ---------------------------------------------------------------------
// Workloads and imports

/// The customer table at `rows` × `row_bytes`, four sessions, no key.
pub fn customer(rows: u64, row_bytes: usize) -> Workload {
    customer_workload(&CustomerSpec {
        rows,
        row_bytes,
        sessions: 4,
        unique_key: false,
        ..Default::default()
    })
}

/// The workload's compiled import job.
fn import_job(workload: &Workload) -> etlv_script::ImportJob {
    let JobPlan::Import(job) = compile(&parse_script(&workload.script).unwrap()).unwrap() else {
        panic!("workload script is not an import job")
    };
    job
}

/// Build the job's DataConverter exactly as the gateway does.
pub fn converter_for(workload: &Workload) -> DataConverter {
    let job = import_job(workload);
    DataConverter::new(
        job.layout,
        job.format,
        VirtualizerConfig::default().staging_delimiter,
    )
}

/// Create the workload's target table on `v`.
pub fn create_target(v: &Virtualizer, workload: &Workload) {
    v.cdw()
        .execute(&etlv_core::xcompile::translate_sql(&workload.target_ddl).unwrap())
        .unwrap();
}

/// Split `data` into chunks of `rows` newline-terminated rows; a trailing
/// partial chunk (fewer rows, or no final newline) is kept.
pub fn chunked(data: &[u8], rows: usize) -> Vec<&[u8]> {
    let mut chunks = Vec::new();
    let mut start = 0usize;
    let mut seen = 0usize;
    for (i, &b) in data.iter().enumerate() {
        if b == b'\n' {
            seen += 1;
            if seen == rows {
                chunks.push(&data[start..=i]);
                start = i + 1;
                seen = 0;
            }
        }
    }
    if start < data.len() {
        chunks.push(&data[start..]);
    }
    chunks
}

/// Retarget a workload at its own table so concurrent jobs don't collide.
pub fn retarget(base: &Workload, index: usize) -> Workload {
    let from = &base.target;
    let to = format!("{}_{index}", base.target);
    Workload {
        script: base.script.replace(from, &to),
        target_ddl: base.target_ddl.replace(from, &to),
        target: to,
        ..base.clone()
    }
}

/// Rows per chunk of the concurrent-import clients.
const IMPORT_CHUNK_ROWS: usize = 500;

/// Import `workload` through `conn` on one data session and check every
/// row applied. A reply slower than 10 minutes fails the import rather
/// than hanging the run (the scan engine's slowest warm-target import
/// takes about 50 s on a 2-CPU host).
pub fn import_into(conn: &Arc<dyn Connect>, workload: &Workload) {
    let client = LegacyEtlClient::with_options(
        Arc::clone(conn),
        ClientOptions {
            chunk_rows: IMPORT_CHUNK_ROWS,
            sessions: Some(1),
            read_timeout: Some(Duration::from_secs(600)),
            ..Default::default()
        },
    );
    let result = client
        .run_import_data(&import_job(workload), &workload.data)
        .expect("import job failed");
    assert_eq!(result.report.rows_applied, workload.rows);
}

/// OS thread count of this process (Linux); 0 where unreadable.
pub fn os_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// Samples the process-wide OS-thread peak until finished.
pub struct PeakSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<usize>,
}

impl PeakSampler {
    /// Start sampling every 2 ms.
    pub fn start() -> PeakSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = 0usize;
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(os_threads());
                std::thread::sleep(Duration::from_millis(2));
            }
            peak.max(os_threads())
        });
        PeakSampler { stop, handle }
    }

    /// Stop sampling and return the peak.
    pub fn finish(self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("thread sampler panicked")
    }
}

// ---------------------------------------------------------------------
// Paired A/B timing

/// Median and quartiles of a sample (linear interpolation between the
/// closest ranks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// 50th percentile.
    pub median: f64,
    /// 25th percentile.
    pub q1: f64,
    /// 75th percentile.
    pub q3: f64,
}

impl Spread {
    /// The spread of `samples`; all zero when empty.
    pub fn of(samples: &[f64]) -> Spread {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| {
            if sorted.is_empty() {
                return 0.0;
            }
            let pos = q * (sorted.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        };
        Spread {
            median: at(0.5),
            q1: at(0.25),
            q3: at(0.75),
        }
    }

    /// `{"median": m, "q1": a, "q3": b}` at `decimals` places.
    pub fn to_json(&self, decimals: usize) -> String {
        format!(
            "{{\"median\": {:.d$}, \"q1\": {:.d$}, \"q3\": {:.d$}}}",
            self.median,
            self.q1,
            self.q3,
            d = decimals
        )
    }
}

/// Interleaved A/B timings of one workload: one `(a, b)` wall-second
/// pair per unit of work, `units` units per pass.
pub struct KernelResult {
    /// Workload label.
    pub name: String,
    /// Rows per pass.
    pub rows: u64,
    /// Input bytes per pass.
    pub bytes: u64,
    /// Units (whole inputs or chunks) per pass.
    pub units: usize,
    /// Per-unit `(a, b)` seconds, pass after pass.
    pub pairs: Vec<(f64, f64)>,
}

impl KernelResult {
    /// `a / b` per pair: how many times faster B ran than A.
    pub fn speedup(&self) -> Spread {
        Spread::of(&self.pairs.iter().map(|&(a, b)| a / b).collect::<Vec<_>>())
    }

    /// `(b / a - 1) × 100` per pair: B's extra time over A, in percent.
    pub fn overhead_pct(&self) -> Spread {
        Spread::of(
            &self
                .pairs
                .iter()
                .map(|&(a, b)| (b / a - 1.0) * 100.0)
                .collect::<Vec<_>>(),
        )
    }

    /// Per-pass `(a, b)` seconds.
    fn passes(&self) -> Vec<(f64, f64)> {
        self.pairs
            .chunks(self.units)
            .map(|pass| pass.iter().fold((0.0, 0.0), |t, p| (t.0 + p.0, t.1 + p.1)))
            .collect()
    }

    /// Rows per second of the fastest A and the fastest B pass — the
    /// best-of estimator the per-layer gates used before the paired one.
    pub fn best_rows_per_s(&self) -> (f64, f64) {
        let passes = self.passes();
        let best = |f: fn(&(f64, f64)) -> f64| {
            let secs = passes.iter().map(f).fold(f64::MAX, f64::min);
            self.rows as f64 / secs.max(1e-9)
        };
        (best(|p| p.0), best(|p| p.1))
    }

    /// Rows per second at each side's median pass time.
    pub fn median_rows_per_s(&self) -> (f64, f64) {
        let passes = self.passes();
        let rate = |f: fn(&(f64, f64)) -> f64| {
            let secs: Vec<f64> = passes.iter().map(f).collect();
            self.rows as f64 / Spread::of(&secs).median.max(1e-9)
        };
        (rate(|p| p.0), rate(|p| p.1))
    }
}

/// Time `a(unit)` and `b(unit)` over the same workload: one untimed
/// warm-up pass each, then `iters` passes of `units` pairs, each pair
/// one unit run by both sides back to back, alternating which side runs
/// first so frequency drift and cache state hit both sides equally.
pub fn bench_kernel(
    name: &str,
    workload: &Workload,
    iters: u32,
    units: usize,
    mut a: impl FnMut(usize),
    mut b: impl FnMut(usize),
) -> KernelResult {
    let time = |f: &mut dyn FnMut(usize), unit: usize| {
        let start = Instant::now();
        f(unit);
        start.elapsed().as_secs_f64().max(1e-9)
    };
    for unit in 0..units {
        a(unit);
        b(unit);
    }
    let mut pairs = Vec::with_capacity(iters as usize * units);
    for i in 0..iters as usize {
        for unit in 0..units {
            pairs.push(if (i * units + unit).is_multiple_of(2) {
                let ta = time(&mut a, unit);
                (ta, time(&mut b, unit))
            } else {
                let tb = time(&mut b, unit);
                (time(&mut a, unit), tb)
            });
        }
    }
    KernelResult {
        name: name.to_string(),
        rows: workload.rows,
        bytes: workload.data.len() as u64,
        units,
        pairs,
    }
}

/// The obs-cost gate: the median paired overhead must not exceed
/// `bound_pct`.
pub fn overhead_within(overhead_pct: &Spread, bound_pct: f64) -> bool {
    overhead_pct.median <= bound_pct
}

// ---------------------------------------------------------------------
// Workload replay

/// The SLO policy every replay node runs with: a latency target no
/// replayed job approaches and windows longer than any replay, so burn
/// rates cover the whole replay and only the error mix can alert.
pub fn replay_slo_policy() -> SloPolicy {
    SloPolicy {
        latency_target: Duration::from_secs(60),
        fast_window: Duration::from_secs(30),
        slow_window: Duration::from_secs(120),
        ..SloPolicy::default()
    }
}

/// Shrink a scenario for a smoke run; the gates hold at any scale.
pub fn shrink(s: &mut Scenario) {
    s.jobs = (s.jobs / 4).max(6);
    s.tenants = s.tenants.min(3);
    s.horizon_ms /= 4;
    s.rows_hot = (s.rows_hot / 4).max(s.rows_base.min(40));
    s.rows_base = s.rows_base.min(40);
}

/// Node-side CDW plan counters after a replay.
#[derive(Debug, Clone, Copy)]
pub struct PlanCounters {
    /// `cdw.plan.index_seek`.
    pub index_seek: u64,
    /// `cdw.plan.full_scan`.
    pub full_scan: u64,
    /// `cdw.index.maintain`.
    pub index_maintain: u64,
}

/// The folded flamegraph checked against the Trace surface.
#[derive(Debug, Clone)]
pub struct Reconcile {
    /// Jobs folded at close.
    pub folded_jobs: u64,
    /// Jobs closed with an incomplete or orphaned trace.
    pub folded_missed_jobs: u64,
    /// Distinct folded stacks.
    pub folded_stacks: usize,
    /// Folded wall total, µs.
    pub folded_total_us: u64,
    /// The same total re-derived job by job from the Trace surface, µs.
    pub trace_total_us: u64,
    /// Stack with the largest folded/trace disagreement.
    pub worst_path: String,
    /// That disagreement, percent of the trace total.
    pub worst_delta_pct: f64,
}

/// One tenant's view of a replay: what the client saw and what the
/// node's Health surface says.
#[derive(Debug, Clone)]
pub struct TenantView {
    /// Logon user.
    pub user: String,
    /// Rows applied plus error rows over the tenant's imports.
    pub rows: u64,
    /// ET plus UV rows.
    pub errors: u64,
    /// Alerting objectives.
    pub alerts: Vec<String>,
}

/// Everything one replay on a fresh node produced.
pub struct ReplayRun {
    /// Outcome counts.
    pub counts: OutcomeCounts,
    /// Completed import jobs (the jobs a node folds into its profile).
    pub imports_completed: u64,
    /// SLO rollup.
    pub slo: SloSummary,
    /// CDW plan counters.
    pub plan: PlanCounters,
    /// Folded vs trace attribution.
    pub reconcile: Reconcile,
    /// Per-tenant alerts against client-side error counts.
    pub tenants: Vec<TenantView>,
}

/// The folded-path remap the profiler applies to attribution stages,
/// restated so the expectation comes from the Trace surface independently
/// of the profiler's own aggregation.
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

fn reconcile(v: &Virtualizer, jobs: u64) -> Reconcile {
    let profile = v.profile();
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for line in profile.folded.lines() {
        if let Some((path, value)) = line.rsplit_once(' ') {
            *folded.entry(path.to_string()).or_default() += value.parse::<u64>().unwrap_or(0);
        }
    }
    let mut expected: BTreeMap<String, u64> = BTreeMap::new();
    for token in 1..=(jobs * 4).max(64) {
        let Some(job_trace) = v.trace(token) else {
            continue;
        };
        for (stage, micros) in &job_trace.attribution {
            if *micros > 0 {
                *expected.entry(folded_path(stage).to_string()).or_default() += micros;
            }
        }
    }
    let mut worst_path = String::new();
    let mut worst_delta_pct = 0.0f64;
    for path in folded
        .keys()
        .chain(expected.keys())
        .collect::<BTreeSet<_>>()
    {
        let got = *folded.get(path).unwrap_or(&0) as f64;
        let want = *expected.get(path).unwrap_or(&0) as f64;
        let delta = if want > 0.0 {
            (got - want).abs() / want * 100.0
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
    Reconcile {
        folded_jobs: profile.folded_jobs,
        folded_missed_jobs: profile.folded_missed_jobs,
        folded_stacks: folded.len(),
        folded_total_us: folded.values().sum(),
        trace_total_us: expected.values().sum(),
        worst_path,
        worst_delta_pct,
    }
}

/// Replay `trace` over TCP on a fresh node and read back its outcome
/// counts, plan counters, folded profile and per-tenant health.
pub fn replay_once(trace: &WorkloadTrace, options: &ReplayOptions) -> ReplayRun {
    // A journal big enough to retain every replayed job, so the
    // reconciliation compares two views of the same retained events.
    let v = Virtualizer::new(VirtualizerConfig {
        journal_capacity: 1 << 18,
        slo: replay_slo_policy(),
        ..Default::default()
    });
    let handle = v.listen_tcp("127.0.0.1:0").expect("bind TCP listener");
    let connector: Arc<dyn Connect> = Arc::new(TcpConnector::new(handle.addr().to_string()));
    let report = replay(&connector, trace, options).expect("replay runs to completion");
    let counts = report.counts();
    let cdw = &v.obs().cdw;
    let plan = PlanCounters {
        index_seek: cdw.plan_index_seek.value(),
        full_scan: cdw.plan_full_scan.value(),
        index_maintain: cdw.index_maintain.value(),
    };
    let reconcile = reconcile(&v, counts.jobs);
    let health = v.health();
    handle.shutdown();

    let mut tenants: BTreeMap<u16, TenantView> = BTreeMap::new();
    let mut imports_completed = 0;
    for o in &report.outcomes {
        let user = etlv_workloadgen::tenant_user(o.tenant);
        let view = tenants.entry(o.tenant).or_insert_with(|| TenantView {
            alerts: health
                .tenants
                .iter()
                .find(|t| t.tenant == user)
                .map(|t| t.alerts.iter().map(|a| a.to_string()).collect())
                .unwrap_or_default(),
            user,
            rows: 0,
            errors: 0,
        });
        if o.kind == "import" {
            let errors = o.errors_et + o.errors_uv;
            view.rows += o.rows + errors;
            view.errors += errors;
            imports_completed += u64::from(o.status == JobStatus::Completed);
        }
    }
    ReplayRun {
        counts,
        imports_completed,
        slo: report.slo(&trace.scenario.name),
        plan,
        reconcile,
        tenants: tenants.into_values().collect(),
    }
}

/// Two replays of one scenario's trace on fresh nodes.
pub struct ScenarioResult {
    /// Scenario set the scenario belongs to.
    pub set: &'static str,
    /// Scenario name.
    pub name: String,
    /// Whether the trace was synthesized from its scenario (an open loop
    /// on the scenario's arrival schedule) rather than built by hand.
    pub synthesized: bool,
    /// Trace fingerprint.
    pub fingerprint: u64,
    /// Planned ET rows.
    pub planned_bad_dates: u64,
    /// Planned UV rows.
    pub planned_dup_keys: u64,
    /// The two replays.
    pub runs: [ReplayRun; 2],
}

/// Check that `trace` re-synthesizes to the same fingerprint (when it
/// came from a scenario), then replay it twice on fresh nodes.
pub fn run_scenario(
    set: &'static str,
    trace: &WorkloadTrace,
    synthesized: bool,
    options: &ReplayOptions,
) -> ScenarioResult {
    if synthesized {
        assert_eq!(
            trace.fingerprint(),
            etlv_workloadgen::synthesize(&trace.scenario).fingerprint(),
            "synthesis of '{}' is not deterministic",
            trace.scenario.name
        );
    }
    let truth = trace.ground_truth();
    ScenarioResult {
        set,
        name: trace.scenario.name.clone(),
        synthesized,
        fingerprint: trace.fingerprint(),
        planned_bad_dates: truth.bad_dates,
        planned_dup_keys: truth.dup_keys,
        runs: [replay_once(trace, options), replay_once(trace, options)],
    }
}

/// Outcome counts as a JSON object.
pub fn counts_json(c: &OutcomeCounts) -> String {
    format!(
        "{{\"jobs\":{},\"completed\":{},\"rejected\":{},\"failed\":{},\"rows_applied\":{},\
         \"rows_exported\":{},\"errors_et\":{},\"errors_uv\":{}}}",
        c.jobs,
        c.completed,
        c.rejected,
        c.failed,
        c.rows_applied,
        c.rows_exported,
        c.errors_et,
        c.errors_uv
    )
}

// ---------------------------------------------------------------------
// The common record

/// The `etlv-bench` suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// Conversion kernel: retained reference vs streaming kernel.
    Kernel,
    /// End-to-end imports and the warm-target run against the scan engine.
    E2e,
    /// Workloadgen scenario replays under every replay gate.
    Replay,
    /// Shared runtime and reactor connection scale.
    Sessions,
    /// Per-chunk observability cost on narrow and wide rows.
    ObsCost,
}

impl Suite {
    /// Every suite, in CLI order.
    pub const ALL: [Suite; 5] = [
        Suite::Kernel,
        Suite::E2e,
        Suite::Replay,
        Suite::Sessions,
        Suite::ObsCost,
    ];

    /// The `--suite` name.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Kernel => "kernel",
            Suite::E2e => "e2e",
            Suite::Replay => "replay",
            Suite::Sessions => "sessions",
            Suite::ObsCost => "obs-cost",
        }
    }

    /// Parse a `--suite` name.
    pub fn parse(name: &str) -> Option<Suite> {
        Suite::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// One suite run's JSON record: the common header, then the suite's
/// fields in insertion order, then every gate that failed.
pub struct Record {
    suite: Suite,
    smoke: bool,
    fields: Vec<(&'static str, String)>,
    failures: Vec<String>,
}

impl Record {
    /// An empty record for `suite`.
    pub fn new(suite: Suite, smoke: bool) -> Record {
        Record {
            suite,
            smoke,
            fields: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Whether this is a smoke run.
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    /// Append a field whose value is already JSON.
    pub fn field(&mut self, key: &'static str, json: String) {
        self.fields.push((key, json));
    }

    /// Record a gate: when `ok` is false, `why` is printed and kept.
    pub fn gate(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            let why = why();
            eprintln!("FAIL: {why}");
            self.failures.push(why);
        }
    }

    /// Gates that failed.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The record as a JSON document.
    pub fn to_json(&self) -> String {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let mut out = format!(
            "{{\n  \"suite\": \"{}\",\n  \"smoke\": {},\n  \"obs_compiled\": {},\n  \
             \"git_rev\": \"{}\",\n  \"nproc\": {nproc},\n",
            self.suite.name(),
            self.smoke,
            etlv_core::obs::enabled(),
            git_rev(),
        );
        for (key, json) in &self.fields {
            out.push_str(&format!("  \"{key}\": {json},\n"));
        }
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", f.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        out.push_str(&format!("  \"failures\": [{}]\n}}\n", failures.join(", ")));
        out
    }
}

/// The checkout's `HEAD` revision, or `unknown`.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_splits_on_row_boundaries_and_keeps_the_tail() {
        let data = b"a\nbb\nccc\ndddd\ne";
        let chunks = chunked(data, 2);
        assert_eq!(chunks, vec![&b"a\nbb\n"[..], b"ccc\ndddd\n", b"e"]);
        assert_eq!(chunked(b"a\nb\nc\n", 2), vec![&b"a\nb\n"[..], b"c\n"]);
        assert_eq!(chunked(b"a\nb\n", 2), vec![&b"a\nb\n"[..]]);
        assert!(chunked(b"", 2).is_empty());
        assert_eq!(chunks.concat(), data);
    }

    #[test]
    fn spread_and_paired_ratios_on_a_fixed_sample() {
        let s = Spread::of(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0]);
        assert_eq!(
            s,
            Spread {
                median: 4.0,
                q1: 2.0,
                q3: 5.0
            }
        );
        // Even length interpolates between the middle ranks.
        assert_eq!(Spread::of(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
        assert_eq!(Spread::of(&[]).median, 0.0);

        let k = KernelResult {
            name: "fixed".into(),
            rows: 100,
            bytes: 0,
            units: 1,
            pairs: vec![(1.0, 2.0), (2.0, 2.0), (4.0, 2.0), (1.0, 4.0), (2.0, 1.0)],
        };
        // a/b = 0.5, 1, 2, 0.25, 2.
        assert_eq!(
            k.speedup(),
            Spread {
                median: 1.0,
                q1: 0.5,
                q3: 2.0
            }
        );
        // (b/a - 1) × 100 = 100, 0, -50, 300, -50.
        assert_eq!(
            k.overhead_pct(),
            Spread {
                median: 0.0,
                q1: -50.0,
                q3: 100.0
            }
        );
        assert_eq!(k.best_rows_per_s(), (100.0, 100.0));
        assert_eq!(k.median_rows_per_s(), (50.0, 50.0));

        // Chunk pairs: rates come from whole passes, ratios from pairs.
        let chunks = KernelResult {
            units: 2,
            pairs: vec![(1.0, 2.0), (1.0, 2.0), (3.0, 1.0), (3.0, 1.0)],
            ..k
        };
        assert_eq!(chunks.best_rows_per_s(), (50.0, 50.0));
        assert_eq!(chunks.median_rows_per_s(), (25.0, 100.0 / 3.0));
        assert_eq!(chunks.speedup().median, 1.75);
    }

    #[test]
    fn overhead_gate_passes_at_the_bound_and_fails_just_above() {
        let at = Spread::of(&[2.0, 3.0, 4.0]);
        assert!(overhead_within(&at, 3.0));
        let above = Spread::of(&[2.0, 3.001, 4.0]);
        assert!(!overhead_within(&above, 3.0));
        // The median decides: one wild pair does not trip the gate.
        assert!(overhead_within(&Spread::of(&[0.5, 1.0, 40.0]), 3.0));
    }

    #[test]
    fn every_suite_record_carries_the_common_header() {
        for suite in Suite::ALL {
            assert_eq!(Suite::parse(suite.name()), Some(suite));
            let mut record = Record::new(suite, true);
            record.field("answer", "42".into());
            record.gate(false, || "a \"quoted\" failure".into());
            let json = record.to_json();
            let header = [
                format!("\"suite\": \"{}\"", suite.name()),
                "\"smoke\": true".into(),
                format!("\"obs_compiled\": {}", etlv_core::obs::enabled()),
                "\"git_rev\": \"".into(),
                "\"nproc\": ".into(),
            ];
            let mut at = 0;
            for key in &header {
                let pos = json[at..].find(key.as_str()).unwrap_or_else(|| {
                    panic!(
                        "{} record lacks {key} after byte {at}:\n{json}",
                        suite.name()
                    )
                });
                at += pos;
            }
            assert!(json[at..].contains("\"answer\": 42"), "{json}");
            assert!(json.contains("\"failures\": [\"a \\\"quoted\\\" failure\"]"));
        }
        assert_eq!(Suite::parse("all"), None);
    }
}
