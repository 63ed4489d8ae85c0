//! One benchmark run: repeated passes of the workload's trace, each on a
//! fresh node, with every job's output checked.
//!
//! A pass starts a default-config node serving TCP through
//! `listen_tcp`, creates the trace's tables (that is the set-up time),
//! replays the trace from one client thread, then exports every table
//! to check its final contents. Passes repeat until the run's time is
//! up, so every pass of a run replays the same inputs and must produce
//! the same outcome counts.
//!
//! Untraced passes use the node as shipped. Traced passes add the
//! bench-side probes (a counting transport on the client's connector,
//! a counting object store under both the CDW and the node) and read the
//! node's own surfaces after each job: `LoadReport`,
//! `Virtualizer::trace`, `Virtualizer::profile`, `Cdw::plan_stats` and
//! the `cdw.statements` counter.

use std::sync::Arc;
use std::time::{Duration, Instant};

use etlv_cdw::{Cdw, CdwConfig, PlanStats};
use etlv_cloudstore::{MemStore, ObjectStore};
use etlv_core::obs::ProfileReport;
use etlv_core::{ServerHandle, Virtualizer, VirtualizerConfig};
use etlv_legacy_client::export::run_export;
use etlv_legacy_client::import::run_import;
use etlv_legacy_client::{ClientError, ClientOptions, Connect, Session, TcpConnector};
use etlv_protocol::data::Value;
use etlv_protocol::message::SessionRole;
use etlv_workloadgen::data::target_ddl;
use etlv_workloadgen::OutcomeCounts;

use crate::layers::Layers;
use crate::stats::{lateness, ms};
use crate::store::{CountingStore, StoreStats};
use crate::wire::{CountingConnector, WireStats};
use crate::workload::{export_job, pass_seed, Contents, Plan, Work, CHUNK_ROWS};

/// Set-ups timed on their own before each pass; with the pass's own set-up
/// they make the `setup_s` median. Spreading them over the run keeps one
/// slow moment of the host from deciding it.
const SETUPS_PER_PASS: usize = 4;

/// Correctness failures seen so far.
#[derive(Debug, Default)]
pub struct Checks {
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// One timed job.
#[derive(Debug, Clone, Copy)]
pub struct JobSample {
    /// `import`, `export` or `count`.
    pub tag: &'static str,
    /// The latency users see: service time in a closed loop, time from
    /// the due time in the open loop.
    pub timed_ms: f64,
    /// Dispatch → completion.
    pub service_ms: f64,
    /// Due → dispatch.
    pub late_ms: f64,
    /// Rows exported (exports only).
    pub rows: u64,
}

/// What one pass produced.
#[derive(Debug)]
pub struct Pass {
    /// The seed of the trace it replayed.
    pub seed: u64,
    /// Whether the probes were on.
    pub traced: bool,
    /// Node start, bind and DDL.
    pub setup: Duration,
    /// Start of the pass → last job done.
    pub wall: Duration,
    /// Every workload job.
    pub jobs: Vec<JobSample>,
    /// The end-of-pass table exports.
    pub verify_exports: Vec<JobSample>,
    /// Rows landed in targets, ET and UV tables.
    pub rows_landed: u64,
    /// Deterministic outcome of the pass.
    pub counts: OutcomeCounts,
    /// CDW access paths planned by the workload's jobs.
    pub plan: PlanStats,
    /// Resident set size after the last job, MB.
    pub rss_mb: f64,
    /// Jobs and end-of-pass exports issued.
    pub attempted: u64,
    /// Of those, the ones that failed or were refused.
    pub failed: u64,
}

/// Probes of a traced node.
struct Probes {
    wire: Arc<WireStats>,
    store: Arc<StoreStats>,
}

/// A running node and a connector to it.
struct Node {
    v: Virtualizer,
    user: String,
    server: ServerHandle,
    connector: Arc<dyn Connect>,
    probes: Option<Probes>,
}

impl Node {
    /// Start a node, bind it and create the plan's tables; returns the
    /// node and the time that took.
    fn start(plan: &Plan, traced: bool) -> Result<(Node, Duration), String> {
        let started = Instant::now();
        let config = VirtualizerConfig::default();
        let (v, probes) = if traced {
            let probes = Probes {
                wire: Arc::new(WireStats::default()),
                store: Arc::new(StoreStats::default()),
            };
            let store: Arc<dyn ObjectStore> = Arc::new(CountingStore::new(
                Arc::new(MemStore::new()),
                Arc::clone(&probes.store),
            ));
            let cdw = Cdw::with_config(CdwConfig::default(), Some(Arc::clone(&store)));
            (Virtualizer::with_backends(config, cdw, store), Some(probes))
        } else {
            (Virtualizer::new(config), None)
        };
        let server = v
            .listen_tcp("127.0.0.1:0")
            .map_err(|e| format!("bind: {e}"))?;
        let tcp: Arc<dyn Connect> = Arc::new(TcpConnector::new(server.addr().to_string()));
        let connector: Arc<dyn Connect> = match &probes {
            Some(p) => Arc::new(CountingConnector::new(tcp, Arc::clone(&p.wire))),
            None => tcp,
        };
        let mut session = Session::logon(
            connector.as_ref(),
            &plan.user,
            "secret",
            SessionRole::Control,
            0,
        )
        .map_err(|e| e.to_string())?;
        for table in plan.tables.keys() {
            session
                .sql(&target_ddl(table, plan.row_bytes()))
                .map_err(|e| e.to_string())?;
        }
        session.logoff();
        let setup = started.elapsed();
        let node = Node {
            v,
            user: plan.user.clone(),
            server,
            connector,
            probes,
        };
        Ok((node, setup))
    }

    fn stop(self) {
        self.server.shutdown();
    }
}

/// Every pass of a run, plus the set-up samples.
pub struct Run {
    /// Set-up samples: the stand-alone set-ups and every pass's own.
    pub setups: Vec<Duration>,
    /// Passes in order.
    pub passes: Vec<Pass>,
    /// Per-layer numbers from the traced passes.
    pub layers: Layers,
    /// Correctness failures.
    pub checks: Checks,
}

/// Replay passes until `seconds` have gone by.
///
/// Untraced runs replay a new trace in every pass (see [`pass_seed`]),
/// so one run's figures cover several traces rather than one trace's
/// particular job sizes. Traced runs replay `plan` in every pass,
/// alternating untraced and traced with at least one of each, so the
/// two are compared on the same inputs and the node-side counts must
/// repeat exactly.
pub fn run(plan: &Plan, seconds: u64, traced: bool) -> Result<Run, String> {
    let mut run = Run {
        setups: Vec::new(),
        passes: Vec::new(),
        layers: Layers::default(),
        checks: Checks::default(),
    };
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    loop {
        let k = run.passes.len();
        let fresh;
        let pass_plan = if traced || k == 0 {
            plan
        } else {
            fresh = Plan::new(plan.workload, pass_seed(plan.seed(), k as u64))?;
            &fresh
        };
        for _ in 0..SETUPS_PER_PASS {
            let (node, setup) = Node::start(pass_plan, false)?;
            run.setups.push(setup);
            node.stop();
        }
        let layers = (traced && k % 2 == 1).then_some(&mut run.layers);
        let pass = run_pass(pass_plan, layers, &mut run.checks)?;
        run.setups.push(pass.setup);
        let (got, want) = (pass.counts, pass_plan.expected);
        run.checks.expect(got == want, || {
            format!("pass {k}: outcome counts {got:?}, expected {want:?}")
        });
        if let Some(first) = run.passes.first().filter(|f| f.seed == pass.seed) {
            let (a, b) = (first.plan, pass.plan);
            run.checks.expect(a == b, || {
                format!("CDW plan counts differ between passes of one trace: {a:?} vs {b:?}")
            });
        }
        run.passes.push(pass);
        let enough = !traced || run.passes.len() >= 2;
        if enough && started.elapsed() >= budget {
            return Ok(run);
        }
    }
}

fn options() -> ClientOptions {
    ClientOptions {
        chunk_rows: CHUNK_ROWS,
        sessions: Some(1),
        read_timeout: Some(Duration::from_secs(60)),
        ..ClientOptions::default()
    }
}

/// What a job returned, reduced to what the checks and counts need.
#[derive(Default)]
struct Output {
    rows: u64,
    et: u64,
    uv: u64,
}

/// Run one job and check its output against the plan; `what` names the
/// job in failure messages.
fn execute(
    node: &Node,
    work: &Work,
    what: &str,
    checks: &mut Checks,
    layers: Option<&mut Layers>,
) -> Result<Output, ClientError> {
    let statements_before = node.v.obs().cdw.statements.value();
    match work {
        Work::Import {
            job,
            data,
            rows,
            clean,
            et,
            uv,
        } => {
            let result = run_import(&node.connector, job, data, &options())?;
            let r = &result.report;
            let got = (r.rows_received, r.rows_applied, r.errors_et, r.errors_uv);
            let want = (*rows, clean.rows, *et, *uv);
            checks.expect(got == want, || {
                format!("{what}: (received, applied, ET, UV) = {got:?}, planned {want:?}")
            });
            if let Some(layers) = layers {
                let statements = node.v.obs().cdw.statements.value() - statements_before;
                layers.import_done(&node.v, &result, statements, checks);
            }
            Ok(Output {
                rows: r.rows_applied,
                et: r.errors_et,
                uv: r.errors_uv,
            })
        }
        Work::Export { job, expect } => {
            let result = run_export(&node.connector, job, &options())?;
            let got = Contents::of_export(&result.data);
            checks.expect(result.rows == expect.rows && got == *expect, || {
                format!(
                    "{what}: {} rows ({} parsed, digest {:x}), the table holds {} (digest {:x})",
                    result.rows, got.rows, got.digest, expect.rows, expect.digest
                )
            });
            Ok(Output {
                rows: result.rows,
                ..Output::default()
            })
        }
        Work::Count { sql, expect } => {
            let mut session = Session::logon(
                node.connector.as_ref(),
                &node.user,
                "secret",
                SessionRole::Control,
                0,
            )?;
            let result = session.sql(sql)?;
            session.logoff();
            let got = match result.rows.first().and_then(|r| r.first()) {
                Some(Value::Int(n)) => u64::try_from(*n).ok(),
                _ => None,
            };
            checks.expect(got == Some(*expect), || {
                format!("{what}: counted {got:?}, the table holds {expect}")
            });
            Ok(Output {
                rows: got.unwrap_or(0),
                ..Output::default()
            })
        }
    }
}

/// Replay the plan once on a fresh node.
fn run_pass(
    plan: &Plan,
    mut layers: Option<&mut Layers>,
    checks: &mut Checks,
) -> Result<Pass, String> {
    let (node, setup) = Node::start(plan, layers.is_some())?;
    let closed = plan.workload.closed_loop();
    let plan_before = node.v.cdw().plan_stats();
    let statements_start = node.v.obs().cdw.statements.value();
    let profile_before = layers.as_ref().map(|_| node.v.profile());
    if let (Some(layers), Some(probes)) = (layers.as_deref_mut(), &node.probes) {
        layers.setup_done(probes.wire.take());
    }
    let mut counts = OutcomeCounts::default();
    let mut jobs = Vec::with_capacity(plan.jobs.len());
    let mut rows_landed = 0;

    let t0 = Instant::now();
    let mut last_done = t0;
    for (seq, planned) in plan.jobs.iter().enumerate() {
        let due = if closed {
            last_done
        } else {
            t0 + Duration::from_micros(planned.at_us)
        };
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let dispatched = Instant::now();
        let what = format!("{} {seq}", planned.work.tag());
        let result = execute(&node, &planned.work, &what, checks, layers.as_deref_mut());
        let done = Instant::now();
        last_done = done;

        counts.jobs += 1;
        let mut rows = 0;
        match result {
            Ok(out) => {
                counts.completed += 1;
                match planned.work {
                    Work::Import { .. } => {
                        counts.rows_applied += out.rows;
                        counts.errors_et += out.et;
                        counts.errors_uv += out.uv;
                        rows_landed += out.rows + out.et + out.uv;
                    }
                    Work::Export { .. } => {
                        counts.rows_exported += out.rows;
                        rows = out.rows;
                    }
                    Work::Count { .. } => {}
                }
            }
            Err(e) => {
                if e.is_busy() {
                    counts.rejected += 1;
                } else {
                    counts.failed += 1;
                }
                checks.failures.push(format!("{what} failed: {e}"));
            }
        }
        let service_ms = ms(done - dispatched);
        let sample = JobSample {
            tag: planned.work.tag(),
            timed_ms: if closed { service_ms } else { ms(done - due) },
            service_ms,
            late_ms: ms(lateness(due, dispatched)),
            rows,
        };
        jobs.push(sample);
        if let (Some(layers), Some(probes)) = (layers.as_deref_mut(), &node.probes) {
            layers.job_done(&sample, probes.wire.take());
        }
    }
    let wall = last_done - t0;
    let rss_mb = rss_mb()?;
    let plan_after = node.v.cdw().plan_stats();
    let plan_stats = PlanStats {
        index_seeks: plan_after.index_seeks - plan_before.index_seeks,
        full_scans: plan_after.full_scans - plan_before.full_scans,
        index_maintains: plan_after.index_maintains - plan_before.index_maintains,
    };
    if let (Some(layers), Some(probes), Some(before)) = (layers, &node.probes, &profile_before) {
        layers.pass_done(
            (&node.v.profile(), before),
            plan_stats,
            node.v.obs().cdw.statements.value() - statements_start,
            probes.store.take(),
            node.v.obs().journal.dropped(),
        );
    }

    let mut verify_exports = Vec::new();
    let mut verify_failed = 0;
    for (table, expect) in &plan.tables {
        let work = Work::Export {
            job: export_job(table, &plan.user),
            expect: *expect,
        };
        let what = format!("final export of {table}");
        let started = Instant::now();
        match execute(&node, &work, &what, checks, None) {
            Ok(out) => {
                let service_ms = ms(started.elapsed());
                verify_exports.push(JobSample {
                    tag: "export",
                    timed_ms: service_ms,
                    service_ms,
                    late_ms: 0.0,
                    rows: out.rows,
                });
            }
            Err(e) => {
                verify_failed += 1;
                checks.failures.push(format!("{what} failed: {e}"));
            }
        }
    }
    let traced = node.probes.is_some();
    node.stop();
    Ok(Pass {
        seed: plan.seed(),
        traced,
        setup,
        wall,
        jobs,
        verify_exports,
        rows_landed,
        counts,
        plan: plan_stats,
        rss_mb,
        attempted: counts.jobs + plan.tables.len() as u64,
        failed: counts.failed + counts.rejected + verify_failed,
    })
}

/// Resident set size of this process, MB.
fn rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmRSS line in /proc/self/status".into())
}

/// Profile stage CPU delta, ms.
pub fn stage_cpu_ms(after: &ProfileReport, before: &ProfileReport, stage: &str) -> f64 {
    let cpu = |p: &ProfileReport| {
        p.stages
            .iter()
            .find(|s| s.stage == stage)
            .map_or(0, |s| s.cpu_us)
    };
    (cpu(after) - cpu(before)) as f64 / 1e3
}
