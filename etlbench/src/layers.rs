//! Per-layer accounting for traced passes: sums of what the probes and
//! the node's surfaces report, turned into per-job metrics at the end.

use std::collections::BTreeMap;

use etlv_cdw::PlanStats;
use etlv_core::obs::ProfileReport;
use etlv_core::Virtualizer;
use etlv_legacy_client::ImportResult;

use crate::run::{stage_cpu_ms, Checks, JobSample};
use crate::stats::{percentile, ratio};
use crate::store::StoreDelta;
use crate::wire::{Turnarounds, WireDelta};

/// One per-layer metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// Trace stages in attribution order, with their metric names.
const STAGES: [(&str, &str); 7] = [
    ("queue_wait", "stage.queue_wait_ms"),
    ("convert", "stage.convert_ms"),
    ("upload", "stage.upload_ms"),
    ("copy", "stage.copy_ms"),
    ("apply", "stage.apply_ms"),
    ("ack_wait", "stage.ack_wait_ms"),
    ("other", "stage.other_ms"),
];

/// Sums over every traced pass.
#[derive(Debug, Default)]
pub struct Layers {
    jobs: u64,
    imports: u64,
    input_bytes: u64,
    // LoadReport phases, ms.
    acquisition_ms: f64,
    application_ms: f64,
    other_ms: f64,
    // Trace attribution over complete traces, ms by stage name.
    stage_ms: BTreeMap<&'static str, f64>,
    complete_traces: u64,
    incomplete_traces: u64,
    orphans: u64,
    journal_dropped: u64,
    // Imports that put rows in ET or UV.
    error_rows: u64,
    error_job_statements: u64,
    error_job_apply_ms: f64,
    // Profile CPU, ms.
    convert_cpu_ms: f64,
    copy_cpu_ms: f64,
    apply_cpu_ms: f64,
    plan: PlanStats,
    statements: u64,
    store: StoreDelta,
    wire: WireDelta,
    busy_ms: f64,
}

fn append(into: &mut Turnarounds, from: Turnarounds) {
    into.logon.extend(from.logon);
    into.sql.extend(from.sql);
    into.end_load.extend(from.end_load);
    into.chunk_ack.extend(from.chunk_ack);
}

impl Layers {
    /// After an import: its report phases, and its trace fetched from
    /// the node by the trace id the client minted. `statements` is the
    /// count of CDW statements the job ran.
    pub fn import_done(
        &mut self,
        v: &Virtualizer,
        result: &ImportResult,
        statements: u64,
        checks: &mut Checks,
    ) {
        let r = &result.report;
        self.imports += 1;
        self.input_bytes += result.bytes_sent;
        self.acquisition_ms += r.acquisition_micros as f64 / 1e3;
        self.application_ms += r.application_micros as f64 / 1e3;
        self.other_ms += r.other_micros as f64 / 1e3;

        let journal = &v.obs().journal;
        let token = journal
            .tail(journal.retained())
            .iter()
            .find(|e| e.kind == "job.begin" && e.ids.trace == result.trace_id)
            .map(|e| e.job);
        let Some(trace) = token.and_then(|t| v.trace(t)) else {
            self.incomplete_traces += 1;
            return;
        };
        self.orphans += trace.orphans;
        if !trace.complete {
            self.incomplete_traces += 1;
            return;
        }
        let sum: u64 = trace.attribution.iter().map(|(_, us)| us).sum();
        checks.expect(sum == trace.wall_micros, || {
            format!(
                "job {}: trace attribution sums to {sum} us, its wall is {} us",
                trace.job, trace.wall_micros
            )
        });
        self.complete_traces += 1;
        for (stage, us) in &trace.attribution {
            *self.stage_ms.entry(stage).or_default() += *us as f64 / 1e3;
        }
        let errors = r.errors_et + r.errors_uv;
        if errors > 0 {
            self.error_rows += errors;
            self.error_job_statements += statements;
            self.error_job_apply_ms += trace
                .attribution
                .iter()
                .find(|(s, _)| *s == "apply")
                .map_or(0.0, |(_, us)| *us as f64 / 1e3);
        }
    }

    /// After a traced node's set-up: its logon and DDL turnarounds count
    /// with the jobs', its frames and bytes do not.
    pub fn setup_done(&mut self, wire: WireDelta) {
        append(&mut self.wire.turnarounds, wire.turnarounds);
    }

    /// After any job: what crossed the wire for it.
    pub fn job_done(&mut self, sample: &JobSample, wire: WireDelta) {
        self.jobs += 1;
        self.busy_ms += (sample.service_ms - wire.wait.as_secs_f64() * 1e3).max(0.0);
        let w = &mut self.wire;
        w.connects += wire.connects;
        w.frames_out += wire.frames_out;
        w.bytes_out += wire.bytes_out;
        w.bytes_in += wire.bytes_in;
        append(&mut w.turnarounds, wire.turnarounds);
    }

    /// After the last job of a pass: node-wide totals for the pass.
    pub fn pass_done(
        &mut self,
        profile: (&ProfileReport, &ProfileReport),
        plan: PlanStats,
        statements: u64,
        store: StoreDelta,
        journal_dropped: u64,
    ) {
        let (after, before) = profile;
        self.convert_cpu_ms += stage_cpu_ms(after, before, "convert");
        self.copy_cpu_ms += stage_cpu_ms(after, before, "copy");
        self.apply_cpu_ms += stage_cpu_ms(after, before, "apply");
        self.plan.merge(&plan);
        self.statements += statements;
        let s = &mut self.store;
        s.puts += store.puts;
        s.put_bytes += store.put_bytes;
        s.put_time += store.put_time;
        s.gets += store.gets;
        s.get_bytes += store.get_bytes;
        s.get_time += store.get_time;
        s.deletes += store.deletes;
        self.journal_dropped += journal_dropped;
    }

    /// Per-layer metrics from these sums. The run supplies the ones it
    /// derives from whole passes.
    pub fn metrics(
        &self,
        export_rows_per_s: f64,
        overhead_frac: f64,
        late_ms_p90: f64,
    ) -> Vec<Metric> {
        let jobs = self.jobs as f64;
        let imports = self.imports as f64;
        let traces = self.complete_traces as f64;
        let t = &self.wire.turnarounds;
        let s = &self.store;
        let m = |name, unit, value| Metric { name, unit, value };
        let mut out: Vec<Metric> = STAGES
            .iter()
            .map(|(stage, name)| {
                let total = self.stage_ms.get(stage).copied().unwrap_or(0.0);
                m(*name, "ms", ratio(total, traces))
            })
            .collect();
        out.extend([
            m("cdw.copy_cpu_ms", "ms", ratio(self.copy_cpu_ms, imports)),
            m("cdw.apply_cpu_ms", "ms", ratio(self.apply_cpu_ms, imports)),
            m(
                "cdw.index_seeks",
                "count",
                ratio(self.plan.index_seeks as f64, jobs),
            ),
            m(
                "cdw.full_scans",
                "count",
                ratio(self.plan.full_scans as f64, jobs),
            ),
            m(
                "cdw.index_maintains",
                "count",
                ratio(self.plan.index_maintains as f64, jobs),
            ),
            m(
                "cdw.statements",
                "count",
                ratio(self.statements as f64, jobs),
            ),
            m(
                "adaptive.statements_per_error_row",
                "count",
                ratio(self.error_job_statements as f64, self.error_rows as f64),
            ),
            m(
                "adaptive.apply_ms_per_error_row",
                "ms",
                ratio(self.error_job_apply_ms, self.error_rows as f64),
            ),
            m("session.logon_ms_p50", "ms", percentile(&t.logon, 50.0)),
            m("session.sql_ms_p50", "ms", percentile(&t.sql, 50.0)),
            m(
                "session.endload_ms_p50",
                "ms",
                percentile(&t.end_load, 50.0),
            ),
            m(
                "session.connects_per_job",
                "count",
                ratio(self.wire.connects as f64, jobs),
            ),
            m(
                "gateway.chunk_ack_ms_p50",
                "ms",
                percentile(&t.chunk_ack, 50.0),
            ),
            m(
                "gateway.chunk_ack_ms_p99",
                "ms",
                percentile(&t.chunk_ack, 99.0),
            ),
            m(
                "gateway.acquisition_ms",
                "ms",
                ratio(self.acquisition_ms, imports),
            ),
            m(
                "gateway.application_ms",
                "ms",
                ratio(self.application_ms, imports),
            ),
            m("gateway.other_ms", "ms", ratio(self.other_ms, imports)),
            m("convert.cpu_ms", "ms", ratio(self.convert_cpu_ms, imports)),
            m(
                "cloudstore.put_count",
                "count",
                ratio(s.puts as f64, imports),
            ),
            m(
                "cloudstore.put_bytes",
                "B",
                ratio(s.put_bytes as f64, imports),
            ),
            m(
                "cloudstore.put_ms",
                "ms",
                ratio(s.put_time.as_secs_f64() * 1e3, imports),
            ),
            m(
                "cloudstore.get_count",
                "count",
                ratio(s.gets as f64, imports),
            ),
            m(
                "cloudstore.get_bytes",
                "B",
                ratio(s.get_bytes as f64, imports),
            ),
            m(
                "cloudstore.get_ms",
                "ms",
                ratio(s.get_time.as_secs_f64() * 1e3, imports),
            ),
            m(
                "cloudstore.delete_count",
                "count",
                ratio(s.deletes as f64, imports),
            ),
            m(
                "cloudstore.bytes_per_input_byte",
                "ratio",
                ratio(s.put_bytes as f64, self.input_bytes as f64),
            ),
            m(
                "protocol.frames_out",
                "count",
                ratio(self.wire.frames_out as f64, jobs),
            ),
            m(
                "protocol.bytes_out",
                "B",
                ratio(self.wire.bytes_out as f64, jobs),
            ),
            m(
                "protocol.bytes_in",
                "B",
                ratio(self.wire.bytes_in as f64, jobs),
            ),
            m("legacy-client.busy_ms", "ms", ratio(self.busy_ms, jobs)),
            m("export.rows_per_s", "rows/s", export_rows_per_s),
            m(
                "trace.incomplete_jobs",
                "count",
                self.incomplete_traces as f64,
            ),
            m("trace.orphans", "count", self.orphans as f64),
            m("obs.journal_dropped", "count", self.journal_dropped as f64),
            m("trace.overhead_frac", "ratio", overhead_frac),
            m("gen.late_ms_p90", "ms", late_ms_p90),
        ]);
        out
    }
}
