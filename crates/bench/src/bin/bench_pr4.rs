//! PR 4 tracing + sampler overhead evidence: the chunked conversion hot
//! loop with and without the span instrumentation the traced pipeline
//! adds around it, measured again with a live 2 ms background sampler to
//! show the sampler never touches the hot path.
//!
//! Writes `BENCH_PR4.json` at the repo root (format documented in
//! EXPERIMENTS.md). As in bench_pr3, the variants alternate inside every
//! timed iteration so CPU frequency drift hits both equally; the headline
//! gate holds the per-chunk tracing cost (two `emit_span` journal events
//! with minted span ids, replacing PR 3's single untraced event) under 3%
//! of conversion throughput.
//!
//! Build with `--no-default-features` to confirm the noop path: the
//! traced loop's extras compile to nothing and `obs_compiled` flips to
//! false.
//!
//! Usage: `bench_pr4 [--smoke] [--out PATH]`
//!   --smoke  shrink workloads and iteration counts for a CI sanity run
//!   --out    output path (default BENCH_PR4.json)

use std::sync::Arc;
use std::time::{Duration, Instant};

use etlv_bench::{run_import_on, virtualizer_with_latency};
use etlv_core::convert::{ConvertScratch, DataConverter};
use etlv_core::obs::{Obs, Sampler, SpanIds};
use etlv_core::workload::{customer_workload, CustomerSpec, Workload};
use etlv_core::VirtualizerConfig;
use etlv_legacy_client::ClientOptions;
use etlv_script::{compile, parse_script, JobPlan};

const CHUNK_ROWS: usize = 1_000;

struct KernelResult {
    name: &'static str,
    rows: u64,
    bytes: u64,
    chunks: usize,
    plain_rows_per_s: f64,
    traced_rows_per_s: f64,
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

/// Plain vs traced chunked conversion, interleaved per iteration. The
/// traced variant performs exactly what the PR 4 pipeline records per
/// chunk: the queue-wait span and the convert span, each with a freshly
/// minted child span id, plus the PR 3 counters and histogram sample.
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
    let ids = SpanIds {
        trace: 0xBE7C4,
        span: 1,
        parent: 0,
    };

    let run_plain = |out: &mut Vec<u8>, scratch: &mut ConvertScratch| {
        let mut total = 0u64;
        for (i, chunk) in chunks.iter().enumerate() {
            out.clear();
            let rows = conv
                .convert_into((i * CHUNK_ROWS + 1) as u64, chunk, out, scratch)
                .unwrap();
            total += rows as u64;
            std::hint::black_box(&*out);
        }
        assert_eq!(total, workload.rows);
    };
    let run_traced = |out: &mut Vec<u8>, scratch: &mut ConvertScratch| {
        let mut total = 0u64;
        for (i, chunk) in chunks.iter().enumerate() {
            let enqueued = Instant::now();
            obs.journal.emit_span(
                "chunk.queue",
                ids.child(obs.journal.next_span_id()),
                1,
                0,
                (i * CHUNK_ROWS + 1) as u64,
                chunk.len() as u64,
                enqueued,
                enqueued.elapsed(),
            );
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
            obs.journal.emit_span(
                "chunk.convert",
                ids.child(obs.journal.next_span_id()),
                1,
                0,
                (i * CHUNK_ROWS + 1) as u64,
                rows as u64,
                started,
                elapsed,
            );
            total += rows as u64;
            std::hint::black_box(&*out);
        }
        assert_eq!(total, workload.rows);
    };

    run_plain(&mut out, &mut scratch);
    run_traced(&mut out, &mut scratch);
    let mut plain = Duration::MAX;
    let mut traced = Duration::MAX;
    for _ in 0..iters {
        let start = Instant::now();
        run_plain(&mut out, &mut scratch);
        plain = plain.min(start.elapsed());
        let start = Instant::now();
        run_traced(&mut out, &mut scratch);
        traced = traced.min(start.elapsed());
    }

    let plain_s = plain.as_secs_f64().max(1e-9);
    let traced_s = traced.as_secs_f64().max(1e-9);
    KernelResult {
        name,
        rows: workload.rows,
        bytes: workload.data.len() as u64,
        chunks: chunks.len(),
        plain_rows_per_s: workload.rows as f64 / plain_s,
        traced_rows_per_s: workload.rows as f64 / traced_s,
        overhead_pct: (traced_s / plain_s - 1.0) * 100.0,
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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR4.json".to_string());
    let obs_compiled = etlv_core::obs::enabled();

    let (total_bytes, kernel_iters) = if smoke {
        (1_000_000u64, 3u32)
    } else {
        (12_500_000u64, 15u32)
    };

    // Tracing overhead: sampler off.
    let quiet = Arc::new(Obs::default());
    eprintln!("kernel: narrow (250 B rows), tracing only...");
    let narrow = customer(total_bytes / 250, 250);
    let k_narrow = bench_kernel("narrow_250B", &narrow, kernel_iters, &quiet);
    eprintln!("kernel: wide (2000 B rows), tracing only...");
    let wide = customer(total_bytes / 2000, 2000);
    let k_wide = bench_kernel("wide_2000B", &wide, kernel_iters, &quiet);

    // Same wide loop with a live 2 ms sampler reading the registry the
    // whole time: the sampler works off snapshots, so the delta against
    // the quiet run is the *entire* cost it imposes on the hot path.
    eprintln!("kernel: wide (2000 B rows), tracing + live sampler...");
    let sampled_obs = Arc::new(Obs::default());
    let sampler = if obs_compiled {
        Some(Sampler::start(
            Arc::clone(&sampled_obs),
            Box::new(|| {}),
            Duration::from_millis(2),
            4096,
            etlv_core::config::default_sampler_metrics(),
            Vec::new(),
        ))
    } else {
        None
    };
    let k_sampled = bench_kernel("wide_2000B_sampled", &wide, kernel_iters, &sampled_obs);
    let sampler_points = sampler
        .as_ref()
        .map_or(0, |s| s.points_for("pipeline.convert_rows"));
    if let Some(s) = &sampler {
        s.stop();
    }
    let sampler_overhead_pct =
        (k_wide.traced_rows_per_s / k_sampled.traced_rows_per_s.max(1e-9) - 1.0) * 100.0;

    let kernels = [k_narrow, k_wide, k_sampled];

    // --- one traced end-to-end import with the sampler on --------------
    eprintln!("end-to-end: traced import with 2 ms sampler...");
    let e2e_workload = customer(total_bytes / 250 / 4, 250);
    let v = virtualizer_with_latency(
        VirtualizerConfig {
            sampler_tick: Duration::from_millis(2),
            sampler_capacity: 8192,
            ..Default::default()
        },
        Duration::ZERO,
    );
    let (_, report) = run_import_on(
        &v,
        &e2e_workload,
        ClientOptions {
            chunk_rows: CHUNK_ROWS,
            sessions: Some(4),
            ..Default::default()
        },
    );
    let total_s = report.total().as_secs_f64().max(1e-9);
    let e2e_rows_per_s = e2e_workload.rows as f64 / total_s;
    let (e2e_wall_micros, e2e_critical, e2e_attributed) = match v.trace(1) {
        Some(t) => (t.wall_micros, t.critical_stage, t.attributed_total()),
        None => (0, "none", 0),
    };
    let series_points = v.sampler_json().matches("\"t_micros\"").count();

    // --- report --------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"obs_compiled\": {obs_compiled},\n"));
    json.push_str(&format!("  \"chunk_rows\": {CHUNK_ROWS},\n"));
    json.push_str("  \"kernel\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"rows\": {}, \"bytes\": {}, \"chunks\": {}, \
             \"plain_rows_per_s\": {:.0}, \"traced_rows_per_s\": {:.0}, \
             \"overhead_pct\": {:.3}}}",
            k.name,
            k.rows,
            k.bytes,
            k.chunks,
            k.plain_rows_per_s,
            k.traced_rows_per_s,
            k.overhead_pct
        ));
        json.push_str(if i + 1 < kernels.len() { ",\n" } else { "\n" });
        eprintln!(
            "  {:>18}: {:>12.0} -> {:>12.0} rows/s  ({:+.3}% overhead)",
            k.name, k.plain_rows_per_s, k.traced_rows_per_s, k.overhead_pct
        );
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"sampler\": {{\"tick_ms\": 2, \"kernel_points\": {sampler_points}, \
         \"overhead_vs_quiet_pct\": {sampler_overhead_pct:.3}}},\n"
    ));
    json.push_str(&format!(
        "  \"end_to_end\": {{\"workload\": \"e2e_250B\", \"rows\": {}, \"bytes\": {}, \
         \"rows_per_s\": {:.0}, \"trace_wall_micros\": {}, \"trace_attributed_micros\": {}, \
         \"critical_stage\": \"{}\", \"series_points\": {}}}\n",
        e2e_workload.rows,
        e2e_workload.data.len(),
        e2e_rows_per_s,
        e2e_wall_micros,
        e2e_attributed,
        e2e_critical,
        series_points
    ));
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write bench report");
    eprintln!("wrote {out_path}");

    // The PR's headline gate: per-chunk tracing costs no more than 3% of
    // conversion throughput on the widest workload. Smoke runs and
    // obs-compiled-out builds record but don't gate.
    let gated = &kernels[1];
    if !smoke && obs_compiled && gated.overhead_pct > 3.0 {
        eprintln!(
            "FAIL: {} tracing overhead {:.3}% > 3.0%",
            gated.name, gated.overhead_pct
        );
        std::process::exit(1);
    }
}
