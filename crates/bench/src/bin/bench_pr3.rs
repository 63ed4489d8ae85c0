//! PR 3 observability overhead evidence: the chunked conversion hot loop
//! with and without the instrumentation the pipeline adds around it, plus
//! one instrumented end-to-end import with a stats excerpt.
//!
//! Writes `BENCH_PR3.json` at the repo root (format documented in
//! EXPERIMENTS.md). The kernel comparison runs the same zero-allocation
//! `convert_into` over identical ~1000-row chunks twice in one process:
//! once bare, once wrapped in exactly what `Pipeline::convert_one` records
//! per chunk (one timestamp pair, four counter updates, one histogram
//! sample, one journal event). The delta is the per-chunk observability
//! cost; the headline gate holds it under 3% of conversion throughput.
//!
//! Build with `--no-default-features` to re-measure with the noop obs
//! layer compiled in (`obs_compiled` in the report flips to false and the
//! "instrumented" loop's extras compile to nothing).
//!
//! Usage: `bench_pr3 [--smoke] [--out PATH]`
//!   --smoke  shrink workloads and iteration counts for a CI sanity run
//!   --out    output path (default BENCH_PR3.json)

use std::time::{Duration, Instant};

use etlv_bench::{run_import_on, virtualizer_with_latency};
use etlv_core::convert::{ConvertScratch, DataConverter};
use etlv_core::obs::{Obs, SpanIds};
use etlv_core::workload::{customer_workload, wide_workload, CustomerSpec, Workload};
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
    instrumented_rows_per_s: f64,
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

/// Split the workload's data into wire-sized chunks on row boundaries.
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

/// Plain vs instrumented chunked conversion on one workload. The two
/// variants alternate within every iteration (plus one untimed warmup
/// pass each) so CPU frequency drift hits both equally — sequential
/// timing blocks showed ±20% swings on this container class.
fn bench_kernel(name: &'static str, workload: &Workload, iters: u32) -> KernelResult {
    let conv = converter_for(workload);
    let chunks = chunked(&workload.data);
    let mut out = Vec::new();
    let mut scratch = ConvertScratch::new();
    let obs = Obs::default();

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
    // Same loop with the pipeline's per-chunk recording wrapped around it.
    let run_instrumented = |out: &mut Vec<u8>, scratch: &mut ConvertScratch| {
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
            obs.journal.emit_span(
                "chunk.convert",
                SpanIds::default(),
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
    run_instrumented(&mut out, &mut scratch);
    let mut plain = Duration::MAX;
    let mut instrumented = Duration::MAX;
    for _ in 0..iters {
        let start = Instant::now();
        run_plain(&mut out, &mut scratch);
        plain = plain.min(start.elapsed());
        let start = Instant::now();
        run_instrumented(&mut out, &mut scratch);
        instrumented = instrumented.min(start.elapsed());
    }

    let plain_s = plain.as_secs_f64().max(1e-9);
    let instr_s = instrumented.as_secs_f64().max(1e-9);
    KernelResult {
        name,
        rows: workload.rows,
        bytes: workload.data.len() as u64,
        chunks: chunks.len(),
        plain_rows_per_s: workload.rows as f64 / plain_s,
        instrumented_rows_per_s: workload.rows as f64 / instr_s,
        overhead_pct: (instr_s / plain_s - 1.0) * 100.0,
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
        .unwrap_or_else(|| "BENCH_PR3.json".to_string());
    let obs_compiled = etlv_core::obs::enabled();

    let (total_bytes, kernel_iters) = if smoke {
        (1_000_000u64, 3u32)
    } else {
        (12_500_000u64, 15u32)
    };

    eprintln!("kernel: narrow (250 B rows)...");
    let narrow = customer(total_bytes / 250, 250);
    let k_narrow = bench_kernel("narrow_250B", &narrow, kernel_iters);

    eprintln!("kernel: wide (2000 B rows)...");
    let wide = customer(total_bytes / 2000, 2000);
    let k_wide = bench_kernel("wide_2000B", &wide, kernel_iters);

    eprintln!("kernel: 50-column table...");
    let cols = wide_workload(total_bytes / 500, 50, 9, 42);
    let k_cols = bench_kernel("wide_50_columns", &cols, kernel_iters);

    let kernels = [k_narrow, k_wide, k_cols];

    // --- one instrumented end-to-end import ----------------------------
    eprintln!("end-to-end: instrumented import...");
    let e2e_workload = customer(total_bytes / 250 / 4, 250);
    let v = virtualizer_with_latency(VirtualizerConfig::default(), Duration::ZERO);
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
    let snap = v.obs().registry.snapshot();
    let excerpt: Vec<(String, u64)> = snap
        .counters
        .iter()
        .filter(|(name, _)| {
            matches!(
                name.as_str(),
                "gateway.chunks_received"
                    | "pipeline.convert_rows"
                    | "cloudstore.put_ops"
                    | "cdw.statements"
                    | "credit.acquires"
            )
        })
        .cloned()
        .collect();

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
             \"plain_rows_per_s\": {:.0}, \"instrumented_rows_per_s\": {:.0}, \
             \"overhead_pct\": {:.3}}}",
            k.name,
            k.rows,
            k.bytes,
            k.chunks,
            k.plain_rows_per_s,
            k.instrumented_rows_per_s,
            k.overhead_pct
        ));
        json.push_str(if i + 1 < kernels.len() { ",\n" } else { "\n" });
        eprintln!(
            "  {:>16}: {:>12.0} -> {:>12.0} rows/s  ({:+.3}% overhead)",
            k.name, k.plain_rows_per_s, k.instrumented_rows_per_s, k.overhead_pct
        );
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"end_to_end\": {{\"workload\": \"e2e_250B\", \"rows\": {}, \"bytes\": {}, \
         \"rows_per_s\": {:.0}}},\n",
        e2e_workload.rows,
        e2e_workload.data.len(),
        e2e_rows_per_s
    ));
    json.push_str("  \"stats_excerpt\": {");
    for (i, (name, value)) in excerpt.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!("\"{name}\": {value}"));
    }
    json.push_str("}\n}\n");

    std::fs::write(&out_path, &json).expect("write bench report");
    eprintln!("wrote {out_path}");

    // The PR's headline gate: per-chunk instrumentation costs no more
    // than 3% of conversion throughput on the widest (slowest-converting)
    // workload. Smoke runs and obs-compiled-out builds record but don't
    // gate — the former is too noisy, the latter has nothing to measure.
    let gated = &kernels[1];
    if !smoke && obs_compiled && gated.overhead_pct > 3.0 {
        eprintln!(
            "FAIL: {} observability overhead {:.3}% > 3.0%",
            gated.name, gated.overhead_pct
        );
        std::process::exit(1);
    }
}
