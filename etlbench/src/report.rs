//! Turning a [`Run`] into metrics and the one-line JSON result.

use crate::layers::Metric;
use crate::run::{JobSample, Pass, Run};
use crate::stats::{median, percentile, ratio};

/// The median over untraced passes of `f`, which reads one pass. A pass
/// slowed by a busy host then moves the result less than it would move
/// a figure pooled over all passes.
fn per_pass(run: &Run, f: impl Fn(&Pass) -> f64) -> f64 {
    let values: Vec<f64> = run.passes.iter().filter(|p| !p.traced).map(f).collect();
    median(&values)
}

/// Job times of one pass, of one kind or of all.
fn timed(p: &Pass, tag: Option<&str>) -> Vec<f64> {
    p.jobs
        .iter()
        .filter(|j| tag.is_none_or(|t| j.tag == t))
        .map(|j| j.timed_ms)
        .collect()
}

/// End-to-end metrics (the ones `BENCHMARK.json` gates), from the
/// untraced passes.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let setups: Vec<f64> = run.setups.iter().map(|d| d.as_secs_f64()).collect();
    // The first pass is the one a fresh process sees; later passes add
    // whatever the allocator kept from the nodes before them.
    let rss = run
        .passes
        .iter()
        .find(|p| !p.traced)
        .map_or(0.0, |p| p.rss_mb);
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("setup_s", "s", median(&setups)),
        m(
            "rows_per_s",
            "rows/s",
            per_pass(run, |p| ratio(p.rows_landed as f64, p.wall.as_secs_f64())),
        ),
        m(
            "job_ms_p50",
            "ms",
            per_pass(run, |p| percentile(&timed(p, None), 50.0)),
        ),
        m(
            "job_ms_p90",
            "ms",
            per_pass(run, |p| percentile(&timed(p, None), 90.0)),
        ),
        m("rss_mb", "MB", rss),
    ]
}

/// Median import and export times. They are printed with the
/// end-to-end metrics but not gated (see the README).
pub fn by_kind(run: &Run) -> Vec<Metric> {
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m(
            "import_ms_p50",
            "ms",
            per_pass(run, |p| median(&timed(p, Some("import")))),
        ),
        m(
            "export_ms_p50",
            "ms",
            per_pass(run, |p| {
                median(&exports(p).map(|j| j.timed_ms).collect::<Vec<_>>())
            }),
        ),
    ]
}

/// The export samples a pass is judged on: the workload's own export
/// jobs, or the end-of-pass table exports when it has none.
fn exports(p: &Pass) -> impl Iterator<Item = &JobSample> {
    let own = p.jobs.iter().any(|j| j.tag == "export");
    let jobs = p.jobs.iter().filter(move |j| own && j.tag == "export");
    let verify = p.verify_exports.iter().filter(move |_| !own);
    jobs.chain(verify)
}

/// Per-layer metrics, from the traced passes (and the untraced ones
/// they are compared with).
pub fn per_layer(run: &Run) -> Vec<Metric> {
    let (traced, untraced): (Vec<&Pass>, Vec<&Pass>) = run.passes.iter().partition(|p| p.traced);
    let mean_service = |passes: &[&Pass]| {
        let jobs: Vec<f64> = passes
            .iter()
            .flat_map(|p| &p.jobs)
            .map(|j| j.service_ms)
            .collect();
        ratio(jobs.iter().sum(), jobs.len() as f64)
    };
    let overhead = ratio(mean_service(&traced), mean_service(&untraced)) - 1.0;
    let (rows, secs) = traced
        .iter()
        .flat_map(|p| exports(p))
        .fold((0u64, 0.0), |(r, s), j| {
            (r + j.rows, s + j.service_ms / 1e3)
        });
    let late: Vec<f64> = run
        .passes
        .iter()
        .flat_map(|p| &p.jobs)
        .map(|j| j.late_ms)
        .collect();
    run.layers
        .metrics(ratio(rows as f64, secs), overhead, percentile(&late, 90.0))
}

/// The result line: `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Layers;
    use crate::run::{Checks, Run};

    fn declared(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{section}\"")).expect("section");
        let end = json[start..].find(']').expect("list end") + start;
        json[start..end]
            .split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5;
                    entry[at..at + entry[at..].find('"').unwrap()].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(metrics: Vec<Metric>) -> Vec<(String, String)> {
        metrics
            .into_iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    fn empty_run() -> Run {
        Run {
            setups: Vec::new(),
            passes: Vec::new(),
            layers: Layers::default(),
            checks: Checks::default(),
        }
    }

    #[test]
    fn metrics_match_benchmark_json_by_name_and_unit() {
        assert_eq!(emitted(end_to_end(&empty_run())), declared("end_to_end"));
        assert_eq!(emitted(per_layer(&empty_run())), declared("per_layer"));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let m = [Metric {
            name: "a",
            unit: "ms",
            value: 1.25,
        }];
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
