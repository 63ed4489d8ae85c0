//! The three workloads: their scenarios, and the plan a run replays —
//! pre-generated payloads, compiled jobs, and what each job must return.
//!
//! Expected results are derived from the generated inputs alone: an
//! import's clean rows are those with a valid date whose key has not
//! appeared earlier in the same file (keys never collide across jobs),
//! and a table's contents at any point are the clean keys of every
//! import into it so far. Keys are compared as an order-independent
//! digest, so an export check covers contents, not just counts.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use etlv_protocol::rng::splitmix64;
use etlv_script::{compile, parse_script, ExportJob, ImportJob, JobPlan};
use etlv_workloadgen::data::export_script;
use etlv_workloadgen::{
    synthesize, tenant_user, ArrivalKind, JobKind, OutcomeCounts, Scenario, WorkloadTrace,
};

/// Records per data chunk, for imports and exports alike.
pub const CHUNK_ROWS: usize = 500;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop of large clean imports into two warm targets.
    BulkImport,
    /// Closed loop of small dirty imports (bad dates, duplicate keys).
    DirtyImport,
    /// Open loop of imports, exports and count probes at a fixed rate.
    MixedOps,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::BulkImport,
        Workload::DirtyImport,
        Workload::MixedOps,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkImport => "bulk_import",
            Workload::DirtyImport => "dirty_import",
            Workload::MixedOps => "mixed_ops",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed loops issue each job when the previous one finishes; the
    /// open loop issues each at its scheduled offset.
    pub fn closed_loop(self) -> bool {
        self != Workload::MixedOps
    }

    /// The workloadgen scenario, one tenant, one data session per job.
    pub fn scenario(self, seed: u64) -> Scenario {
        let base = Scenario {
            name: self.name().into(),
            seed,
            tenants: 1,
            jobs: 0,
            horizon_ms: 1000,
            arrival: ArrivalKind::Steady,
            burst_factor: 1,
            bursts: 1,
            diurnal_trough: 1.0,
            tables_per_tenant: 0,
            zipf_s: 0.0,
            rows_base: 0,
            rows_hot: 0,
            row_bytes: 0,
            import_pct: 100,
            export_pct: 0,
            date_error_ppm: 0,
            dup_key_ppm: 0,
            sessions_per_import: 1,
        };
        match self {
            Workload::BulkImport => Scenario {
                jobs: 12,
                tables_per_tenant: 2,
                rows_base: 25_000,
                rows_hot: 25_000,
                row_bytes: 200,
                ..base
            },
            Workload::DirtyImport => Scenario {
                jobs: 80,
                tables_per_tenant: 8,
                zipf_s: 0.5,
                rows_base: 100,
                rows_hot: 300,
                row_bytes: 96,
                date_error_ppm: 60_000,
                dup_key_ppm: 40_000,
                ..base
            },
            // 400 jobs over 10 s: a Poisson rate of 40 jobs/s.
            Workload::MixedOps => Scenario {
                jobs: 400,
                horizon_ms: 10_000,
                tables_per_tenant: 8,
                zipf_s: 1.1,
                rows_base: 30,
                rows_hot: 400,
                row_bytes: 120,
                import_pct: 60,
                export_pct: 25,
                ..base
            },
        }
    }
}

/// Table contents as (row count, key digest).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Contents {
    /// Rows.
    pub rows: u64,
    /// Wrapping sum of per-key hashes.
    pub digest: u64,
}

impl Contents {
    /// Add one key.
    pub fn add(&mut self, key: &[u8]) {
        self.rows += 1;
        self.digest = self.digest.wrapping_add(key_hash(key));
    }

    /// Contents of exported `|`-delimited records whose first field is
    /// the key.
    pub fn of_export(data: &[u8]) -> Contents {
        let mut c = Contents::default();
        for line in data.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            let key = line.split(|&b| b == b'|').next().unwrap_or(line);
            c.add(key);
        }
        c
    }

    fn merge(&mut self, other: Contents) {
        self.rows += other.rows;
        self.digest = self.digest.wrapping_add(other.digest);
    }
}

fn key_hash(key: &[u8]) -> u64 {
    // FNV-1a, finalized through splitmix64 so sums do not cancel.
    let h = key.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    splitmix64(h)
}

/// What one job does.
#[derive(Debug, Clone)]
pub enum Work {
    /// Import `data` through `job`.
    Import {
        /// The compiled import job.
        job: ImportJob,
        /// The input file.
        data: Vec<u8>,
        /// Records in `data`.
        rows: u64,
        /// Rows that must land in the target.
        clean: Contents,
        /// Rows that must land in ET (bad dates).
        et: u64,
        /// Rows that must land in UV (duplicate keys).
        uv: u64,
    },
    /// Export a table; it must hold `expect` at that point.
    Export {
        /// The compiled export job.
        job: ExportJob,
        /// Expected contents.
        expect: Contents,
    },
    /// `SEL COUNT(*)` on a table; it must count `expect` rows.
    Count {
        /// The probe's SQL.
        sql: String,
        /// Expected row count.
        expect: u64,
    },
}

impl Work {
    /// `import`, `export` or `count`.
    pub fn tag(&self) -> &'static str {
        match self {
            Work::Import { .. } => "import",
            Work::Export { .. } => "export",
            Work::Count { .. } => "count",
        }
    }
}

/// One scheduled job.
#[derive(Debug, Clone)]
pub struct PlannedJob {
    /// Offset from the start of the pass, µs (open loop only).
    pub at_us: u64,
    /// The job.
    pub work: Work,
}

/// Everything a run replays, generated once from the seed.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The synthesized trace.
    pub trace: WorkloadTrace,
    /// Jobs in trace order.
    pub jobs: Vec<PlannedJob>,
    /// Logon user of every job.
    pub user: String,
    /// Every table the trace touches, with its contents after the last job.
    pub tables: BTreeMap<String, Contents>,
    /// The outcome counts a correct replay produces: every job
    /// completes, and applied, ET and UV rows equal the generator's
    /// ground truth.
    pub expected: OutcomeCounts,
}

/// The trace seed of pass `pass` of a run with seed `seed`. Pass 0
/// replays the run's own seed.
pub fn pass_seed(seed: u64, pass: u64) -> u64 {
    if pass == 0 {
        seed
    } else {
        splitmix64(seed ^ splitmix64(pass))
    }
}

/// Compile the export of `table` (one data session, like every job).
pub fn export_job(table: &str, user: &str) -> ExportJob {
    match compile(&parse_script(&export_script(table, user)).expect("export script parses"))
        .expect("export script compiles")
    {
        JobPlan::Export(job) => job,
        JobPlan::Import(_) => unreachable!("export script compiles to an export job"),
    }
}

/// The clean-row contents and error counts of one import file.
fn classify(data: &[u8]) -> Result<(Contents, u64, u64), String> {
    let (mut clean, mut et, mut uv) = (Contents::default(), 0, 0);
    let mut seen: HashSet<&[u8]> = HashSet::new();
    for line in data.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        let mut fields = line.split(|&b| b == b'|');
        let (Some(key), Some(date)) = (fields.next(), fields.next()) else {
            return Err("generated record has fewer than two fields".into());
        };
        if date == b"not-a-date" {
            et += 1;
        } else if !seen.insert(key) {
            uv += 1;
        } else {
            clean.add(key);
        }
    }
    Ok((clean, et, uv))
}

impl Plan {
    /// Synthesize `workload` from `seed` and derive every expectation.
    pub fn new(workload: Workload, seed: u64) -> Result<Plan, String> {
        let trace = synthesize(&workload.scenario(seed));
        let user = tenant_user(0);
        let tables: BTreeSet<String> = trace
            .events
            .iter()
            .map(|e| e.kind.table().to_string())
            .collect();
        let mut state: BTreeMap<String, Contents> = tables
            .into_iter()
            .map(|t| (t, Contents::default()))
            .collect();
        let mut jobs = Vec::with_capacity(trace.events.len());
        let mut rows_exported = 0;
        for event in &trace.events {
            let work = match &event.kind {
                JobKind::Import(spec) => {
                    let data = spec.payload().data;
                    let (clean, et, uv) = classify(&data)?;
                    if (et, uv)
                        != (
                            u64::from(spec.planned_bad_dates),
                            u64::from(spec.planned_dup_keys),
                        )
                    {
                        return Err(format!(
                            "job {}: input holds {et} bad dates and {uv} duplicates, \
                             the generator planned {} and {}",
                            event.seq, spec.planned_bad_dates, spec.planned_dup_keys
                        ));
                    }
                    state.get_mut(&spec.table).expect("table").merge(clean);
                    Work::Import {
                        job: spec.job(),
                        rows: u64::from(spec.rows),
                        data,
                        clean,
                        et,
                        uv,
                    }
                }
                JobKind::Export { table } => {
                    rows_exported += state[table].rows;
                    Work::Export {
                        job: export_job(table, &user),
                        expect: state[table],
                    }
                }
                JobKind::Sql { table } => Work::Count {
                    sql: format!("SEL COUNT(*) FROM {table}"),
                    expect: state[table].rows,
                },
            };
            jobs.push(PlannedJob {
                at_us: event.at_us,
                work,
            });
        }
        let truth = trace.ground_truth();
        let expected = OutcomeCounts {
            jobs: jobs.len() as u64,
            completed: jobs.len() as u64,
            rejected: 0,
            failed: 0,
            rows_applied: truth.rows - truth.bad_dates - truth.dup_keys,
            rows_exported,
            errors_et: truth.bad_dates,
            errors_uv: truth.dup_keys,
        };
        Ok(Plan {
            workload,
            trace,
            jobs,
            user,
            tables: state,
            expected,
        })
    }

    /// The seed the trace was synthesized from.
    pub fn seed(&self) -> u64 {
        self.trace.scenario.seed
    }

    /// Row width the target DDL is sized for.
    pub fn row_bytes(&self) -> u32 {
        self.trace.scenario.row_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_separates_clean_bad_and_duplicate_rows() {
        let data = b"K1|2001-01-01|x\nK2|not-a-date|y\nK1|2002-02-02|z\nK3|2003-03-03|w\n";
        let (clean, et, uv) = classify(data).unwrap();
        assert_eq!((clean.rows, et, uv), (2, 1, 1));
        let mut expect = Contents::default();
        expect.add(b"K3");
        expect.add(b"K1");
        assert_eq!(clean, expect, "digest is order-independent");
        assert_eq!(Contents::of_export(b"K1|x\nK3|w\n"), expect);
    }

    #[test]
    fn plans_match_the_generator_ground_truth() {
        for workload in Workload::ALL {
            let plan = Plan::new(workload, 7).unwrap();
            let truth = plan.trace.ground_truth();
            let (mut rows, mut et, mut uv, mut clean) = (0, 0, 0, 0);
            for job in &plan.jobs {
                if let Work::Import {
                    rows: r,
                    clean: c,
                    et: e,
                    uv: u,
                    ..
                } = &job.work
                {
                    rows += r;
                    et += e;
                    uv += u;
                    clean += c.rows;
                }
            }
            assert_eq!(
                (rows, et, uv),
                (truth.rows, truth.bad_dates, truth.dup_keys)
            );
            assert_eq!(clean, rows - et - uv);
            let held: u64 = plan.tables.values().map(|c| c.rows).sum();
            assert_eq!(held, clean, "{}", workload.name());
            let e = plan.expected;
            assert_eq!((e.jobs, e.completed), (plan.jobs.len() as u64, e.jobs));
            assert_eq!((e.rows_applied, e.errors_et, e.errors_uv), (clean, et, uv));
        }
    }

    #[test]
    fn pass_seeds_start_at_the_run_seed_and_differ() {
        assert_eq!(pass_seed(42, 0), 42);
        let seeds: BTreeSet<u64> = (0..100).map(|k| pass_seed(42, k)).collect();
        assert_eq!(seeds.len(), 100);
        assert_ne!(pass_seed(42, 1), pass_seed(43, 1));
    }

    #[test]
    fn workloads_have_the_documented_shape() {
        let bulk = Plan::new(Workload::BulkImport, 1).unwrap();
        assert_eq!((bulk.jobs.len(), bulk.tables.len()), (12, 2));
        let dirty = Plan::new(Workload::DirtyImport, 1).unwrap().trace;
        let truth = dirty.ground_truth();
        assert!(truth.bad_dates > 0 && truth.dup_keys > 0);
        let mixed = Plan::new(Workload::MixedOps, 1).unwrap();
        let tags: Vec<&str> = mixed.jobs.iter().map(|j| j.work.tag()).collect();
        assert_eq!(tags.len(), 400);
        for tag in ["import", "export", "count"] {
            assert!(tags.contains(&tag), "{tag}");
        }
        assert!(mixed.jobs.last().unwrap().at_us <= 10_000_000);
    }
}
