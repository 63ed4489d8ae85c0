//! Always-on continuous profiling (PR 9): per-stage CPU vs wall
//! accounting, instrumented lock primitives, and the collapsed-stack
//! ("folded") flamegraph behind the `Profile` wire request.
//!
//! Three data sources feed one report, every number since node start:
//!
//! 1. **Stage records** — [`Obs::record_stage`] adds each stage's wall
//!    to its histogram and the thread CPU a [`CpuTimer`] measured
//!    (`CLOCK_THREAD_CPUTIME_ID` on Linux) to `profile.<stage>.cpu_us`.
//!    A stage whose CPU ≪ wall is blocked (lock, I/O, sleep); CPU ≈ wall
//!    means compute-bound. Platforms without the clock degrade to
//!    wall-only (CPU stays 0, nothing breaks).
//! 2. **Tracked locks** — [`TrackedMutex`]/[`TrackedRwLock`]/
//!    [`TrackedCondvar`] wrap the parking_lot primitives with a static
//!    site name, counting acquisitions, contended acquisitions (the fast
//!    `try_lock` missed), wait-time and hold-time histograms. A condvar
//!    sleep is idle time, counted apart from contention. With `obs`
//!    compiled out every probe folds to nothing at compile time — the
//!    wrappers still lock, they just never look at the clock.
//! 3. **Folded jobs** — each completed job's critical-path attribution
//!    (PR 4, [`crate::trace::JobTrace`]) is folded once, at close, into
//!    per-stage counters rendered as folded flamegraph lines
//!    (`job;acquisition;convert 1234`) and the ASCII flame tree.
//!
//! This module is compiled regardless of the `obs` feature: the handle
//! types it stores are the feature-aliased ones from [`crate::obs`], so a
//! `--no-default-features` build collapses the instrumentation to ZSTs
//! while the lock wrappers keep locking.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use super::{Counter, Histogram, HistogramSnapshot, Obs};
use crate::trace::{JobTrace, Stage};

// --------------------------------------------------------------- CPU clock

/// Current thread's consumed CPU time, if the platform exposes a
/// per-thread CPU clock. Linux: `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`
/// via a direct libc call (the workspace carries no libc crate; the
/// symbol is in every glibc/musl the toolchain links anyway). Elsewhere:
/// `None`, and stage profiles stay wall-only.
#[cfg(target_os = "linux")]
pub fn thread_cpu_time() -> Option<Duration> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        Some(Duration::new(ts.tv_sec.max(0) as u64, ts.tv_nsec as u32))
    } else {
        None
    }
}

/// Non-Linux fallback: no per-thread CPU clock, stage profiles stay
/// wall-only.
#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_time() -> Option<Duration> {
    None
}

/// A started CPU-time measurement on the current thread. `start` samples
/// the thread CPU clock (or nothing with `obs` compiled out / clock
/// unavailable); `elapsed` yields the CPU consumed since, `None` when
/// either sample failed. Must be read on the thread that started it.
pub struct CpuTimer(Option<Duration>);

impl CpuTimer {
    /// Sample the thread CPU clock now. With `obs` compiled out this is a
    /// constant `None` and the optimizer deletes the whole measurement.
    #[inline]
    pub fn start() -> CpuTimer {
        if super::enabled() {
            CpuTimer(thread_cpu_time())
        } else {
            CpuTimer(None)
        }
    }

    /// CPU time consumed by this thread since `start`.
    #[inline]
    pub fn elapsed(&self) -> Option<Duration> {
        let started = self.0?;
        thread_cpu_time().map(|now| now.saturating_sub(started))
    }
}

// ----------------------------------------------------------- lock sites

/// Per-site lock statistics: one block per static site name, interned in
/// the registry like tenants (bounded cardinality). Wait time is how long
/// a contended acquire blocked; idle wait is how long a condvar slept for
/// work; hold time is how long the guard lived. Every record also bumps
/// the registry-level `lock.*` aggregates so the sampler can follow total
/// contention as one rate series.
pub struct LockSiteObs {
    /// The static site name, e.g. `"runtime.state"` or `"cdw.table/T1"`.
    pub site: String,
    /// Total acquisitions (contended + uncontended).
    pub acquires: Counter,
    /// Acquisitions that missed the fast path and had to block.
    pub contended: Counter,
    /// Blocked time per contended acquire, µs.
    pub wait_us: Histogram,
    /// Guard lifetime per acquisition, µs.
    pub hold_us: Histogram,
    /// Condvar sleep waiting for work, µs — idle time, not contention.
    pub idle_wait_us: Counter,
    /// Registry-wide aggregate clones (`lock.acquires`, `lock.contended`,
    /// `lock.wait_us`, `lock.idle_wait_us`) bumped alongside the per-site
    /// handles.
    pub(crate) agg_acquires: Counter,
    pub(crate) agg_contended: Counter,
    pub(crate) agg_wait_us: Counter,
    pub(crate) agg_idle_wait_us: Counter,
}

impl LockSiteObs {
    /// Record an acquisition that took the fast path.
    #[inline]
    pub fn acquired_uncontended(&self) {
        self.acquires.inc();
        self.agg_acquires.inc();
    }

    /// Record an acquisition that blocked for `wait`.
    #[inline]
    pub fn acquired_after(&self, wait: Duration) {
        let us = wait.as_micros() as u64;
        self.acquires.inc();
        self.agg_acquires.inc();
        self.contended.inc();
        self.agg_contended.inc();
        self.wait_us.record(us);
        self.agg_wait_us.add(us);
    }

    /// Record a condvar sleep of `wait`: idle time, never contention.
    #[inline]
    pub fn idled(&self, wait: Duration) {
        let us = wait.as_micros() as u64;
        self.idle_wait_us.add(us);
        self.agg_idle_wait_us.add(us);
    }

    /// Record how long a guard was held.
    #[inline]
    pub fn held(&self, dur: Duration) {
        self.hold_us.record_duration(dur);
    }

    /// Take a lock through its fast path `try_take`, falling back to the
    /// blocking `take` under a timer: the one contention probe every
    /// tracked lock shares. With `obs` compiled out it is just `take`.
    #[inline]
    pub(crate) fn acquire<G>(
        &self,
        try_take: impl FnOnce() -> Option<G>,
        take: impl FnOnce() -> G,
    ) -> G {
        if !super::enabled() {
            return take();
        }
        if let Some(guard) = try_take() {
            self.acquired_uncontended();
            return guard;
        }
        let blocked = Instant::now();
        let guard = take();
        self.acquired_after(blocked.elapsed());
        guard
    }

    /// Record the hold of a guard taken at `held_from`.
    #[inline]
    fn release(&self, held_from: Option<Instant>) {
        if let Some(held) = held_from {
            self.held(held.elapsed());
        }
    }

    /// Point-in-time view of this site.
    pub fn snapshot(&self) -> LockSiteSnapshot {
        LockSiteSnapshot {
            site: self.site.clone(),
            acquires: self.acquires.value(),
            contended: self.contended.value(),
            wait_us: self.wait_us.snapshot("wait_us"),
            hold_us: self.hold_us.snapshot("hold_us"),
            idle_wait_us: self.idle_wait_us.value(),
        }
    }
}

/// Point-in-time view of one lock site.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockSiteSnapshot {
    /// Site name.
    pub site: String,
    /// Total acquisitions.
    pub acquires: u64,
    /// Contended acquisitions.
    pub contended: u64,
    /// Blocked-time histogram, µs.
    pub wait_us: HistogramSnapshot,
    /// Hold-time histogram, µs.
    pub hold_us: HistogramSnapshot,
    /// Condvar sleep waiting for work, µs (idle, not contention).
    pub idle_wait_us: u64,
}

impl LockSiteSnapshot {
    /// One JSON object (embedded in Stats and Profile documents).
    pub fn to_json(&self) -> String {
        let h = |h: &HistogramSnapshot| {
            format!(
                "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                h.count, h.sum, h.max, h.p50, h.p95, h.p99
            )
        };
        format!(
            "{{\"site\": \"{}\", \"acquires\": {}, \"contended\": {}, \
             \"wait_us\": {}, \"hold_us\": {}, \"idle_wait_us\": {}}}",
            super::render::json_escape(&self.site),
            self.acquires,
            self.contended,
            h(&self.wait_us),
            h(&self.hold_us),
            self.idle_wait_us,
        )
    }
}

// --------------------------------------------------------- tracked locks

/// A `parking_lot::Mutex` that reports to a [`LockSiteObs`]. The fast
/// path is one `try_lock`; only a miss looks at the clock. With `obs`
/// compiled out the wrapper locks without ever reading time.
pub struct TrackedMutex<T> {
    inner: Mutex<T>,
    site: Arc<LockSiteObs>,
}

impl<T> TrackedMutex<T> {
    /// Wrap `value` under the given site.
    pub fn new(site: Arc<LockSiteObs>, value: T) -> TrackedMutex<T> {
        TrackedMutex {
            inner: Mutex::new(value),
            site,
        }
    }

    /// Acquire, recording contention and (on drop) hold time.
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        TrackedMutexGuard {
            guard: self
                .site
                .acquire(|| self.inner.try_lock(), || self.inner.lock()),
            site: &self.site,
            held_from: super::enabled().then(Instant::now),
        }
    }
}

/// Guard for [`TrackedMutex`]; records hold time on drop.
pub struct TrackedMutexGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    site: &'a Arc<LockSiteObs>,
    held_from: Option<Instant>,
}

impl<T> Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for TrackedMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.site.release(self.held_from);
    }
}

/// A `parking_lot::Condvar` that reports its sleeps to a [`LockSiteObs`]
/// as idle wait. The guard's hold timer pauses across the wait, so
/// `hold_us` measures time actually holding the lock, not time asleep on
/// the condvar.
pub struct TrackedCondvar {
    inner: Condvar,
    site: Arc<LockSiteObs>,
}

impl TrackedCondvar {
    /// New condvar reporting under `site`.
    pub fn new(site: Arc<LockSiteObs>) -> TrackedCondvar {
        TrackedCondvar {
            inner: Condvar::new(),
            site,
        }
    }

    /// Block until notified. Records the sleep as the site's idle wait: a
    /// worker waiting for work is not contending for anything.
    pub fn wait<T>(&self, guard: &mut TrackedMutexGuard<'_, T>) {
        if !super::enabled() {
            self.inner.wait(&mut guard.guard);
            return;
        }
        guard.site.release(guard.held_from.take());
        let slept = Instant::now();
        self.inner.wait(&mut guard.guard);
        self.site.idled(slept.elapsed());
        guard.held_from = Some(Instant::now());
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// A `parking_lot::RwLock` that reports to a [`LockSiteObs`]. Reader and
/// writer acquisitions share the site's counters and histograms — the
/// contended counter fires whenever the fast `try_` path misses.
pub struct TrackedRwLock<T> {
    inner: RwLock<T>,
    site: Arc<LockSiteObs>,
}

impl<T> TrackedRwLock<T> {
    /// Wrap `value` under the given site.
    pub fn new(site: Arc<LockSiteObs>, value: T) -> TrackedRwLock<T> {
        TrackedRwLock {
            inner: RwLock::new(value),
            site,
        }
    }

    /// Shared acquire.
    pub fn read(&self) -> TrackedReadGuard<'_, T> {
        TrackedReadGuard {
            guard: self
                .site
                .acquire(|| self.inner.try_read(), || self.inner.read()),
            site: &self.site,
            held_from: super::enabled().then(Instant::now),
        }
    }

    /// Exclusive acquire.
    pub fn write(&self) -> TrackedWriteGuard<'_, T> {
        TrackedWriteGuard {
            guard: self
                .site
                .acquire(|| self.inner.try_write(), || self.inner.write()),
            site: &self.site,
            held_from: super::enabled().then(Instant::now),
        }
    }
}

/// Shared guard for [`TrackedRwLock`]; records hold time on drop.
pub struct TrackedReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    site: &'a Arc<LockSiteObs>,
    held_from: Option<Instant>,
}

impl<T> Deref for TrackedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> Drop for TrackedReadGuard<'_, T> {
    fn drop(&mut self) {
        self.site.release(self.held_from);
    }
}

/// Exclusive guard for [`TrackedRwLock`]; records hold time on drop.
pub struct TrackedWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    site: &'a Arc<LockSiteObs>,
    held_from: Option<Instant>,
}

impl<T> Deref for TrackedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for TrackedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for TrackedWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.site.release(self.held_from);
    }
}

// ------------------------------------------------------- folded flamegraph

impl Obs {
    /// Fold a closed job's trace attribution into the flamegraph counters,
    /// once. A trace that is incomplete or has orphans (the ring evicted
    /// part of it) would misattribute, so it is counted as missed.
    pub fn fold_job(&self, job: u64) {
        if !super::enabled() {
            return;
        }
        match JobTrace::assemble(&self.journal.events_for_job(job)) {
            Some(trace) if trace.complete && trace.orphans == 0 => {
                self.fold.jobs.inc();
                for (bucket, (_, us)) in self.fold.stage_us.iter().zip(&trace.attribution) {
                    bucket.add(*us);
                }
            }
            _ => self.fold.missed_jobs.inc(),
        }
    }

    /// The fold counters as collapsed-stack text, one `path value` line
    /// (µs) per non-empty bucket, with paths mirroring the job phases.
    fn folded_text(&self) -> String {
        let mut lines: Vec<String> = (self.fold.stage_us.iter().enumerate())
            .filter(|(_, c)| c.value() > 0)
            .map(|(i, c)| match Stage::ALL.get(i) {
                Some(Stage::Apply) => format!("job;application;apply {}\n", c.value()),
                Some(stage) => format!("job;acquisition;{} {}\n", stage.name(), c.value()),
                None => format!("job;other {}\n", c.value()),
            })
            .collect();
        lines.sort_unstable();
        lines.concat()
    }
}

/// Render folded-stack text as an ASCII flame tree: one row per frame,
/// indented by depth, with each frame's inclusive share of the root and
/// a proportional bar. Input lines that fail to parse are skipped.
pub fn render_flame_ascii(folded: &str) -> String {
    use std::collections::BTreeMap;

    #[derive(Default)]
    struct Node {
        own: u64,
        children: BTreeMap<String, Node>,
    }
    impl Node {
        fn total(&self) -> u64 {
            self.own + self.children.values().map(Node::total).sum::<u64>()
        }
    }

    let mut root = Node::default();
    for line in folded.lines() {
        let Some((path, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<u64>() else {
            continue;
        };
        let mut node = &mut root;
        for frame in path.split(';') {
            node = node.children.entry(frame.to_string()).or_default();
        }
        node.own += value;
    }

    let grand = root.total();
    if grand == 0 {
        return "flame: (empty — no completed jobs folded)\n".to_string();
    }
    fn push(out: &mut String, name: &str, node: &Node, depth: usize, grand: u64) {
        let total = node.total();
        let pct = total as f64 * 100.0 / grand as f64;
        let bar_len = ((total as f64 / grand as f64) * 32.0).round() as usize;
        out.push_str(&format!(
            "{:indent$}{name:<width$} {total:>10}us {pct:>5.1}% |{bar}\n",
            "",
            indent = depth * 2,
            width = 24usize.saturating_sub(depth * 2),
            bar = "#".repeat(bar_len.max(if total > 0 { 1 } else { 0 })),
        ));
        for (child_name, child) in &node.children {
            push(out, child_name, child, depth + 1, grand);
        }
    }
    let mut out = format!("flame: {grand}us total\n");
    for (name, node) in &root.children {
        push(&mut out, name, node, 0, grand);
    }
    out
}

// ----------------------------------------------------------- the report

/// One stage's CPU/wall accounting in a [`ProfileReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageCpuProfile {
    /// Stage name (`convert`/`upload`/`copy`/`apply`).
    pub stage: &'static str,
    /// Wall time across all recorded executions, µs (the stage
    /// histogram's sum).
    pub wall_us: u64,
    /// Thread CPU time across all recorded executions, µs.
    pub cpu_us: u64,
    /// Recorded executions (the stage histogram's count).
    pub samples: u64,
}

/// Worker-pool utilization in a [`ProfileReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolProfile {
    /// Worker threads the runtime is sized to.
    pub workers: u64,
    /// Workers executing a chunk right now.
    pub busy_workers: u64,
    /// Idle buffers in the freelist.
    pub idle_buffers: u64,
    /// Buffer takes served from the freelist.
    pub recycle_hits: u64,
    /// Buffer takes that allocated fresh.
    pub recycle_misses: u64,
    /// Worker wakeups that found no work.
    pub idle_wakeups: u64,
    /// Round-robin job slots scanned past while finding work.
    pub rr_skips: u64,
}

/// How many contended lock sites the Profile reply ranks.
pub const PROFILE_TOP_K: usize = 16;

/// The window every Profile number covers: counters and folded jobs
/// accumulate from node start and are never reset or evicted.
pub const PROFILE_WINDOW: &str = "since node start";

/// The full profiling view behind `Virtualizer::profile()` and the
/// `Profile` wire request: per-stage CPU/wall, top-K contended lock
/// sites (ranked by total wait, contended-only), pool utilization, and
/// the folded flamegraph — all over [`PROFILE_WINDOW`].
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Whether the `obs` feature is compiled in.
    pub enabled: bool,
    /// Per-stage CPU/wall accounting.
    pub stages: Vec<StageCpuProfile>,
    /// Top-K lock sites with at least one contended acquire, ranked by
    /// total blocked time descending. Uncontended sites never rank — a
    /// cold system reports an empty list.
    pub locks: Vec<LockSiteSnapshot>,
    /// Worker-pool utilization counters.
    pub pool: PoolProfile,
    /// Jobs whose traces contributed to the folded flamegraph.
    pub folded_jobs: u64,
    /// Completed jobs left out of the flamegraph because their trace was
    /// incomplete or orphaned at close.
    pub folded_missed_jobs: u64,
    /// Collapsed-stack flamegraph text (`path value` lines, µs).
    pub folded: String,
}

impl ProfileReport {
    /// Collect the report from a node's hub: stage histograms and CPU
    /// counters, the registry's interned lock sites, pool gauges, and the
    /// fold counters.
    pub fn collect(obs: &Obs) -> ProfileReport {
        let stages = [Stage::Convert, Stage::Upload, Stage::Copy, Stage::Apply]
            .into_iter()
            .filter_map(|stage| {
                let (wall, cpu) = obs.stage_profile(stage)?;
                let wall = wall.snapshot(stage.name());
                Some(StageCpuProfile {
                    stage: stage.name(),
                    wall_us: wall.sum,
                    cpu_us: cpu.value(),
                    samples: wall.count,
                })
            })
            .collect();
        let mut locks: Vec<LockSiteSnapshot> = obs
            .registry
            .lock_site_snapshots()
            .into_iter()
            .filter(|s| s.contended > 0)
            .collect();
        locks.sort_by(|a, b| {
            b.wait_us
                .sum
                .cmp(&a.wait_us.sum)
                .then_with(|| a.site.cmp(&b.site))
        });
        locks.truncate(PROFILE_TOP_K);
        let pool = PoolProfile {
            workers: obs.runtime.workers.value(),
            busy_workers: obs.pool.busy_workers.value(),
            idle_buffers: obs.pool.idle_buffers.value(),
            recycle_hits: obs.pool.recycle_hits.value(),
            recycle_misses: obs.pool.recycle_misses.value(),
            idle_wakeups: obs.pool.idle_wakeups.value(),
            rr_skips: obs.pool.rr_skips.value(),
        };
        ProfileReport {
            enabled: super::enabled(),
            stages,
            locks,
            pool,
            folded_jobs: obs.fold.jobs.value(),
            folded_missed_jobs: obs.fold.missed_jobs.value(),
            folded: obs.folded_text(),
        }
    }

    /// The report as one JSON document (the `Profile` wire reply body in
    /// JSON format).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        out.push_str(&format!("  \"enabled\": {},\n", self.enabled));
        out.push_str(&format!("  \"window\": \"{PROFILE_WINDOW}\",\n"));
        out.push_str("  \"stages\": [");
        for (i, s) in self.stages.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"stage\": \"{}\", \"wall_us\": {}, \"cpu_us\": {}, \"samples\": {}}}",
                s.stage, s.wall_us, s.cpu_us, s.samples
            ));
        }
        out.push_str("\n  ],\n");
        out.push_str("  \"locks\": [");
        for (i, l) in self.locks.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            out.push_str(&l.to_json());
        }
        out.push_str("\n  ],\n");
        out.push_str(&format!(
            "  \"pool\": {{\"workers\": {}, \"busy_workers\": {}, \"idle_buffers\": {}, \
             \"recycle_hits\": {}, \"recycle_misses\": {}, \"idle_wakeups\": {}, \
             \"rr_skips\": {}}},\n",
            self.pool.workers,
            self.pool.busy_workers,
            self.pool.idle_buffers,
            self.pool.recycle_hits,
            self.pool.recycle_misses,
            self.pool.idle_wakeups,
            self.pool.rr_skips,
        ));
        out.push_str(&format!("  \"folded_jobs\": {},\n", self.folded_jobs));
        out.push_str(&format!(
            "  \"folded_missed_jobs\": {},\n",
            self.folded_missed_jobs
        ));
        out.push_str(&format!(
            "  \"folded\": \"{}\"\n",
            super::render::json_escape(&self.folded)
        ));
        out.push_str("}\n");
        out
    }

    /// Human-readable rendering: stage table, contended-site table, pool
    /// line, and the ASCII flame tree.
    pub fn render_ascii(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str(&format!(
            "profile (enabled: {}, window: {PROFILE_WINDOW})\n\n",
            self.enabled
        ));
        out.push_str("stage      wall_us      cpu_us  samples  cpu/wall\n");
        for s in &self.stages {
            let ratio = if s.wall_us > 0 {
                s.cpu_us as f64 / s.wall_us as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<9} {:>9} {:>11} {:>8}  {ratio:>7.2}\n",
                s.stage, s.wall_us, s.cpu_us, s.samples
            ));
        }
        out.push('\n');
        if self.locks.is_empty() {
            out.push_str("lock contention: none observed\n");
        } else {
            out.push_str("contended lock sites (by total wait):\n");
            out.push_str("site                          acquires  contended   wait_us(sum/p99)   hold_us(p99)\n");
            for l in &self.locks {
                out.push_str(&format!(
                    "{:<29} {:>8} {:>10}  {:>9}/{:<9} {:>8}\n",
                    l.site, l.acquires, l.contended, l.wait_us.sum, l.wait_us.p99, l.hold_us.p99
                ));
            }
        }
        out.push_str(&format!(
            "\npool: {}/{} busy, {} idle buffers, recycle {}/{} hit/miss, \
             {} idle wakeups, {} rr skips\n\n",
            self.pool.busy_workers,
            self.pool.workers,
            self.pool.idle_buffers,
            self.pool.recycle_hits,
            self.pool.recycle_misses,
            self.pool.idle_wakeups,
            self.pool.rr_skips,
        ));
        out.push_str(&format!(
            "folded stacks from {} job(s), {} missed ({PROFILE_WINDOW}):\n",
            self.folded_jobs, self.folded_missed_jobs
        ));
        out.push_str(&render_flame_ascii(&self.folded));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::SpanIds;
    use super::*;
    use std::time::Instant;

    fn site(registry: &super::super::MetricsRegistry, name: &str) -> Arc<LockSiteObs> {
        registry.lock_site(name)
    }

    #[test]
    fn tracked_mutex_counts_uncontended_acquires() {
        let reg = super::super::MetricsRegistry::new();
        let m = TrackedMutex::new(site(&reg, "test.m"), 7u64);
        {
            let mut guard = m.lock();
            *guard += 1;
        }
        assert_eq!(*m.lock(), 8);
        if super::super::enabled() {
            let snap = m.site.snapshot();
            assert_eq!(snap.acquires, 2);
            assert_eq!(snap.contended, 0);
            assert_eq!(snap.hold_us.count, 2, "hold recorded on both drops");
        }
    }

    #[test]
    fn tracked_mutex_detects_contention() {
        if !super::super::enabled() {
            return;
        }
        let reg = super::super::MetricsRegistry::new();
        let m = Arc::new(TrackedMutex::new(site(&reg, "test.contended"), 0u64));
        let m2 = Arc::clone(&m);
        let guard = m.lock();
        let t = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g += 1;
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(guard);
        t.join().unwrap();
        let snap = m.site.snapshot();
        assert_eq!(snap.acquires, 2);
        assert_eq!(snap.contended, 1, "second acquire blocked");
        assert!(
            snap.wait_us.sum >= 10_000,
            "blocked ≥ 10ms, saw {}us",
            snap.wait_us.sum
        );
    }

    #[test]
    fn tracked_rwlock_reads_and_writes() {
        let reg = super::super::MetricsRegistry::new();
        let l = TrackedRwLock::new(site(&reg, "test.rw"), vec![1, 2, 3]);
        assert_eq!(l.read().len(), 3);
        l.write().push(4);
        assert_eq!(l.read().len(), 4);
        if super::super::enabled() {
            assert_eq!(l.site.snapshot().acquires, 3);
        }
    }

    #[test]
    fn tracked_condvar_records_wait_and_pauses_hold() {
        if !super::super::enabled() {
            return;
        }
        let reg = super::super::MetricsRegistry::new();
        let m = Arc::new(TrackedMutex::new(site(&reg, "test.cv.lock"), false));
        let cv = Arc::new(TrackedCondvar::new(site(&reg, "test.cv")));
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let waiter = std::thread::spawn(move || {
            let mut guard = m2.lock();
            while !*guard {
                cv2.wait(&mut guard);
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        *m.lock() = true;
        cv.notify_all();
        waiter.join().unwrap();
        let cv_snap = cv.site.snapshot();
        assert_eq!(cv_snap.contended, 0, "a condvar sleep is not contention");
        assert!(cv_snap.idle_wait_us >= 5_000, "slept ≥ 5ms");
        // The waiter held the lock across a 20ms sleep, but hold time
        // pauses during the wait — p99 hold must be far below the sleep.
        let lock_snap = m.site.snapshot();
        assert!(
            lock_snap.hold_us.max < 15_000,
            "hold timer paused during wait, saw {}us",
            lock_snap.hold_us.max
        );
    }

    #[test]
    fn condvar_wait_is_idle_not_contention() {
        if !super::super::enabled() {
            return;
        }
        let reg = super::super::MetricsRegistry::new();
        let m = Arc::new(TrackedMutex::new(site(&reg, "test.idle.lock"), false));
        let cv = Arc::new(TrackedCondvar::new(site(&reg, "test.idle")));
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        // This thread holds the lock until it sleeps on the condvar, so
        // the notifier's lock — and its 5 ms hold before notifying — both
        // fall inside the wait.
        let mut guard = m.lock();
        let notifier = std::thread::spawn(move || {
            let mut flag = m2.lock();
            std::thread::sleep(Duration::from_millis(5));
            *flag = true;
            cv2.notify_all();
        });
        while !*guard {
            cv.wait(&mut guard);
        }
        drop(guard);
        notifier.join().unwrap();
        let snap = cv.site.snapshot();
        assert_eq!(snap.contended, 0);
        assert_eq!(snap.wait_us.count, 0);
        assert!(
            snap.idle_wait_us >= 5_000,
            "idle wait {}us",
            snap.idle_wait_us
        );
        let agg = |name: &str| {
            reg.snapshot()
                .counters
                .into_iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| v)
        };
        assert!(agg("lock.idle_wait_us") >= 5_000);
        assert_eq!(agg("lock.wait_us"), 0, "no contended wait anywhere");
    }

    #[test]
    fn fold_job_reconciles_with_trace_and_counts_missed() {
        if !super::super::enabled() {
            return;
        }
        let obs = Obs::default();
        let tenant = obs.tenant("t");
        let root = SpanIds {
            trace: 1,
            span: obs.journal.next_span_id(),
            parent: 0,
        };
        let t0 = Instant::now();
        let us = Duration::from_micros;
        obs.journal
            .emit_span("job.begin", root, 9, 0, 0, 0, t0, Duration::ZERO);
        // convert over [100, 400], apply over [500, 1000], job wall 1000.
        for (stage, start, wall) in [(Stage::Convert, 100, 300), (Stage::Apply, 500, 500)] {
            let span = super::super::StageSpan {
                tenant: &tenant,
                job: 9,
                ids: root.child(obs.journal.next_span_id()),
                chunk: 0,
                value: 0,
            };
            obs.record_stage(stage, t0 + us(start), us(wall), None, span);
        }
        obs.journal
            .emit_span("job.end", root, 9, 0, 0, 0, t0, us(1000));
        obs.fold_job(9);
        assert_eq!(obs.fold.jobs.value(), 1);
        assert_eq!(obs.fold.missed_jobs.value(), 0);
        let folded = obs.folded_text();
        assert_eq!(
            folded,
            "job;acquisition;convert 300\njob;application;apply 500\njob;other 200\n"
        );

        // A job still open at fold time (no job.end) and a job whose
        // begin is gone are missed, not folded.
        let open = SpanIds {
            trace: 2,
            span: obs.journal.next_span_id(),
            parent: 0,
        };
        obs.journal
            .emit_span("job.begin", open, 10, 0, 0, 0, t0, Duration::ZERO);
        obs.fold_job(10);
        obs.fold_job(11);
        assert_eq!(obs.fold.jobs.value(), 1);
        assert_eq!(obs.fold.missed_jobs.value(), 2);
        assert_eq!(obs.folded_text(), folded, "missed jobs fold nothing");
    }

    #[test]
    fn flame_ascii_renders_tree() {
        let folded = "job;acquisition;convert 300\njob;application;apply 500\njob;other 200\n";
        let art = render_flame_ascii(folded);
        assert!(art.contains("flame: 1000us total"), "{art}");
        assert!(art.contains("job"), "{art}");
        assert!(art.contains("acquisition"), "{art}");
        assert!(art.contains("convert"), "{art}");
        assert!(art.contains("100.0%"), "{art}");
        let empty = render_flame_ascii("");
        assert!(empty.contains("empty"), "{empty}");
    }

    #[test]
    fn cpu_timer_is_monotone_or_absent() {
        let timer = CpuTimer::start();
        // Burn a little CPU so a working clock shows progress.
        let mut acc = 0u64;
        for i in 0..200_000u64 {
            acc = acc.wrapping_add(i * i);
        }
        std::hint::black_box(acc);
        match timer.elapsed() {
            Some(cpu) => assert!(cpu >= Duration::ZERO),
            None => assert!(
                !super::super::enabled() || !cfg!(target_os = "linux"),
                "linux obs build must expose the thread CPU clock"
            ),
        }
    }

    #[test]
    fn profile_report_json_shape() {
        let report = ProfileReport {
            enabled: true,
            stages: vec![StageCpuProfile {
                stage: "convert",
                wall_us: 100,
                cpu_us: 80,
                samples: 4,
            }],
            locks: vec![LockSiteSnapshot {
                site: "cdw.table/\"T\"".into(),
                acquires: 10,
                contended: 3,
                ..Default::default()
            }],
            pool: PoolProfile {
                workers: 4,
                busy_workers: 2,
                ..Default::default()
            },
            folded_jobs: 1,
            folded_missed_jobs: 2,
            folded: "job;other 5\n".into(),
        };
        let json = report.to_json();
        for needle in [
            "\"enabled\": true",
            "\"stage\": \"convert\"",
            "\"wall_us\": 100",
            "\"cpu_us\": 80",
            "\"site\": \"cdw.table/\\\"T\\\"\"",
            "\"contended\": 3",
            "\"pool\": {\"workers\": 4, \"busy_workers\": 2",
            "\"folded_jobs\": 1",
            "\"folded_missed_jobs\": 2",
            "\"window\": \"since node start\"",
            "\"idle_wait_us\": 0",
            "\"folded\": \"job;other 5\\n\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        let ascii = report.render_ascii();
        assert!(ascii.contains("convert"), "{ascii}");
        assert!(ascii.contains("cdw.table/\"T\""), "{ascii}");
        assert!(ascii.contains("flame:"), "{ascii}");
        assert!(ascii.contains("2 missed"), "{ascii}");
    }
}
