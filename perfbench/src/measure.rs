//! What a run collects, and the result line it prints.

use crate::stats::{median, p90};
use crate::trace::Tracer;
use ism_pgm::KernelStats;
use ism_runtime::PoolStats;
use std::path::PathBuf;
use std::time::Duration;

/// Operations attempted and failed. A check that finds a wrong output
/// fails its operation and clears `correct`; an operation that returns
/// an error fails without touching `correct`.
#[derive(Debug)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Checks {
    fn new() -> Self {
        Checks {
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }

    /// Counts one operation that completed.
    pub fn op(&mut self) {
        self.attempted += 1;
    }

    /// Counts one operation that returned an error.
    pub fn op_failed(&mut self, what: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("operation failed: {what}");
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.correct = false;
            if self.failed <= 10 {
                eprintln!("check failed: {}", what());
            }
        }
    }
}

/// Queries per block of `query_per_s`.
pub const QUERY_BLOCK: usize = 64;
/// One-visitor pushes per block of `annotate_seq_per_s`.
pub const PUSH_BLOCK: usize = 50;

/// End-to-end samples. Rates are kept per block of consecutive work and
/// reported as the median block, so a few slow seconds on a shared host
/// move them no more than they move a latency median.
#[derive(Debug, Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    pub train_s: Vec<f64>,
    /// Sequences annotated per second of ingest time, per block.
    pub annotate_rates: Vec<f64>,
    /// `(right, total)` record labels.
    pub region: (u64, u64),
    pub event: (u64, u64),
    pub queryable_ms: Vec<f64>,
    pub refresh_ms: Vec<f64>,
    pub prq_us: Vec<f64>,
    pub frpq_us: Vec<f64>,
    /// Queries per second of query time, per block.
    pub query_rates: Vec<f64>,
    query_block: (usize, f64),
    push_block: (usize, f64),
}

impl E2e {
    /// Records one timed one-shot query.
    pub fn query(&mut self, prq: bool, took: Duration) {
        let secs = took.as_secs_f64();
        if prq {
            self.prq_us.push(secs * 1e6);
        } else {
            self.frpq_us.push(secs * 1e6);
        }
        self.query_block = (self.query_block.0 + 1, self.query_block.1 + secs);
        if self.query_block.0 == QUERY_BLOCK {
            self.query_rates
                .push(QUERY_BLOCK as f64 / self.query_block.1);
            self.query_block = (0, 0.0);
        }
    }

    /// Records one visitor pushed and sealed in `ms`.
    pub fn pushed(&mut self, ms: f64) {
        self.queryable_ms.push(ms);
        self.push_block = (self.push_block.0 + 1, self.push_block.1 + ms / 1e3);
        if self.push_block.0 == PUSH_BLOCK {
            self.annotate_rates
                .push(PUSH_BLOCK as f64 / self.push_block.1);
            self.push_block = (0, 0.0);
        }
    }
}

/// Per-layer counters that do not come from spans.
#[derive(Debug, Default)]
pub struct Layers {
    /// Kernel counters accumulated over the engine's decodes only.
    pub kernel: KernelStats,
    pub decoded: u64,
    /// Pool counters accumulated over the workload's operations.
    pub pool: PoolStats,
    pub pool_ops: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub candidates: Vec<f64>,
    pub log_bytes: u64,
    pub logged_seals: u64,
    pub num_postings: usize,
    pub index_bytes: usize,
    pub snapshot_bytes: u64,
    pub replay_frames: usize,
}

impl Layers {
    /// Adds the kernel counters that moved between two snapshots.
    pub fn add_kernel(&mut self, before: &KernelStats, after: &KernelStats, sequences: u64) {
        self.kernel.rows_filled += after.rows_filled - before.rows_filled;
        self.kernel.rows_reused += after.rows_reused - before.rows_reused;
        self.decoded += sequences;
    }

    /// Adds the pool counters that moved between two snapshots.
    pub fn add_pool(&mut self, before: &PoolStats, after: &PoolStats, ops: u64) {
        self.pool.fanout_calls += after.fanout_calls - before.fanout_calls;
        self.pool.inline_calls += after.inline_calls - before.inline_calls;
        self.pool.async_tasks += after.async_tasks - before.async_tasks;
        self.pool.idle_wakeups += after.idle_wakeups - before.idle_wakeups;
        self.pool_ops += ops;
    }
}

/// Everything one workload run carries.
#[derive(Debug)]
pub struct Cx {
    pub seed: u64,
    pub seconds: f64,
    /// Engine (and training) threads.
    pub threads: usize,
    /// Prepared inputs (read only).
    pub inputs: PathBuf,
    /// Scratch files of this run.
    pub work: PathBuf,
    pub tracer: Tracer,
    pub checks: Checks,
    pub e2e: E2e,
    pub layers: Layers,
}

impl Cx {
    pub fn new(seed: u64, seconds: f64, inputs: PathBuf, work: PathBuf, trace: bool) -> Self {
        Cx {
            seed,
            seconds,
            threads: 1,
            inputs,
            work,
            tracer: Tracer::new(trace),
            checks: Checks::new(),
            e2e: E2e::default(),
            layers: Layers::default(),
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One named metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn required(name: &'static str, value: Option<f64>, unit: &'static str) -> Result<Metric, String> {
    match value {
        Some(value) if value.is_finite() => Ok(Metric { name, value, unit }),
        _ => Err(format!("no samples for {name}")),
    }
}

fn share(right: u64, total: u64) -> Option<f64> {
    (total > 0).then(|| right as f64 / total as f64)
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(e: &E2e, peak_rss: Option<f64>) -> Result<Vec<Metric>, String> {
    Ok(vec![
        required("setup_s", median(&e.setup_s), "s")?,
        required("peak_rss_mb", peak_rss, "MiB")?,
        required("train_s", median(&e.train_s), "s")?,
        required("annotate_seq_per_s", median(&e.annotate_rates), "seq/s")?,
        required("region_acc", share(e.region.0, e.region.1), "share")?,
        required("event_acc", share(e.event.0, e.event.1), "share")?,
        required("queryable_p50_ms", median(&e.queryable_ms), "ms")?,
        required("queryable_p90_ms", p90(&e.queryable_ms), "ms")?,
        required("refresh_p50_ms", median(&e.refresh_ms), "ms")?,
        required("prq_p50_us", median(&e.prq_us), "us")?,
        required("prq_p90_us", p90(&e.prq_us), "us")?,
        required("frpq_p50_us", median(&e.frpq_us), "us")?,
        required("frpq_p90_us", p90(&e.frpq_us), "us")?,
        required("query_per_s", median(&e.query_rates), "query/s")?,
    ])
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
/// `wall_s` is the wall time of the workload's steps (set-up excluded).
pub fn per_layer(cx: &Cx, wall_s: f64) -> Vec<Metric> {
    let t = &cx.tracer;
    let l = &cx.layers;
    let med = |span: &str, scale: f64| median(&t.durations(span)).map_or(0.0, |s| s * scale);
    let per_kop = |n: u64| {
        if l.pool_ops == 0 {
            0.0
        } else {
            n as f64 * 1000.0 / l.pool_ops as f64
        }
    };
    let per_seq = |n: u64| {
        if l.decoded == 0 {
            0.0
        } else {
            n as f64 / l.decoded as f64
        }
    };
    let lookups = l.cache_hits + l.cache_misses;
    let (steps, trace_only) = t.top_level_secs();
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("indoor.candidates_us", med("indoor.candidates", 1e6), "us"),
        m("cluster.stdbscan_us", med("cluster.stdbscan", 1e6), "us"),
        m(
            "c2mn.context_build_us",
            med("c2mn.context_build", 1e6),
            "us",
        ),
        m("c2mn.label_us", med("c2mn.label", 1e6), "us"),
        m(
            "c2mn.candidates_per_site",
            crate::stats::mean(&l.candidates).unwrap_or(0.0),
            "count",
        ),
        m("c2mn.train_iter_ms", med("c2mn.train_iter", 1e3), "ms"),
        m(
            "pgm.rows_filled",
            per_seq(l.kernel.rows_filled),
            "count/seq",
        ),
        m(
            "pgm.rows_reused",
            per_seq(l.kernel.rows_reused),
            "count/seq",
        ),
        m("pgm.row_reuse", l.kernel.reuse_rate(), "share"),
        m(
            "runtime.fanout_calls",
            per_kop(l.pool.fanout_calls),
            "count/kop",
        ),
        m(
            "runtime.inline_calls",
            per_kop(l.pool.inline_calls),
            "count/kop",
        ),
        m(
            "runtime.async_tasks",
            per_kop(l.pool.async_tasks),
            "count/kop",
        ),
        m(
            "runtime.idle_wakeups",
            per_kop(l.pool.idle_wakeups),
            "count/kop",
        ),
        m("engine.push_us", med("engine.push", 1e6), "us"),
        m("engine.flush_ms", med("engine.flush", 1e3), "ms"),
        m("engine.seal_ms", med("engine.seal", 1e3), "ms"),
        m("engine.open_s", med("engine.open", 1.0), "s"),
        m("engine.replay_frames", l.replay_frames as f64, "count"),
        m("engine.cache_hits", l.cache_hits as f64, "count"),
        m("engine.cache_misses", l.cache_misses as f64, "count"),
        m(
            "engine.cache_hit_rate",
            if lookups == 0 {
                0.0
            } else {
                l.cache_hits as f64 / lookups as f64
            },
            "share",
        ),
        m("queries.seal_ms", med("queries.seal", 1e3), "ms"),
        m(
            "queries.standing_fold_us",
            med("queries.standing_fold", 1e6),
            "us",
        ),
        m("queries.prq_us", med("queries.prq", 1e6), "us"),
        m("queries.frpq_us", med("queries.frpq", 1e6), "us"),
        m("queries.batch_ms", med("queries.batch", 1e3), "ms"),
        m("queries.num_postings", l.num_postings as f64, "count"),
        m("queries.index_bytes", l.index_bytes as f64, "B"),
        m(
            "codec.log_bytes_per_seal",
            if l.logged_seals == 0 {
                0.0
            } else {
                l.log_bytes as f64 / l.logged_seals as f64
            },
            "B",
        ),
        m("codec.snapshot_bytes", l.snapshot_bytes as f64, "B"),
        m(
            "trace.span_coverage",
            steps / (wall_s - trace_only).max(f64::MIN_POSITIVE),
            "share",
        ),
        m(
            "trace.overhead_share",
            trace_only / wall_s.max(f64::MIN_POSITIVE),
            "share",
        ),
    ]
}

/// The result line: one JSON object.
pub fn result_line(checks: &Checks, metrics: &[Metric]) -> String {
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
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.correct,
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let mut checks = Checks::new();
        checks.op();
        checks.check(true, String::new);
        let line = result_line(
            &checks,
            &[Metric {
                name: "setup_s",
                value: 0.25,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn rates_are_kept_per_block() {
        let mut e = E2e::default();
        for i in 0..2 * QUERY_BLOCK + 1 {
            // First block: 1 ms per query; second: 4 ms.
            let ms = if i < QUERY_BLOCK { 1 } else { 4 };
            e.query(i % 2 == 0, Duration::from_millis(ms));
        }
        assert_eq!(e.query_rates.len(), 2);
        assert!((e.query_rates[0] - 1000.0).abs() < 1e-6);
        assert!((e.query_rates[1] - 250.0).abs() < 1e-6);
        assert_eq!(e.prq_us.len() + e.frpq_us.len(), 2 * QUERY_BLOCK + 1);
        for _ in 0..PUSH_BLOCK {
            e.pushed(2.0);
        }
        assert_eq!(e.annotate_rates.len(), 1);
        assert!((e.annotate_rates[0] - 500.0).abs() < 1e-6);
    }

    #[test]
    fn failed_checks_clear_correct_but_failed_ops_do_not() {
        let mut checks = Checks::new();
        checks.op_failed("boom");
        assert!(checks.correct);
        checks.check(false, || "wrong".into());
        assert!(!checks.correct);
        assert_eq!((checks.attempted, checks.failed), (2, 2));
    }
}
