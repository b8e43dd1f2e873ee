//! Steps the workloads share: training, one-visitor pushes, output checks
//! and the traced run's repeated layer calls.

use crate::inputs::{model_config, Query};
use crate::measure::Cx;
use crate::oracle;
use ism_c2mn::{
    sequence_seed, BatchAnnotator, C2mn, DecodeScratch, SequenceContext, TrainControl, Trainer,
};
use ism_cluster::{StDbscan, StPoint};
use ism_engine::SemanticsEngine;
use ism_indoor::{IndoorSpace, RegionId};
use ism_mobility::{LabeledSequence, MobilitySemantics, PositioningRecord};
use ism_queries::{tk_frpq_sharded, tk_prq_sharded, QueryAnswer, QueryBatch};
use ism_runtime::WorkerPool;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::time::Instant;

/// Shards of every store the benchmark builds.
pub const SHARDS: usize = 8;

/// Threads the benchmark may use: `want`, capped at the host's.
pub fn threads(want: usize) -> usize {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    want.min(host).max(1)
}

/// One `Trainer` run on `pool`, timed as `train_s`; the intervals between
/// observer callbacks become `c2mn.train_iter` spans.
pub fn train<'v>(
    cx: &mut Cx,
    space: &'v IndoorSpace,
    train: &[LabeledSequence],
    pool: &WorkerPool,
) -> Result<C2mn<'v>, String> {
    let marks: RefCell<Vec<Instant>> = RefCell::new(Vec::new());
    let top = cx.tracer.begin("step.train");
    let start = Instant::now();
    let outcome = Trainer::new(space, model_config())
        .seed(crate::inputs::TRAIN_SEED)
        .pool(pool)
        .observer(|_| {
            marks.borrow_mut().push(Instant::now());
            TrainControl::Continue
        })
        .run(train);
    let took = start.elapsed();
    let mut last = start;
    for mark in marks.into_inner() {
        cx.tracer.interval("c2mn.train_iter", last, mark);
        last = mark;
    }
    cx.tracer.end(top);
    match outcome {
        Ok(outcome) => {
            cx.checks.op();
            cx.e2e.train_s.push(took.as_secs_f64());
            Ok(outcome.model)
        }
        Err(e) => {
            cx.checks.op_failed(&format!("training: {e}"));
            Err(format!("training failed: {e}"))
        }
    }
}

/// `Trainer` runs spread over the main loop of `live` and `query`, so
/// that `train_s` there is a median of samples taken across the run.
pub struct Retraining<'t> {
    train: &'t [LabeledSequence],
    pool: WorkerPool,
    /// Seconds of the loop the trainings spread over.
    span: f64,
    done: usize,
}

impl<'t> Retraining<'t> {
    /// Trainings per run.
    const RUNS: usize = 3;

    pub fn new(cx: &Cx, train: &'t [LabeledSequence], span: f64) -> Self {
        Retraining {
            train,
            pool: WorkerPool::new(cx.threads),
            span,
            done: 0,
        }
    }

    /// Trains once if the loop, `elapsed` seconds in, has passed the next
    /// of the marks at 1/4, 2/4 and 3/4 of its span.
    pub fn due(&mut self, cx: &mut Cx, space: &IndoorSpace, elapsed: f64) -> Result<(), String> {
        let mark = (self.done + 1) as f64 * self.span / (Self::RUNS + 1) as f64;
        if self.done < Self::RUNS && elapsed >= mark {
            train(cx, space, self.train, &self.pool)?;
            self.done += 1;
        }
        Ok(())
    }

    /// Runs the trainings a short loop did not reach.
    pub fn finish(mut self, cx: &mut Cx, space: &IndoorSpace) -> Result<(), String> {
        while self.done < Self::RUNS {
            train(cx, space, self.train, &self.pool)?;
            self.done += 1;
        }
        Ok(())
    }
}

/// Pushes one visitor's p-sequence, flushes and seals; returns how long
/// the visitor took to become queryable. Kernel and pool counters that
/// move are charged to the decode.
pub fn push_one(
    cx: &mut Cx,
    engine: &SemanticsEngine<'_>,
    object_id: u64,
    records: Vec<PositioningRecord>,
) -> f64 {
    let kernel = ism_pgm::kernel_stats();
    let pool = engine.pool_stats();
    let top = cx.tracer.begin("step.push_seal");
    let start = Instant::now();
    let mut session = engine.ingest();
    cx.tracer
        .leaf("engine.push", || session.push(object_id, records));
    cx.tracer.leaf("engine.flush", || session.flush());
    cx.tracer.leaf("engine.seal", || session.seal());
    let ms = start.elapsed().as_secs_f64() * 1e3;
    cx.tracer.end(top);
    cx.layers.add_kernel(&kernel, &ism_pgm::kernel_stats(), 1);
    cx.layers.add_pool(&pool, &engine.pool_stats(), 1);
    cx.checks.op();
    cx.e2e.pushed(ms);
    ms
}

/// The output checks of one decoded visitor, plus its accuracy: the
/// visitor is visible with periods inside its pushed span, every record
/// has exactly one label, and every label's region is plausible for the
/// record's position.
pub fn check_visitor(
    cx: &mut Cx,
    space: &IndoorSpace,
    seq: &LabeledSequence,
    object_id: u64,
    stored: Option<&[MobilitySemantics]>,
) {
    let top = cx.tracer.begin("step.check");
    let records: Vec<PositioningRecord> = seq.positioning().collect();
    let (first, last) = (records[0].t, records[records.len() - 1].t);
    let within = stored.is_some_and(|s| {
        !s.is_empty()
            && s.iter()
                .all(|ms| first <= ms.period.start && ms.period.end <= last)
    });
    cx.checks.check(within, || {
        format!(
            "visitor {object_id} not visible inside [{first}, {last}] after its seal: {stored:?}"
        )
    });
    let labels = oracle::record_labels(&records, stored.unwrap_or(&[]));
    let ok = labels.is_ok();
    cx.checks.check(ok, || {
        format!(
            "visitor {object_id}: {}",
            labels.as_ref().err().cloned().unwrap_or_default()
        )
    });
    if let Ok(labels) = labels {
        let radius = model_config().uncertainty_radius;
        let bad = records.iter().zip(&labels).position(|(r, &(region, _))| {
            !oracle::region_plausible(space, &r.location, region, radius)
        });
        cx.checks.check(bad.is_none(), || {
            format!("visitor {object_id}: record {bad:?} labelled with an implausible region")
        });
        for (truth, &(region, event)) in seq.records.iter().zip(&labels) {
            cx.e2e.region.0 += u64::from(truth.region == region);
            cx.e2e.event.0 += u64::from(truth.event == event);
        }
        cx.e2e.region.1 += labels.len() as u64;
        cx.e2e.event.1 += labels.len() as u64;
    }
    cx.tracer.end(top);
}

/// Checks that the engine's m-semantics for global sequence `index`
/// equal a one-thread `BatchAnnotator`'s with the same seeds.
pub fn check_against_batch(
    cx: &mut Cx,
    model: &C2mn<'_>,
    base_seed: u64,
    index: u64,
    records: &[PositioningRecord],
    stored: Option<&[MobilitySemantics]>,
) {
    let top = cx.tracer.begin("step.check");
    let reference =
        BatchAnnotator::new(model, 1, base_seed).annotate_batch_at(index, &[records.to_vec()]);
    cx.checks
        .check(stored == Some(reference[0].as_slice()), || {
            format!("sequence {index}: engine labels differ from the one-thread annotator")
        });
    cx.tracer.end(top);
}

/// Traced run only: repeats the decode path's layer calls on one
/// sequence, timing each.
pub fn trace_decode_layers(
    cx: &mut Cx,
    model: &C2mn<'_>,
    region_freq: &[f64],
    base_seed: u64,
    index: u64,
    records: &[PositioningRecord],
    scratch: &mut DecodeScratch,
) {
    if !cx.tracer.enabled() {
        return;
    }
    let space = model.space();
    let config = model.config();
    let top = cx.tracer.begin("trace.decode_layers");
    let mut out: Vec<RegionId> = Vec::new();
    for r in records {
        cx.tracer.leaf("indoor.candidates", || {
            space.candidate_regions(&r.location, config.uncertainty_radius, &mut out)
        });
    }
    let points: Vec<StPoint> = records
        .iter()
        .map(|r| StPoint::new(r.location.xy, r.t, r.location.floor))
        .collect();
    cx.tracer.leaf("cluster.stdbscan", || {
        StDbscan::new(config.dbscan).run(&points)
    });
    let ctx = cx.tracer.leaf("c2mn.context_build", || {
        SequenceContext::build(space, config, records, region_freq)
    });
    let sites: usize = ctx.candidates.iter().map(Vec::len).sum();
    cx.layers
        .candidates
        .push(sites as f64 / ctx.len().max(1) as f64);
    let mut rng = StdRng::seed_from_u64(sequence_seed(base_seed, index as usize));
    cx.tracer.leaf("c2mn.label", || {
        model.label_with(records, &mut rng, scratch)
    });
    cx.tracer.end(top);
}

/// Runs one dashboard refresh through the engine's cached query path,
/// timing each query and the refresh.
pub fn refresh(cx: &mut Cx, engine: &SemanticsEngine<'_>, queries: &[Query]) -> Vec<QueryAnswer> {
    let top = cx.tracer.begin("step.refresh");
    let mut total = 0.0;
    let answers = queries
        .iter()
        .map(|q| {
            let start = Instant::now();
            let answer = if q.prq {
                QueryAnswer::Prq(engine.tk_prq(&q.regions, q.k, q.qt))
            } else {
                QueryAnswer::Frpq(engine.tk_frpq(&q.regions, q.k, q.qt))
            };
            let took = start.elapsed();
            cx.e2e.query(q.prq, took);
            cx.checks.op();
            total += took.as_secs_f64();
            answer
        })
        .collect();
    cx.tracer.end(top);
    cx.e2e.refresh_ms.push(total * 1e3);
    answers
}

/// Traced run only: the same query straight through the sharded
/// evaluator, bypassing the engine's cache.
pub fn trace_query_layer(cx: &mut Cx, engine: &SemanticsEngine<'_>, q: &Query) {
    if !cx.tracer.enabled() {
        return;
    }
    let top = cx.tracer.begin("trace.query_layers");
    let store = engine.store();
    if q.prq {
        cx.tracer.leaf("queries.prq", || {
            tk_prq_sharded(&store, &q.regions, q.k, q.qt, engine.pool())
        });
    } else {
        cx.tracer.leaf("queries.frpq", || {
            tk_frpq_sharded(&store, &q.regions, q.k, q.qt, engine.pool())
        });
    }
    drop(store);
    cx.tracer.end(top);
}

/// Traced run only: one `QueryBatch` of `queries` over the engine's store.
pub fn trace_batch_layer(cx: &mut Cx, engine: &SemanticsEngine<'_>, queries: &[Query]) {
    if !cx.tracer.enabled() {
        return;
    }
    let mut batch = QueryBatch::new();
    for q in queries {
        if q.prq {
            batch.tk_prq(&q.regions, q.k, q.qt);
        } else {
            batch.tk_frpq(&q.regions, q.k, q.qt);
        }
    }
    let top = cx.tracer.begin("trace.query_layers");
    let store = engine.store();
    cx.tracer
        .leaf("queries.batch", || batch.run(&store, engine.pool()));
    drop(store);
    cx.tracer.end(top);
}

/// Checks an engine answer against the brute-force evaluator over the
/// engine's sealed store.
pub fn check_answer(
    cx: &mut Cx,
    engine: &SemanticsEngine<'_>,
    q: &Query,
    answer: &QueryAnswer,
    what: &str,
) {
    let top = cx.tracer.begin("step.check");
    let store = engine.store();
    let ok = match answer {
        QueryAnswer::Prq(got) => {
            q.prq && *got == oracle::tk_prq(store.iter(), &q.regions, q.k, q.qt)
        }
        QueryAnswer::Frpq(got) => {
            !q.prq && *got == oracle::tk_frpq(store.iter(), &q.regions, q.k, q.qt)
        }
    };
    drop(store);
    cx.checks.check(ok, || {
        format!("{what}: engine answer differs from brute force for {q:?}")
    });
    cx.tracer.end(top);
}

/// Records the cache counters of an engine that is about to go away.
pub fn note_cache(cx: &mut Cx, engine: &SemanticsEngine<'_>, before: ism_engine::CacheStats) {
    let after = engine.cache_stats();
    cx.layers.cache_hits += after.hits - before.hits;
    cx.layers.cache_misses += after.misses - before.misses;
}

/// Records the store's size counters.
pub fn note_store(cx: &mut Cx, engine: &SemanticsEngine<'_>) {
    let store = engine.store();
    cx.layers.num_postings = store.num_postings();
    cx.layers.index_bytes = store.index_bytes();
}

/// Size of a file, 0 when absent.
pub fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
