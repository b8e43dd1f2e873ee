//! `backfill`: retrain, then re-annotate a day of mall traffic.
//!
//! Each round trains a model (`Trainer`, scaled-down MCMC) on labelled
//! sequences, pushes the day's ~100-record p-sequences into a fresh
//! 2-thread engine through one `IngestSession`, seals once, and checks
//! what it stored: every visitor's labels, a sample against a one-thread
//! `BatchAnnotator`, a dashboard of queries against brute force, and a
//! snapshot reopened from disk. Rounds repeat until the run's time is up.

use crate::common::{self, SHARDS};
use crate::inputs::{self, load_sequences};
use crate::measure::Cx;
use ism_c2mn::{C2mn, DecodeScratch, Weights};
use ism_engine::EngineBuilder;
use ism_indoor::IndoorSpace;
use ism_mobility::{LabeledSequence, PositioningRecord};
use ism_queries::{QueryAnswer, ShardedSemanticsStore, StandingTkFrpq, StandingTkPrq};
use ism_runtime::WorkerPool;
use std::time::Instant;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Dashboard refreshes run over each backfilled day.
const VERIFY_REFRESHES: usize = 128;
/// Every this many dashboard answers is checked against brute force.
const CHECK_EVERY: usize = 4;
/// Every this many sequences is compared with a one-thread annotator.
const SAMPLE_EVERY: usize = 50;
/// Traced run: every this many sequences has its decode layers timed,
/// and every this many refreshes runs again as one `QueryBatch`.
const TRACE_EVERY: usize = 10;

pub fn run(cx: &mut Cx) -> Result<(), String> {
    let train = load_sequences(&cx.inputs.join("train.bin"))?;
    let day = load_sequences(&cx.inputs.join("day.bin"))?;
    let threads = cx.threads;

    // Set-up: the venue and an engine around it.
    let mut space = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let venue = inputs::venue();
        let model = C2mn::from_weights(&venue, inputs::model_config(), Weights::uniform(0.5));
        let engine = EngineBuilder::new()
            .threads(threads)
            .shards(SHARDS)
            .build(model)
            .map_err(|e| format!("engine build: {e}"))?;
        cx.e2e.setup_s.push(start.elapsed().as_secs_f64());
        drop(engine);
        space = Some(venue);
    }
    let space = space.expect("set-up ran");

    cx.tracer.mark();
    let start = Instant::now();
    let mut round = 0u64;
    while round == 0 || start.elapsed().as_secs_f64() < cx.seconds {
        one_round(cx, &space, &train, &day, threads, round)?;
        round += 1;
    }
    Ok(())
}

fn one_round(
    cx: &mut Cx,
    space: &IndoorSpace,
    train: &[LabeledSequence],
    day: &[LabeledSequence],
    threads: usize,
    round: u64,
) -> Result<(), String> {
    let pool = WorkerPool::new(threads);
    let model = common::train(cx, space, train, &pool)?;
    drop(pool);
    let base_seed = cx.seed ^ round;
    let engine = EngineBuilder::new()
        .threads(threads)
        .shards(SHARDS)
        .base_seed(base_seed)
        .build(model)
        .map_err(|e| format!("engine build: {e}"))?;

    // Ingest: every sequence pushed, one seal.
    let batch: Vec<(u64, Vec<PositioningRecord>)> = day
        .iter()
        .map(|s| (s.object_id, s.positioning().collect()))
        .collect();
    let kernel = ism_pgm::kernel_stats();
    let pool_before = engine.pool_stats();
    let mut pushed_at = Vec::with_capacity(batch.len());
    let top = cx.tracer.begin("step.ingest");
    let ingest_start = Instant::now();
    let mut session = engine.ingest();
    for (object_id, records) in batch {
        pushed_at.push(ingest_start.elapsed().as_secs_f64());
        cx.tracer
            .leaf("engine.push", || session.push(object_id, records));
    }
    cx.tracer.leaf("engine.flush", || session.flush());
    cx.tracer.leaf("engine.seal", || session.seal());
    let sealed = ingest_start.elapsed().as_secs_f64();
    cx.tracer.end(top);
    cx.layers
        .add_kernel(&kernel, &ism_pgm::kernel_stats(), day.len() as u64);
    cx.layers
        .add_pool(&pool_before, &engine.pool_stats(), day.len() as u64);
    cx.e2e.annotate_rates.push(day.len() as f64 / sealed);
    for at in pushed_at {
        cx.e2e.queryable_ms.push((sealed - at) * 1e3);
        cx.checks.op();
    }

    // What the seal published.
    let region_freq = engine.model().snapshot().region_freq;
    let mut scratch = DecodeScratch::new();
    for (i, seq) in day.iter().enumerate() {
        let stored = engine.semantics_of(seq.object_id);
        common::check_visitor(cx, space, seq, seq.object_id, stored.as_deref());
        if i % SAMPLE_EVERY == 0 {
            let records: Vec<PositioningRecord> = seq.positioning().collect();
            common::check_against_batch(
                cx,
                engine.model(),
                base_seed,
                i as u64,
                &records,
                stored.as_deref(),
            );
        }
        if i % TRACE_EVERY == 0 {
            let records: Vec<PositioningRecord> = seq.positioning().collect();
            common::trace_decode_layers(
                cx,
                engine.model(),
                &region_freq,
                base_seed,
                i as u64,
                &records,
                &mut scratch,
            );
        }
    }

    // The dashboard over the backfilled day.
    let mut stream = inputs::QueryStream::new(space, inputs::rng(cx.seed, 100 + round), None);
    let cache = engine.cache_stats();
    let mut kept = Vec::new();
    for r in 0..VERIFY_REFRESHES {
        let queries = stream.take(inputs::REFRESH);
        let answers = common::refresh(cx, &engine, &queries);
        if r % TRACE_EVERY == 0 {
            common::trace_batch_layer(cx, &engine, &queries);
        }
        kept.extend(queries.into_iter().zip(answers).step_by(CHECK_EVERY));
    }
    common::note_cache(cx, &engine, cache);
    for (q, answer) in &kept {
        common::check_answer(cx, &engine, q, answer, "backfill dashboard");
        common::trace_query_layer(cx, &engine, q);
    }
    common::note_store(cx, &engine);
    trace_seal_layers(cx, &engine, &kept);

    // Persist the day and reopen it.
    let top = cx.tracer.begin("step.persist");
    let path = cx.work.join("backfill.ism");
    engine
        .save_snapshot(&path)
        .map_err(|e| format!("save snapshot: {e}"))?;
    cx.layers.snapshot_bytes = common::file_len(&path);
    let open = cx.tracer.begin("engine.open");
    let reopened = EngineBuilder::new().threads(threads).open(&path, space);
    cx.tracer.end(open);
    cx.tracer.end(top);
    match reopened {
        Ok((again, report)) => {
            cx.checks.op();
            cx.layers.replay_frames = report.replayed_frames;
            let same = again.num_objects() == engine.num_objects()
                && report.next_sequence_index == engine.sequences_ingested();
            cx.checks.check(same, || {
                format!(
                    "reopened backfill: {} objects / next {} vs saved {} / {}",
                    again.num_objects(),
                    report.next_sequence_index,
                    engine.num_objects(),
                    engine.sequences_ingested()
                )
            });
        }
        Err(e) => cx.checks.op_failed(&format!("reopen backfill: {e}")),
    }
    Ok(())
}

/// Traced run only: the seal's store merge and standing-query fold,
/// repeated on a replica store fed the same entries.
fn trace_seal_layers(
    cx: &mut Cx,
    engine: &ism_engine::SemanticsEngine<'_>,
    queries: &[(inputs::Query, QueryAnswer)],
) {
    if !cx.tracer.enabled() {
        return;
    }
    let Some((prq, _)) = queries.iter().find(|(q, _)| q.prq) else {
        return;
    };
    let Some((frpq, _)) = queries.iter().find(|(q, _)| !q.prq) else {
        return;
    };
    let mut replica = ShardedSemanticsStore::new(SHARDS);
    let mut standing_prq = StandingTkPrq::new(&prq.regions, prq.k, prq.qt, &replica, engine.pool());
    let mut standing_frpq =
        StandingTkFrpq::new(&frpq.regions, frpq.k, frpq.qt, &replica, engine.pool());
    for (object_id, semantics) in engine.store().iter() {
        replica.append(object_id, semantics.to_vec());
    }
    let top = cx.tracer.begin("trace.seal_layers");
    let summary = cx.tracer.leaf("queries.seal", || {
        replica.seal_summarized_with(engine.pool())
    });
    cx.tracer.leaf("queries.standing_fold", || {
        standing_prq.observe_seal(&summary)
    });
    cx.tracer.leaf("queries.standing_fold", || {
        standing_frpq.observe_seal(&summary)
    });
    cx.tracer.end(top);
}
