//! `query`: ad-hoc TkPRQ and TkFRPQ over a large stored day.
//!
//! Set-up reopens a 1-thread engine from the snapshot of a 50k-visitor
//! day. One client then issues a stream of queries through the engine's
//! result cache, 8 to a dashboard refresh: varied region sets, windows
//! from 15 min to 4 h, varied k, one query in four repeating a recent
//! one. Nothing is written while queries run, so nothing invalidates the
//! cache. Every 32nd answer is checked against brute force afterwards.
//!
//! Three retraining runs at 1/4, 2/4 and 3/4 of the query phase pause
//! the client; they touch no store. The query phase takes 70% of the
//! run's time; a tail then pushes late visitors one at a time into the
//! same store, sealing after each, for the remaining 30%.

use crate::common::{self, SHARDS};
use crate::inputs::{self, load_sequences, PUSH_ID_BASE};
use crate::measure::Cx;
use crate::measure::PUSH_BLOCK;
use crate::prepare::Manifest;
use ism_c2mn::DecodeScratch;
use ism_engine::{log_path, EngineBuilder};
use ism_mobility::PositioningRecord;
use std::time::Instant;

const SETUP_REPEATS: usize = 3;
/// Share of the run's time given to queries; the tail of late visitors
/// gets the rest.
const QUERY_SHARE: f64 = 0.7;
/// Queries per round: 8 refreshes of 8.
const ROUND: usize = 64;
/// Every this many answers is kept for the brute-force check.
const CHECK_EVERY: usize = 32;
/// Traced run: every this many queries also runs through the sharded
/// evaluator, and every this many refreshes as one `QueryBatch`.
const TRACE_EVERY: usize = 8;
const TRACE_REFRESH_EVERY: usize = 8;
/// Every this many late arrivals is compared with a one-thread annotator.
const SAMPLE_EVERY: usize = 20;

pub fn run(cx: &mut Cx) -> Result<(), String> {
    let manifest = Manifest::load(&cx.inputs)?;
    let train = load_sequences(&cx.inputs.join("train.bin"))?;
    let late = load_sequences(&cx.inputs.join("late.bin"))?;
    let space = inputs::venue();
    let path = cx.work.join("query.ism");
    for (from, to) in [
        ("query.ism", path.clone()),
        ("query.ism.log", log_path(&path)),
    ] {
        std::fs::copy(cx.inputs.join(from), &to).map_err(|e| format!("copy {from}: {e}"))?;
    }
    cx.layers.snapshot_bytes = common::file_len(&path);

    // Set-up: reopen the stored day.
    let mut opened = None;
    for _ in 0..SETUP_REPEATS {
        drop(opened.take());
        let start = Instant::now();
        let open = cx.tracer.begin("engine.open");
        let result = EngineBuilder::new().threads(cx.threads).open(&path, &space);
        cx.tracer.end(open);
        cx.e2e.setup_s.push(start.elapsed().as_secs_f64());
        opened = Some(result.map_err(|e| format!("open query snapshot: {e}"))?);
    }
    let (engine, report) = opened.expect("set-up ran");
    cx.layers.replay_frames = report.replayed_frames;
    cx.checks.check(
        engine.num_objects() == manifest.objects
            && report.next_sequence_index == manifest.next_index
            && engine.num_shards() == SHARDS,
        || {
            format!(
                "reopened query engine: {} objects / next {} vs saved {:?}",
                engine.num_objects(),
                report.next_sequence_index,
                manifest
            )
        },
    );
    common::note_store(cx, &engine);

    let mut stream = inputs::QueryStream::new(&space, inputs::rng(cx.seed, 300), None);
    let cache = engine.cache_stats();
    let pool = engine.pool_stats();
    let mut kept = Vec::new();
    let mut issued = 0usize;
    let mut retraining = common::Retraining::new(cx, &train, QUERY_SHARE * cx.seconds);
    cx.tracer.mark();
    let start = Instant::now();
    let mut round = 0u64;
    while round == 0 || start.elapsed().as_secs_f64() < QUERY_SHARE * cx.seconds {
        for _ in 0..ROUND / inputs::REFRESH {
            let queries = stream.take(inputs::REFRESH);
            let answers = common::refresh(cx, &engine, &queries);
            if (issued / inputs::REFRESH).is_multiple_of(TRACE_REFRESH_EVERY) {
                common::trace_batch_layer(cx, &engine, &queries);
            }
            for (q, answer) in queries.into_iter().zip(answers) {
                if issued.is_multiple_of(TRACE_EVERY) {
                    common::trace_query_layer(cx, &engine, &q);
                }
                if issued.is_multiple_of(CHECK_EVERY) {
                    kept.push((q, answer));
                }
                issued += 1;
            }
        }
        round += 1;
        retraining.due(cx, &space, start.elapsed().as_secs_f64())?;
    }
    retraining.finish(cx, &space)?;
    cx.layers
        .add_pool(&pool, &engine.pool_stats(), issued as u64);
    common::note_cache(cx, &engine, cache);
    for (q, answer) in &kept {
        common::check_answer(cx, &engine, q, answer, "ad-hoc query");
    }

    // Tail: late visitors pushed one at a time, in blocks of
    // `PUSH_BLOCK`, for the rest of the run's time.
    let region_freq = engine.model().snapshot().region_freq;
    let mut scratch = DecodeScratch::new();
    let log_start = common::file_len(&log_path(&path));
    let tail = Instant::now();
    let mut pushed = 0usize;
    while pushed == 0 || tail.elapsed().as_secs_f64() < (1.0 - QUERY_SHARE) * cx.seconds {
        for _ in 0..PUSH_BLOCK {
            let seq = &late[pushed % late.len()];
            let object_id = PUSH_ID_BASE + pushed as u64;
            let index = report.next_sequence_index + pushed as u64;
            let records: Vec<PositioningRecord> = seq.positioning().collect();
            common::push_one(cx, &engine, object_id, records.clone());
            let stored = engine.semantics_of(object_id);
            common::check_visitor(cx, &space, seq, object_id, stored.as_deref());
            if pushed.is_multiple_of(SAMPLE_EVERY) {
                common::check_against_batch(
                    cx,
                    engine.model(),
                    engine.base_seed(),
                    index,
                    &records,
                    stored.as_deref(),
                );
                common::trace_decode_layers(
                    cx,
                    engine.model(),
                    &region_freq,
                    engine.base_seed(),
                    index,
                    &records,
                    &mut scratch,
                );
            }
            pushed += 1;
        }
    }
    cx.layers.log_bytes += common::file_len(&log_path(&path)) - log_start;
    cx.layers.logged_seals += pushed as u64;
    Ok(())
}
