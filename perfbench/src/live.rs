//! `live`: one client pushes visitors into a reopened 1-thread engine.
//!
//! Set-up reopens the engine from a snapshot of a stored day plus its
//! seal log and registers a standing TkPRQ and TkFRPQ. The client then
//! pushes one visitor's last ~15 records at a time, seals after each,
//! reads both standing results, and every 10 pushes refreshes a dashboard
//! of 8 ad-hoc queries through the engine's result cache. Every 500
//! pushes the standing results and the last refresh are checked against
//! brute force. Three retraining runs at 1/4, 2/4 and 3/4 of the run
//! pause the client.

use crate::common;
use crate::inputs::{self, load_sequences, Query, DAY, PUSH_ID_BASE};
use crate::measure::Cx;
use crate::prepare::Manifest;
use ism_c2mn::DecodeScratch;
use ism_engine::{log_path, EngineBuilder, SemanticsEngine, StandingQueryId};
use ism_indoor::IndoorSpace;
use ism_mobility::{PositioningRecord, TimePeriod};
use ism_queries::{QueryAnswer, ShardedSemanticsStore, StandingTkFrpq, StandingTkPrq};
use ism_runtime::WorkerPool;
use std::time::Instant;

const SETUP_REPEATS: usize = 3;
/// Pushes per round; a round also holds 5 dashboard refreshes.
const ROUND: usize = 50;
const REFRESH_EVERY: u64 = 10;
/// Rounds between brute-force checkpoints.
const CHECKPOINT_ROUNDS: u64 = 10;
/// Every this many pushes is compared with a one-thread annotator.
const SAMPLE_EVERY: u64 = 100;
/// Traced run: every this many pushes has its decode layers timed, and
/// every this many refreshes its query layers.
const TRACE_EVERY: u64 = 10;
const TRACE_REFRESH_EVERY: u64 = 5;

/// The standing queries: all shops over the last 4 hours of the day.
fn standing(space: &IndoorSpace) -> (Query, Query) {
    let shops = inputs::shops(space);
    let qt = TimePeriod::new(DAY - 4.0 * 3600.0, DAY);
    let prq = Query {
        prq: true,
        regions: shops.clone(),
        k: 10,
        qt,
    };
    let floor0: Vec<_> = shops
        .into_iter()
        .filter(|&r| space.region(r).floor == 0)
        .collect();
    let frpq = Query {
        prq: false,
        regions: floor0,
        k: 10,
        qt,
    };
    (prq, frpq)
}

struct Replica {
    store: ShardedSemanticsStore,
    prq: StandingTkPrq,
    frpq: StandingTkFrpq,
}

pub fn run(cx: &mut Cx) -> Result<(), String> {
    let manifest = Manifest::load(&cx.inputs)?;
    let pushes = load_sequences(&cx.inputs.join("pushes.bin"))?;
    let train = load_sequences(&cx.inputs.join("train.bin"))?;
    let space = inputs::venue();
    let path = cx.work.join("live.ism");
    for (from, to) in [
        ("live.ism", path.clone()),
        ("live.ism.log", log_path(&path)),
    ] {
        std::fs::copy(cx.inputs.join(from), &to).map_err(|e| format!("copy {from}: {e}"))?;
    }
    let (sprq, sfrpq) = standing(&space);
    cx.layers.snapshot_bytes = common::file_len(&path);

    // Set-up: reopen, replay the log, register the standing queries.
    let mut opened = None;
    for _ in 0..SETUP_REPEATS {
        drop(opened.take());
        let start = Instant::now();
        let open = cx.tracer.begin("engine.open");
        let result = EngineBuilder::new().threads(cx.threads).open(&path, &space);
        cx.tracer.end(open);
        let (engine, report) = result.map_err(|e| format!("open live snapshot: {e}"))?;
        let ids = (
            engine.standing_tk_prq(&sprq.regions, sprq.k, sprq.qt),
            engine.standing_tk_frpq(&sfrpq.regions, sfrpq.k, sfrpq.qt),
        );
        cx.e2e.setup_s.push(start.elapsed().as_secs_f64());
        cx.layers.replay_frames = report.replayed_frames;
        opened = Some((engine, report, ids));
    }
    let (engine, report, (prq_id, frpq_id)) = opened.expect("set-up ran");
    cx.checks.check(
        engine.num_objects() == manifest.objects
            && report.next_sequence_index == manifest.next_index,
        || {
            format!(
                "reopened live engine: {} objects / next {} vs saved {:?}",
                engine.num_objects(),
                report.next_sequence_index,
                manifest
            )
        },
    );

    let mut replica = cx.tracer.enabled().then(|| {
        let store = engine.store().clone();
        let prq = StandingTkPrq::new(&sprq.regions, sprq.k, sprq.qt, &store, engine.pool());
        let frpq = StandingTkFrpq::new(&sfrpq.regions, sfrpq.k, sfrpq.qt, &store, engine.pool());
        Replica { store, prq, frpq }
    });
    let mut dashboard = inputs::QueryStream::new(&space, inputs::rng(cx.seed, 200), Some(DAY));
    let region_freq = engine.model().snapshot().region_freq;
    let base_seed = engine.base_seed();
    let mut scratch = DecodeScratch::new();
    let log_start = common::file_len(&log_path(&path));
    let cache = engine.cache_stats();

    let mut retraining = common::Retraining::new(cx, &train, cx.seconds);
    cx.tracer.mark();
    let start = Instant::now();
    let mut pushed = 0u64;
    let mut refreshes = 0u64;
    let mut last_refresh = Vec::new();
    let mut round = 0u64;
    while round == 0 || start.elapsed().as_secs_f64() < cx.seconds {
        for _ in 0..ROUND {
            let seq = &pushes[pushed as usize % pushes.len()];
            let object_id = PUSH_ID_BASE + pushed;
            let index = report.next_sequence_index + pushed;
            let records: Vec<PositioningRecord> = seq.positioning().collect();
            common::push_one(cx, &engine, object_id, records.clone());
            let reads = cx.tracer.begin("step.standing_read");
            let standing_prq = engine.standing_prq_result(prq_id);
            let standing_frpq = engine.standing_frpq_result(frpq_id);
            cx.tracer.end(reads);
            cx.checks
                .check(standing_prq.is_some() && standing_frpq.is_some(), || {
                    "standing query vanished".into()
                });

            let stored = engine.semantics_of(object_id);
            common::check_visitor(cx, &space, seq, object_id, stored.as_deref());
            if pushed.is_multiple_of(SAMPLE_EVERY) {
                common::check_against_batch(
                    cx,
                    engine.model(),
                    base_seed,
                    index,
                    &records,
                    stored.as_deref(),
                );
            }
            if pushed.is_multiple_of(TRACE_EVERY) {
                common::trace_decode_layers(
                    cx,
                    engine.model(),
                    &region_freq,
                    base_seed,
                    index,
                    &records,
                    &mut scratch,
                );
            }
            if let (Some(r), Some(stored)) = (replica.as_mut(), stored) {
                trace_seal_layers(cx, r, engine.pool(), object_id, stored);
            }
            pushed += 1;

            if pushed.is_multiple_of(REFRESH_EVERY) {
                let queries = dashboard.take(inputs::REFRESH);
                let answers = common::refresh(cx, &engine, &queries);
                if refreshes.is_multiple_of(TRACE_REFRESH_EVERY) {
                    common::trace_batch_layer(cx, &engine, &queries);
                    for q in &queries {
                        common::trace_query_layer(cx, &engine, q);
                    }
                }
                last_refresh = queries.into_iter().zip(answers).collect();
                refreshes += 1;
            }
        }
        round += 1;
        retraining.due(cx, &space, start.elapsed().as_secs_f64())?;
        if round.is_multiple_of(CHECKPOINT_ROUNDS) {
            checkpoint(
                cx,
                &engine,
                (prq_id, frpq_id),
                (&sprq, &sfrpq),
                &last_refresh,
            );
        }
    }
    checkpoint(
        cx,
        &engine,
        (prq_id, frpq_id),
        (&sprq, &sfrpq),
        &last_refresh,
    );
    cx.layers.log_bytes += common::file_len(&log_path(&path)) - log_start;
    cx.layers.logged_seals += pushed;
    common::note_cache(cx, &engine, cache);
    common::note_store(cx, &engine);
    drop(engine);

    retraining.finish(cx, &space)?;
    Ok(())
}

/// Brute-force checks of the standing results and the last refresh.
fn checkpoint(
    cx: &mut Cx,
    engine: &SemanticsEngine<'_>,
    ids: (StandingQueryId, StandingQueryId),
    standing: (&Query, &Query),
    last_refresh: &[(Query, QueryAnswer)],
) {
    if let Some(prq) = engine.standing_prq_result(ids.0) {
        common::check_answer(
            cx,
            engine,
            standing.0,
            &QueryAnswer::Prq(prq),
            "standing TkPRQ",
        );
    }
    if let Some(frpq) = engine.standing_frpq_result(ids.1) {
        common::check_answer(
            cx,
            engine,
            standing.1,
            &QueryAnswer::Frpq(frpq),
            "standing TkFRPQ",
        );
    }
    for (q, answer) in last_refresh {
        common::check_answer(cx, engine, q, answer, "live dashboard");
    }
}

/// Traced run only: the seal's store merge and standing-query fold,
/// repeated on a replica store fed the pushed visitor's entries.
fn trace_seal_layers(
    cx: &mut Cx,
    r: &mut Replica,
    pool: &WorkerPool,
    object_id: u64,
    stored: Vec<ism_mobility::MobilitySemantics>,
) {
    let top = cx.tracer.begin("trace.seal_layers");
    r.store.append(object_id, stored);
    let summary = cx
        .tracer
        .leaf("queries.seal", || r.store.seal_summarized_with(pool));
    cx.tracer
        .leaf("queries.standing_fold", || r.prq.observe_seal(&summary));
    cx.tracer
        .leaf("queries.standing_fold", || r.frpq.observe_seal(&summary));
    cx.tracer.end(top);
}
