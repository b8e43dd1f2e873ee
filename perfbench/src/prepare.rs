//! Input preparation, run in a process of its own so that building the
//! stored days never counts toward a workload's memory or time.

use crate::common::{self, SHARDS};
use crate::inputs::{self, save_sequences, DAY, PUSH_ID_BASE};
use ism_c2mn::Trainer;
use ism_engine::EngineBuilder;
use ism_indoor::IndoorSpace;
use ism_queries::ShardedStoreBuilder;
use ism_runtime::WorkerPool;
use std::path::Path;

/// What a saved engine held, for the reopen check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    pub objects: usize,
    pub next_index: u64,
}

impl Manifest {
    fn to_text(self) -> String {
        format!("objects {}\nnext_index {}\n", self.objects, self.next_index)
    }

    fn parse(text: &str) -> Result<Manifest, String> {
        let field = |name: &str| -> Result<u64, String> {
            text.lines()
                .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
                .ok_or(format!("manifest lacks {name}"))
        };
        Ok(Manifest {
            objects: field("objects ")? as usize,
            next_index: field("next_index ")?,
        })
    }

    pub fn save(&self, dir: &Path) -> Result<(), String> {
        std::fs::write(dir.join("manifest.txt"), self.to_text())
            .map_err(|e| format!("manifest: {e}"))
    }

    pub fn load(dir: &Path) -> Result<Manifest, String> {
        Manifest::parse(
            &std::fs::read_to_string(dir.join("manifest.txt"))
                .map_err(|e| format!("manifest: {e}"))?,
        )
    }
}

/// Writes the inputs of `workload` for `seed` into `dir`.
pub fn prepare(workload: &str, seed: u64, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let space = inputs::venue();
    let io = |e: std::io::Error| e.to_string();
    let train = inputs::train_set(&space);
    save_sequences(&dir.join("train.bin"), &train).map_err(io)?;
    match workload {
        "backfill" => {
            let day =
                inputs::long_traffic(&space, inputs::BACKFILL_SEQS, 0, &mut inputs::rng(seed, 2));
            save_sequences(&dir.join("day.bin"), &day).map_err(io)?;
        }
        "live" => {
            let manifest = stored_day(
                &space,
                &train,
                seed,
                inputs::LIVE_VISITORS,
                &dir.join("live.ism"),
                true,
            )?;
            manifest.save(dir)?;
            let pushes = inputs::short_traffic(
                &space,
                inputs::LIVE_PUSHES,
                PUSH_ID_BASE,
                DAY - 7200.0,
                &mut inputs::rng(seed, 5),
            );
            save_sequences(&dir.join("pushes.bin"), &pushes).map_err(io)?;
        }
        "query" => {
            let manifest = stored_day(
                &space,
                &train,
                seed,
                inputs::QUERY_VISITORS,
                &dir.join("query.ism"),
                false,
            )?;
            manifest.save(dir)?;
            let late = inputs::short_traffic(
                &space,
                inputs::LATE_PUSHES,
                PUSH_ID_BASE,
                DAY - 7200.0,
                &mut inputs::rng(seed, 6),
            );
            save_sequences(&dir.join("late.bin"), &late).map_err(io)?;
        }
        other => return Err(format!("unknown workload `{other}`")),
    }
    Ok(())
}

/// Trains a model, stores a generated day of `visitors` under it, and
/// saves the engine at `path`. With `log`, a morning of visitors is then
/// decoded and sealed in small batches, leaving a seal log to replay.
fn stored_day(
    space: &IndoorSpace,
    train: &[ism_mobility::LabeledSequence],
    seed: u64,
    visitors: usize,
    path: &Path,
    log: bool,
) -> Result<Manifest, String> {
    let threads = common::threads(2);
    let pool = WorkerPool::new(threads);
    let model = Trainer::new(space, inputs::model_config())
        .seed(inputs::TRAIN_SEED)
        .pool(&pool)
        .run(train)
        .map_err(|e| format!("training: {e}"))?
        .model;
    drop(pool);
    let mut builder = ShardedStoreBuilder::new(SHARDS);
    for (object_id, semantics) in inputs::day_store(space, visitors, &mut inputs::rng(seed, 3)) {
        builder.insert(object_id, semantics);
    }
    let engine = EngineBuilder::new()
        .threads(threads)
        .shards(SHARDS)
        .base_seed(seed)
        .initial_store(builder.build())
        .build(model)
        .map_err(|e| format!("engine build: {e}"))?;
    engine
        .save_snapshot(path)
        .map_err(|e| format!("save snapshot: {e}"))?;
    if log {
        let morning = inputs::short_traffic(
            space,
            inputs::LOG_SEALS * inputs::LOG_SEAL_VISITORS,
            visitors as u64,
            0.0,
            &mut inputs::rng(seed, 4),
        );
        for chunk in morning.chunks(inputs::LOG_SEAL_VISITORS) {
            let mut session = engine.ingest();
            for seq in chunk {
                session.push(seq.object_id, seq.positioning().collect());
            }
            session.seal();
        }
        if let Some(e) = engine.log_error() {
            return Err(format!("seal log: {e}"));
        }
    }
    Ok(Manifest {
        objects: engine.num_objects(),
        next_index: engine.sequences_ingested(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            objects: 12,
            next_index: 345,
        };
        assert_eq!(Manifest::parse(&m.to_text()).unwrap(), m);
        assert!(Manifest::parse("objects 3\n").is_err());
    }
}
