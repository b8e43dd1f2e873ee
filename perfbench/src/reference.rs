//! Reference figures the README quotes beside the benchmark's own:
//! the accuracy of labelling each record with its nearest region, and
//! training time at one and at two threads.

use crate::common;
use crate::inputs::{self, load_sequences};
use crate::stats::median;
use ism_c2mn::Trainer;
use ism_runtime::WorkerPool;
use std::path::Path;
use std::time::Instant;

/// Prints the reference figures for `backfill` inputs in `dir`.
pub fn reference(dir: &Path) -> Result<(), String> {
    let space = inputs::venue();
    let train = load_sequences(&dir.join("train.bin"))?;
    let day = load_sequences(&dir.join("day.bin"))?;

    let (mut right, mut total) = (0u64, 0u64);
    for r in day.iter().flat_map(|s| &s.records) {
        right += u64::from(space.nearest_region(&r.record.location) == r.region);
        total += 1;
    }
    println!(
        "nearest-region labeller: region_acc {:.4} over {total} records",
        right as f64 / total as f64
    );

    let mut secs: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for round in 0..6 {
        let threads = common::threads(1 + round % 2);
        let pool = WorkerPool::new(threads);
        let start = Instant::now();
        Trainer::new(&space, inputs::model_config())
            .seed(inputs::TRAIN_SEED)
            .pool(&pool)
            .run(&train)
            .map_err(|e| format!("training: {e}"))?;
        secs[round % 2].push(start.elapsed().as_secs_f64());
    }
    println!(
        "train_s median of 3: {:.3} s at 1 thread, {:.3} s at {} threads",
        median(&secs[0]).unwrap_or(f64::NAN),
        median(&secs[1]).unwrap_or(f64::NAN),
        common::threads(2)
    );
    Ok(())
}
