//! Seeded input generation and the on-disk form of prepared inputs.
//!
//! The venue is one fixed mall (a deployment serves one building); the
//! `--seed` argument varies the traffic, the stored day and the queries.
//! The same seed always yields the same inputs.

use ism_c2mn::C2mnConfig;
use ism_codec::{
    write_f64_bits, write_u16, write_u64, write_varint, CodecError, Decode, Encode, Reader,
};
use ism_indoor::{BuildingGenerator, IndoorPoint, IndoorSpace, RegionId, RegionKind};
use ism_mobility::{
    Dataset, LabeledRecord, LabeledSequence, MobilityEvent, MobilitySemantics, PositioningConfig,
    PositioningRecord, SimulationConfig, TimePeriod,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::path::Path;

/// Seed of the one venue every workload runs in.
pub const VENUE_SEED: u64 = 2020;
/// Opening hours the stored days and the live traffic fall in: 12 h.
pub const DAY: f64 = 12.0 * 3600.0;
/// Labelled sequences each `Trainer` run learns from.
pub const TRAIN_SEQS: usize = 60;
/// Seed of the labelled training sample and of every `Trainer` run. The
/// sample is the same for every `--seed`, as a deployment retrains on
/// one curated labelled set, so the model, and with it the decoded
/// stores and their query costs, do not change with the traffic seed.
pub const TRAIN_SEED: u64 = 7;
/// P-sequences a `backfill` round re-annotates.
pub const BACKFILL_SEQS: usize = 1500;
/// Short p-sequences prepared for the `live` client (cycled under fresh
/// object ids when a run outlasts them).
pub const LIVE_PUSHES: usize = 3000;
/// Visitors in the `live` snapshot and in the `query` snapshot.
pub const LIVE_VISITORS: usize = 20_000;
pub const QUERY_VISITORS: usize = 50_000;
/// Seals in the `live` seal log, and visitors decoded into each.
pub const LOG_SEALS: usize = 30;
pub const LOG_SEAL_VISITORS: usize = 20;
/// Late arrivals the `query` workload pushes after its query phase.
pub const LATE_PUSHES: usize = 2000;
/// Object ids of pushed visitors start here, above every stored visitor.
pub const PUSH_ID_BASE: u64 = 1 << 32;

/// The labelled training sample.
pub fn train_set(space: &IndoorSpace) -> Vec<LabeledSequence> {
    long_traffic(space, TRAIN_SEQS, 0, &mut rng(TRAIN_SEED, 1))
}

/// The mall.
pub fn venue() -> IndoorSpace {
    BuildingGenerator::mall()
        .generate(&mut StdRng::seed_from_u64(VENUE_SEED))
        .expect("the mall generator builds its default venue")
}

/// The paper's real-data decode settings (`C2mnConfig::paper_real`:
/// 15 m uncertainty radius, up to 12 candidates per record, 12 annealing
/// sweeps) with the training MCMC scaled down to seconds: 8 outer
/// iterations of 40 samples. `delta = 0` turns off early convergence so
/// every training run does the same number of iterations.
pub fn model_config() -> C2mnConfig {
    C2mnConfig {
        max_iter: 8,
        mcmc_m: 40,
        delta: 0.0,
        ..C2mnConfig::paper_real()
    }
}

/// One deterministic RNG per input stream of a seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// Simulates `n` visitors with the Wi-Fi mall positioning profile
/// (Table III: 2–25 m error, one fix per 6–25 s). `lifespan` is the
/// visible part of each visit in seconds; sequences are shifted to a
/// random time between `from` and closing, and renumbered from
/// `first_id`.
fn traffic(
    space: &IndoorSpace,
    n: usize,
    lifespan: f64,
    first_id: u64,
    from: f64,
    rng: &mut StdRng,
) -> Vec<LabeledSequence> {
    let sim = SimulationConfig {
        duration: lifespan + 100.0,
        lifespan_min: lifespan,
        ..SimulationConfig::quick()
    };
    let dataset = Dataset::generate(
        "bench",
        space,
        sim,
        PositioningConfig::wifi_mall(),
        None,
        n,
        rng,
    );
    dataset
        .sequences
        .into_iter()
        .enumerate()
        .map(|(i, mut seq)| {
            seq.object_id = first_id + i as u64;
            let shift = from + rng.random::<f64>() * (DAY - from - sim.duration);
            for r in &mut seq.records {
                r.record.t += shift;
            }
            seq
        })
        .collect()
}

/// ~100-record sequences (25 minutes at one fix per ~15 s) across the day.
pub fn long_traffic(
    space: &IndoorSpace,
    n: usize,
    first_id: u64,
    rng: &mut StdRng,
) -> Vec<LabeledSequence> {
    traffic(space, n, 1500.0, first_id, 0.0, rng)
}

/// ~15-record sequences (a visitor's last ~4 minutes) from `from` on.
pub fn short_traffic(
    space: &IndoorSpace,
    n: usize,
    first_id: u64,
    from: f64,
    rng: &mut StdRng,
) -> Vec<LabeledSequence> {
    traffic(space, n, 220.0, first_id, from, rng)
}

/// Shops in popularity order (a seeded shuffle) with Zipf weights.
fn shop_popularity(space: &IndoorSpace, rng: &mut StdRng) -> (Vec<RegionId>, Vec<f64>) {
    let mut shops = shops(space);
    for i in (1..shops.len()).rev() {
        shops.swap(i, rng.random_range(0..=i));
    }
    let weights: Vec<f64> = (1..=shops.len())
        .map(|r| 1.0 / (r as f64).powf(0.8))
        .collect();
    (shops, weights)
}

/// Destination regions of the venue, ascending.
pub fn shops(space: &IndoorSpace) -> Vec<RegionId> {
    space
        .regions()
        .iter()
        .filter(|r| r.kind == RegionKind::Shop && !r.partitions.is_empty())
        .map(|r| r.id)
        .collect()
}

fn pick_weighted(weights: &[f64], total: f64, rng: &mut StdRng) -> usize {
    let mut x = rng.random::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// A stored day of m-semantics for `visitors` objects (ids `0..visitors`).
///
/// Each visitor alternates a pass through a corridor (15–90 s) with a
/// stay at a shop (30–600 s, Zipf-popular shops), 20–60 stays in all,
/// starting at a random time such that the visit ends by closing. The
/// counts mirror decoded m-semantics, which split one shop visit into
/// several stays; a 50k-visitor day holds ~2M visit postings.
pub fn day_store(
    space: &IndoorSpace,
    visitors: usize,
    rng: &mut StdRng,
) -> Vec<(u64, Vec<MobilitySemantics>)> {
    let (shops, weights) = shop_popularity(space, rng);
    let total: f64 = weights.iter().sum();
    let corridors: Vec<RegionId> = space
        .regions()
        .iter()
        .filter(|r| r.kind == RegionKind::Corridor && !r.partitions.is_empty())
        .map(|r| r.id)
        .collect();
    (0..visitors as u64)
        .map(|id| {
            let stays = rng.random_range(20..=60usize);
            let mut plan = Vec::with_capacity(2 * stays);
            for _ in 0..stays {
                let corridor = corridors[rng.random_range(0..corridors.len())];
                plan.push((corridor, MobilityEvent::Pass, rng.random_range(15.0..90.0)));
                let shop = shops[pick_weighted(&weights, total, rng)];
                plan.push((shop, MobilityEvent::Stay, rng.random_range(30.0..600.0)));
            }
            // Consecutive periods are one fix (10 s) apart, like merged
            // records.
            let span: f64 = plan.iter().map(|p| p.2 + 10.0).sum();
            let mut t = rng.random::<f64>() * (DAY - span).max(0.0);
            let semantics = plan
                .into_iter()
                .map(|(region, event, d)| {
                    let ms = MobilitySemantics {
                        region,
                        period: TimePeriod::new(t, t + d),
                        event,
                    };
                    t += d + 10.0;
                    ms
                })
                .collect();
            (id, semantics)
        })
        .collect()
}

/// One ad-hoc query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub prq: bool,
    pub regions: Vec<RegionId>,
    pub k: usize,
    pub qt: TimePeriod,
}

/// Queries per dashboard refresh: three fresh TkPRQ, three fresh TkFRPQ,
/// and a repeat of a recent one of each kind.
pub const REFRESH: usize = 8;
/// Each position of a refresh: its kind (TkPRQ = true) and the stratum
/// of its fresh query, or `None` for a repeat.
const SLOTS: [(bool, Option<usize>); REFRESH] = [
    (true, Some(0)),
    (false, Some(0)),
    (true, Some(1)),
    (true, None),
    (false, Some(1)),
    (true, Some(2)),
    (false, None),
    (false, Some(2)),
];
/// Shop-count strata of a refresh's three fresh queries of one kind; in
/// the top stratum every other query takes all shops of one floor.
const STRATA: [(usize, usize); 3] = [(3, 12), (13, 25), (26, 40)];
/// Query windows: 15 min to 4 h, log-uniform.
const WINDOW: (f64, f64) = (900.0, 14_400.0);
/// Queries a repeat may pick from: the most recent ones.
const RECENT: usize = 200;

/// A stream of dashboard refreshes. Every refresh of [`REFRESH`] queries
/// holds three fresh TkPRQ and three fresh TkFRPQ, one per shop-count
/// stratum, over seeded shops, windows and k ∈ {3, 5, 10, 20}, plus one
/// repeat of a recent query of each kind: one query in four repeats an
/// earlier one. With `window_end` every window ends there (a live
/// dashboard looking back from now); without, windows fall anywhere in
/// the day.
#[derive(Debug)]
pub struct QueryStream<'s> {
    space: &'s IndoorSpace,
    shops: Vec<RegionId>,
    rng: StdRng,
    window_end: Option<f64>,
    recent: VecDeque<Query>,
    issued: usize,
}

impl<'s> QueryStream<'s> {
    pub fn new(space: &'s IndoorSpace, rng: StdRng, window_end: Option<f64>) -> Self {
        QueryStream {
            space,
            shops: shops(space),
            rng,
            window_end,
            recent: VecDeque::new(),
            issued: 0,
        }
    }

    fn fresh_query(&mut self, prq: bool, stratum: usize) -> Query {
        let (lo, hi) = STRATA[stratum];
        let rng = &mut self.rng;
        let regions: Vec<RegionId> = if stratum == STRATA.len() - 1 && rng.random::<bool>() {
            let floor = rng.random_range(0..self.space.floor_count());
            let space = self.space;
            self.shops
                .iter()
                .copied()
                .filter(|&r| space.region(r).floor == floor)
                .collect()
        } else {
            let n = rng.random_range(lo..=hi).min(self.shops.len());
            let mut pool = self.shops.clone();
            for i in 0..n {
                let j = rng.random_range(i..pool.len());
                pool.swap(i, j);
            }
            pool.truncate(n);
            pool
        };
        let len = WINDOW.0 * (WINDOW.1 / WINDOW.0).powf(rng.random::<f64>());
        let end = self
            .window_end
            .unwrap_or_else(|| len + rng.random::<f64>() * (DAY - len));
        Query {
            prq,
            regions,
            k: [3, 5, 10, 20][rng.random_range(0..4)],
            qt: TimePeriod::new(end - len, end),
        }
    }

    pub fn next_query(&mut self) -> Query {
        let (prq, stratum) = SLOTS[self.issued % REFRESH];
        self.issued += 1;
        let q = match stratum {
            Some(stratum) => self.fresh_query(prq, stratum),
            None => {
                let same: Vec<&Query> = self.recent.iter().filter(|q| q.prq == prq).collect();
                same[self.rng.random_range(0..same.len())].clone()
            }
        };
        if self.recent.len() == RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back(q.clone());
        q
    }

    /// The next `n` queries.
    pub fn take(&mut self, n: usize) -> Vec<Query> {
        (0..n).map(|_| self.next_query()).collect()
    }
}

// ---- on-disk form ---------------------------------------------------------

/// Encodes labelled sequences: per sequence the object id and its records
/// (floor, x, y, t, true region, true event).
pub fn encode_sequences(seqs: &[LabeledSequence]) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, seqs.len() as u64);
    for seq in seqs {
        write_u64(&mut out, seq.object_id);
        write_varint(&mut out, seq.records.len() as u64);
        for r in &seq.records {
            write_u16(&mut out, r.record.location.floor);
            write_f64_bits(&mut out, r.record.location.xy.x);
            write_f64_bits(&mut out, r.record.location.xy.y);
            write_f64_bits(&mut out, r.record.t);
            write_varint(&mut out, u64::from(r.region.0));
            r.event.encode(&mut out);
        }
    }
    out
}

/// Inverse of [`encode_sequences`].
pub fn decode_sequences(bytes: &[u8]) -> Result<Vec<LabeledSequence>, CodecError> {
    let mut r = Reader::new(bytes);
    let n = r.count_prefix(9)?;
    let mut seqs = Vec::with_capacity(n);
    for _ in 0..n {
        let object_id = r.u64()?;
        let len = r.count_prefix(28)?;
        let mut records = Vec::with_capacity(len);
        for _ in 0..len {
            let floor = r.u16()?;
            let x = r.f64_bits()?;
            let y = r.f64_bits()?;
            let t = r.f64_bits()?;
            let region = RegionId::decode(&mut r)?;
            let event = MobilityEvent::decode(&mut r)?;
            records.push(LabeledRecord {
                record: PositioningRecord::new(
                    IndoorPoint::new(floor, ism_geometry::Point2 { x, y }),
                    t,
                ),
                region,
                event,
            });
        }
        seqs.push(LabeledSequence { object_id, records });
    }
    r.finish()?;
    Ok(seqs)
}

/// Writes labelled sequences to `path`.
pub fn save_sequences(path: &Path, seqs: &[LabeledSequence]) -> std::io::Result<()> {
    std::fs::write(path, encode_sequences(seqs))
}

/// Reads labelled sequences written by [`save_sequences`].
pub fn load_sequences(path: &Path) -> Result<Vec<LabeledSequence>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    decode_sequences(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_round_trip() {
        let space = venue();
        let seqs = short_traffic(&space, 3, 7, 0.0, &mut rng(1, 0));
        assert!(!seqs.is_empty());
        let back = decode_sequences(&encode_sequences(&seqs)).unwrap();
        assert_eq!(back.len(), seqs.len());
        for (a, b) in seqs.iter().zip(&back) {
            assert_eq!(a.object_id, b.object_id);
            assert_eq!(a.records, b.records);
        }
    }

    #[test]
    fn inputs_repeat_per_seed() {
        let space = venue();
        let a = QueryStream::new(&space, rng(3, 1), None).take(50);
        let b = QueryStream::new(&space, rng(3, 1), None).take(50);
        assert_eq!(a, b);
        let c = QueryStream::new(&space, rng(4, 1), None).take(50);
        assert_ne!(a, c);
    }

    #[test]
    fn every_refresh_has_the_same_make_up() {
        let space = venue();
        let mut stream = QueryStream::new(&space, rng(5, 1), Some(DAY));
        let mut all = Vec::new();
        for _ in 0..20 {
            let refresh = stream.take(REFRESH);
            for (q, &(prq, stratum)) in refresh.iter().zip(&SLOTS) {
                assert_eq!(q.prq, prq);
                assert_eq!(q.qt.end, DAY);
                let len = q.qt.end - q.qt.start;
                assert!((WINDOW.0..=WINDOW.1).contains(&len));
                if stratum.is_none() {
                    assert!(all.contains(q), "a repeat repeats an earlier query");
                }
                all.push(q.clone());
            }
        }
    }
}
