//! Brute-force references the benchmark checks the program against.
//!
//! Written from the paper's definitions, not from the engine's code:
//!
//! * **TkPRQ** — a *visit* is a `stay` m-semantics whose period overlaps
//!   the query interval `qt` (shared endpoints count); the popularity of a
//!   query region is its number of visits; the answer is the `k` most
//!   popular query regions with at least one visit.
//! * **TkFRPQ** — the frequency of an unordered pair of distinct query
//!   regions is the number of objects that visited both within `qt`; the
//!   answer is the `k` most frequent pairs, each pair smaller id first.
//!
//! Ties rank by key ascending, the order the engine documents, so answers
//! compare exactly.

use ism_indoor::{IndoorPoint, IndoorSpace, RegionId};
use ism_mobility::{MobilityEvent, MobilitySemantics, PositioningRecord, TimePeriod};
use std::collections::{BTreeMap, BTreeSet};

fn visits(ms: &MobilitySemantics, query: &BTreeSet<RegionId>, qt: &TimePeriod) -> bool {
    ms.event == MobilityEvent::Stay
        && ms.period.start <= qt.end
        && qt.start <= ms.period.end
        && query.contains(&ms.region)
}

fn rank<K: Ord + Copy>(counts: BTreeMap<K, usize>, k: usize) -> Vec<(K, usize)> {
    let mut ranked: Vec<(K, usize)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked
}

/// Brute-force TkPRQ over every `(object, m-semantics)` entry.
pub fn tk_prq<'s>(
    entries: impl IntoIterator<Item = (u64, &'s [MobilitySemantics])>,
    query: &[RegionId],
    k: usize,
    qt: TimePeriod,
) -> Vec<(RegionId, usize)> {
    let query: BTreeSet<RegionId> = query.iter().copied().collect();
    let mut counts = BTreeMap::new();
    for (_, semantics) in entries {
        for ms in semantics.iter().filter(|ms| visits(ms, &query, &qt)) {
            *counts.entry(ms.region).or_insert(0) += 1;
        }
    }
    rank(counts, k)
}

/// Brute-force TkFRPQ over every `(object, m-semantics)` entry.
pub fn tk_frpq<'s>(
    entries: impl IntoIterator<Item = (u64, &'s [MobilitySemantics])>,
    query: &[RegionId],
    k: usize,
    qt: TimePeriod,
) -> Vec<((RegionId, RegionId), usize)> {
    let query: BTreeSet<RegionId> = query.iter().copied().collect();
    let mut counts = BTreeMap::new();
    for (_, semantics) in entries {
        let visited: Vec<RegionId> = semantics
            .iter()
            .filter(|ms| visits(ms, &query, &qt))
            .map(|ms| ms.region)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        for (i, &a) in visited.iter().enumerate() {
            for &b in &visited[i + 1..] {
                *counts.entry((a, b)).or_insert(0) += 1;
            }
        }
    }
    rank(counts, k)
}

/// Recovers each record's `(region, event)` label from the m-semantics the
/// engine stored for the sequence: every record must lie in exactly one
/// period, and every period must hold at least one record.
pub fn record_labels(
    records: &[PositioningRecord],
    semantics: &[MobilitySemantics],
) -> Result<Vec<(RegionId, MobilityEvent)>, String> {
    let mut used = vec![false; semantics.len()];
    let mut labels = Vec::with_capacity(records.len());
    for (i, rec) in records.iter().enumerate() {
        let mut covering = semantics
            .iter()
            .enumerate()
            .filter(|(_, ms)| ms.period.start <= rec.t && rec.t <= ms.period.end);
        let Some((j, ms)) = covering.next() else {
            return Err(format!("record {i} (t = {}) has no label", rec.t));
        };
        if covering.next().is_some() {
            return Err(format!("record {i} (t = {}) has several labels", rec.t));
        }
        used[j] = true;
        labels.push((ms.region, ms.event));
    }
    match used.iter().position(|u| !u) {
        Some(j) => Err(format!("period {j} labels no record")),
        None => Ok(labels),
    }
}

/// Distance from `p` to an axis-aligned rectangle given by its corners.
fn rect_distance(min: (f64, f64), max: (f64, f64), p: (f64, f64)) -> f64 {
    let dx = (min.0 - p.0).max(0.0).max(p.0 - max.0);
    let dy = (min.1 - p.1).max(0.0).max(p.1 - max.1);
    dx.hypot(dy)
}

/// Whether `region` is a label the decoder may give a record at `p`: one
/// of the region's partitions on `p`'s floor lies within `radius` of `p`,
/// or the region owns the partition nearest to `p` on that floor.
///
/// For a record outside the bounding box of its floor's partitions the
/// check only asks that the region lie on that floor: there
/// `IndoorSpace::nearest_region` can return a partition a few metres
/// farther than the nearest, on some seeds and not others, and the
/// decoder adds that region to the candidates.
pub fn region_plausible(
    space: &IndoorSpace,
    p: &IndoorPoint,
    region: RegionId,
    radius: f64,
) -> bool {
    let floor = space.clamp_floor(p.floor);
    let xy = (p.xy.x, p.xy.y);
    let mut on_floor = false;
    let mut nearest = (f64::INFINITY, None);
    let (mut lo, mut hi) = (
        (f64::INFINITY, f64::INFINITY),
        (f64::NEG_INFINITY, f64::NEG_INFINITY),
    );
    for part in space.partitions().iter().filter(|q| q.floor == floor) {
        let (min, max) = (
            (part.rect.min.x, part.rect.min.y),
            (part.rect.max.x, part.rect.max.y),
        );
        let d = rect_distance(min, max, xy);
        if part.region == region {
            if d <= radius {
                return true;
            }
            on_floor = true;
        }
        if d < nearest.0 {
            nearest = (d, Some(part.region));
        }
        lo = (lo.0.min(min.0), lo.1.min(min.1));
        hi = (hi.0.max(max.0), hi.1.max(max.1));
    }
    let inside = rect_distance(lo, hi, xy) == 0.0;
    nearest.1 == Some(region) || (on_floor && !inside)
}

#[cfg(test)]
mod tests {
    use super::*;
    use MobilityEvent::{Pass, Stay};

    fn ms(region: u32, start: f64, end: f64, event: MobilityEvent) -> MobilitySemantics {
        MobilitySemantics {
            region: RegionId(region),
            period: TimePeriod::new(start, end),
            event,
        }
    }

    /// Three objects; hand-counted below.
    fn store() -> Vec<(u64, Vec<MobilitySemantics>)> {
        vec![
            (
                1,
                vec![
                    ms(1, 0.0, 10.0, Stay),
                    ms(2, 10.0, 20.0, Pass),
                    ms(3, 20.0, 30.0, Stay),
                ],
            ),
            (
                2,
                vec![
                    ms(1, 5.0, 8.0, Stay),
                    ms(1, 40.0, 50.0, Stay),
                    ms(3, 60.0, 70.0, Stay),
                ],
            ),
            (3, vec![ms(2, 0.0, 100.0, Stay), ms(3, 25.0, 26.0, Stay)]),
        ]
    }

    fn entries(
        s: &[(u64, Vec<MobilitySemantics>)],
    ) -> impl Iterator<Item = (u64, &[MobilitySemantics])> {
        s.iter().map(|(o, v)| (*o, v.as_slice()))
    }

    #[test]
    fn prq_counts_stays_overlapping_the_window() {
        let s = store();
        let q = [RegionId(1), RegionId(2), RegionId(3)];
        // Window [0, 30]: region 1 ← obj 1, obj 2 (5–8); region 2 ← obj 3
        // (object 1's region-2 record is a pass); region 3 ← obj 1
        // (20–30), obj 3 (25–26). Ties rank by id.
        let got = tk_prq(entries(&s), &q, 10, TimePeriod::new(0.0, 30.0));
        assert_eq!(
            got,
            vec![(RegionId(1), 2), (RegionId(3), 2), (RegionId(2), 1)]
        );
        // A shared endpoint counts: [50, 60] touches obj 2's 40–50 and
        // 60–70 stays, and obj 3's 0–100 stay.
        let got = tk_prq(entries(&s), &q, 2, TimePeriod::new(50.0, 60.0));
        assert_eq!(got, vec![(RegionId(1), 1), (RegionId(2), 1)]);
        // Regions outside the query set never appear.
        let got = tk_prq(entries(&s), &[RegionId(3)], 5, TimePeriod::new(0.0, 1e3));
        assert_eq!(got, vec![(RegionId(3), 3)]);
    }

    #[test]
    fn frpq_counts_objects_per_unordered_pair() {
        let s = store();
        let q = [RegionId(3), RegionId(1), RegionId(2)];
        // Whole day: obj 1 visits {1, 3}; obj 2 visits {1, 3} (region 1
        // twice, counted once); obj 3 visits {2, 3}.
        let got = tk_frpq(entries(&s), &q, 10, TimePeriod::new(0.0, 1e3));
        assert_eq!(
            got,
            vec![
                ((RegionId(1), RegionId(3)), 2),
                ((RegionId(2), RegionId(3)), 1)
            ]
        );
        // Window [0, 9]: obj 1 {1}, obj 2 {1}, obj 3 {2} — no pairs.
        assert!(tk_frpq(entries(&s), &q, 10, TimePeriod::new(0.0, 9.0)).is_empty());
        // k truncates after ranking.
        let got = tk_frpq(entries(&s), &q, 1, TimePeriod::new(0.0, 1e3));
        assert_eq!(got, vec![((RegionId(1), RegionId(3)), 2)]);
    }

    fn rec(t: f64) -> PositioningRecord {
        PositioningRecord::new(
            IndoorPoint::new(0, ism_geometry::Point2 { x: 0.0, y: 0.0 }),
            t,
        )
    }

    #[test]
    fn labels_recover_from_merged_periods() {
        let records: Vec<_> = [0.0, 10.0, 20.0, 30.0].into_iter().map(rec).collect();
        let semantics = vec![
            ms(4, 0.0, 10.0, Stay),
            ms(5, 20.0, 20.0, Pass),
            ms(4, 30.0, 30.0, Pass),
        ];
        let labels = record_labels(&records, &semantics).unwrap();
        assert_eq!(
            labels,
            vec![
                (RegionId(4), Stay),
                (RegionId(4), Stay),
                (RegionId(5), Pass),
                (RegionId(4), Pass)
            ]
        );
    }

    #[test]
    fn labels_reject_gaps_overlaps_and_empty_periods() {
        let records: Vec<_> = [0.0, 10.0, 20.0].into_iter().map(rec).collect();
        let gap = vec![ms(1, 0.0, 10.0, Stay)];
        assert!(record_labels(&records, &gap).is_err());
        let overlap = vec![ms(1, 0.0, 10.0, Stay), ms(2, 10.0, 20.0, Pass)];
        assert!(record_labels(&records, &overlap).is_err());
        let empty = vec![
            ms(1, 0.0, 10.0, Stay),
            ms(2, 12.0, 15.0, Pass),
            ms(3, 20.0, 20.0, Pass),
        ];
        assert!(record_labels(&records, &empty).is_err());
    }

    #[test]
    fn plausible_regions_are_within_the_radius_or_nearest() {
        let space = crate::inputs::venue();
        let part = &space.partitions()[0];
        let centre = part.rect.center();
        let inside = IndoorPoint::new(part.floor, centre);
        assert!(region_plausible(&space, &inside, part.region, 15.0));
        // A region with no partition on the floor is never plausible.
        let elsewhere = space
            .regions()
            .iter()
            .find(|r| {
                r.partitions
                    .iter()
                    .all(|&q| space.partition(q).floor != part.floor)
            })
            .unwrap();
        assert!(!region_plausible(&space, &inside, elsewhere.id, 15.0));
        // Inside the footprint with a radius of 0, only the region that
        // holds the point (its nearest) passes.
        let other = space
            .partitions()
            .iter()
            .find(|q| {
                q.floor == part.floor
                    && q.region != part.region
                    && q.rect.distance_to_point(centre) > 1.0
            })
            .unwrap();
        assert!(region_plausible(&space, &inside, part.region, 0.0));
        assert!(!region_plausible(&space, &inside, other.region, 0.0));
    }

    #[test]
    fn rect_distance_is_zero_inside_and_euclidean_outside() {
        assert_eq!(rect_distance((0.0, 0.0), (2.0, 2.0), (1.0, 1.0)), 0.0);
        assert_eq!(rect_distance((0.0, 0.0), (2.0, 2.0), (5.0, 1.0)), 3.0);
        assert_eq!(rect_distance((0.0, 0.0), (2.0, 2.0), (5.0, 6.0)), 5.0);
    }
}
