//! Rounds 2½ and 3: the bloom-filter build (`MarkDup_opt` prep) and
//! MarkDuplicates under compound group partitioning. Both read their
//! records as views: they key, pair and flag them, nothing more.

use super::window_bam;
use crate::gdpt::{markdup_map_pair, view_end_key, BloomFilter, MarkDupKey, MarkDupRole, MarkDupValue};
use gesall_formats::sam::{Flags, SamView};
use gesall_formats::SharedBytes;
use gesall_mapreduce::counters::{keys, Counters};
use gesall_mapreduce::task::{MapContext, Mapper, ReduceContext, Reducer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Map-only round emitting the 5′-end key of every partial-matching
/// mapped read, as the [`MarkDupKey::Single`] round 3 will look up; the
/// driver unions them into the bloom filter.
pub struct BloomBuildMapper {
    pub counters: Counters,
}

impl Mapper for BloomBuildMapper {
    type InKey = String;
    type InValue = SharedBytes;
    type OutKey = u64;
    type OutValue = MarkDupKey;

    fn map(&self, _label: &String, bam_bytes: &SharedBytes, ctx: &mut MapContext<'_, u64, MarkDupKey>) {
        let views = window_bam(&self.counters, bam_bytes);
        // Pair by name in input order, as round 3 does, so the keys come
        // out in the same order on every run.
        let mut first_seen: HashMap<&str, &SamView> = HashMap::new();
        for b in &views {
            if !b.flags().is_paired() || !b.flags().is_primary() {
                continue;
            }
            let Some(a) = first_seen.remove(b.name()) else {
                first_seen.insert(b.name(), b);
                continue;
            };
            let partial_mapped = match (a.is_mapped(), b.is_mapped()) {
                (true, false) => Some(a),
                (false, true) => Some(b),
                _ => None,
            };
            if let Some(m) = partial_mapped {
                ctx.emit(0, MarkDupKey::Single(view_end_key(m)));
            }
        }
    }
}

/// Round-3 mapper: input grouped by read name; emits compound keys with
/// the map-side witness filter (and optional bloom suppression).
pub struct Round3MarkDupMapper {
    /// `Some` = MarkDup_opt; `None` = MarkDup_reg.
    pub bloom: Option<Arc<BloomFilter>>,
    pub counters: Counters,
}

impl Mapper for Round3MarkDupMapper {
    type InKey = String;
    type InValue = SharedBytes;
    type OutKey = MarkDupKey;
    type OutValue = MarkDupValue;

    fn map(
        &self,
        _label: &String,
        bam_bytes: &SharedBytes,
        ctx: &mut MapContext<'_, MarkDupKey, MarkDupValue>,
    ) {
        let views = window_bam(&self.counters, bam_bytes);
        // Pair by name in input order (map-task-local state is fine: the
        // whole partition is one map invocation); each pair is keyed
        // when its second read arrives.
        let mut first_seen: HashMap<&str, usize> = HashMap::new();
        let mut pairs = Vec::new();
        for (j, r) in views.iter().enumerate() {
            if !r.flags().is_paired() || !r.flags().is_primary() {
                continue;
            }
            match first_seen.remove(r.name()) {
                None => {
                    first_seen.insert(r.name(), j);
                }
                Some(i) => pairs.push((i, j)),
            }
        }
        assert!(
            first_seen.is_empty(),
            "round-3 partition violated the read-name grouping contract: {} widowed reads",
            first_seen.len()
        );
        drop(first_seen);
        // The views move into their shuffle values.
        let mut views: Vec<Option<SamView>> = views.into_iter().map(Some).collect();
        let mut take = |i: usize| views[i].take().expect("a read pairs once");
        let mut witness_filter = HashSet::new();
        let mut kvs = Vec::new();
        for (i, j) in pairs {
            markdup_map_pair(take(i), take(j), &mut witness_filter, self.bloom.as_deref(), &mut kvs);
            for (k, v) in kvs.drain(..) {
                ctx.emit(k, v);
            }
        }
    }
}

/// Round-3 reducer: applies MarkDuplicates criteria within each key
/// group. Random tie-breaks are seeded per key, so the outcome is
/// independent of which reducer sees the group — but *different* from
/// the serial tool's sequential RNG stream, exactly the discrepancy the
/// paper measures in Table 8.
pub struct Round3MarkDupReducer {
    pub seed: u64,
    pub counters: Counters,
}

pub(super) fn key_seed(seed: u64, key: &MarkDupKey) -> u64 {
    use gesall_formats::wire::Wire;
    let bytes = key.to_wire_bytes();
    let mut h = seed ^ 0x51_7c_c1_b7_27_22_0a_95;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl Reducer for Round3MarkDupReducer {
    type InKey = MarkDupKey;
    type InValue = MarkDupValue;
    type OutKey = ();
    type OutValue = SamView;

    fn reduce(
        &self,
        key: MarkDupKey,
        values: Vec<MarkDupValue>,
        ctx: &mut ReduceContext<'_, (), SamView>,
    ) {
        let t0 = Instant::now();
        let mut rng = StdRng::seed_from_u64(key_seed(self.seed, &key));
        match key {
            MarkDupKey::Pair(_, _) => {
                // Rebuild pairs by name, in arrival order.
                let mut slot: HashMap<&str, usize> = HashMap::new();
                let group_of: Vec<usize> = values
                    .iter()
                    .map(|v| {
                        debug_assert_eq!(v.role, MarkDupRole::PairMember);
                        let next = slot.len();
                        *slot.entry(v.record.name()).or_insert(next)
                    })
                    .collect();
                let mut pairs: Vec<Vec<SamView>> = vec![Vec::new(); slot.len()];
                drop(slot);
                for (v, g) in values.into_iter().zip(group_of) {
                    pairs[g].push(v.record);
                }
                let score = |pair: &[SamView]| -> u64 { pair.iter().map(SamView::quality_sum).sum() };
                let best = pairs.iter().map(|p| score(p)).max().expect("non-empty group");
                let ties: Vec<usize> = (0..pairs.len()).filter(|&i| score(&pairs[i]) == best).collect();
                let keeper = ties[rng.gen_range(0..ties.len())];
                for (i, pair) in pairs.into_iter().enumerate() {
                    for mut r in pair {
                        r.set_flag(Flags::DUPLICATE, i != keeper);
                        ctx.emit((), r);
                    }
                }
            }
            MarkDupKey::Single(_) => {
                let has_witness = values.iter().any(|v| v.role == MarkDupRole::Witness);
                // Partial matchings: mapped reads compete; mates follow.
                let mapped_idx: Vec<usize> = values
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.role == MarkDupRole::PartialMapped)
                    .map(|(i, _)| i)
                    .collect();
                let keeper: Option<usize> = if has_witness || mapped_idx.is_empty() {
                    None
                } else {
                    let best = mapped_idx
                        .iter()
                        .map(|&i| values[i].record.quality_sum())
                        .max()
                        .expect("non-empty");
                    let ties: Vec<usize> = mapped_idx
                        .iter()
                        .copied()
                        .filter(|&i| values[i].record.quality_sum() == best)
                        .collect();
                    Some(ties[rng.gen_range(0..ties.len())])
                };
                let keeper_name = keeper.map(|i| values[i].record.name().to_owned());
                for v in values {
                    match v.role {
                        MarkDupRole::Witness => {} // no output
                        MarkDupRole::PartialMapped | MarkDupRole::PartialMate => {
                            let mut r = v.record;
                            let dup = keeper_name.as_deref() != Some(r.name());
                            r.set_flag(Flags::DUPLICATE, dup);
                            ctx.emit((), r);
                        }
                        other => panic!("unexpected role {other:?} under Single key"),
                    }
                }
            }
            MarkDupKey::Unplaced(_) => {
                for v in values {
                    ctx.emit((), v.record);
                }
            }
        }
        self.counters
            .add(keys::EXTERNAL_PROGRAM_NANOS, t0.elapsed().as_nanos() as u64);
    }
}
