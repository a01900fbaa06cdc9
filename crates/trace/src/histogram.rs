//! Constant-size per task-file block histograms (§3).
//!
//! A histogram maintains, for each tracked data block of one file as seen by
//! one task, a small fixed set of statistics (operation counts, bytes,
//! first/last access time — well under the ~10-statistic bound in the
//! paper). The number of tracked locations is bounded by two mechanisms:
//!
//! 1. **Access resolution** — the block size, derived from file size by a
//!    [`BlockPolicy`](crate::block::BlockPolicy). If a file grows past the
//!    location bound, the histogram *coarsens*: the block size doubles and
//!    buckets merge pairwise.
//! 2. **Spatial sampling** — a deterministic
//!    [`crate::sampling::SpatialSampler`] rule on the block's
//!    first *granule* index, so all tasks touching a file keep the same
//!    subset of locations at any given resolution.

use serde::{Deserialize, Reader, Serialize, Writer};

use crate::block::MIN_BLOCK;
use crate::sampling::SpatialSampler;

/// Per-block statistics. Deliberately small and fixed-size: 8 scalar fields,
/// within the paper's ≤ ~10-statistics-per-location budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BlockStats {
    /// Number of read operations touching the block.
    pub reads: u64,
    /// Number of write operations touching the block.
    pub writes: u64,
    /// Bytes read from the block (non-unique).
    pub bytes_read: u64,
    /// Bytes written to the block (non-unique).
    pub bytes_written: u64,
    /// Time of the first access (ns).
    pub first_ns: u64,
    /// Time of the most recent access (ns).
    pub last_ns: u64,
    /// `true` if the most recent access was a write.
    pub last_was_write: bool,
    /// Number of accesses that re-touched the block with zero seek distance
    /// (temporal locality indicator).
    pub repeat_hits: u64,
}

impl BlockStats {
    fn merge(&mut self, other: &BlockStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        if other.first_ns < self.first_ns || (self.reads + self.writes) == 0 {
            self.first_ns = self.first_ns.min(other.first_ns);
        }
        if other.last_ns >= self.last_ns {
            self.last_ns = other.last_ns;
            self.last_was_write = other.last_was_write;
        }
        self.repeat_hits += other.repeat_hits;
    }
}

/// Which direction an access flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
}

/// Ordered block-index → stats storage.
///
/// Semantically an ordered map, stored as a key-sorted `Vec` because the
/// dominant access pattern — one sequential whole-file operation filling a
/// contiguous index range — turns into a single bulk splice instead of one
/// tree insertion per block. Serializes exactly like the `BTreeMap` it
/// replaced (an array of `[key, value]` pairs in key order), so snapshots
/// and measurement exports are unchanged.
#[derive(Debug, Clone, Default)]
struct BlockMap(Vec<(u64, BlockStats)>);

impl Serialize for BlockMap {
    fn serialize(&self, w: &mut Writer<'_>) {
        self.0.serialize(w)
    }
}

impl Deserialize for BlockMap {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        let mut pairs: Vec<(u64, BlockStats)> = Deserialize::deserialize(r)?;
        // Normalize hand-edited input to the ordered-map invariant the hot
        // path relies on: sorted unique keys, last duplicate winning (the
        // same outcome as collecting the pairs into a `BTreeMap`).
        pairs.sort_by_key(|&(k, _)| k);
        pairs.dedup_by(|later, kept| {
            if later.0 == kept.0 {
                kept.1 = later.1;
                true
            } else {
                false
            }
        });
        Ok(BlockMap(pairs))
    }
}

/// A bounded block histogram for one task-file pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockHistogram {
    /// Current block size in bytes (power of two, multiple of the granule).
    block_size: u64,
    /// Sampling granule: the *initial* block size; sampling decisions hash
    /// the granule index of a block's first byte so they remain consistent
    /// as the histogram coarsens.
    granule: u64,
    /// Maximum number of tracked locations before coarsening.
    max_locations: u32,
    sampler: SpatialSampler,
    blocks: BlockMap,
}

impl BlockHistogram {
    /// Creates a histogram with the given initial resolution and sampler.
    ///
    /// # Panics
    /// Panics if `block_size` is zero, not a power of two, or below
    /// [`MIN_BLOCK`]; or if `max_locations` is zero.
    pub fn new(block_size: u64, max_locations: u32, sampler: SpatialSampler) -> Self {
        assert!(block_size.is_power_of_two() && block_size >= MIN_BLOCK);
        assert!(max_locations > 0);
        Self {
            block_size,
            granule: block_size,
            max_locations,
            sampler,
            blocks: BlockMap::default(),
        }
    }

    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    pub fn sampler(&self) -> SpatialSampler {
        self.sampler
    }

    /// Number of tracked locations (bounded by `max_locations`).
    pub fn tracked_locations(&self) -> usize {
        self.blocks.0.len()
    }

    /// Whether the block starting at `idx * block_size` is tracked under the
    /// sampling rule. The rule hashes the granule index of the block start so
    /// the tracked set is consistent across resolutions and tasks.
    #[inline]
    fn tracked(&self, block_idx: u64, block_size: u64) -> bool {
        let granule_idx = block_idx * (block_size / self.granule);
        self.sampler.tracks(granule_idx)
    }

    /// Records an access of `len` bytes at `offset` at time `now_ns`.
    ///
    /// `repeat` marks a zero-distance re-access (for temporal-locality
    /// accounting on the first touched block).
    pub fn record(&mut self, kind: AccessKind, offset: u64, len: u64, now_ns: u64, repeat: bool) {
        if len == 0 {
            return;
        }
        let first = offset / self.block_size;
        let last = (offset + len - 1) / self.block_size;
        // All stored keys in [first, last] sit in `blocks[lo..hi)`; every
        // stored key is tracked (insertions are sampled, coarsening
        // re-filters), so a single merge cursor pairs them with the index
        // walk below.
        let lo = self.blocks.0.partition_point(|&(k, _)| k < first);
        let hi = lo + self.blocks.0[lo..].partition_point(|&(k, _)| k <= last);
        let mut cur = lo;
        // Blocks not yet tracked, gathered in index order and spliced in
        // afterwards: touching a fresh range costs one bulk move instead of
        // one ordered insertion per block.
        let mut fresh: Vec<(u64, BlockStats)> = Vec::new();
        for idx in first..=last {
            if !self.tracked(idx, self.block_size) {
                continue;
            }
            let blk_start = idx * self.block_size;
            let blk_end = blk_start + self.block_size;
            let span = (offset + len).min(blk_end) - offset.max(blk_start);
            let entry = if cur < hi && self.blocks.0[cur].0 == idx {
                cur += 1;
                &mut self.blocks.0[cur - 1].1
            } else {
                fresh.push((idx, BlockStats { first_ns: now_ns, ..BlockStats::default() }));
                &mut fresh.last_mut().expect("just pushed").1
            };
            match kind {
                AccessKind::Read => {
                    entry.reads += 1;
                    entry.bytes_read += span;
                    entry.last_was_write = false;
                }
                AccessKind::Write => {
                    entry.writes += 1;
                    entry.bytes_written += span;
                    entry.last_was_write = true;
                }
            }
            entry.last_ns = now_ns;
            if repeat && idx == first {
                entry.repeat_hits += 1;
            }
        }
        if !fresh.is_empty() {
            if lo == hi {
                // Nothing tracked in the range yet: contiguous insertion.
                self.blocks.0.splice(lo..lo, fresh);
            } else {
                // Interleave the new entries with the surviving range.
                let mut merged = Vec::with_capacity(hi - lo + fresh.len());
                let mut f = fresh.into_iter().peekable();
                for &old in &self.blocks.0[lo..hi] {
                    while f.peek().is_some_and(|n| n.0 < old.0) {
                        merged.push(f.next().expect("peeked"));
                    }
                    merged.push(old);
                }
                merged.extend(f);
                self.blocks.0.splice(lo..hi, merged);
            }
        }
        while self.blocks.0.len() > self.max_locations as usize {
            self.coarsen();
        }
    }

    /// Doubles the block size, merging buckets pairwise. Buckets whose merged
    /// index is no longer in the sampled set are dropped (the sampled set at
    /// the coarser resolution is a deterministic function of location, so all
    /// tasks converge on the same set).
    pub fn coarsen(&mut self) {
        let new_size = self.block_size * 2;
        let old = std::mem::take(&mut self.blocks.0);
        // Keys are sorted, so merged indices arrive non-decreasing and pair
        // merging is a single in-order pass.
        let mut merged: Vec<(u64, BlockStats)> = Vec::with_capacity(old.len() / 2 + 1);
        for (idx, stats) in old {
            let new_idx = idx / 2;
            let granule_idx = new_idx * (new_size / self.granule);
            if !self.sampler.tracks(granule_idx) {
                continue;
            }
            match merged.last_mut() {
                Some(tail) if tail.0 == new_idx => tail.1.merge(&stats),
                _ => merged.push((new_idx, stats)),
            }
        }
        self.block_size = new_size;
        self.blocks.0 = merged;
    }

    /// Coarsens until the block size reaches `target` (a power-of-two
    /// multiple of the current size). Used at export so every task's
    /// histogram for a file shares the file's final resolution.
    pub fn coarsen_to(&mut self, target: u64) {
        assert!(target >= self.block_size && target.is_power_of_two());
        while self.block_size < target {
            self.coarsen();
        }
    }

    /// Iterates tracked `(block_index, stats)` pairs in index order.
    pub fn iter_sorted(&self) -> Vec<(u64, BlockStats)> {
        self.blocks.0.clone()
    }

    /// Estimated number of *unique* blocks read, scaled for sampling.
    pub fn unique_blocks_read_est(&self) -> f64 {
        let n = self.blocks.0.iter().filter(|(_, s)| s.reads > 0).count();
        n as f64 * self.sampler.scale()
    }

    /// Estimated number of unique blocks written, scaled for sampling.
    pub fn unique_blocks_written_est(&self) -> f64 {
        let n = self.blocks.0.iter().filter(|(_, s)| s.writes > 0).count();
        n as f64 * self.sampler.scale()
    }

    /// Estimated unique bytes read (footprint), scaled for sampling.
    pub fn footprint_read_est(&self) -> f64 {
        // Use actual covered bytes per block (not whole blocks) to stay
        // accurate for files smaller than one block.
        let covered: u64 = self
            .blocks
            .0
            .iter()
            .filter(|(_, s)| s.reads > 0)
            .map(|(_, s)| s.bytes_read.min(self.block_size))
            .sum();
        covered as f64 * self.sampler.scale()
    }

    /// Estimated unique bytes written (footprint), scaled for sampling.
    pub fn footprint_written_est(&self) -> f64 {
        let covered: u64 = self
            .blocks
            .0
            .iter()
            .filter(|(_, s)| s.writes > 0)
            .map(|(_, s)| s.bytes_written.min(self.block_size))
            .sum();
        covered as f64 * self.sampler.scale()
    }

    /// Mean accesses per touched block — an intra-task reuse indicator.
    pub fn mean_accesses_per_block(&self) -> f64 {
        if self.blocks.0.is_empty() {
            return 0.0;
        }
        let total: u64 = self.blocks.0.iter().map(|(_, s)| s.reads + s.writes).sum();
        total as f64 / self.blocks.0.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(block: u64, max_loc: u32) -> BlockHistogram {
        BlockHistogram::new(block, max_loc, SpatialSampler::keep_all(0))
    }

    #[test]
    fn sequential_reads_fill_blocks() {
        let mut h = hist(4096, 1024);
        for i in 0..8 {
            h.record(AccessKind::Read, i * 4096, 4096, i, false);
        }
        assert_eq!(h.tracked_locations(), 8);
        assert_eq!(h.unique_blocks_read_est(), 8.0);
        assert_eq!(h.footprint_read_est(), 8.0 * 4096.0);
    }

    #[test]
    fn access_spanning_blocks_splits_bytes() {
        let mut h = hist(4096, 1024);
        h.record(AccessKind::Read, 2048, 4096, 0, false);
        let blocks = h.iter_sorted();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].1.bytes_read, 2048);
        assert_eq!(blocks[1].1.bytes_read, 2048);
    }

    #[test]
    fn coarsening_respects_location_bound() {
        let mut h = hist(4096, 4);
        for i in 0..64 {
            h.record(AccessKind::Write, i * 4096, 4096, i, false);
        }
        assert!(h.tracked_locations() <= 4);
        assert!(h.block_size() > 4096);
        // Volume is conserved through merges (no sampling here).
        let total: u64 = h.iter_sorted().iter().map(|(_, s)| s.bytes_written).sum();
        assert_eq!(total, 64 * 4096);
    }

    #[test]
    fn repeat_hits_counted_on_first_block() {
        let mut h = hist(4096, 16);
        h.record(AccessKind::Read, 0, 100, 0, false);
        h.record(AccessKind::Read, 0, 100, 1, true);
        h.record(AccessKind::Read, 0, 100, 2, true);
        let blocks = h.iter_sorted();
        assert_eq!(blocks[0].1.repeat_hits, 2);
        assert_eq!(blocks[0].1.reads, 3);
    }

    #[test]
    fn sampling_scales_unique_estimates() {
        let sampler = SpatialSampler::with_rate(100, 25, 11);
        let mut h = BlockHistogram::new(4096, 100_000, sampler);
        let n = 10_000u64;
        for i in 0..n {
            h.record(AccessKind::Read, i * 4096, 4096, i, false);
        }
        let est = h.unique_blocks_read_est();
        let err = (est - n as f64).abs() / n as f64;
        assert!(err < 0.05, "estimate {est} vs {n}");
        assert!(h.tracked_locations() < 3_000);
    }

    #[test]
    fn coarsen_to_reaches_target_resolution() {
        let mut h = hist(4096, 1 << 20);
        for i in 0..32 {
            h.record(AccessKind::Read, i * 4096, 4096, 0, false);
        }
        h.coarsen_to(65536);
        assert_eq!(h.block_size(), 65536);
        assert_eq!(h.tracked_locations(), 2);
    }

    #[test]
    fn zero_len_access_ignored() {
        let mut h = hist(4096, 16);
        h.record(AccessKind::Read, 0, 0, 0, false);
        assert_eq!(h.tracked_locations(), 0);
    }

    #[test]
    fn interleaved_inserts_stay_sorted() {
        // Touch even blocks, then a range spanning them: the new odd blocks
        // must interleave with the existing even entries in key order.
        let mut h = hist(4096, 1024);
        for i in [0u64, 2, 4, 6] {
            h.record(AccessKind::Read, i * 4096, 4096, i, false);
        }
        h.record(AccessKind::Write, 0, 8 * 4096, 10, false);
        let blocks = h.iter_sorted();
        let keys: Vec<u64> = blocks.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(blocks[2].1.reads, 1);
        assert_eq!(blocks[2].1.writes, 1);
        assert_eq!(blocks[3].1.reads, 0);
        assert_eq!(blocks[3].1.writes, 1);
        // Pre-existing blocks keep their original first-access stamp.
        assert_eq!(blocks[2].1.first_ns, 2);
        assert_eq!(blocks[3].1.first_ns, 10);
    }

    #[test]
    fn serde_round_trip_matches_map_shape() {
        let mut h = hist(4096, 1024);
        h.record(AccessKind::Read, 0, 3 * 4096, 7, false);
        let v = serde::Serialize::to_value(&h);
        // Blocks serialize as an array of [key, stats] pairs in key order —
        // the same wire shape as the ordered map this storage replaced.
        let blocks = v["blocks"].as_array().expect("blocks array");
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0][0].as_u64(), Some(0));
        assert_eq!(blocks[2][0].as_u64(), Some(2));
        let back: BlockHistogram = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back.iter_sorted(), h.iter_sorted());
        assert_eq!(back.block_size(), h.block_size());
    }

    #[test]
    fn deserialize_normalizes_unsorted_input() {
        let mut h = hist(4096, 1024);
        h.record(AccessKind::Read, 0, 2 * 4096, 7, false);
        let mut v = serde::Serialize::to_value(&h);
        if let serde::Value::Object(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "blocks" {
                    if let serde::Value::Array(pairs) = val {
                        pairs.reverse();
                    }
                }
            }
        }
        let back: BlockHistogram = serde::Deserialize::from_value(&v).unwrap();
        let keys: Vec<u64> = back.iter_sorted().iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![0, 1], "hand-edited order is re-sorted on restore");
    }

    #[test]
    fn last_op_tracks_most_recent_writer() {
        let mut h = hist(4096, 16);
        h.record(AccessKind::Write, 0, 10, 5, false);
        h.record(AccessKind::Read, 0, 10, 6, false);
        assert!(!h.iter_sorted()[0].1.last_was_write);
    }
}
