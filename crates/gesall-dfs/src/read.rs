//! The client read path: resolve a block's live replicas, prefer the
//! reader's own node, hedge a slow primary, verify what is served, retry
//! what is transient under a deadline — and the one block walk behind
//! every whole-file and range read. The namespace lock is held only to
//! snapshot a replica list; recovery (`recovery.rs`) is called into
//! when a replica fails verification.
//!
//! No decision here reads a clock: a replica read charges its service
//! time (an injected slow node's delay, else nothing) to a per-read
//! ledger that also sums retry pauses, and the hedge budget and the
//! deadline are held to that ledger — so a fault schedule replays exactly.

use crate::checksum::xxh64;
use crate::fs::Dfs;
use crate::types::{metrics_keys, BlockInfo, DfsError, FileInfo, RangeRead, ReadAffinity};
use gesall_formats::SharedBytes;
use gesall_telemetry::Unpoisoned;
use std::time::Duration;

/// Re-attempts of a block read whose failure is transient.
pub const READ_RETRIES: usize = 3;
/// Backoff before the first retry (ms); doubles per retry, ±50% seeded jitter.
pub const RETRY_BACKOFF_MS: u64 = 1;
/// Ledger time (ms) one block read may spend, retries included, before
/// it fails with [`DfsError::Timeout`].
pub const READ_DEADLINE_MS: u64 = 10_000;
/// Hedge budget (µs): a replica whose node's p90 service time exceeds it
/// is suspect, and a suspect primary read that overruns it is hedged.
pub const HEDGE_AFTER_MICROS: u64 = 5_000;

/// A replica's answer and the node that gave it.
type Served = Result<(SharedBytes, usize), DfsError>;

impl Dfs {
    /// Read one block from any live replica. Zero-copy: the returned
    /// handle is a window onto the stored block itself (the writer's
    /// backing, or the block file's mapping when persisted).
    ///
    /// Every replica payload is verified against the block's checksum;
    /// a mismatch quarantines that replica, repairs it from a verified
    /// survivor, and falls through to the next replica — a corrupt
    /// replica never reaches the caller. Transient failures are retried
    /// up to [`READ_RETRIES`] times with seeded-jitter exponential
    /// backoff under a per-op deadline ([`READ_DEADLINE_MS`]), and a
    /// slow primary replica is hedged against an alternate (see
    /// [`HEDGE_AFTER_MICROS`]).
    pub fn read_block(&self, block: &BlockInfo) -> Result<SharedBytes, DfsError> {
        self.read_block_at(block, ReadAffinity::NONE)
            .map(|(bytes, _)| bytes)
    }

    /// [`Dfs::read_block`] with a replica-placement preference: when the
    /// affinity node holds a live replica it is tried first, so a
    /// reader co-located with a replica is served without crossing the
    /// network. Affinity only *reorders* replica preference — every
    /// fallback (hedging a slow preferred node, quarantine, retry,
    /// repair) behaves exactly as without it. Also returns the node
    /// that actually served the bytes, so callers can account local
    /// versus remote traffic.
    pub fn read_block_at(
        &self,
        block: &BlockInfo,
        affinity: ReadAffinity,
    ) -> Result<(SharedBytes, usize), DfsError> {
        // The ledger: every pass's service time and every retry's pause.
        let mut spent = Duration::ZERO;
        let mut attempt = 0usize;
        loop {
            let (outcome, cost) = self.read_block_once(block, affinity);
            spent += cost;
            match outcome {
                Ok((bytes, node)) => {
                    self.count(metrics_keys::BLOCKS_READ, 1);
                    self.count(metrics_keys::BYTES_READ, bytes.len() as u64);
                    return Ok((bytes, node));
                }
                Err(e) if e.is_retryable() && attempt < READ_RETRIES => {
                    attempt += 1;
                    self.count(metrics_keys::READS_RETRIED, 1);
                    let seed = self.inner.config.seed;
                    spent += backoff_with_jitter(RETRY_BACKOFF_MS, attempt, seed, block.id);
                    if spent >= Duration::from_millis(READ_DEADLINE_MS) {
                        return Err(DfsError::Timeout(format!(
                            "block {}: {READ_DEADLINE_MS} ms deadline exhausted after \
                             {attempt} retries ({e})",
                            block.id
                        )));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One pass over the block's live replicas: prefer the affinity
    /// node's replica when it exists, hedge the first-choice replica
    /// when its node looks slow, verify whatever payload is served, and
    /// classify the failure if nothing verifies. On success also
    /// returns the node that served the payload; either way, what the
    /// pass cost.
    fn read_block_once(&self, block: &BlockInfo, affinity: ReadAffinity) -> (Served, Duration) {
        let mut nodes = self.live_replica_nodes(block);
        // Affinity is a preference, not a pin: rotate the co-located
        // replica to the front (keeping the rest in placement order for
        // fallback) and leave every other defence untouched — a slow
        // co-located replica still gets hedged against the alternate,
        // and a quarantined one simply isn't in the live list.
        if let Some(want) = affinity.0 {
            if let Some(i) = nodes.iter().position(|&n| n == want) {
                nodes[..=i].rotate_right(1);
            }
        }
        let mut outcome = Err(DfsError::BlockMissing(block.id));
        let mut spent = Duration::ZERO;
        let mut rest = &nodes[..];
        if nodes.len() > 1 && self.node_suspect_slow(nodes[0]) {
            // Within the budget the primary's outcome stands, and a
            // failure goes on to the alternate like any next replica.
            (outcome, spent) = self.read_replica(nodes[0], block);
            rest = &nodes[1..];
            if spent > Duration::from_micros(HEDGE_AFTER_MICROS) {
                (outcome, spent) = self.hedge(block, nodes[1], (outcome, spent));
                rest = &nodes[2..];
            }
        }
        for &n in rest {
            let Err(worst) = outcome else { break };
            let (read, cost) = self.read_replica(n, block);
            spent += cost;
            outcome = read.map_err(|e| worse(e, worst));
        }
        (outcome, spent)
    }

    /// The block's replica homes per current metadata (the caller's
    /// `BlockInfo` may predate a quarantine or repair), minus dead
    /// nodes. Falls back to the caller's snapshot for deleted files.
    fn live_replica_nodes(&self, block: &BlockInfo) -> Vec<usize> {
        let ns = self.inner.ns.read().unpoisoned();
        let nodes = ns.block(block.id).map_or(&block.nodes, |b| &b.nodes);
        nodes.iter().copied().filter(|n| !ns.dead().contains(n)).collect()
    }

    /// Does `node`'s service-time history (p90) exceed the hedge budget?
    fn node_suspect_slow(&self, node: usize) -> bool {
        self.inner.read_lat[node].quantile(0.9).is_some_and(|p90| p90 > HEDGE_AFTER_MICROS)
    }

    /// The `primary`, read to completion, overran the hedge budget:
    /// count a hedge and read `alt` as if launched when the budget ran
    /// out. A verified alternate wins; otherwise the primary's outcome
    /// stands, done when the later of the two is.
    fn hedge(&self, block: &BlockInfo, alt: usize, primary: (Served, Duration)) -> (Served, Duration) {
        self.count(metrics_keys::READS_HEDGED, 1);
        let launched = Duration::from_micros(HEDGE_AFTER_MICROS);
        match (self.read_replica(alt, block), primary) {
            ((Ok(won), cost), _) => {
                self.count(metrics_keys::READS_HEDGE_WINS, 1);
                (Ok(won), launched + cost)
            }
            ((Err(e), cost), (outcome, spent)) => {
                (outcome.map_err(|worst| worse(e, worst)), spent.max(launched + cost))
            }
        }
    }

    /// Serve one replica from `node`, charging its service time to the
    /// read and to the node's latency histogram, and verifying the
    /// checksum. A mismatch quarantines the replica and triggers
    /// targeted repair before reporting [`DfsError::Corrupt`]; a node
    /// that doesn't hold the block (wiped, or never stored) is
    /// [`DfsError::BlockMissing`]; [`DfsError::Io`] is transient, worth
    /// retrying elsewhere or later.
    fn read_replica(&self, node: usize, block: &BlockInfo) -> (Served, Duration) {
        // An in-process read costs nothing; a limping node charges its delay.
        let cost = Duration::from_millis(self.inner.faults.slow_ms(node).unwrap_or(0));
        let record = || self.inner.read_lat[node].record(cost.as_micros() as u64);
        if self.inner.faults.take_flaky_failure(node) {
            // The failed read still cost its service time: a limping
            // node that also flakes builds latency history from its
            // first read, not once its flake budget is spent.
            record();
            let e = DfsError::Io(format!("transient read failure on node {node} (block {})", block.id));
            return (Err(e), cost);
        }
        let Some(bytes) = self.inner.store.get(node, block.id) else {
            return (Err(DfsError::BlockMissing(block.id)), cost);
        };
        record();
        if xxh64(bytes.as_slice()) != block.checksum {
            self.quarantine_replica(node, block.id);
            return (Err(DfsError::Corrupt(block.id)), cost);
        }
        (Ok((bytes, node)), cost)
    }

    /// Read a whole file as shared bytes. Zero-copy whenever the file's
    /// blocks are adjacent windows of one backing — a single block, or
    /// any heap-resident file the zero-copy write path stored: the result
    /// shares the stored backing. Otherwise (mapped blocks, say) the
    /// blocks are stitched once and the copy counted.
    pub fn read_file_shared(&self, path: &str) -> Result<SharedBytes, DfsError> {
        let info = self.stat(path)?;
        self.read_span(&info, 0, info.len, ReadAffinity::NONE, metrics_keys::BYTES_COPIED)
            .map(|r| r.bytes)
    }

    /// Read `len` bytes of a file starting at `offset`, as shared
    /// bytes: a window onto the stored backing whenever the blocks the
    /// range overlaps are adjacent windows of one backing (always, for
    /// a range inside one block — for DFS-transit shuffle fetches the
    /// common case: one partition's frames out of a map output file).
    /// Otherwise the overlapped slices are stitched once and counted.
    pub fn read_file_range_shared(
        &self,
        path: &str,
        offset: usize,
        len: usize,
    ) -> Result<SharedBytes, DfsError> {
        self.read_file_range_shared_at(path, offset, len, ReadAffinity::NONE)
            .map(|r| r.bytes)
    }

    /// [`Dfs::read_file_range_shared`] with a [`ReadAffinity`] hint:
    /// every block read in the range prefers the affinity node's
    /// replica, and the returned [`RangeRead`] splits the bytes by
    /// whether the serving replica was the affinity node (local) or any
    /// other (remote) — the shuffle's locality accounting. Without an
    /// affinity node everything counts as remote.
    pub fn read_file_range_shared_at(
        &self,
        path: &str,
        offset: usize,
        len: usize,
        affinity: ReadAffinity,
    ) -> Result<RangeRead, DfsError> {
        let info = self.stat(path)?;
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= info.len)
            .ok_or_else(|| {
                DfsError::BadRange(format!(
                    "range {offset}+{len} beyond {path} (len {})",
                    info.len
                ))
            })?;
        self.read_span(&info, offset, end, affinity, metrics_keys::BYTES_COPIED_RANGE)
    }

    /// Bytes `offset..end` of a file (in bounds — the callers checked):
    /// read only the blocks the span overlaps, each verified. While the
    /// verified slices are adjacent windows of one backing they are
    /// joined into one window; from the first that is not, the span is
    /// stitched into a fresh buffer and the copy charged to `copied_key`.
    fn read_span(
        &self,
        info: &FileInfo,
        offset: usize,
        end: usize,
        affinity: ReadAffinity,
        copied_key: &str,
    ) -> Result<RangeRead, DfsError> {
        let mut read = RangeRead { bytes: SharedBytes::new(), local_bytes: 0, remote_bytes: 0 };
        if offset == end {
            return Ok(read);
        }
        let mut window: Option<SharedBytes> = None;
        let mut stitched: Option<Vec<u8>> = None;
        let mut block_start = 0usize;
        for b in &info.blocks {
            if block_start >= end {
                break;
            }
            let block_end = block_start + b.len;
            if block_end > offset {
                let (lo, hi) = (offset.max(block_start) - block_start, end.min(block_end) - block_start);
                let (block, served) = self.read_block_at(b, affinity)?;
                if affinity.0 == Some(served) {
                    read.local_bytes += (hi - lo) as u64;
                } else {
                    read.remote_bytes += (hi - lo) as u64;
                }
                let piece = block.slice(lo..hi);
                // A slice is copied right after its read verified it,
                // while the cache still holds it.
                match (&mut stitched, window.take()) {
                    (Some(buf), _) => buf.extend_from_slice(&piece),
                    (None, None) => window = Some(piece),
                    (None, Some(w)) => match w.join(&piece) {
                        Some(joined) => window = Some(joined),
                        None => {
                            let mut buf = Vec::with_capacity(end - offset);
                            buf.extend_from_slice(&w);
                            buf.extend_from_slice(&piece);
                            stitched = Some(buf);
                        }
                    },
                }
            }
            block_start = block_end;
        }
        read.bytes = match stitched {
            Some(buf) => {
                debug_assert_eq!(buf.len(), end - offset);
                self.count(copied_key, buf.len() as u64);
                SharedBytes::from_vec(buf)
            }
            None => window.unwrap_or_default(),
        };
        Ok(read)
    }
}

/// Of two replicas' failures, the one a block read reports (ties go to
/// `newer`): a transient one may clear on retry even if the other
/// replica was corrupt (that one is already quarantined); a missing
/// replica says nothing.
fn worse(newer: DfsError, worst: DfsError) -> DfsError {
    let rank = |e: &DfsError| match e {
        DfsError::Io(_) => 2,
        DfsError::Corrupt(_) => 1,
        _ => 0,
    };
    if rank(&newer) >= rank(&worst) { newer } else { worst }
}

/// Exponential backoff with deterministic ±50% jitter: attempt `k`
/// pauses `base * 2^(k-1) * [0.5, 1.0)` milliseconds, where the jitter
/// fraction is a pure hash of `(seed, nonce, attempt)` so fault runs
/// replay identically.
fn backoff_with_jitter(base_ms: u64, attempt: usize, seed: u64, nonce: u64) -> Duration {
    let exp = base_ms.max(1).saturating_mul(1 << (attempt - 1).min(6)) as f64;
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(nonce.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add((attempt as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let jitter = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    Duration::from_micros((exp * (0.5 + 0.5 * jitter) * 1000.0) as u64)
}

#[cfg(test)]
mod tests {
    use super::{READ_DEADLINE_MS, READ_RETRIES};
    use crate::fs::testutil::*;
    use crate::fs::*;

    #[test]
    fn single_block_shared_read_is_zero_copy() {
        let dfs = small_dfs();
        dfs.write_file("/one", &payload(800)).unwrap();
        let after_write = dfs.metrics().counter(metrics_keys::BYTES_COPIED).get();
        let block0 = dfs.read_block(&dfs.stat("/one").unwrap().blocks[0]).unwrap();
        let got = dfs.read_file_shared("/one").unwrap();
        assert_eq!(got, payload(800));
        assert!(got.same_backing(&block0), "single-block read must not copy");
        assert_eq!(
            dfs.metrics().counter(metrics_keys::BYTES_COPIED).get(),
            after_write
        );
        // A multi-block file is one window of its writer's backing too.
        dfs.write_file("/many", &payload(3000)).unwrap();
        let many = dfs.read_file_shared("/many").unwrap();
        assert_eq!(many, payload(3000));
        assert!(many.same_backing(&dfs.read_block(&dfs.stat("/many").unwrap().blocks[2]).unwrap()));
        assert_eq!(dfs.metrics().counter(metrics_keys::BYTES_COPIED).get(), after_write + 3000);
    }

    #[test]
    fn range_read_single_block_is_zero_copy() {
        let dfs = small_dfs();
        let data = payload(3000); // 3 × 1 KiB blocks
        dfs.write_file("/r", &data).unwrap();
        // Entirely inside block 1.
        let got = dfs.read_file_range_shared("/r", 1024 + 100, 300).unwrap();
        assert_eq!(got.as_slice(), &data[1124..1424]);
        let block1 = dfs.read_block(&dfs.stat("/r").unwrap().blocks[1]).unwrap();
        assert!(got.same_backing(&block1), "in-block range must not copy");
        // Exactly one whole block.
        let whole = dfs.read_file_range_shared("/r", 1024, 1024).unwrap();
        assert!(whole.same_backing(&block1));
        assert_eq!(whole.len(), 1024);
        // Empty range.
        assert!(dfs.read_file_range_shared("/r", 500, 0).unwrap().is_empty());
    }

    /// Copies counted on the whole-file and the range gauges.
    fn copied(dfs: &Dfs) -> (u64, u64) {
        let get = |k: &str| dfs.metrics().counter(k).get();
        (get(metrics_keys::BYTES_COPIED), get(metrics_keys::BYTES_COPIED_RANGE))
    }

    #[test]
    fn a_span_across_blocks_is_one_window_of_the_stored_backing() {
        let dfs = small_dfs();
        let data = payload(3000);
        let info = dfs.write_file("/r", &data).unwrap();
        let before = copied(&dfs);
        let block1 = dfs.read_block(&info.blocks[1]).unwrap();
        let got = dfs.read_file_range_shared("/r", 900, 1500).unwrap();
        assert_eq!(got.as_slice(), &data[900..2400]);
        assert!(got.same_backing(&block1), "a span over adjacent windows must not copy");
        assert_eq!(got.as_ptr(), block1.as_ptr().wrapping_sub(124));
        let whole = dfs.read_file_shared("/r").unwrap();
        assert!(whole.same_backing(&block1));
        assert_eq!(copied(&dfs), before, "nothing was stitched");
        // Out-of-bounds ranges error instead of truncating.
        assert!(dfs.read_file_range_shared("/r", 2999, 2).is_err());
        assert!(dfs.read_file_range_shared("/r", usize::MAX, 2).is_err());
    }

    #[test]
    fn a_span_over_persisted_blocks_is_stitched_and_counted() {
        let (dfs, dir) = persisted_dfs("span", 1);
        let data = payload(3000);
        let info = dfs.write_file("/r", &data).unwrap();
        let (file0, range0) = copied(&dfs);
        let got = dfs.read_file_range_shared("/r", 900, 1500).unwrap();
        assert_eq!(got.as_slice(), &data[900..2400]);
        assert!(!got.same_backing(&dfs.read_block(&info.blocks[1]).unwrap()));
        assert_eq!(copied(&dfs), (file0, range0 + 1500));
        // Inside one block it is still a window of the block's mapping.
        let inside = dfs.read_file_range_shared("/r", 1100, 100).unwrap();
        assert!(inside.is_mapped());
        assert_eq!(dfs.read_file_shared("/r").unwrap(), data);
        assert_eq!(copied(&dfs), (file0 + 3000, range0 + 1500));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_span_across_a_re_replicated_block() {
        // Persisted, the restored replica is a block file of its own:
        // a span across it is stitched and counted.
        let (dfs, dir) = persisted_dfs("rerepl", 2);
        let data = payload(3000);
        write_pinned(&dfs, "/r", &data, 0);
        let lost = dfs.fail_node(0).under_replicated;
        assert_eq!(dfs.re_replicate_blocks(&lost), 3);
        let (_, range0) = copied(&dfs);
        assert_eq!(dfs.read_file_range_shared("/r", 900, 1500).unwrap(), data[900..2400]);
        assert_eq!(copied(&dfs).1, range0 + 1500);
        std::fs::remove_dir_all(&dir).ok();
        // Heap-resident, a restored replica is another window of the
        // writer's backing, so the span is still one window.
        let dfs = Dfs::new(DfsConfig { n_nodes: 3, block_size: 1024, replication: 2, ..DfsConfig::default() });
        let info = write_pinned(&dfs, "/r", &data, 0);
        let lost = dfs.fail_node(0).under_replicated;
        assert_eq!(dfs.re_replicate_blocks(&lost), 3);
        let got = dfs.read_file_range_shared("/r", 900, 1500).unwrap();
        assert_eq!(got, data[900..2400]);
        assert!(got.same_backing(&dfs.read_block(&info.blocks[0]).unwrap()));
        assert_eq!(copied(&dfs).1, 0);
    }

    #[test]
    fn stale_block_info_still_reads_after_repair() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 4,
            block_size: 1024,
            replication: 2,
            ..DfsConfig::default()
        });
        let data = payload(800);
        let info = write_pinned(&dfs, "/s", &data, 0);
        let stale = info.blocks[0].clone();
        dfs.corrupt_block("/s", 0, 0).unwrap();
        dfs.read_file_shared("/s").unwrap(); // detect + repair; homes moved
        // A reader holding pre-repair metadata must still be served —
        // the read path re-resolves replica homes through the locator.
        assert_eq!(dfs.read_block(&stale).unwrap().as_slice(), &data[..]);
    }

    #[test]
    fn flaky_reads_are_retried_with_backoff() {
        let dfs = small_dfs();
        let data = payload(700); // 1 block on one node
        let info = dfs.write_file("/f", &data).unwrap();
        let home = info.blocks[0].nodes[0];
        dfs.inject_flaky_reads(home, 2);
        assert_eq!(dfs.read_file_shared("/f").unwrap(), data);
        assert_eq!(dfs.metrics().counter(metrics_keys::READS_RETRIED).get(), 2);
        // Once the injected failures are consumed, reads are clean.
        assert_eq!(dfs.read_file_shared("/f").unwrap(), data);
        assert_eq!(dfs.metrics().counter(metrics_keys::READS_RETRIED).get(), 2);
    }

    #[test]
    fn retries_exhausted_is_retryable_deadline_is_timeout() {
        let one_node = || {
            let dfs = Dfs::new(DfsConfig {
                n_nodes: 1,
                block_size: 1024,
                replication: 1,
                ..DfsConfig::default()
            });
            let info = dfs.write_file("/f", &payload(100)).unwrap();
            dfs.inject_flaky_reads(0, 100);
            (dfs, info.blocks[0].clone())
        };
        let (dfs, block) = one_node();
        let err = dfs.read_block(&block).unwrap_err();
        assert!(matches!(err, DfsError::Io(_)), "got {err}");
        assert!(err.is_retryable());
        let retried = dfs.metrics().counter(metrics_keys::READS_RETRIED).get();
        assert_eq!(retried, READ_RETRIES as u64);
        // A flaky node that also limps past the deadline: the first pass
        // alone charges more than the deadline, so the first retry's
        // pause runs the ledger out — and no wall time passes.
        let (dfs, block) = one_node();
        dfs.inject_slow_node(0, READ_DEADLINE_MS + 1);
        let err = dfs.read_block(&block).unwrap_err();
        assert!(matches!(err, DfsError::Timeout(_)), "got {err}");
        assert!(err.is_retryable());
        assert_eq!(dfs.metrics().counter(metrics_keys::READS_RETRIED).get(), 1);
    }

    #[test]
    fn slow_node_triggers_hedged_reads() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 2,
            block_size: 1024,
            replication: 2,
            ..DfsConfig::default()
        });
        let data = payload(900);
        let info = write_pinned(&dfs, "/h", &data, 0);
        dfs.inject_slow_node(0, 20);
        // First read is just slow — it seeds node 0's latency history.
        assert_eq!(dfs.read_file_shared("/h").unwrap(), data);
        assert_eq!(dfs.metrics().counter(metrics_keys::READS_HEDGED).get(), 0);
        // Subsequent reads see a suspect primary overrun the budget and
        // hedge to node 1, which verifies and wins.
        for _ in 0..3 {
            assert_eq!(dfs.read_file_shared("/h").unwrap(), data);
        }
        let hedged = dfs.metrics().counter(metrics_keys::READS_HEDGED).get();
        let wins = dfs.metrics().counter(metrics_keys::READS_HEDGE_WINS).get();
        assert_eq!(hedged, 3);
        assert_eq!(wins, 3, "the fast alternate must win every hedge");
        assert_eq!(dfs.read_block(&info.blocks[0]).unwrap().as_slice(), &data[..]);
    }

    #[test]
    fn a_suspect_primary_that_fails_within_the_budget_falls_through_to_the_alternate() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 2,
            block_size: 1024,
            replication: 2,
            ..DfsConfig::default()
        });
        let data = payload(900);
        let info = write_pinned(&dfs, "/w", &data, 0);
        assert_eq!(info.blocks[0].nodes, vec![0, 1]);
        // 5 ms lands in the 4 096–8 191 µs bucket: once one read is on
        // record, node 0's p90 reads above the hedge budget while each
        // of its reads is within it.
        dfs.inject_slow_node(0, 5);
        assert_eq!(dfs.read_file_shared("/w").unwrap(), data);
        dfs.corrupt_block("/w", 0, 0).unwrap();
        // The suspect primary answers within the budget, corrupt: its
        // replica is quarantined and repaired, and the pass goes on to
        // the alternate, which serves the block.
        let (bytes, served) = dfs.read_block_at(&info.blocks[0], ReadAffinity::NONE).unwrap();
        assert_eq!((bytes.as_slice(), served), (&data[..], 1));
        let get = |k: &str| dfs.metrics().counter(k).get();
        assert_eq!(get(metrics_keys::READS_HEDGED), 0, "a primary within the budget is not hedged");
        assert_eq!(get(metrics_keys::BLOCKS_CORRUPT_DETECTED), 1);
        assert_eq!(get(metrics_keys::BLOCKS_CORRUPT_REPAIRED), 1);
    }

    #[test]
    fn read_affinity_prefers_co_located_replica() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 3,
            block_size: 1024,
            replication: 2,
            ..DfsConfig::default()
        });
        let data = payload(800);
        let info = write_pinned(&dfs, "/aff", &data, 0);
        let homes = info.blocks[0].nodes.clone();
        assert_eq!(homes.len(), 2);
        // Affinity on either replica home: all bytes served locally.
        for &n in &homes {
            let r = dfs
                .read_file_range_shared_at("/aff", 0, 800, ReadAffinity::node(n))
                .unwrap();
            assert_eq!(r.bytes.as_slice(), &data[..]);
            assert_eq!((r.local_bytes, r.remote_bytes), (800, 0), "node {n}");
        }
        // Affinity on the replica-less node, or no affinity at all:
        // same bytes, all remote.
        let stranger = (0..3).find(|n| !homes.contains(n)).unwrap();
        for aff in [ReadAffinity::node(stranger), ReadAffinity::NONE] {
            let r = dfs
                .read_file_range_shared_at("/aff", 0, 800, aff)
                .unwrap();
            assert_eq!(r.bytes.as_slice(), &data[..]);
            assert_eq!((r.local_bytes, r.remote_bytes), (0, 800));
        }
    }

    #[test]
    fn read_affinity_falls_back_when_local_replica_quarantined() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 3,
            block_size: 1024,
            replication: 2,
            ..DfsConfig::default()
        });
        let data = payload(700);
        let info = write_pinned(&dfs, "/q", &data, 0);
        let homes = info.blocks[0].nodes.clone();
        // Corrupt the replica on the reader's own node: the read must
        // detect it, quarantine, and serve the survivor — correct bytes,
        // counted remote because the co-located copy was unusable.
        dfs.corrupt_block("/q", 0, 0).unwrap();
        let r = dfs
            .read_file_range_shared_at("/q", 0, 700, ReadAffinity::node(homes[0]))
            .unwrap();
        assert_eq!(r.bytes.as_slice(), &data[..]);
        assert_eq!((r.local_bytes, r.remote_bytes), (0, 700));
        assert_eq!(
            dfs.metrics()
                .counter(metrics_keys::BLOCKS_CORRUPT_DETECTED)
                .get(),
            1
        );
    }

    #[test]
    fn read_affinity_does_not_defeat_hedged_reads() {
        let dfs = Dfs::new(DfsConfig {
            n_nodes: 2,
            block_size: 1024,
            replication: 2,
            ..DfsConfig::default()
        });
        let data = payload(900);
        write_pinned(&dfs, "/ha", &data, 0);
        dfs.inject_slow_node(0, 20);
        // Seed node 0's latency history (affinity pointed straight at
        // the slow node, so this read is served slowly by it).
        let r = dfs
            .read_file_range_shared_at("/ha", 0, 900, ReadAffinity::node(0))
            .unwrap();
        assert_eq!(r.bytes.as_slice(), &data[..]);
        assert_eq!(dfs.metrics().counter(metrics_keys::READS_HEDGED).get(), 0);
        // Now node 0 is suspect: even though affinity prefers it, the
        // read must hedge to node 1, which wins — affinity reorders
        // preference, it never disables the slow-node defence.
        for _ in 0..3 {
            let r = dfs
                .read_file_range_shared_at("/ha", 0, 900, ReadAffinity::node(0))
                .unwrap();
            assert_eq!(r.bytes.as_slice(), &data[..]);
            assert_eq!(
                (r.local_bytes, r.remote_bytes),
                (0, 900),
                "hedge winner is the remote replica"
            );
        }
        assert_eq!(dfs.metrics().counter(metrics_keys::READS_HEDGED).get(), 3);
        assert_eq!(
            dfs.metrics().counter(metrics_keys::READS_HEDGE_WINS).get(),
            3,
            "the fast alternate must win every hedge"
        );
    }
}
