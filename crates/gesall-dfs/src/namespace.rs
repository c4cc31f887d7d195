//! The name node's state, all of it in one place: files, which file
//! owns a block, which blocks each node is listed for, which nodes are
//! dead, which paths are pinned and which of those a sweep retired, and
//! which files hold which content.
//! `DfsInner` keeps one [`Namespace`] behind one `RwLock`, and the
//! `&mut self` methods here are the only code that changes any of it —
//! so each fact has one writer and [`Namespace::check`] can state what
//! always holds.
//!
//! **Under the lock:** map lookups and edits, cloning a `FileInfo` or a
//! replica list, and — for recovery only — verifying, copying and
//! unlinking one block's replicas (`recovery.rs`; a repair must not race
//! a second repair of the same block). **Never under it:** a client
//! read's or write's payload I/O (a hedge's alternate read too), checksumming.
//! Readers snapshot what they need and let go; a writer stores its
//! replicas first and takes the lock only to [`Namespace::commit_file`].
//! Block-store locks are leaves: nothing else is acquired under one but
//! the store's own tally of distinct backings, taken innermost.

use crate::checksum::xxh64;
use crate::types::{BlockInfo, DfsError, FailureReport, FileInfo, SweepReason};
use std::collections::{BTreeSet, HashMap, HashSet};

/// What a file holds, as far as its metadata can tell: its length and a
/// digest folded from its blocks' checksums — which the write computed
/// anyway, so no payload byte is hashed for it. Equal ids name
/// candidates; only a byte comparison makes them equal contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ContentId(usize, u64);

impl ContentId {
    pub(crate) fn of(len: usize, checksums: impl IntoIterator<Item = u64>) -> ContentId {
        let folded: Vec<u8> = checksums.into_iter().flat_map(u64::to_le_bytes).collect();
        ContentId(len, xxh64(&folded))
    }

    fn of_file(info: &FileInfo) -> ContentId {
        ContentId::of(info.len, info.blocks.iter().map(|b| b.checksum))
    }
}

pub(crate) struct Namespace {
    files: HashMap<String, FileInfo>,
    /// Block id → (owning file path, position in its block list): how
    /// reads, quarantine, targeted repair and incremental re-replication
    /// reach a block without a scan.
    owner: HashMap<u64, (String, usize)>,
    /// Per node, the ids of the blocks whose replica list names it —
    /// the inverse of `FileInfo::blocks[].nodes`.
    node_index: Vec<HashSet<u64>>,
    /// Nodes declared dead. Writes avoid them; they never come back
    /// (matching the engine's permanent node-death model).
    dead: HashSet<usize>,
    /// Path → live pin refcount. A pinned path refuses deletion, so a
    /// cache entry a running stage still reads is never deleted from
    /// under it.
    pins: HashMap<String, u64>,
    /// Pinned paths a retention sweep retired, and why: each goes at
    /// its last unpin (unlink-while-open), charged to that reason.
    marked: HashMap<String, SweepReason>,
    /// Content id → the live files with it: where `cas_put` looks for
    /// a stored copy of its payload.
    content: HashMap<ContentId, BTreeSet<String>>,
}

impl Namespace {
    pub(crate) fn new(n_nodes: usize) -> Namespace {
        Namespace {
            files: HashMap::new(),
            owner: HashMap::new(),
            node_index: vec![HashSet::new(); n_nodes],
            dead: HashSet::new(),
            pins: HashMap::new(),
            marked: HashMap::new(),
            content: HashMap::new(),
        }
    }

    pub(crate) fn file(&self, path: &str) -> Option<&FileInfo> {
        self.files.get(path)
    }

    /// All paths with the given prefix, sorted.
    pub(crate) fn paths(&self, prefix: &str) -> Vec<String> {
        let mut v: Vec<String> = self.files.keys().filter(|p| p.starts_with(prefix)).cloned().collect();
        v.sort();
        v
    }

    /// A block's current metadata, by id.
    pub(crate) fn block(&self, id: u64) -> Option<&BlockInfo> {
        let (path, i) = self.owner.get(&id)?;
        self.files.get(path)?.blocks.get(*i)
    }

    fn block_mut(&mut self, id: u64) -> Option<&mut BlockInfo> {
        let (path, i) = self.owner.get(&id)?;
        self.files.get_mut(path)?.blocks.get_mut(*i)
    }

    /// Every block id, ascending (the order files were written in).
    #[cfg(test)]
    pub(crate) fn block_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.owner.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    pub(crate) fn dead(&self) -> &HashSet<usize> {
        &self.dead
    }

    pub(crate) fn live_nodes(&self) -> Vec<usize> {
        (0..self.node_index.len()).filter(|n| !self.dead.contains(n)).collect()
    }

    pub(crate) fn pin_count(&self, path: &str) -> u64 {
        self.pins.get(path).copied().unwrap_or(0)
    }

    pub(crate) fn any_pinned(&self, prefix: &str) -> bool {
        self.pins.keys().any(|p| p.starts_with(prefix))
    }

    /// Make the content index name `path` for `id`, true or not.
    #[cfg(test)]
    pub(crate) fn plant_content(&mut self, id: ContentId, path: &str) {
        self.content.entry(id).or_default().insert(path.to_string());
    }

    /// The live files whose content id is `id`, in path order.
    pub(crate) fn with_content(&self, id: ContentId) -> Vec<String> {
        self.content.get(&id).map_or_else(Vec::new, |paths| paths.iter().cloned().collect())
    }

    /// Insert-if-absent. The loser of a same-path race gets its
    /// `FileInfo` back, to free the replicas it stored. A node that died
    /// while the payload was being stored is not listed.
    pub(crate) fn commit_file(&mut self, mut info: FileInfo) -> Result<FileInfo, FileInfo> {
        if self.files.contains_key(&info.path) {
            return Err(info);
        }
        for (i, b) in info.blocks.iter_mut().enumerate() {
            b.nodes.retain(|n| !self.dead.contains(n));
            self.owner.insert(b.id, (info.path.clone(), i));
            for &n in &b.nodes {
                self.node_index[n].insert(b.id);
            }
        }
        self.content.entry(ContentId::of_file(&info)).or_default().insert(info.path.clone());
        self.files.insert(info.path.clone(), info.clone());
        Ok(info)
    }

    /// Remove a file's metadata unless it is pinned; the caller frees
    /// the replicas the returned `FileInfo` lists.
    pub(crate) fn remove_file(&mut self, path: &str) -> Result<FileInfo, DfsError> {
        if self.pins.contains_key(path) {
            return Err(DfsError::Pinned(path.to_string()));
        }
        self.unlink(path).ok_or_else(|| DfsError::FileNotFound(path.to_string()))
    }

    /// Retire every file under `dir`: an unpinned one is removed now
    /// (the caller frees the returned files' replicas), a pinned one is
    /// marked to go at its last [`Namespace::unpin`]. Returns the
    /// removed files and how many were marked.
    pub(crate) fn retire(&mut self, dir: &str, reason: SweepReason) -> (Vec<FileInfo>, usize) {
        let mut removed = Vec::new();
        let mut marked = 0;
        for path in self.paths(dir) {
            if self.pins.contains_key(&path) {
                self.marked.insert(path, reason);
                marked += 1;
            } else {
                removed.extend(self.unlink(&path));
            }
        }
        (removed, marked)
    }

    fn unlink(&mut self, path: &str) -> Option<FileInfo> {
        let info = self.files.remove(path)?;
        let id = ContentId::of_file(&info);
        if let Some(paths) = self.content.get_mut(&id) {
            paths.remove(path);
            if paths.is_empty() {
                self.content.remove(&id);
            }
        }
        for b in &info.blocks {
            self.owner.remove(&b.id);
            for &n in &b.nodes {
                self.node_index[n].remove(&b.id);
            }
        }
        Some(info)
    }

    pub(crate) fn drop_replica(&mut self, id: u64, node: usize) {
        self.node_index[node].remove(&id);
        if let Some(b) = self.block_mut(id) {
            b.nodes.retain(|&n| n != node);
        }
    }

    pub(crate) fn add_replica(&mut self, id: u64, node: usize) {
        let Some(b) = self.block_mut(id) else { return };
        b.nodes.push(node);
        self.node_index[node].insert(id);
    }

    /// Declare `node` dead and scrub it from exactly the blocks its
    /// index names. Returns whether it was alive until now, and which
    /// blocks lost their last replica or fell below `target` replicas.
    pub(crate) fn drop_node(&mut self, node: usize, target: usize) -> (bool, FailureReport) {
        let newly_dead = self.dead.insert(node);
        let mut report = FailureReport { node, ..FailureReport::default() };
        let mut held: Vec<u64> = std::mem::take(&mut self.node_index[node]).into_iter().collect();
        held.sort_unstable();
        for id in held {
            let Some(b) = self.block_mut(id) else { continue };
            b.nodes.retain(|&n| n != node);
            if b.nodes.is_empty() {
                report.blocks_lost.push(id);
            } else if b.nodes.len() < target {
                report.under_replicated.push(id);
            }
        }
        (newly_dead, report)
    }

    pub(crate) fn pin(&mut self, path: &str) -> Result<(), DfsError> {
        if !self.files.contains_key(path) {
            return Err(DfsError::FileNotFound(path.to_string()));
        }
        *self.pins.entry(path.to_string()).or_insert(0) += 1;
        Ok(())
    }

    /// Release one pin. The last pin on a marked file removes it: the
    /// caller frees the returned file's replicas and charges `reason`.
    pub(crate) fn unpin(&mut self, path: &str) -> Option<(FileInfo, SweepReason)> {
        let n = self.pins.get_mut(path)?;
        *n -= 1;
        if *n > 0 {
            return None;
        }
        self.pins.remove(path);
        let reason = self.marked.remove(path)?;
        Some((self.unlink(path).expect("a pin names a file"), reason))
    }

    /// What every method above leaves true: the owner map, the node
    /// index and the content index are what the files' block lists
    /// imply, no dead node is listed, no pin names a missing file, every
    /// marked file is pinned.
    pub(crate) fn check(&self) -> Result<(), String> {
        let mut owner = HashMap::new();
        let mut node_index = vec![HashSet::new(); self.node_index.len()];
        let mut content: HashMap<ContentId, BTreeSet<String>> = HashMap::new();
        for (path, info) in &self.files {
            content.entry(ContentId::of_file(info)).or_default().insert(path.clone());
            for (i, b) in info.blocks.iter().enumerate() {
                owner.insert(b.id, (path.clone(), i));
                for &n in &b.nodes {
                    node_index[n].insert(b.id);
                }
            }
        }
        if owner != self.owner {
            return Err(format!("owner map {:?}, block lists imply {owner:?}", self.owner));
        }
        if node_index != self.node_index {
            return Err(format!("node index {:?}, replica lists imply {node_index:?}", self.node_index));
        }
        if content != self.content {
            return Err(format!("content index {:?}, live files imply {content:?}", self.content));
        }
        if let Some(n) = self.dead.iter().find(|&&n| !node_index[n].is_empty()) {
            return Err(format!("dead node {n} is listed for blocks {:?}", node_index[*n]));
        }
        if let Some(p) = self.pins.keys().find(|p| !self.files.contains_key(*p)) {
            return Err(format!("pin on missing file {p}"));
        }
        match self.marked.keys().find(|p| !self.pins.contains_key(*p)) {
            Some(p) => Err(format!("marked file {p} holds no pin")),
            None => Ok(()),
        }
    }
}
