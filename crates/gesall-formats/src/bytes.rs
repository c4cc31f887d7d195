//! Shared, sliceable byte buffers — the zero-copy currency of the
//! record path (DESIGN.md §6).
//!
//! A [`SharedBytes`] is a `[start, end)` window into an `Arc<Vec<u8>>`
//! backing allocation — the vector it was built from, moved behind the
//! refcount, never re-allocated. `clone` and [`SharedBytes::slice`] are O(1) and
//! never touch the payload, so a DFS block handed to a frame reader, a
//! map-output partition handed to a reducer, and a pipe chunk handed
//! across threads all reference the same allocation instead of
//! memcpy'ing it. [`SharedBytes::same_backing`] makes that property
//! testable: a fetch that claims to be zero-copy can assert pointer
//! identity with the buffer it was sliced from.

use crate::mapped::MappedRegion;
use std::io;
use std::ops::{Bound, Deref, RangeBounds};
use std::path::Path;
use std::sync::Arc;

/// What a [`SharedBytes`] window references: a heap allocation or a
/// file-mapped region (see [`crate::mapped`]). Both clone by refcount;
/// `same_backing` is pointer identity within a variant and never true
/// across variants.
#[derive(Clone)]
enum Backing {
    Heap(Arc<Vec<u8>>),
    Mapped(Arc<MappedRegion>),
}

impl Backing {
    fn as_slice(&self) -> &[u8] {
        match self {
            Backing::Heap(a) => a,
            Backing::Mapped(m) => m.as_slice(),
        }
    }

    fn ptr_eq(&self, other: &Backing) -> bool {
        match (self, other) {
            (Backing::Heap(a), Backing::Heap(b)) => Arc::ptr_eq(a, b),
            (Backing::Mapped(a), Backing::Mapped(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The address of the refcounted allocation: equal exactly when
    /// `ptr_eq` holds, for as long as either side is alive.
    fn id(&self) -> usize {
        match self {
            Backing::Heap(a) => Arc::as_ptr(a) as *const u8 as usize,
            Backing::Mapped(m) => Arc::as_ptr(m) as *const u8 as usize,
        }
    }
}

/// Immutable, reference-counted byte range. `clone` and `slice` are
/// O(1); the payload is copied only at construction from a borrowed
/// slice ([`SharedBytes::copy_from_slice`]) — [`SharedBytes::from_vec`]
/// moves the vector behind the refcount (its heap block *is* the
/// backing), and [`SharedBytes::map_file`] doesn't even allocate: it
/// windows a file mapping.
#[derive(Clone)]
pub struct SharedBytes {
    data: Backing,
    start: usize,
    end: usize,
}

impl SharedBytes {
    /// An empty buffer (no allocation shared with anything).
    pub fn new() -> SharedBytes {
        SharedBytes {
            data: Backing::Heap(Arc::default()),
            start: 0,
            end: 0,
        }
    }

    /// Take ownership of `v` without copying the payload: O(1), and the
    /// bytes stay where `v` had them (spare capacity included — a
    /// caller that over-reserved keeps paying for it).
    pub fn from_vec(v: Vec<u8>) -> SharedBytes {
        let end = v.len();
        SharedBytes {
            data: Backing::Heap(Arc::new(v)),
            start: 0,
            end,
        }
    }

    /// Copy `data` into a fresh backing allocation.
    pub fn copy_from_slice(data: &[u8]) -> SharedBytes {
        SharedBytes {
            data: Backing::Heap(Arc::new(data.to_vec())),
            start: 0,
            end: data.len(),
        }
    }

    /// Map a file read-only and window the whole mapping: on unix the
    /// "read" is a page-table op and the kernel pages bytes in on
    /// demand; elsewhere this transparently
    /// falls back to a single heap read. Slices and clones share the
    /// mapping like any other backing.
    pub fn map_file(path: &Path) -> io::Result<SharedBytes> {
        Ok(SharedBytes::from_region(Arc::new(MappedRegion::map(path)?)))
    }

    /// Window an existing mapped region (shared, not re-mapped).
    pub fn from_region(region: Arc<MappedRegion>) -> SharedBytes {
        let end = region.len();
        SharedBytes {
            data: Backing::Mapped(region),
            start: 0,
            end,
        }
    }

    /// Is this window backed by a file mapping (including the heap
    /// fallback of a [`MappedRegion`]) rather than an owned allocation?
    pub fn is_mapped(&self) -> bool {
        matches!(self.data, Backing::Mapped(_))
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.data.as_slice()[self.start..self.end]
    }

    /// O(1) sub-range sharing the same backing allocation.
    ///
    /// Panics if the range is out of bounds, like slice indexing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> SharedBytes {
        let len = self.len();
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            lo <= hi && hi <= len,
            "slice {lo}..{hi} out of range for {len} bytes"
        );
        SharedBytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Do `self` and `other` reference the same backing allocation (or
    /// the same file mapping)? This is the zero-copy witness: a slice
    /// of a buffer, or a clone of it, shares its backing; any path that
    /// memcpy'd does not.
    pub fn same_backing(&self, other: &SharedBytes) -> bool {
        self.data.ptr_eq(&other.data)
    }

    /// `self` followed by `next` as one window, when `next` starts where
    /// `self` ends in the same backing — O(1), nothing copied. `None`
    /// when the two are not adjacent windows of one allocation.
    pub fn join(&self, next: &SharedBytes) -> Option<SharedBytes> {
        (self.same_backing(next) && self.end == next.start).then(|| SharedBytes {
            data: self.data.clone(),
            start: self.start,
            end: next.end,
        })
    }

    /// Identity of the backing allocation: two live windows report the
    /// same id exactly when [`SharedBytes::same_backing`] holds. With
    /// [`SharedBytes::backing_len`] it lets a holder of many windows
    /// count the distinct bytes they keep alive.
    pub fn backing_id(&self) -> usize {
        self.data.id()
    }

    /// Length of the whole backing allocation (the vector's bytes, or
    /// the mapping's), however small this window of it is.
    pub fn backing_len(&self) -> usize {
        self.data.as_slice().len()
    }

    /// Copy this range out into an owned vector (an explicit copy).
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for SharedBytes {
    fn default() -> SharedBytes {
        SharedBytes::new()
    }
}

impl Deref for SharedBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for SharedBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::borrow::Borrow<[u8]> for SharedBytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for SharedBytes {
    fn from(v: Vec<u8>) -> SharedBytes {
        SharedBytes::from_vec(v)
    }
}

impl From<&[u8]> for SharedBytes {
    fn from(v: &[u8]) -> SharedBytes {
        SharedBytes::copy_from_slice(v)
    }
}

impl PartialEq for SharedBytes {
    fn eq(&self, other: &SharedBytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SharedBytes {}

impl PartialEq<[u8]> for SharedBytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for SharedBytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for SharedBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<SharedBytes> for Vec<u8> {
    fn eq(&self, other: &SharedBytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for SharedBytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl std::hash::Hash for SharedBytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedBytes(b\"")?;
        for &b in self.as_slice().iter().take(64) {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        if self.len() > 64 {
            write!(f, "… {} bytes", self.len())?;
        }
        write!(f, "\")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_and_slice_share_backing() {
        let b = SharedBytes::from_vec((0u8..100).collect());
        let s = b.slice(10..20);
        assert_eq!(s.len(), 10);
        assert_eq!(&s[..], &(10u8..20).collect::<Vec<u8>>()[..]);
        assert!(s.same_backing(&b), "slice must not copy");
        assert!(b.clone().same_backing(&b), "clone must not copy");
        // A nested slice still shares the original backing.
        let s2 = s.slice(2..5);
        assert!(s2.same_backing(&b));
        assert_eq!(s2, vec![12u8, 13, 14]);
    }

    #[test]
    fn from_vec_keeps_the_vectors_allocation() {
        let v: Vec<u8> = (0..=255).cycle().take(1 << 20).collect();
        let ptr = v.as_ptr();
        let b = SharedBytes::from_vec(v);
        assert_eq!(b.as_ptr(), ptr, "from_vec must not re-allocate the payload");
        assert_eq!(b.slice(100..).as_ptr(), ptr.wrapping_add(100));
        // Spare capacity is no reason to move the bytes either.
        let mut v = Vec::with_capacity(4096);
        v.extend_from_slice(b"acgt");
        let ptr = v.as_ptr();
        assert_eq!(SharedBytes::from_vec(v).as_ptr(), ptr);
    }

    #[test]
    fn copies_do_not_share_backing() {
        let b = SharedBytes::from_vec(vec![1, 2, 3]);
        let c = SharedBytes::copy_from_slice(&b);
        assert_eq!(b, c);
        assert!(!b.same_backing(&c));
    }

    #[test]
    fn equality_against_vec_and_slices() {
        let b = SharedBytes::copy_from_slice(b"acgt");
        assert_eq!(b, b"acgt".to_vec());
        assert_eq!(b, *b"acgt");
        assert_eq!(b, &b"acgt"[..]);
        assert_eq!(b"acgt".to_vec(), b);
        assert!(b != SharedBytes::copy_from_slice(b"acga"));
    }

    #[test]
    fn empty_and_bounds() {
        let e = SharedBytes::new();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let b = SharedBytes::from_vec(vec![9; 5]);
        assert_eq!(b.slice(..).len(), 5);
        assert!(b.slice(5..5).is_empty());
        assert_eq!(b.slice(..=2).len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_slice_panics() {
        SharedBytes::from_vec(vec![0; 4]).slice(2..6);
    }

    #[test]
    fn mapped_backing_slices_and_witnesses() {
        let data: Vec<u8> = (0u8..200).collect();
        let p = std::env::temp_dir().join(format!("gesall-bytes-map-{}", std::process::id()));
        std::fs::write(&p, &data).unwrap();
        let m = SharedBytes::map_file(&p).unwrap();
        assert!(m.is_mapped());
        assert_eq!(m, data);
        // Slices and clones share the mapping — refcount bumps only.
        let s = m.slice(50..100);
        assert!(s.same_backing(&m));
        assert_eq!(s, &data[50..100]);
        assert!(m.clone().same_backing(&m));
        // A heap copy of the same bytes is equal but not the same backing.
        let h = SharedBytes::copy_from_slice(&data);
        assert!(!h.is_mapped());
        assert_eq!(h, m);
        assert!(!h.same_backing(&m));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn adjacent_windows_of_one_backing_join_without_copying() {
        let b = SharedBytes::from_vec((0u8..100).collect());
        let joined = b.slice(10..40).join(&b.slice(40..70)).unwrap();
        assert_eq!(joined, &(10u8..70).collect::<Vec<u8>>()[..]);
        assert!(joined.same_backing(&b));
        assert_eq!(joined.as_ptr(), b.slice(10..).as_ptr());
        // An empty window joins on either side.
        assert_eq!(b.slice(5..5).join(&b.slice(5..9)).unwrap(), b.slice(5..9));
        // A gap, an overlap, the wrong order or another backing: no join.
        assert!(b.slice(10..40).join(&b.slice(41..70)).is_none());
        assert!(b.slice(10..40).join(&b.slice(39..70)).is_none());
        assert!(b.slice(40..70).join(&b.slice(10..40)).is_none());
        let c = SharedBytes::copy_from_slice(&b);
        assert!(b.slice(10..40).join(&c.slice(40..70)).is_none());
    }

    #[test]
    fn backing_identity_and_length() {
        let b = SharedBytes::from_vec(vec![7; 100]);
        let s = b.slice(10..20);
        assert_eq!((s.backing_id(), s.backing_len()), (b.backing_id(), 100));
        let c = SharedBytes::copy_from_slice(&s);
        assert_ne!(c.backing_id(), b.backing_id());
        assert_eq!(c.backing_len(), 10);
    }

    #[test]
    fn concat_via_borrow() {
        let parts = [
            SharedBytes::copy_from_slice(b"ab"),
            SharedBytes::copy_from_slice(b"cd"),
        ];
        assert_eq!(parts.concat(), b"abcd");
    }
}
