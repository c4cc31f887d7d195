//! File-mapped byte regions — the backing store behind
//! [`SharedBytes::map_file`](crate::bytes::SharedBytes::map_file).
//!
//! On a unix target [`MappedRegion::map`] maps the file read-only with
//! `mmap(2)` (declared directly against libc — the workspace vendors no
//! FFI crate), so "reading" a DFS block that lives on disk is a
//! page-table operation: no heap allocation, no payload copy, and the
//! kernel pages data in on demand. Everywhere else the same API reads
//! the file into a heap buffer, so callers never branch on platform.

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

/// Real mapping support is compiled in on unix.
pub const MMAP_COMPILED: bool = cfg!(unix);

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    // Prototypes straight from POSIX; std already links libc on unix,
    // so the symbols resolve without a vendored `libc` crate.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

/// An immutable byte region backed by a file mapping (or, on fallback,
/// by a heap buffer read from the file). `Drop` unmaps.
pub struct MappedRegion {
    /// Non-null, immutable for the region's lifetime.
    ptr: *const u8,
    len: usize,
    /// Heap fallback storage; when `Some`, `ptr` points into it and
    /// there is nothing to munmap.
    heap: Option<Vec<u8>>,
}

// The region is read-only after construction, so shared references are
// safe to send and share across threads.
unsafe impl Send for MappedRegion {}
unsafe impl Sync for MappedRegion {}

impl MappedRegion {
    /// Map `path` read-only. Empty files (and non-unix builds) use the
    /// heap fallback; [`MappedRegion::is_real_mmap`] tells them apart.
    pub fn map(path: &Path) -> io::Result<MappedRegion> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len() as usize;
        #[cfg(unix)]
        if len > 0 {
            use std::os::unix::io::AsRawFd;
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr != sys::map_failed() {
                return Ok(MappedRegion {
                    ptr: ptr as *const u8,
                    len,
                    heap: None,
                });
            }
            // mmap refused (exotic filesystem, rlimit): fall through to
            // the heap read rather than failing the caller.
        }
        MappedRegion::from_heap_read(&mut file, len)
    }

    fn from_heap_read(file: &mut File, len: usize) -> io::Result<MappedRegion> {
        let mut buf = Vec::with_capacity(len);
        file.read_to_end(&mut buf)?;
        Ok(MappedRegion {
            ptr: buf.as_ptr(),
            len: buf.len(),
            heap: Some(buf),
        })
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is this an actual kernel mapping (vs. the heap fallback)?
    pub fn is_real_mmap(&self) -> bool {
        self.heap.is_none()
    }

    pub fn as_slice(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // Safety: `ptr` points at `len` mapped (or heap-owned) bytes
        // that live as long as `self` and are never written.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for MappedRegion {
    fn drop(&mut self) {
        #[cfg(unix)]
        if self.heap.is_none() && self.len > 0 {
            unsafe {
                sys::munmap(self.ptr as *mut std::ffi::c_void, self.len);
            }
        }
    }
}

impl std::fmt::Debug for MappedRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MappedRegion({} bytes, {})",
            self.len,
            if self.is_real_mmap() { "mmap" } else { "heap" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_file(name: &str, data: &[u8]) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("gesall-mapped-{}-{name}", std::process::id()));
        std::fs::write(&p, data).unwrap();
        p
    }

    #[test]
    fn maps_file_contents() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let p = tmp_file("contents", &data);
        let m = MappedRegion::map(&p).unwrap();
        assert_eq!(m.len(), data.len());
        assert_eq!(m.as_slice(), &data[..]);
        if MMAP_COMPILED {
            assert!(m.is_real_mmap(), "non-empty file must really map");
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn empty_file_uses_heap_fallback() {
        let p = tmp_file("empty", b"");
        let m = MappedRegion::map(&p).unwrap();
        assert!(m.is_empty());
        assert!(!m.is_real_mmap());
        assert_eq!(m.as_slice(), b"");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(MappedRegion::map(Path::new("/no/such/gesall/file")).is_err());
    }

    #[test]
    fn mapping_shared_across_threads() {
        let data = vec![42u8; 4096];
        let p = tmp_file("threads", &data);
        let m = std::sync::Arc::new(MappedRegion::map(&p).unwrap());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                s.spawn(move || assert!(m.as_slice().iter().all(|&b| b == 42)));
            }
        });
        std::fs::remove_file(&p).ok();
    }
}
