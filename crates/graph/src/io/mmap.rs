//! Read-only memory-mapped file views (unix only).
//!
//! [`Mmap`] maps a file `PROT_READ`/`MAP_PRIVATE` and exposes it as a
//! `&[u8]`, for the reader that serves data out of the page cache for as
//! long as it lives, [`MappedCsr`](super::MappedCsr).
//! [`load_binary`](super::load_binary) copies the file into
//! the graph's own arrays and maps nothing: a mapping held beside them
//! would count the file twice in the resident set.
//!
//! # Safety argument
//!
//! The only `unsafe` is the FFI mapping itself and the construction of
//! the byte slice over it; both are sound because:
//!
//! * the mapping is private and read-only — no aliasing writes can come
//!   from this process through the view, and writes by this process to
//!   the underlying file go through ordinary `File` handles the loader
//!   never holds concurrently;
//! * the slice's lifetime is tied to the [`Mmap`] value by the borrow on
//!   [`as_bytes`](Mmap::as_bytes)/`Deref`, and the region is only
//!   unmapped in `Drop`, after every borrow has ended;
//! * a zero-length file is represented as an empty slice without calling
//!   `mmap` at all (`mmap` rejects zero-length maps);
//! * `u8` has no alignment or validity requirements, so any mapped byte
//!   pattern is a valid `[u8]`. Decoding wider integers is done by the
//!   parser with `from_le_bytes` on byte chunks, which is
//!   alignment-oblivious — the view is never reinterpreted as `&[u64]`.
//!
//! The one hazard mmap cannot rule out: if *another process* truncates
//! the file while it is mapped, touching pages past the new end raises
//! `SIGBUS`. Binary graph artifacts are written once and read many
//! times; callers that cannot assume that should read the file instead
//! ([`load_binary`](super::load_binary)).

use std::fs::File;
use std::io;
use std::os::unix::io::AsRawFd;

mod ffi {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// A read-only memory mapping of an entire file.
#[derive(Debug)]
pub struct Mmap {
    /// Null iff the file was empty (no mapping exists).
    ptr: *mut std::os::raw::c_void,
    len: usize,
}

// The mapping is private and read-only for its whole lifetime, so shared
// access from any thread is fine.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps all of `file` read-only.
    pub fn map(file: &File) -> io::Result<Mmap> {
        let len = file.metadata()?.len();
        if len == 0 {
            return Ok(Mmap {
                ptr: std::ptr::null_mut(),
                len: 0,
            });
        }
        if len > usize::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "file too large to map",
            ));
        }
        let ptr = unsafe {
            ffi::mmap(
                std::ptr::null_mut(),
                len as usize,
                ffi::PROT_READ,
                ffi::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == ffi::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap {
            ptr,
            len: len as usize,
        })
    }

    /// The mapped bytes.
    pub fn as_bytes(&self) -> &[u8] {
        if self.len == 0 {
            &[]
        } else {
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        if !self.ptr.is_null() {
            // Failure here is unrecoverable and harmless to ignore: the
            // region stays mapped until process exit.
            unsafe {
                ffi::munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("bpart-mmap-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn maps_file_contents() {
        let path = temp_path("contents");
        let payload = b"hello mapped world".repeat(500);
        File::create(&path).unwrap().write_all(&payload).unwrap();
        let map = Mmap::map(&File::open(&path).unwrap()).unwrap();
        assert_eq!(&*map, payload.as_slice());
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = temp_path("empty");
        File::create(&path).unwrap();
        let map = Mmap::map(&File::open(&path).unwrap()).unwrap();
        assert!(map.is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
