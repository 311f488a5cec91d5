//! [`ArcStr`]: a shared, immutable string behind one thin pointer.
//!
//! `Arc<str>` is a fat pointer — address and length, 16 bytes — and that
//! alone made [`crate::Value`] 24 bytes. `ArcStr` keeps the length in the
//! allocation, beside the reference count and the bytes, so a handle is one
//! word and a `Value` two. The allocation is no larger than `Arc<str>`'s:
//! two words of header (`Arc`'s are its two counts), then the bytes.
//! `Arc<String>` would be thin too, but it costs two allocations and two
//! pointer hops per string.
//!
//! Every `unsafe` block for strings is in this module: the fields that the
//! blocks rely on are private to it, and nothing outside can write them.

use std::alloc::{self, Layout};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{self, AtomicUsize};

/// The start of every allocation; the string's bytes follow it.
#[repr(C)]
struct Header {
    count: AtomicUsize,
    len: usize,
}

/// Where the bytes start: `Header` is two words, so `u8`s need no padding.
const BYTES_AT: usize = std::mem::size_of::<Header>();

/// `Arc`'s bound: past it a clone aborts rather than risk the count
/// wrapping to zero while handles are alive.
const MAX_COUNT: usize = isize::MAX as usize;

/// The allocation of a string of `len` bytes.
fn layout(len: usize) -> Layout {
    Layout::from_size_align(
        BYTES_AT.checked_add(len).expect("string length overflows"),
        std::mem::align_of::<Header>(),
    )
    .expect("string length fits a layout")
}

/// A reference-counted immutable UTF-8 string: one allocation holding the
/// count, the length and the bytes, behind one pointer. It compares, hashes
/// and prints exactly as the `str` it holds.
pub struct ArcStr {
    ptr: NonNull<Header>,
    /// Shares ownership of a `Header` and the bytes after it.
    _owns: PhantomData<Header>,
}

// SAFETY: a handle reads the length and the bytes, which are written once,
// before the handle exists, and never again; the only state handles share
// and change is the count, an atomic. Moving a handle to another thread or
// sharing `&ArcStr` between threads is therefore as safe as for `Arc<str>`.
unsafe impl Send for ArcStr {}
// SAFETY: as for `Send`.
unsafe impl Sync for ArcStr {}

impl ArcStr {
    /// A new string holding a copy of `s`: one allocation.
    pub fn new(s: &str) -> ArcStr {
        let layout = layout(s.len());
        // SAFETY: `layout` is at least a header's size, so not zero-sized.
        let raw = unsafe { alloc::alloc(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<Header>()) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: `ptr` is a fresh allocation of `layout`: aligned for a
        // `Header`, `BYTES_AT + s.len()` bytes long and referred to by
        // nothing else, so both writes are in bounds and alias nothing; the
        // byte pointer is derived from the allocation's own pointer.
        unsafe {
            ptr.as_ptr().write(Header {
                count: AtomicUsize::new(1),
                len: s.len(),
            });
            std::ptr::copy_nonoverlapping(s.as_ptr(), raw.add(BYTES_AT), s.len());
        }
        ArcStr {
            ptr,
            _owns: PhantomData,
        }
    }

    /// The string.
    #[inline]
    pub fn as_str(&self) -> &str {
        // SAFETY: this handle holds a count, so the allocation is live for
        // as long as `&self` is; `new` initialised the header and copied
        // `len` bytes of a `str` after it, and nothing writes either again.
        unsafe {
            let len = (*self.ptr.as_ptr()).len;
            let bytes = self.ptr.as_ptr().cast::<u8>().add(BYTES_AT);
            std::str::from_utf8_unchecked(std::slice::from_raw_parts(bytes, len))
        }
    }

    fn count(&self) -> &AtomicUsize {
        // SAFETY: the allocation is live while this handle is (see
        // `as_str`), and the count is only ever accessed atomically.
        unsafe { &(*self.ptr.as_ptr()).count }
    }
}

impl Clone for ArcStr {
    #[inline]
    fn clone(&self) -> ArcStr {
        // Relaxed, as in `Arc::clone`: the new handle comes from a live one,
        // which keeps the allocation alive; the increment publishes nothing.
        if self.count().fetch_add(1, atomic::Ordering::Relaxed) > MAX_COUNT {
            std::process::abort();
        }
        ArcStr {
            ptr: self.ptr,
            _owns: PhantomData,
        }
    }
}

impl Drop for ArcStr {
    #[inline]
    fn drop(&mut self) {
        // Release, paired with the Acquire fence below, as in `Arc::drop`:
        // every other handle's reads of the string happen before the last
        // handle frees it.
        if self.count().fetch_sub(1, atomic::Ordering::Release) != 1 {
            return;
        }
        atomic::fence(atomic::Ordering::Acquire);
        let len = self.as_str().len();
        // SAFETY: the count reached zero, so this was the last handle and
        // nothing else refers to the allocation, which `new` made with
        // `layout(len)` through the global allocator.
        unsafe { alloc::dealloc(self.ptr.as_ptr().cast(), layout(len)) }
    }
}

impl Deref for ArcStr {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for ArcStr {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for ArcStr {
    #[inline]
    fn eq(&self, other: &ArcStr) -> bool {
        self.ptr == other.ptr || self.as_str() == other.as_str()
    }
}

impl Eq for ArcStr {}

impl PartialOrd for ArcStr {
    #[inline]
    fn partial_cmp(&self, other: &ArcStr) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ArcStr {
    #[inline]
    fn cmp(&self, other: &ArcStr) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for ArcStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for ArcStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for ArcStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl From<&str> for ArcStr {
    fn from(s: &str) -> ArcStr {
        ArcStr::new(s)
    }
}

impl From<String> for ArcStr {
    fn from(s: String) -> ArcStr {
        ArcStr::new(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_handle_is_one_word_and_shares_its_allocation() {
        assert_eq!(std::mem::size_of::<ArcStr>(), 8);
        assert_eq!(std::mem::size_of::<Option<ArcStr>>(), 8);
        let a = ArcStr::new("héllo");
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_eq!(a.count().load(atomic::Ordering::Relaxed), 2);
        drop(a);
        assert_eq!(b.count().load(atomic::Ordering::Relaxed), 1);
        assert_eq!(&*b, "héllo");
        assert_eq!(layout(5).size(), 21);
    }
}
