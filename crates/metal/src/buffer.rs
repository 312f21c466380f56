//! Metal-style buffers over unified memory.
//!
//! The paper's harness allocates matrices with `aligned_alloc` (16 KiB
//! pages, lengths extended to page multiples) and wraps them with
//! `newBufferWithBytesNoCopy:length:options:MTLResourceStorageModeShared`
//! so CPU and GPU touch the same physical pages. [`Buffer`] reproduces
//! those semantics: a shared handle over a [`UnifiedBuffer<f32>`] guarded
//! by an `RwLock` (the executor takes read locks on inputs, a write lock on
//! the output — the same aliasing discipline Metal requires of a dispatch).

use crate::error::MetalError;
use oranges_umem::buffer::{SharedAddressSpace, UnifiedBuffer};
use oranges_umem::page::is_page_aligned;
use oranges_umem::StorageMode;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// How a buffer came to exist — used by tests and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferOrigin {
    /// Freshly allocated via `newBufferWithLength:options:`.
    Allocated,
    /// Wrapped zero-copy around an existing page-aligned allocation
    /// (`newBufferWithBytesNoCopy`).
    NoCopyWrap,
    /// Copied from host bytes (`newBufferWithBytes`) — the fallback path
    /// when lengths are not page-divisible.
    CopiedIn,
}

/// A Metal-style buffer (FP32 elements).
#[derive(Clone)]
pub struct Buffer {
    inner: Arc<RwLock<UnifiedBuffer<f32>>>,
    origin: BufferOrigin,
}

impl std::fmt::Debug for Buffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let guard = self.device_read();
        f.debug_struct("Buffer")
            .field("len", &guard.len())
            .field("capacity_bytes", &guard.capacity_bytes())
            .field("origin", &self.origin)
            .finish()
    }
}

impl Buffer {
    /// `newBufferWithLength:options:` — zero-initialized allocation whose
    /// host storage is built on first element access.
    pub fn new(
        space: &SharedAddressSpace,
        len: usize,
        mode: StorageMode,
    ) -> Result<Self, MetalError> {
        let unified = UnifiedBuffer::allocate(space, len, mode)?;
        Ok(Buffer {
            inner: Arc::new(RwLock::new(unified)),
            origin: BufferOrigin::Allocated,
        })
    }

    /// `newBufferWithBytes:` — allocate and copy host data in.
    pub(crate) fn with_data(
        space: &SharedAddressSpace,
        data: &[f32],
        mode: StorageMode,
    ) -> Result<Self, MetalError> {
        let mut unified = UnifiedBuffer::allocate(space, data.len(), mode)?;
        unified.device_mut_slice()[..data.len()].copy_from_slice(data);
        Ok(Buffer {
            inner: Arc::new(RwLock::new(unified)),
            origin: BufferOrigin::CopiedIn,
        })
    }

    /// `newBufferWithBytesNoCopy:length:options:deallocator:` — wrap an
    /// existing unified allocation without copying.
    ///
    /// Metal requires the base address and length be page-aligned; the
    /// paper sized its matrices up to page multiples precisely to satisfy
    /// this. A non-page-divisible *logical* length is accepted when the
    /// underlying allocation is page-rounded (which [`UnifiedBuffer`]
    /// guarantees), mirroring the paper's "automatically extended"
    /// allocations — but a misaligned allocation is rejected.
    pub(crate) fn from_unified_no_copy(unified: UnifiedBuffer<f32>) -> Result<Self, MetalError> {
        if !is_page_aligned(unified.base_address()) || !is_page_aligned(unified.capacity_bytes()) {
            return Err(MetalError::NoCopyRequiresPageMultiple {
                length: unified.capacity_bytes(),
            });
        }
        Ok(Buffer {
            inner: Arc::new(RwLock::new(unified)),
            origin: BufferOrigin::NoCopyWrap,
        })
    }

    /// How the buffer was created.
    pub fn origin(&self) -> BufferOrigin {
        self.origin
    }

    /// Logical element count.
    pub fn len(&self) -> usize {
        self.device_read().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocated byte capacity (page multiple).
    pub fn capacity_bytes(&self) -> u64 {
        self.device_read().capacity_bytes()
    }

    /// Simulated base address.
    pub fn base_address(&self) -> u64 {
        self.device_read().base_address()
    }

    /// CPU read of the logical contents (contents-pointer analogue).
    pub fn read_to_vec(&self) -> Result<Vec<f32>, MetalError> {
        Ok(self.device_read().as_slice()?.to_vec())
    }

    /// CPU fill of the logical contents, as a loop through `contents`
    /// would write it. On a buffer nothing has read or written yet this
    /// only records the value; storage is built on first element access.
    pub fn fill(&self, value: f32) -> Result<(), MetalError> {
        Ok(self.device_write().fill(value)?)
    }

    /// Whether host storage has been built (see
    /// [`UnifiedBuffer::is_materialized`]).
    pub fn is_materialized(&self) -> bool {
        self.device_read().is_materialized()
    }

    /// Run `f` with a read view of the logical contents (CPU side).
    pub fn with_read<R>(&self, f: impl FnOnce(&[f32]) -> R) -> Result<R, MetalError> {
        let guard = self.device_read();
        Ok(f(guard.as_slice()?))
    }

    /// Read lock over the full padded extent (the executor's device
    /// side, and every CPU-side read). A holder's panic does not poison
    /// the buffer for other handles.
    pub(crate) fn device_read(&self) -> RwLockReadGuard<'_, UnifiedBuffer<f32>> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write lock, as [`device_read`](Buffer::device_read).
    pub(crate) fn device_write(&self) -> RwLockWriteGuard<'_, UnifiedBuffer<f32>> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether two handles alias the same underlying storage.
    pub(crate) fn aliases(&self, other: &Buffer) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> SharedAddressSpace {
        SharedAddressSpace::with_gib(1)
    }

    #[test]
    fn allocated_buffer_is_zeroed() {
        let buf = Buffer::new(&space(), 1000, StorageMode::Shared).unwrap();
        assert_eq!(buf.len(), 1000);
        assert_eq!(buf.origin(), BufferOrigin::Allocated);
        assert!(buf.read_to_vec().unwrap().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn with_data_copies_in() {
        let data: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let buf = Buffer::with_data(&space(), &data, StorageMode::Shared).unwrap();
        assert_eq!(buf.origin(), BufferOrigin::CopiedIn);
        assert_eq!(buf.read_to_vec().unwrap(), data);
    }

    #[test]
    fn no_copy_wrap_accepts_page_rounded_unified_buffers() {
        let s = space();
        let unified = UnifiedBuffer::<f32>::allocate(&s, 12345, StorageMode::Shared).unwrap();
        let addr = unified.base_address();
        let buf = Buffer::from_unified_no_copy(unified).unwrap();
        assert_eq!(buf.origin(), BufferOrigin::NoCopyWrap);
        assert_eq!(buf.base_address(), addr, "no-copy preserves the allocation");
        assert_eq!(buf.len(), 12345);
    }

    #[test]
    fn aliasing_detection() {
        let s = space();
        let a = Buffer::new(&s, 4, StorageMode::Shared).unwrap();
        let b = a.clone();
        let c = Buffer::new(&s, 4, StorageMode::Shared).unwrap();
        assert!(a.aliases(&b));
        assert!(!a.aliases(&c));
    }

    #[test]
    fn private_buffers_reject_cpu_reads() {
        let buf = Buffer::new(&space(), 16, StorageMode::Private).unwrap();
        assert!(matches!(buf.read_to_vec(), Err(MetalError::Memory(_))));
        assert!(buf.with_read(|_| ()).is_err());
    }

    #[test]
    fn fill_is_deferred_until_first_read() {
        let buf = Buffer::new(&space(), 1000, StorageMode::Shared).unwrap();
        buf.fill(2.0).unwrap();
        assert!(!buf.is_materialized());
        assert!(format!("{buf:?}").contains("len: 1000"));
        assert_eq!(buf.read_to_vec().unwrap(), vec![2.0; 1000]);
        assert!(buf.is_materialized());
        let private = Buffer::new(&space(), 16, StorageMode::Private).unwrap();
        assert!(matches!(private.fill(1.0), Err(MetalError::Memory(_))));
    }

    #[test]
    fn concurrent_handles_share_data() {
        let buf = Buffer::new(&space(), 8, StorageMode::Shared).unwrap();
        let clone = buf.clone();
        buf.fill(9.0).unwrap();
        assert_eq!(clone.read_to_vec().unwrap(), vec![9.0; 8]);
    }
}
