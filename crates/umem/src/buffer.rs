//! Typed, page-aligned unified-memory buffers.
//!
//! A [`UnifiedBuffer`] mirrors what the paper's harness builds with
//! `aligned_alloc` + `newBufferWithBytesNoCopy`: a page-aligned allocation
//! whose length is rounded up to a 16 KiB multiple so the GPU can wrap the
//! same physical pages without copying. Storage modes follow Metal (§2.4):
//!
//! - [`StorageMode::Shared`] — visible to CPU and GPU (zero-copy);
//! - [`StorageMode::Private`] — GPU-optimal, CPU access is an error.
//!
//! The *address* is simulated and always page-aligned, and it is claimed
//! at allocation. The element data is backed lazily: until something
//! reads or writes individual elements, a buffer holds only one fill value
//! for its logical extent (zero padding beyond it). The first element
//! access builds an ordinary host `Vec<T>` with exactly those contents,
//! and real arithmetic happens on it from then on. A buffer that only the
//! timing model ever looks at — a model-only GPU STREAM array, say —
//! therefore never costs host memory or fill time.

use crate::address::{AddressSpace, Allocation};
use crate::error::UmemError;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Metal-style storage mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageMode {
    /// `MTLResourceStorageModeShared`: one physical copy, CPU- and
    /// GPU-visible. The mode every zero-copy benchmark buffer uses.
    Shared,
    /// `MTLResourceStorageModePrivate`: GPU-only.
    Private,
}

/// A shared handle to one SoC's address space.
#[derive(Debug, Clone)]
pub struct SharedAddressSpace {
    inner: Arc<Mutex<AddressSpace>>,
}

impl SharedAddressSpace {
    /// Wrap an address space for shared use.
    pub fn new(space: AddressSpace) -> Self {
        SharedAddressSpace {
            inner: Arc::new(Mutex::new(space)),
        }
    }

    /// A space sized in GiB (like a device's unified memory).
    pub fn with_gib(gib: u32) -> Self {
        SharedAddressSpace::new(AddressSpace::with_gib(gib))
    }

    /// Allocate a page-rounded region.
    pub fn allocate(&self, bytes: u64) -> Result<Allocation, UmemError> {
        self.space().allocate(bytes)
    }

    /// Free a region.
    pub fn free(&self, alloc: Allocation) {
        self.space().free(alloc);
    }

    /// Bytes currently allocated.
    pub fn allocated(&self) -> u64 {
        self.space().allocated()
    }

    /// Bytes available.
    pub fn available(&self) -> u64 {
        self.space().available()
    }

    /// The locked space. A holder's panic does not poison it for other
    /// buffers.
    fn space(&self) -> MutexGuard<'_, AddressSpace> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A typed, page-aligned unified-memory allocation.
#[derive(Debug)]
pub struct UnifiedBuffer<T: Copy + Default> {
    space: SharedAddressSpace,
    allocation: Allocation,
    mode: StorageMode,
    /// Requested length in elements (the logical length).
    len: usize,
    /// Host backing store, built on first element access. Its byte length
    /// equals the page-rounded allocation so GPU wraps see whole pages,
    /// like the paper's harness. A `OnceLock` so that shared (`&self`)
    /// views can build it too.
    data: OnceLock<Vec<T>>,
    /// Value of every logical element while `data` is unbuilt; `None`
    /// while they still read as `T::default()`.
    fill: Option<T>,
}

impl<T: Copy + Default> UnifiedBuffer<T> {
    /// Allocate `len` elements in `space` with the given storage mode.
    ///
    /// The underlying allocation is rounded up to whole pages and the
    /// padding elements read as zero — exactly the paper's "allocation
    /// lengths were automatically extended to the nearest page multiple"
    /// discipline. Host storage is not built yet (see the module docs).
    pub fn allocate(
        space: &SharedAddressSpace,
        len: usize,
        mode: StorageMode,
    ) -> Result<Self, UmemError> {
        let elem = std::mem::size_of::<T>() as u64;
        let requested_bytes = len as u64 * elem;
        let allocation = space.allocate(requested_bytes)?;
        Ok(UnifiedBuffer {
            space: space.clone(),
            allocation,
            mode,
            len,
            data: OnceLock::new(),
            fill: None,
        })
    }

    /// The host backing store, built on first use: the recorded fill value
    /// over the logical extent, zeros over the page padding.
    fn storage(&self) -> &[T] {
        self.data.get_or_init(|| {
            let padded_len = (self.allocation.len / std::mem::size_of::<T>() as u64) as usize;
            let mut data = vec![T::default(); padded_len];
            if let Some(value) = self.fill {
                data[..self.len].fill(value);
            }
            data
        })
    }

    /// Mutable access to the backing store, building it first if needed.
    fn storage_mut(&mut self) -> &mut [T] {
        self.storage();
        self.data.get_mut().expect("storage was just built")
    }

    /// Whether host storage has been built yet (any element access builds
    /// it; [`UnifiedBuffer::fill`] on an unbuilt buffer does not).
    pub fn is_materialized(&self) -> bool {
        self.data.get().is_some()
    }

    /// Logical length in elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the logical length is zero (cannot happen through
    /// [`UnifiedBuffer::allocate`], which rejects zero-length requests).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated bytes (a page multiple at least the logical length ×
    /// element size).
    pub fn capacity_bytes(&self) -> u64 {
        self.allocation.len
    }

    /// Simulated physical base address (always page-aligned).
    pub fn base_address(&self) -> u64 {
        self.allocation.addr
    }

    /// CPU view of the logical elements. Errors on `Private` buffers.
    pub fn as_slice(&self) -> Result<&[T], UmemError> {
        self.check_cpu_access("CPU read of Private buffer")?;
        Ok(&self.storage()[..self.len])
    }

    /// Mutable CPU view of the logical elements. Errors on `Private`.
    pub fn as_mut_slice(&mut self) -> Result<&mut [T], UmemError> {
        self.check_cpu_access("CPU write of Private buffer")?;
        let len = self.len;
        Ok(&mut self.storage_mut()[..len])
    }

    fn check_cpu_access(&self, operation: &'static str) -> Result<(), UmemError> {
        match self.mode {
            StorageMode::Shared => Ok(()),
            StorageMode::Private => Err(UmemError::StorageModeViolation { operation }),
        }
    }

    /// Device-side view (GPU executors may read any mode, including the
    /// page padding — they see whole pages).
    pub fn device_slice(&self) -> &[T] {
        self.storage()
    }

    /// Mutable device-side view over the full padded extent.
    pub fn device_mut_slice(&mut self) -> &mut [T] {
        self.storage_mut()
    }

    /// Copy from a host slice into the buffer (CPU path, `Shared` only).
    pub fn copy_from_slice(&mut self, src: &[T]) -> Result<(), UmemError> {
        if src.len() > self.len {
            return Err(UmemError::OutOfBounds {
                index: src.len(),
                len: self.len,
            });
        }
        let dst = self.as_mut_slice()?;
        dst[..src.len()].copy_from_slice(src);
        Ok(())
    }

    /// Fill the logical extent with a value. Before the storage is built
    /// this only records the value.
    pub fn fill(&mut self, value: T) -> Result<(), UmemError> {
        if self.is_materialized() {
            self.as_mut_slice()?.fill(value);
        } else {
            self.check_cpu_access("CPU write of Private buffer")?;
            self.fill = Some(value);
        }
        Ok(())
    }
}

impl<T: Copy + Default> Drop for UnifiedBuffer<T> {
    fn drop(&mut self) {
        self.space.free(self.allocation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;

    fn space() -> SharedAddressSpace {
        SharedAddressSpace::with_gib(1)
    }

    #[test]
    fn allocation_rounds_to_pages_and_pads_with_zeros() {
        let s = space();
        let buf = UnifiedBuffer::<f32>::allocate(&s, 100, StorageMode::Shared).unwrap();
        assert_eq!(buf.len(), 100);
        assert_eq!(buf.capacity_bytes(), PAGE_SIZE);
        assert_eq!(buf.device_slice().len(), PAGE_SIZE as usize / 4);
        assert!(buf.device_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn base_addresses_are_page_aligned() {
        let s = space();
        for _ in 0..10 {
            let buf = UnifiedBuffer::<f64>::allocate(&s, 1000, StorageMode::Shared).unwrap();
            assert_eq!(buf.base_address() % PAGE_SIZE, 0);
            assert_eq!(buf.capacity_bytes() % PAGE_SIZE, 0);
        }
    }

    #[test]
    fn shared_mode_allows_cpu_access() {
        let s = space();
        let mut buf = UnifiedBuffer::<f32>::allocate(&s, 8, StorageMode::Shared).unwrap();
        buf.copy_from_slice(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(&buf.as_slice().unwrap()[..3], &[1.0, 2.0, 3.0]);
        buf.fill(7.5).unwrap();
        assert!(buf.as_slice().unwrap().iter().all(|&x| x == 7.5));
    }

    #[test]
    fn private_mode_blocks_cpu_access() {
        let s = space();
        let mut buf = UnifiedBuffer::<f32>::allocate(&s, 8, StorageMode::Private).unwrap();
        assert!(matches!(
            buf.as_slice(),
            Err(UmemError::StorageModeViolation { .. })
        ));
        assert!(matches!(
            buf.as_mut_slice(),
            Err(UmemError::StorageModeViolation { .. })
        ));
        // The device still sees it.
        assert_eq!(buf.device_slice().len(), PAGE_SIZE as usize / 4);
        buf.device_mut_slice()[0] = 3.0;
        assert_eq!(buf.device_slice()[0], 3.0);
    }

    #[test]
    fn copy_too_long_is_out_of_bounds() {
        let s = space();
        let mut buf = UnifiedBuffer::<f32>::allocate(&s, 2, StorageMode::Shared).unwrap();
        let err = buf.copy_from_slice(&[0.0; 5]).unwrap_err();
        assert!(matches!(err, UmemError::OutOfBounds { index: 5, len: 2 }));
    }

    #[test]
    fn drop_returns_space() {
        let s = space();
        let before = s.allocated();
        {
            let _buf = UnifiedBuffer::<f64>::allocate(&s, 1 << 20, StorageMode::Shared).unwrap();
            assert!(s.allocated() > before);
        }
        assert_eq!(s.allocated(), before);
    }

    #[test]
    fn logical_vs_device_extents() {
        let s = space();
        let buf = UnifiedBuffer::<f64>::allocate(&s, 3000, StorageMode::Shared).unwrap();
        // 3000 × 8 B = 24,000 B → 2 pages = 32,768 B → 4096 f64 elements.
        assert_eq!(buf.as_slice().unwrap().len(), 3000);
        assert_eq!(buf.device_slice().len(), 4096);
    }

    #[test]
    fn storage_is_built_on_first_element_access_only() {
        let s = space();
        let mut buf = UnifiedBuffer::<f32>::allocate(&s, 100, StorageMode::Shared).unwrap();
        assert!(!buf.is_materialized(), "allocation alone builds nothing");
        assert!(s.allocated() > 0, "the address range is claimed up front");
        buf.fill(2.5).unwrap();
        assert_eq!(buf.len(), 100);
        assert!(!buf.is_materialized(), "a fill is only recorded");
        let device = buf.device_slice();
        assert_eq!(device.len(), PAGE_SIZE as usize / 4);
        assert!(device[..100].iter().all(|&x| x == 2.5));
        assert!(
            device[100..].iter().all(|&x| x == 0.0),
            "padding stays zero"
        );
        assert!(buf.is_materialized());
        buf.fill(-1.0).unwrap();
        assert!(buf.as_slice().unwrap().iter().all(|&x| x == -1.0));
    }

    #[test]
    fn private_fill_is_rejected_without_building_storage() {
        let s = space();
        let mut buf = UnifiedBuffer::<f32>::allocate(&s, 8, StorageMode::Private).unwrap();
        assert!(matches!(
            buf.fill(1.0),
            Err(UmemError::StorageModeViolation { .. })
        ));
        assert!(buf.copy_from_slice(&[1.0]).is_err());
        assert!(!buf.is_materialized());
    }

    #[test]
    fn zero_len_propagates_error() {
        let s = space();
        assert!(matches!(
            UnifiedBuffer::<f32>::allocate(&s, 0, StorageMode::Shared),
            Err(UmemError::ZeroLength)
        ));
    }
}
