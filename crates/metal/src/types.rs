//! Geometry types mirroring `MTLSize`.

/// A 3-D extent (threads or threadgroups), like `MTLSize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MtlSize {
    /// Width (x).
    pub width: u64,
    /// Height (y).
    pub height: u64,
    /// Depth (z).
    pub depth: u64,
}

impl MtlSize {
    /// A new size.
    pub const fn new(width: u64, height: u64, depth: u64) -> Self {
        MtlSize {
            width,
            height,
            depth,
        }
    }

    /// A 1-D size.
    pub const fn d1(width: u64) -> Self {
        MtlSize::new(width, 1, 1)
    }

    /// A 2-D size.
    pub const fn d2(width: u64, height: u64) -> Self {
        MtlSize::new(width, height, 1)
    }

    /// Total element count (`w × h × d`).
    pub const fn count(&self) -> u64 {
        self.width * self.height * self.depth
    }

    /// Whether any dimension is zero.
    pub const fn is_empty(&self) -> bool {
        self.width == 0 || self.height == 0 || self.depth == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_count() {
        assert_eq!(MtlSize::d1(8).count(), 8);
        assert_eq!(MtlSize::d2(8, 8).count(), 64);
        assert_eq!(MtlSize::new(2, 3, 4).count(), 24);
    }

    #[test]
    fn emptiness() {
        assert!(MtlSize::new(0, 5, 5).is_empty());
        assert!(!MtlSize::d2(1, 1).is_empty());
    }
}
