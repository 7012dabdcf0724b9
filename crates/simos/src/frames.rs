//! Physical frame allocator.
//!
//! A simple free-list allocator over the frames above the kernel image.
//! Deterministic: frames are handed out in ascending order and freed frames
//! are reused LIFO.

use std::fmt;

/// A physical frame number (`paddr >> 12`).
pub type Pfn = u32;

/// Out of physical memory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OutOfFrames;

impl fmt::Display for OutOfFrames {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("out of physical frames")
    }
}

impl std::error::Error for OutOfFrames {}

/// Allocates physical frames in `[first, limit)`.
#[derive(Clone, Debug)]
pub struct FrameAllocator {
    next: Pfn,
    limit: Pfn,
    free: Vec<Pfn>,
    allocated: u64,
}

impl FrameAllocator {
    /// An allocator over frames `[first, limit)`.
    pub fn new(first: Pfn, limit: Pfn) -> FrameAllocator {
        assert!(first <= limit, "first frame past limit");
        FrameAllocator {
            next: first,
            limit,
            free: Vec::new(),
            allocated: 0,
        }
    }

    /// Allocates one frame.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfFrames`] when memory is exhausted.
    pub fn alloc(&mut self) -> Result<Pfn, OutOfFrames> {
        let pfn = if let Some(p) = self.free.pop() {
            p
        } else if self.next < self.limit {
            let p = self.next;
            self.next += 1;
            p
        } else {
            return Err(OutOfFrames);
        };
        self.allocated += 1;
        Ok(pfn)
    }

    /// Returns a frame to the pool.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the frame was never handed out.
    pub fn free(&mut self, pfn: Pfn) {
        debug_assert!(
            pfn < self.next && !self.free.contains(&pfn),
            "bad free of {pfn}"
        );
        self.free.push(pfn);
    }

    /// Frames currently available without growing.
    pub fn available(&self) -> u64 {
        u64::from(self.limit - self.next) + self.free.len() as u64
    }

    /// Raw allocator state for checkpointing: `(next, limit, free list,
    /// total allocated)`. The free list's *order* matters — frees are
    /// reused LIFO, so a restored allocator must hand out the same frames
    /// in the same order as the one it was captured from.
    pub fn raw_state(&self) -> (Pfn, Pfn, &[Pfn], u64) {
        (self.next, self.limit, &self.free, self.allocated)
    }

    /// Rebuilds an allocator from checkpointed raw state.
    pub fn from_raw(next: Pfn, limit: Pfn, free: Vec<Pfn>, allocated: u64) -> FrameAllocator {
        FrameAllocator {
            next,
            limit,
            free,
            allocated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_ascending_then_reuses() {
        let mut a = FrameAllocator::new(10, 13);
        assert_eq!(a.alloc(), Ok(10));
        assert_eq!(a.alloc(), Ok(11));
        a.free(10);
        assert_eq!(a.alloc(), Ok(10));
        assert_eq!(a.alloc(), Ok(12));
        assert_eq!(a.alloc(), Err(OutOfFrames));
    }

    #[test]
    fn available_tracks_state() {
        let mut a = FrameAllocator::new(0, 4);
        assert_eq!(a.available(), 4);
        let p = a.alloc().unwrap();
        assert_eq!(a.available(), 3);
        a.free(p);
        assert_eq!(a.available(), 4);
    }
}
