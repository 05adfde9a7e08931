//! A global allocator that counts what one thread allocates, shared by
//! the allocation pins (`crates/*/tests/allocations.rs`), each of which
//! includes it with `#[path = ..] mod counting_alloc;`.
//!
//! Only the thread inside [`counted`] is counted, so the test harness's
//! other threads cannot blur a tally; a pin runs its work under
//! `with_threads(1, ..)` so every closure runs on the counting thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations of at least this many bytes are counted apart: glibc's
/// default mmap threshold, so each is a fresh mapping the kernel faults in.
pub const LARGE: usize = 128 << 10;

/// Allocation events and bytes of the counting thread. Each pin reads the
/// counters it pins.
#[allow(dead_code, reason = "each pin reads only the counters it pins")]
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub allocs: usize,
    pub reallocs: usize,
    /// Bytes requested by `alloc` and `alloc_zeroed`.
    pub bytes: usize,
    /// Allocations and reallocations to at least [`LARGE`] bytes.
    pub large: usize,
    /// Bytes allocated and not yet freed.
    pub live_bytes: isize,
    /// The high-water mark of `live_bytes`.
    pub peak_bytes: isize,
}

impl Tally {
    /// Moves the live bytes by `delta` and raises the high-water mark.
    fn add_live(&mut self, delta: isize) {
        self.live_bytes += delta;
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
    }
}

thread_local! {
    static TALLY: Cell<Option<Tally>> = const { Cell::new(None) };
}

/// Adds `f` of the current tally, when this thread is counting.
fn record(f: impl FnOnce(&mut Tally)) {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = TALLY.try_with(|t| {
        if let Some(mut tally) = t.get() {
            f(&mut tally);
            t.set(Some(tally));
        }
    });
}

fn record_alloc(size: usize) {
    record(|t| {
        t.allocs += 1;
        t.bytes += size;
        t.large += usize::from(size >= LARGE);
        t.add_live(size as isize);
    });
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the tally only
// reads the layouts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record_alloc(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(|t| t.add_live(-(layout.size() as isize)));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(|t| {
            t.reallocs += 1;
            t.large += usize::from(new_size >= LARGE);
            t.add_live(new_size as isize - layout.size() as isize);
        });
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` with this thread's allocations counted.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    TALLY.with(|t| t.set(Some(Tally::default())));
    let out = f();
    let tally = TALLY.with(|t| t.take()).unwrap_or_default();
    (out, tally)
}
