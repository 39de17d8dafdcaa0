//! A counting global allocator: the system allocator plus two counters
//! that advance only while counting is switched on (the measured phase
//! of a traced run). Switched off it costs one relaxed load per call;
//! switched on, a thread-local add and two shared adds per 64 calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The allocator type; the library installs one as `#[global_allocator]`.
pub struct Counting;

// `Relaxed` everywhere: the counters are statistics and publish nothing.
static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Calls a thread counts privately before adding them to the shared
/// totals. A cart op allocates ~350 times; two locked adds per call
/// would by themselves cost a tenth of the run being measured. What a
/// thread still holds when counting stops (under `BATCH` calls) is
/// dropped from the totals.
const BATCH: u64 = 64;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static PENDING: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(size: usize) {
    if !ON.load(Ordering::Relaxed) {
        return;
    }
    // `try_with` only fails during thread teardown; those few calls go
    // uncounted.
    let _ = PENDING.try_with(|p| {
        let (calls, bytes) = p.get();
        let (calls, bytes) = (calls + 1, bytes + size as u64);
        if calls == BATCH {
            CALLS.fetch_add(calls, Ordering::Relaxed);
            BYTES.fetch_add(bytes, Ordering::Relaxed);
            p.set((0, 0));
        } else {
            p.set((calls, bytes));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// memory the caller owns.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller vouched for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switch counting on or off.
pub fn set_counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// `(allocation calls, bytes requested)` counted so far.
pub fn counted() -> (u64, u64) {
    (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}
