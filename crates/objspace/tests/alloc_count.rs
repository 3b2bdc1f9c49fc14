//! Allocation budget of the diff path, counted by a `#[global_allocator]`.
//!
//! The flat `Diff` layout exists so that a diff's cost does not scale with
//! its run count: a red-black SOR row is 1 023 runs, and one heap buffer per
//! run made computing, copying and freeing it the largest item of a `sor`
//! release. Wall-clock numbers drift with the machine; these counts do not,
//! so they are the tier-1 guard for the property the speed-up rests on.
//!
//! The counter is per thread, so the harness's own threads cannot disturb it.

use dsm_objspace::{ObjectData, Twin};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting every request for new or larger memory.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the thread-local counter is
// const-initialised plain data and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with `layout`; the rest is the
        // caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` and return its result with the number of allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn diff_path_allocations_do_not_scale_with_run_count() {
    // Dense: one colour of a 2048-point SOR row, 1 023 runs in 16 KB.
    let row: Vec<f64> = (0..2048).map(|i| i as f64 * 0.5).collect();
    let mut home = ObjectData::from_elements(&row);
    let twin = Twin::capture(&home);
    let mut working = home.clone();
    for i in (1..2047).step_by(2) {
        working.set(i, row[i] + 1.1);
    }

    let (dense, n) = counted(|| twin.diff_against(&working));
    assert_eq!(dense.run_count(), 1023);
    assert!(n <= 2, "dense 16 KB diff made {n} allocations");

    let (copy, n) = counted(|| dense.clone());
    assert!(n <= 2, "cloning the dense diff made {n} allocations");
    assert_eq!(copy, dense);

    let ((), n) = counted(|| dense.apply(&mut home));
    assert_eq!(n, 0, "applying the dense diff allocated");
    assert_eq!(home, working);

    // Sparse: three separate writes to a 512 B key-value object.
    let small = ObjectData::zeroed(512);
    let twin = Twin::capture(&small);
    let mut written = small.clone();
    for slot in [3, 30, 61] {
        written.set(slot, 7u64);
    }
    let (sparse, n) = counted(|| twin.diff_against(&written));
    assert_eq!(sparse.run_count(), 3);
    assert!(n <= 2, "sparse 512 B diff made {n} allocations");

    // Nothing written: nothing allocated.
    let (empty, n) = counted(|| twin.diff_against(&small));
    assert!(empty.is_empty());
    assert_eq!(n, 0, "an empty diff allocated");
}
