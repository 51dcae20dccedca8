//! Pins the per-entity allocation count of the signature job's key
//! derivation: `LshBlocking::keys` on an ASCII title of at most 128
//! bytes allocates the signature, the key list and one key per band —
//! `bands + 3` at most — so per-shingle or per-key temporaries
//! (≈ 20 allocations per entity for 8 bands before the fused kernel)
//! cannot creep back.
//!
//! A single `#[test]` drives the whole file — integration tests in one
//! binary may run on multiple threads, which would make a global
//! allocation counter racy across tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use er_core::blocking::BlockingFunction;
use er_core::Entity;
use er_lsh::{LshBlocking, LshParams};

/// Counts every allocation routed through the global allocator.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn keys_of_a_short_ascii_title_allocate_once_per_band_plus_three_at_most() {
    let titles = [
        "canon eos 5d mark iii body kit".to_string(),
        "  Nikon   COOLPIX\tS3300  compact camera ".to_string(),
        "x".repeat(128),
        "ab".to_string(),
    ];
    for params in [LshParams::new(8, 4), LshParams::new(16, 2)] {
        let blocking = LshBlocking::title_trigrams(params);
        for title in &titles {
            let entity = Entity::new(1, [("title", title.as_str())]);
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let keys = blocking.keys(&entity);
            let during = ALLOCATIONS.load(Ordering::SeqCst) - before;
            assert_eq!(keys.len(), params.bands);
            assert!(
                during <= params.bands as u64 + 3,
                "{params} keys of {title:?} allocated {during} times"
            );
        }
    }
}
