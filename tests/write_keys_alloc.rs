//! Pins the allocations of `BlockingFunction::write_keys`, the BDM
//! job's key derivation: into a `KeyText` reserved ahead,
//! `PrefixBlocking` on an ASCII value allocates nothing per entity (its
//! prefix is built on the stack and copied into the column), and
//! `LshBlocking` 8×4 allocates once — its signature — where `keys`
//! adds its own column, the key list and one key per band. A
//! per-key allocation cannot creep back into the map task.
//!
//! A single `#[test]` drives the whole file — integration tests in one
//! binary may run on multiple threads, which would make a global
//! allocation counter racy across tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use er_core::blocking::{BlockingFunction, KeyText, PrefixBlocking};
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

/// Allocations of one `write_keys` call, and the keys it wrote.
fn allocations_of(
    blocking: &dyn BlockingFunction,
    entity: &Entity,
    out: &mut KeyText,
) -> (u64, usize) {
    let keys = out.len();
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    blocking.write_keys(entity, out);
    let during = ALLOCATIONS.load(Ordering::SeqCst) - before;
    (during, out.len() - keys)
}

#[test]
fn write_keys_allocates_nothing_per_prefix_key_and_one_signature_per_lsh_entity() {
    let titles = [
        "canon eos 5d mark iii body kit".to_string(),
        "  Nikon   COOLPIX\tS3300  compact camera ".to_string(),
        "SKU-0012345-X".to_string(),
        "x".repeat(128),
        "ab".to_string(),
    ];
    let entities: Vec<Entity> = titles
        .iter()
        .map(|title| Entity::new(1, [("title", title.as_str())]))
        .collect();

    for len in [1, 3, 10, 32] {
        let blocking = PrefixBlocking::new("title", len);
        let mut out = KeyText::with_capacity(entities.len(), entities.len() * len);
        for entity in &entities {
            let (during, written) = allocations_of(&blocking, entity, &mut out);
            assert_eq!(written, 1);
            assert_eq!(
                during,
                0,
                "prefix {len} of {:?} allocated",
                entity.get("title")
            );
        }
    }

    let params = LshParams::new(8, 4);
    let blocking = LshBlocking::title_trigrams(params);
    // 'b', three digits, ':', sixteen hex digits per band key.
    let mut out = KeyText::with_capacity(
        entities.len() * params.bands,
        entities.len() * params.bands * 21,
    );
    for entity in &entities {
        let (during, written) = allocations_of(&blocking, entity, &mut out);
        assert_eq!(written, params.bands);
        assert!(
            during <= 1,
            "{params} band keys of {:?} allocated {during} times",
            entity.get("title")
        );
    }
}
