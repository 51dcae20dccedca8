//! Pins the allocation count of the packed entity layout: building an
//! entity allocates a constant number of times whatever its attribute
//! count (one block of text, one offset slice, one scratch list of the
//! input pairs), a clone copies the two buffers, and reading attributes
//! — `get`, `get_hinted`, `attributes()` — allocates nothing, so a
//! per-attribute allocation cannot creep back into the map tasks'
//! key derivation or the reduce-side prepare.
//!
//! A single `#[test]` drives the whole file — integration tests in one
//! binary may run on multiple threads, which would make a global
//! allocation counter racy across tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use er_core::Entity;

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

/// Allocations `f` makes, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let value = f();
    (value, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

#[test]
fn construction_is_constant_and_reads_are_allocation_free() {
    let names = [
        "title", "price", "sku", "brand", "year", "venue", "authors", "ean",
    ];
    let values = [
        "canon eos 5d mark iii body",
        "1299.99",
        "SKU-0042424",
        "Canon",
        "2012",
        "ICDE",
        "Kolb, Thor, Rahm",
        "4960999",
    ];
    let mut construction = Vec::new();
    let mut clone = Vec::new();
    for k in [1, 3, 8] {
        let pairs: Vec<(&str, &str)> = names.iter().copied().zip(values).take(k).collect();
        let (entity, built) = counted(|| Entity::new(7, pairs.iter().copied()));
        let (copy, cloned) = counted(|| entity.clone());
        construction.push(built);
        clone.push(cloned);
        assert_eq!(copy, entity);

        let ((), reads) = counted(|| {
            let mut hint = 0;
            for (name, value) in &pairs {
                assert_eq!(entity.get(name), Some(*value));
                assert_eq!(entity.get_hinted(name, &mut hint), Some(*value));
            }
            assert_eq!(entity.get("missing"), None);
            assert_eq!(entity.get_hinted("missing", &mut hint), None);
            assert_eq!(entity.attributes().count(), k);
        });
        assert_eq!(reads, 0, "reading {k} attributes allocated {reads} times");
    }
    assert_eq!(
        construction,
        [3, 3, 3],
        "allocations of Entity::new with 1, 3, 8 attributes"
    );
    assert_eq!(
        clone,
        [2, 2, 2],
        "allocations of a clone with 1, 3, 8 attributes"
    );
}
