//! The compare driver allocates per *task*, not per pair and not per
//! group: once a [`GroupComparer`] has run a group — its columns and its
//! scratch have grown — loading that group again and evaluating all its
//! pairs, the cross product of its halves and a window over it performs
//! **zero** heap allocations. The members are handles into the tables
//! of two map tasks, so the group reads two tables.
//!
//! A single `#[test]` drives the whole file — integration tests in one
//! binary may run on multiple threads, which would make a global
//! allocation counter racy across tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use er_core::blocking::BlockKey;
use er_core::{Entity, Matcher, PreparedHandle};
use er_loadbalance::compare::{EntityInterner, EntityTable, GroupComparer, PairComparer};
use er_loadbalance::{Ent, KeyList};
use mr_engine::mapper::MapTaskInfo;

/// Counts every allocation routed through the global allocator.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_warm_driver_allocates_nothing_per_group() {
    let block = BlockKey::new("can");
    let keys = KeyList::One(block.clone());
    let members: Vec<Ent> = (0..40u64)
        .map(|id| {
            let title = format!("canon eos {}d mark {} body kit", id % 7, id % 3);
            Arc::new(Entity::new(id, [("title", title.as_str())]))
        })
        .collect();
    let n = members.len();
    let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
    // The first half is routed by map task 0, the second by map task 1.
    let mut handles: Vec<PreparedHandle> = Vec::new();
    let tables: Vec<EntityTable> = members
        .chunks(n / 2)
        .enumerate()
        .map(|(task_index, half)| {
            let mut interner = EntityInterner::new(&comparer);
            let info = MapTaskInfo {
                task_index,
                num_map_tasks: 2,
                num_reduce_tasks: 1,
            };
            interner.setup(&info);
            handles.extend(half.iter().map(|entity| interner.intern(entity, &keys)));
            interner.into_table()
        })
        .collect();
    let mut driver = GroupComparer::new(comparer);

    let mut rounds = [(0u64, 0u64); 2];
    for (allocations, matches) in &mut rounds {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let (first, second) = handles.split_at(n / 2);
        driver.cross(
            &tables,
            &block,
            first.iter().copied(),
            second.iter().copied(),
            |_, _| *matches += 1,
        );
        driver.load(&tables, &block, handles.iter().copied());
        driver.all_pairs(&tables, |_, _| *matches += 1);
        for next in 1..n {
            driver.strip(
                &tables,
                next,
                next.saturating_sub(5)..next,
                false,
                |_, _| *matches += 1,
            );
        }
        *allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    }
    let [(cold, cold_matches), (warm, warm_matches)] = rounds;
    assert!(cold > 0, "the first group grows the columns");
    assert_eq!(warm, 0, "a warm group allocated {warm} times ({cold} cold)");
    assert!(cold_matches > 0 && cold_matches < (n * n) as u64);
    assert_eq!(cold_matches, warm_matches);
}
