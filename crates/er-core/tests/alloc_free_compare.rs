//! Proves the arena-backed compare loop is allocation-free after
//! warm-up: once every entity of a block has been interned, an entire
//! all-pairs `matches_handles` sweep performs **zero** heap
//! allocations — through the weighted multi-rule path and through the
//! thresholded edit-distance kernel (histogram filter, bit-parallel
//! verifier, banded fallback) alike. The block-at-a-time form the
//! reducers run — a `PreparedColumn` over the arenas of two map tasks,
//! swept in `matches_strip`s — is held to the same: nothing per pair,
//! and nothing per group either once the column has held the group.
//!
//! A single `#[test]` drives the whole file — integration tests in one
//! binary may run on multiple threads, which would make a global
//! allocation counter racy across tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use er_core::{
    ArenaBuilder, Entity, MatchRule, Matcher, MatcherCache, PreparedArena, PreparedColumn,
    PreparedHandle,
};

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

fn corpus() -> Vec<Entity> {
    // Titles long and varied enough to exercise the edit-distance
    // kernels, the token measures, and the set measures; one entity
    // lacks a title to cover the missing-attribute path. The last two
    // exceed 64 scalars, so the thresholded kernel verifies them with
    // the banded DP instead of the bit-parallel word.
    let titles = [
        "canon eos 5d mark iii body kit",
        "canon eos 5d mark ii body kit",
        "nikon coolpix s3300 compact camera",
        "nikon coolpix s3200 compact camera",
        "olympus om-d e-m5 micro four thirds",
        "sony alpha a7 full frame mirrorless",
        "sony alpha a7r full frame mirrorless",
        "panasonic lumix dmc-gh3 body only",
        "fujifilm x-pro1 rangefinder style",
        "pentax k-5 ii dslr weather sealed",
        "leica m9 rangefinder digital",
        "samsung nx200 compact system camera",
        "hasselblad h5d-50c medium format digital camera body with hv 90x-ii viewfinder",
        "hasselblad h5d-50c medium format digital camera body with hv 90x viewfinder",
    ];
    let mut entities: Vec<Entity> = titles
        .iter()
        .enumerate()
        .map(|(i, t)| Entity::new(i as u64, [("title", *t), ("brand", "whatever corp")]))
        .collect();
    entities.push(Entity::new(99, [("brand", "untitled gmbh")]));
    entities
}

/// Interns `entities`, runs one warm-up all-pairs sweep (so the
/// thread-local scratch buffers grow to their high-water marks), then
/// the identical sweep again, and asserts the second one never touched
/// the allocator. Returns the decisions.
fn assert_hot_sweep_allocates_nothing(matcher: Matcher, entities: &[Entity]) -> Vec<Option<f64>> {
    let mut cache = MatcherCache::new(Arc::new(matcher));
    let handles: Vec<_> = entities.iter().map(|e| cache.handle(e)).collect();
    let mut warm_decisions = Vec::with_capacity(handles.len() * handles.len());
    for i in 0..handles.len() {
        for j in (i + 1)..handles.len() {
            warm_decisions.push(cache.matches_handles(handles[i], handles[j]));
        }
    }

    // The result buffer is allocated before the snapshot so only the
    // compare loop itself is counted.
    let mut hot_decisions = Vec::with_capacity(warm_decisions.len());
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..handles.len() {
        for j in (i + 1)..handles.len() {
            hot_decisions.push(cache.matches_handles(handles[i], handles[j]));
        }
    }
    let during = ALLOCATIONS.load(Ordering::SeqCst) - before;

    // The decision comparison happens after measurement so its own
    // bookkeeping cannot pollute the counter; `hot_decisions` was
    // pre-sized above for the same reason.
    assert_eq!(
        during, 0,
        "arena compare loop allocated {during} times after warm-up"
    );
    assert_eq!(
        bits(&warm_decisions),
        bits(&hot_decisions),
        "hot pass must reproduce warm-up decisions bit-exactly"
    );
    // Sanity: the sweep actually compared things both ways.
    assert!(warm_decisions.iter().any(|d| d.is_some()));
    assert!(warm_decisions.iter().any(|d| d.is_none()));
    hot_decisions
}

/// The same sweep as strips over a column, the way a reducer runs a
/// group: the entities are interned by two map tasks, alternately, so
/// half the pairs cross arenas. The first group pays for the column and
/// the scratch; loading and sweeping the group again must not touch the
/// allocator at all. Returns the second sweep's decisions, in the order
/// of [`assert_hot_sweep_allocates_nothing`].
fn assert_hot_group_allocates_nothing(matcher: Matcher, entities: &[Entity]) -> Vec<Option<f64>> {
    let matcher = Arc::new(matcher);
    let mut builders = [0, 1].map(|_| ArenaBuilder::new(Arc::clone(&matcher)));
    let handles: Vec<PreparedHandle> = (0u32..)
        .zip(entities)
        .map(|(i, entity)| {
            let arena = i % 2;
            let id = builders[arena as usize].queue(&Arc::new(entity.clone()));
            PreparedHandle { arena, id }
        })
        .collect();
    let arenas: [PreparedArena; 2] = builders.map(ArenaBuilder::build);
    let mut column = PreparedColumn::new();
    let mut scratch = Vec::new();
    let n = entities.len();
    // decisions[i][j - i - 1] is pair (i, j); every row pre-sized.
    let mut decisions: Vec<Vec<Option<f64>>> = (0..n).map(|i| vec![None; n - i - 1]).collect();
    let mut group_allocations = [0u64; 2];
    for allocations in &mut group_allocations {
        decisions.iter_mut().flatten().for_each(|d| *d = None);
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        column.truncate(0);
        for &handle in &handles {
            column.push(&matcher, &arenas, handle);
        }
        for later in 1..n {
            matcher.matches_strip(
                &arenas,
                &column,
                later,
                0..later,
                false,
                &mut scratch,
                |earlier, score| {
                    decisions[earlier][later - earlier - 1] = Some(score);
                },
            );
        }
        *allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    }
    let [first, second] = group_allocations;
    assert!(first > 0, "the first group builds the column");
    assert_eq!(
        second, 0,
        "a warm group allocated {second} times ({first} when cold)"
    );
    decisions.into_iter().flatten().collect()
}

#[test]
fn arena_compare_loop_allocates_nothing_after_warm_up() {
    let entities = corpus();
    let weighted = || {
        Matcher::new(
            vec![
                MatchRule::new("title", Arc::new(er_core::NormalizedLevenshtein)).with_weight(2.0),
                MatchRule::new("title", Arc::new(er_core::JaroWinkler::default())),
                MatchRule::new("title", Arc::new(er_core::Jaccard)),
                MatchRule::new("brand", Arc::new(er_core::Jaccard)),
            ],
            0.5,
        )
    };
    // A multi-rule matcher exercises every measure through the weighted
    // path: edit distance (chars + DP scratch), Jaro-Winkler (match
    // scratch) and Jaccard (hashed sets).
    let pairwise = assert_hot_sweep_allocates_nothing(weighted(), &entities);
    let by_strips = assert_hot_group_allocates_nothing(weighted(), &entities);
    assert_eq!(bits(&pairwise), bits(&by_strips));
    // The paper's single-rule matcher takes the thresholded kernel:
    // most pairs die in the histogram filter, the near-duplicates are
    // verified bit-parallel, the two long titles by the banded DP.
    let decisions = assert_hot_sweep_allocates_nothing(Matcher::paper_default(), &entities);
    assert_eq!(
        decisions.iter().flatten().count(),
        4,
        "canon, nikon, sony and the long hasselblad near-duplicates"
    );
    // The strips reach them through the batch prefilter.
    let by_strips = assert_hot_group_allocates_nothing(Matcher::paper_default(), &entities);
    assert_eq!(bits(&decisions), bits(&by_strips));
}

fn bits(decisions: &[Option<f64>]) -> Vec<Option<u64>> {
    decisions.iter().map(|d| d.map(f64::to_bits)).collect()
}
