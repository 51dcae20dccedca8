//! JobSN: boundary stitching via a second MR job.
//!
//! Strategy 1 of *Parallel Sorted Neighborhood Blocking with
//! MapReduce*: the window job slides the window inside each range
//! partition — each reduce task merges its slice of the map tasks'
//! sorted runs ([`crate::runs`]) — and additionally publishes each
//! partition's first and last `w − 1` entities as *boundary
//! candidates*; a second, tiny MR job then compares the candidate pairs
//! that straddle partition boundaries. No range reads another's
//! entities during the main job — the cost is an extra (small) job.
//!
//! # Exactness with thin and empty partitions
//!
//! The paper assumes every partition holds at least `w` entities. The
//! ranges ([`SnRanges`](crate::SnRanges)) hold equal window-pair shares, so that fails
//! only on inputs with few pairs per range — but this implementation
//! is exact without the assumption, on any layout: a partition with
//! fewer than `w − 1` entities publishes *all* of them as both head
//! and tail candidates, and the driver assembles each boundary group
//! by walking right across as many partitions as the window reaches
//! ([`assemble_boundary_input`]). The left side of boundary `b` is
//! always the tail of partition `b` itself; a cross pair is compared
//! exactly at the boundary directly after its left entity's partition,
//! so no pair is compared twice even when a window spans several thin
//! partitions.

use std::sync::Arc;

use er_core::result::MatchPair;
use er_core::sortkey::SortKeyFunction;
use er_core::PreparedHandle;
use er_loadbalance::compare::{EntityInterner, EntityTable, GroupComparer, PairComparer};
use er_loadbalance::keys::key_index;
use er_loadbalance::Ent;
use mr_engine::prelude::*;

use crate::keys::{BoundaryKey, BoundarySide, SN_BLOCK};
use crate::runs::{range_entries, sn_job, RunMapper, SortedRun};
use crate::window::WindowBuffer;
use crate::PARTITION_ENTITIES;

/// One record of the window job's reduce output: either a found match
/// or a boundary candidate for the stitch job.
#[derive(Debug, Clone)]
pub enum WindowOut {
    /// A matched pair with its score.
    Match(MatchPair, f64),
    /// One of the first `min(w − 1, n)` entities of the partition,
    /// `dist` positions from its start (1-based).
    Head {
        /// The partition publishing the candidate.
        partition: u32,
        /// 1-based distance from the partition start.
        dist: u32,
        /// The candidate entity.
        entity: Ent,
    },
    /// One of the last `min(w − 1, n)` entities of the partition,
    /// `dist` positions from its end (1-based).
    Tail {
        /// The partition publishing the candidate.
        partition: u32,
        /// 1-based distance from the partition end.
        dist: u32,
        /// The candidate entity.
        entity: Ent,
    },
}

/// Reduce phase of the window job. A reduce task owns one key range:
/// it merges its slice out of the sorted runs and slides the window
/// ([`WindowBuffer`]) over the merge, so only `w − 1` entities are
/// resident. The first `w − 1` entities are published as heads, the
/// last `w − 1` as tails, where a boundary faces them.
#[derive(Clone)]
pub struct WindowReducer {
    window: usize,
    buffer: WindowBuffer,
}

impl WindowReducer {
    /// Creates the reducer.
    pub fn new(comparer: PairComparer, window: usize) -> Self {
        let buffer = WindowBuffer::new(comparer, window);
        Self { window, buffer }
    }
}

impl Reducer for WindowReducer {
    type KIn = u32;
    type VIn = ();
    type KOut = ();
    type VOut = WindowOut;
    type Product = SortedRun;

    fn reduce(
        &mut self,
        group: Group<'_, u32, (), SortedRun>,
        ctx: &mut ReduceContext<(), WindowOut>,
    ) {
        let runs = group.products();
        let (partition, ranges) = (*group.key(), ctx.info().num_reduce_tasks);
        let (_, entries) = range_entries(runs, self.window, partition, ranges, false);
        let len = entries.len();
        let fringe = len.min(self.window - 1);
        // Heads face the boundary to the *left*, which the first range
        // does not have; tails the boundary to the *right*, which the
        // last range does not have.
        let heads = if partition > 0 { fringe } else { 0 };
        let last = partition as usize + 1 == ranges;
        let tails = if last { 0 } else { fringe };
        self.buffer.clear();
        for (i, (run, position)) in entries.enumerate() {
            let entity = || Arc::clone(runs[run as usize].entity(position));
            if i < heads {
                let dist = key_index(i + 1, "boundary distance");
                ctx.emit(
                    (),
                    WindowOut::Head {
                        partition,
                        dist,
                        entity: entity(),
                    },
                );
            }
            if len - i <= tails {
                let dist = key_index(len - i, "boundary distance");
                ctx.emit(
                    (),
                    WindowOut::Tail {
                        partition,
                        dist,
                        entity: entity(),
                    },
                );
            }
            let member = runs[run as usize].handle(position);
            self.buffer.advance(runs, member, |pair, score| {
                ctx.emit((), WindowOut::Match(pair, score))
            });
        }
        self.buffer.flush(ctx);
        if len > 0 {
            ctx.add_counter(PARTITION_ENTITIES, len as u64);
        }
    }
}

/// Builds the JobSN window job over `ranges` key ranges.
pub fn window_job(
    sort_key: Arc<dyn SortKeyFunction>,
    comparer: PairComparer,
    window: usize,
    ranges: usize,
) -> Job<RunMapper, WindowReducer> {
    let mapper = RunMapper::new(sort_key, &comparer).keeping_entities();
    let reducer = WindowReducer::new(comparer, window);
    sn_job("sn-jobsn-window", mapper, reducer, ranges)
}

/// Head/tail candidates and sizes of every partition, split out of the
/// window job's output by [`split_window_output`].
#[derive(Debug, Default)]
pub struct BoundaryCandidates {
    /// Per partition: `(dist-from-start, entity)`, ascending by dist.
    pub heads: Vec<Vec<(u32, Ent)>>,
    /// Per partition: `(dist-from-end, entity)`, ascending by dist.
    pub tails: Vec<Vec<(u32, Ent)>>,
    /// Per partition: number of entities it holds.
    pub lens: Vec<u64>,
}

/// Splits the window job's reduce outputs into the match result and
/// the per-partition boundary candidates.
pub fn split_window_output(
    reduce_outputs: Vec<Vec<((), WindowOut)>>,
    partitions: usize,
    lens: Vec<u64>,
) -> (er_core::MatchResult, BoundaryCandidates) {
    let mut candidates = BoundaryCandidates {
        heads: vec![Vec::new(); partitions],
        tails: vec![Vec::new(); partitions],
        lens,
    };
    let mut matches = Vec::with_capacity(reduce_outputs.len());
    for task_output in reduce_outputs {
        let mut task_matches = Vec::new();
        for (_, record) in task_output {
            match record {
                WindowOut::Match(pair, score) => task_matches.push((pair, score)),
                WindowOut::Head {
                    partition,
                    dist,
                    entity,
                } => candidates.heads[partition as usize].push((dist, entity)),
                WindowOut::Tail {
                    partition,
                    dist,
                    entity,
                } => candidates.tails[partition as usize].push((dist, entity)),
            }
        }
        matches.push(task_matches);
    }
    for side in candidates
        .heads
        .iter_mut()
        .chain(candidates.tails.iter_mut())
    {
        side.sort_by_key(|(dist, _)| *dist);
    }
    (er_core::MatchResult::from_runs(matches), candidates)
}

/// Assembles the stitch job's input: one input partition per boundary
/// that has candidates on both sides.
///
/// For boundary `b` (the gap after partition `b`) the left side is the
/// tail of partition `b`; the right side walks partitions `b+1, b+2,
/// …` accumulating heads until the window range `w − 1` is exhausted —
/// which is what keeps the stitch exact across thin and empty
/// partitions.
pub fn assemble_boundary_input(
    candidates: &BoundaryCandidates,
    window: usize,
) -> Partitions<BoundaryKey, Ent> {
    let partitions = candidates.lens.len();
    let reach = (window - 1) as u64;
    let mut input = Vec::new();
    for b in 0..partitions.saturating_sub(1) {
        let mut records: Vec<(BoundaryKey, Ent)> = Vec::new();
        for &(dist, ref entity) in &candidates.tails[b] {
            debug_assert!(u64::from(dist) <= reach);
            records.push((
                BoundaryKey {
                    boundary: key_index(b, "boundary index"),
                    side: BoundarySide::Left,
                    dist,
                },
                Arc::clone(entity),
            ));
        }
        if records.is_empty() {
            continue;
        }
        let mut rights = 0usize;
        let mut base = 0u64; // entities between boundary b and partition q
        for q in (b + 1)..partitions {
            for &(dist, ref entity) in &candidates.heads[q] {
                let global = base + u64::from(dist);
                if global > reach {
                    break;
                }
                records.push((
                    BoundaryKey {
                        boundary: key_index(b, "boundary index"),
                        side: BoundarySide::Right,
                        dist: key_index(global, "boundary distance"),
                    },
                    Arc::clone(entity),
                ));
                rights += 1;
            }
            base += candidates.lens[q];
            if base >= reach {
                break;
            }
        }
        if rights > 0 {
            input.push(records);
        }
    }
    input
}

/// Reduce phase of the stitch job: one group per boundary; buffer the
/// left side (sorted ascending by distance), stream the right side and
/// compare every pair within `dl + dr ≤ w`.
#[derive(Clone)]
pub struct StitchReducer {
    driver: GroupComparer,
    window: usize,
    /// Distances of the buffered lefts, by driver position.
    left_dists: Vec<u32>,
}

impl StitchReducer {
    /// Creates the reducer.
    pub fn new(comparer: PairComparer, window: usize) -> Self {
        let mut driver = GroupComparer::new(comparer);
        // All SN comparisons run under the one window block.
        driver.begin(SN_BLOCK);
        Self {
            driver,
            window,
            left_dists: Vec::new(),
        }
    }
}

impl Reducer for StitchReducer {
    type KIn = BoundaryKey;
    type VIn = PreparedHandle;
    type KOut = MatchPair;
    type VOut = f64;
    type Product = EntityTable;

    fn reduce(
        &mut self,
        group: Group<'_, BoundaryKey, PreparedHandle, EntityTable>,
        ctx: &mut ReduceContext<MatchPair, f64>,
    ) {
        // Distances are `u32`, so a wider window reaches all of them.
        let w = u32::try_from(self.window).unwrap_or(u32::MAX);
        let tables = group.products();
        self.driver.truncate(0);
        self.left_dists.clear();
        for (key, value) in group.iter() {
            let position = self.driver.push(tables, *value);
            match key.side {
                BoundarySide::Left => self.left_dists.push(key.dist),
                BoundarySide::Right => {
                    // Lefts arrive ascending by dist, so the window
                    // condition holds for a prefix of them.
                    let reach = self.left_dists.partition_point(|dl| dl + key.dist <= w);
                    self.driver
                        .strip(tables, position, 0..reach, false, |pair, score| {
                            ctx.emit(pair, score)
                        });
                    // Only lefts stay: a right is never a partner.
                    self.driver.truncate(position);
                }
            }
        }
        self.driver.flush(ctx);
    }
}

/// Pass-through mapper of the stitch job (the driver pre-assembles the
/// candidate records; the job exists to shuffle them per boundary),
/// preparing each candidate.
#[derive(Clone)]
pub struct BoundaryMapper {
    interner: EntityInterner,
}

impl BoundaryMapper {
    /// Creates the mapper, preparing candidates for `comparer`.
    pub fn new(comparer: &PairComparer) -> Self {
        Self {
            interner: EntityInterner::new(comparer),
        }
    }
}

impl Mapper for BoundaryMapper {
    type KIn = BoundaryKey;
    type VIn = Ent;
    type KOut = BoundaryKey;
    type VOut = PreparedHandle;
    type Side = ();
    type Product = EntityTable;

    fn setup(&mut self, info: &MapTaskInfo) {
        self.interner.setup(info);
    }

    fn map(
        &mut self,
        key: &BoundaryKey,
        entity: &Ent,
        ctx: &mut MapContext<BoundaryKey, PreparedHandle, ()>,
    ) {
        ctx.emit(*key, self.interner.intern(entity, &[SN_BLOCK]));
    }

    fn finish(&mut self, ctx: &mut MapContext<BoundaryKey, PreparedHandle, ()>) {
        self.interner.finish(ctx);
    }

    fn into_product(self) -> EntityTable {
        self.interner.into_table()
    }
}

/// Builds the stitch job over `boundaries` reduce tasks.
pub fn stitch_job(
    comparer: PairComparer,
    window: usize,
    boundaries: usize,
) -> Job<BoundaryMapper, StitchReducer> {
    Job::builder(
        "sn-jobsn-stitch",
        BoundaryMapper::new(&comparer),
        StitchReducer::new(comparer, window),
    )
    .reduce_tasks(boundaries.max(1))
    .partitioner(BoundaryKey::partitioner())
    .group_by(BoundaryKey::group_cmp())
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::{Entity, Matcher};

    fn ent(id: u64, title: &str) -> Ent {
        Arc::new(Entity::new(id, [("title", title)]))
    }

    fn candidates(lens: &[u64], window: usize) -> BoundaryCandidates {
        // Synthesizes heads/tails for partitions of the given sizes
        // with entity ids encoding (partition, position).
        let fringe = window - 1;
        let mut c = BoundaryCandidates {
            heads: vec![Vec::new(); lens.len()],
            tails: vec![Vec::new(); lens.len()],
            lens: lens.to_vec(),
        };
        for (p, &len) in lens.iter().enumerate() {
            let take = fringe.min(len as usize);
            for d in 1..=take {
                let head_id = (p * 100 + d - 1) as u64;
                let tail_id = (p * 100 + len as usize - d) as u64;
                c.heads[p].push((d as u32, ent(head_id, "t")));
                c.tails[p].push((d as u32, ent(tail_id, "t")));
            }
        }
        c
    }

    #[test]
    fn assembly_pairs_tails_with_next_partition_heads() {
        let c = candidates(&[5, 5], 3);
        let input = assemble_boundary_input(&c, 3);
        assert_eq!(input.len(), 1, "one boundary");
        let keys: Vec<String> = input[0].iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(keys, vec!["0.L1", "0.L2", "0.R1", "0.R2"]);
    }

    #[test]
    fn assembly_walks_across_thin_partitions() {
        // Partition 1 holds a single entity; with w = 4 the right side
        // of boundary 0 must reach into partition 2.
        let c = candidates(&[5, 1, 5], 4);
        let input = assemble_boundary_input(&c, 4);
        assert_eq!(input.len(), 2);
        let right_keys: Vec<String> = input[0]
            .iter()
            .filter(|(k, _)| k.side == BoundarySide::Right)
            .map(|(k, _)| k.to_string())
            .collect();
        // Partition 1 contributes dist 1; partition 2's heads land at
        // global dists 2 and 3.
        assert_eq!(right_keys, vec!["0.R1", "0.R2", "0.R3"]);
    }

    #[test]
    fn assembly_skips_boundaries_without_both_sides() {
        // Trailing empty partition: boundary 1 has no right side.
        let c = candidates(&[3, 3, 0], 3);
        let input = assemble_boundary_input(&c, 3);
        assert_eq!(input.len(), 1);
        assert_eq!(input[0][0].0.boundary, 0);
    }

    #[test]
    fn assembly_crosses_empty_interior_partitions() {
        // Middle partition empty: boundary 0's right side comes from
        // partition 2 at unchanged global distances; boundary 1 has no
        // left side (empty tail) and is skipped — its pairs are
        // boundary 0's.
        let c = candidates(&[4, 0, 4], 3);
        let input = assemble_boundary_input(&c, 3);
        assert_eq!(input.len(), 1);
        let keys: Vec<String> = input[0].iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(keys, vec!["0.L1", "0.L2", "0.R1", "0.R2"]);
    }

    #[test]
    fn stitch_reducer_compares_only_within_the_window() {
        let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
        let mut reducer = StitchReducer::new(comparer.clone(), 3);
        let entries = vec![
            (
                BoundaryKey {
                    boundary: 0,
                    side: BoundarySide::Left,
                    dist: 1,
                },
                ent(1, "abcdefghij"),
            ),
            (
                BoundaryKey {
                    boundary: 0,
                    side: BoundarySide::Left,
                    dist: 2,
                },
                ent(2, "abcdefghij"),
            ),
            (
                BoundaryKey {
                    boundary: 0,
                    side: BoundarySide::Right,
                    dist: 1,
                },
                ent(3, "abcdefghij"),
            ),
            (
                BoundaryKey {
                    boundary: 0,
                    side: BoundarySide::Right,
                    dist: 2,
                },
                ent(4, "abcdefghij"),
            ),
        ];
        let mut ctx = ReduceContext::for_testing(ReduceTaskInfo {
            task_index: 0,
            num_reduce_tasks: 1,
            num_map_tasks: 1,
        });
        let (entries, tables) = crate::keys::staged(&comparer, entries);
        reducer.reduce(
            Group::for_testing(&entries).with_products(&tables),
            &mut ctx,
        );
        // w = 3: pairs (L1,R1), (L1,R2), (L2,R1) qualify; (L2,R2) has
        // dl + dr = 4 > 3.
        assert_eq!(ctx.counters().get(er_loadbalance::COMPARISONS), 3);
        assert_eq!(ctx.output().len(), 3, "identical titles all match");
    }

    /// The outputs of reduce task `task` of `ranges` over `titles`,
    /// dealt over two map tasks, under window `w`.
    fn window_task(
        titles: &[&str],
        w: usize,
        task: usize,
        ranges: usize,
    ) -> ReduceContext<(), WindowOut> {
        let entities: Vec<((), Ent)> = (0..)
            .zip(titles)
            .map(|(id, title)| ((), ent(id, title)))
            .collect();
        let input: Partitions<(), Ent> = entities
            .chunks(titles.len().div_ceil(2))
            .map(<[_]>::to_vec)
            .collect();
        let runs = crate::runs::runs_of(
            &input,
            Arc::new(er_core::sortkey::AttributeSortKey::title()),
        );
        let comparer = PairComparer::new(Arc::new(Matcher::paper_default()));
        let mut reducer = WindowReducer::new(comparer, w);
        let info = ReduceTaskInfo {
            task_index: task,
            num_reduce_tasks: ranges,
            num_map_tasks: runs.len(),
        };
        let mut ctx = ReduceContext::for_testing(info);
        reducer.setup(&info);
        let trigger = [(key_index(task, "key range index"), ())];
        reducer.reduce(Group::for_testing(&trigger).with_products(&runs), &mut ctx);
        reducer.finish(&mut ctx);
        ctx
    }

    /// `(matches, heads, tails)` among a window task's outputs.
    fn census(ctx: &ReduceContext<(), WindowOut>) -> (usize, usize, usize) {
        let count = |f: fn(&WindowOut) -> bool| ctx.output().iter().filter(|(_, v)| f(v)).count();
        (
            count(|v| matches!(v, WindowOut::Match { .. })),
            count(|v| matches!(v, WindowOut::Head { .. })),
            count(|v| matches!(v, WindowOut::Tail { .. })),
        )
    }

    #[test]
    fn outer_partitions_publish_no_unconsumed_candidates() {
        // The first range has no left boundary (no heads), the last
        // no right boundary (no tails) — those candidates would never
        // be consumed by assemble_boundary_input. Four entities under
        // w = 4 are cut 3 | 1.
        let titles = ["aa", "bbb", "cccc", "ddddd"];
        for (task, expect_heads, expect_tails) in [(0usize, 0usize, 3usize), (1, 1, 0)] {
            let (_, heads, tails) = census(&window_task(&titles, 4, task, 2));
            assert_eq!(heads, expect_heads, "task {task} heads");
            assert_eq!(tails, expect_tails, "task {task} tails");
        }
    }

    #[test]
    fn window_reducer_streams_per_key_groups_and_publishes_thin_partitions() {
        // Eight entities under w = 4 are cut 4 | 1 | 2 | 1: range 2
        // holds ranks 5 and 6, fewer than w - 1, so each is a head and
        // a tail, and the two are compared.
        let titles = ["same title"; 8];
        let ctx = window_task(&titles, 4, 2, 4);
        let (matches, heads, tails) = census(&ctx);
        assert_eq!(matches, 1, "the range's one pair is compared");
        assert_eq!(heads, 2, "n < w - 1: every entity is a head");
        assert_eq!(tails, 2, "and a tail");
        assert_eq!(ctx.counters().get(PARTITION_ENTITIES), 2);
    }
}
