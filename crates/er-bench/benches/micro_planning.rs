//! Micro-benchmarks for the planning path — everything a resolve does
//! before it compares — one leg at a time, so a later change can tell
//! which leg it moved:
//!
//! * **BDM assembly**: `BlockDistributionMatrix::from_job_output`
//!   over the shape the BDM job hands over (32 reduce outputs, each in
//!   key order: the two ranked cells of every block that has a pair —
//!   a third of the blocks — and of every other block, a singleton,
//!   the sixteen-byte note its reducer wrote instead), at 1 000 and
//!   50 000 input blocks;
//! * **remap**: what the matching job's mappers do per record — 50 000
//!   `(partition, rank)` records, those of the dropped blocks among
//!   them, resolved to their block or to "pruned" through `blocks_in`
//!   (`block_of_rank`, key guard included) against each of the two
//!   matrices, in an order unrelated to the key order;
//! * **block_index**: the same 50 000 records looked up by key (binary
//!   search over the sorted keys) — the path tests and tools take;
//! * **PairRange membership**: `for_each_relevant_interval` over every
//!   entity of one 1 300-entity block at `r = 32`;
//! * **key derivation**: `Keyed::derive_into` under the paper's
//!   three-letter title prefix, per entity of a DS1-shaped corpus.
//!
//! Exports `BENCH_micro_planning.json` (median wall per leg plus the
//! deterministic counts each leg produced); CI smoke-runs it with
//! `--test`, and `compare_bench_json` diffs it against the stored
//! baseline.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use er_bench::{median_ms, write_bench_json, Json, PAPER_SEED};
use er_core::blocking::{BlockKey, PrefixBlocking};
use er_core::SourceId;
use er_loadbalance::bdm::RankedKey;
use er_loadbalance::pair_range::mapper::for_each_relevant_interval;
use er_loadbalance::pair_range::ranges::{RangeIndexer, RangePolicy};
use er_loadbalance::{BlockDistributionMatrix, Ent, Keyed};
use mr_engine::partitioner::HashPartitioner;

const MAP_TASKS: usize = 8;
const REDUCE_TASKS: usize = 32;
const LOOKUPS: usize = 50_000;
const DERIVE_ENTITIES: usize = 50_000;
const RANGE_BLOCK: u64 = 1_300;

/// Median wall of `reps` runs of `body`, in ms; `body` gets a fresh
/// `setup()` value each run, built off the clock.
fn median_wall_ms<I, O>(
    reps: usize,
    mut setup: impl FnMut() -> I,
    mut body: impl FnMut(I) -> O,
) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            black_box(body(input));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median_ms(&walls)
}

/// One cell a BDM mapper emits: `(key, partition, count, rank)`.
type Cell = (BlockKey, usize, u64, u32);

/// One output record of the BDM job: `((partition, rank), ranked key)`.
type Record = ((u32, u32), RankedKey);

/// The BDM job over `blocks` ten-character keys: every block has one
/// entity in one partition and every third block one more in a second
/// partition. Returns what the mappers emit — every cell with its
/// key's rank in its partition, in an order unrelated to the key order
/// — and what the job hands over: per cell, in `REDUCE_TASKS` reduce
/// outputs hashed like the job's partitioner does and each in key
/// order, the cell itself when its block has a pair and the note of a
/// lone entity when not.
fn bdm_job_output(blocks: usize) -> (Vec<Cell>, Vec<Record>) {
    let mut emitted: Vec<Cell> = Vec::new();
    let mut has_pair = Vec::new();
    for k in 0..blocks {
        // Multiplying by an odd constant scatters consecutive `k`
        // over the key space, as real skus are.
        let key = BlockKey::new(format!(
            "{:010}",
            (k as u64).wrapping_mul(2_654_435_761) % 10_000_000_000
        ));
        emitted.push((key.clone(), k % MAP_TASKS, 1, 0));
        has_pair.push(k % 3 == 0);
        if k % 3 == 0 {
            emitted.push((key, (k + 3) % MAP_TASKS, 1, 0));
            has_pair.push(true);
        }
    }
    let mut by_key: Vec<usize> = (0..emitted.len()).collect();
    by_key.sort_by(|&a, &b| (&emitted[a].0, emitted[a].1).cmp(&(&emitted[b].0, emitted[b].1)));
    let mut keys_in = [0u32; MAP_TASKS];
    let mut runs: Vec<Vec<Record>> = vec![Vec::new(); REDUCE_TASKS];
    for at in by_key {
        let ranked = &mut keys_in[emitted[at].1];
        emitted[at].3 = *ranked;
        *ranked += 1;
        let (key, partition, count, rank) = emitted[at].clone();
        let ranked_key = if has_pair[at] {
            RankedKey::Cell(key.clone(), count)
        } else {
            RankedKey::Lone(HashPartitioner::hash(&key))
        };
        runs[HashPartitioner::bucket(&key, REDUCE_TASKS)]
            .push(((partition as u32, rank), ranked_key));
    }
    (emitted, runs.into_iter().flatten().collect())
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let reps = if test_mode { 1 } else { 15 };
    println!(
        "== micro_planning: BDM assembly, rank remap, block_index, PairRange membership, key derivation ==\n"
    );
    let mut export: Vec<(String, Json)> = vec![
        ("bench".into(), Json::str("micro_planning")),
        ("samples".into(), Json::Num(reps as f64)),
    ];

    for (label, blocks) in [("1k", 1_000usize), ("50k", 50_000)] {
        let (emitted, records) = bdm_job_output(blocks);
        let assembly_ms = median_wall_ms(
            reps,
            || records.clone(),
            |records| BlockDistributionMatrix::from_job_output(MAP_TASKS, records),
        );
        let bdm = BlockDistributionMatrix::from_job_output(MAP_TASKS, records.clone());
        // Each probe is one side record of the BDM job: the cell's
        // partition, its key's rank there, and the key.
        let probes: Vec<(usize, u32, &BlockKey)> = emitted
            .iter()
            .map(|(key, partition, _, rank)| (*partition, *rank, key))
            .cycle()
            .take(LOOKUPS)
            .collect();
        let remapped = || {
            probes
                .iter()
                .filter_map(|&(partition, rank, key)| bdm.block_of_rank(partition, rank, key))
                .count()
        };
        let remap_ms = median_wall_ms(reps, || (), |()| remapped());
        let block_index_ms = median_wall_ms(
            reps,
            || (),
            |()| {
                probes
                    .iter()
                    .filter_map(|(_, _, key)| bdm.block_index(key))
                    .count()
            },
        );
        assert_eq!(
            remapped(),
            probes
                .iter()
                .filter(|(_, _, key)| bdm.block_index(key).is_some())
                .count(),
            "a rank remaps to a block iff its key has one"
        );
        println!(
            "{blocks:>6} blocks ({} records): assembly {assembly_ms:.3} ms, {LOOKUPS} records: remap {remap_ms:.3} ms, block_index {block_index_ms:.3} ms",
            records.len()
        );
        export.push((
            format!("blocks_{label}"),
            Json::Num(bdm.num_blocks() as f64),
        ));
        export.push((format!("assembly_{label}_ms"), Json::Num(assembly_ms)));
        export.push((format!("remap_at_{label}_ms"), Json::Num(remap_ms)));
        export.push((
            format!("block_index_at_{label}_ms"),
            Json::Num(block_index_ms),
        ));
    }

    let bdm = BlockDistributionMatrix::from_counts(1, vec![(BlockKey::new("big"), 0, RANGE_BLOCK)]);
    let ranges = RangeIndexer::new(bdm.total_pairs(), REDUCE_TASKS, RangePolicy::CeilDiv);
    let mut memberships = 0u64;
    let membership_ms = median_wall_ms(
        reps,
        || (),
        |()| {
            memberships = 0;
            for x in 0..RANGE_BLOCK {
                let tally = |first, last| memberships += black_box(last) - black_box(first) + 1;
                for_each_relevant_interval(&bdm, &ranges, 0, SourceId::R, black_box(x), tally);
            }
            memberships
        },
    );
    println!(
        "PairRange membership, {RANGE_BLOCK}-entity block, r = {REDUCE_TASKS}: {membership_ms:.3} ms for {memberships} memberships over {} pairs",
        bdm.total_pairs()
    );
    export.push(("range_memberships".into(), Json::Num(memberships as f64)));
    export.push(("range_membership_ms".into(), Json::Num(membership_ms)));

    let scale = DERIVE_ENTITIES as f64 / 100_000.0;
    let entities: Vec<Ent> =
        er_datagen::generate_products(&er_datagen::ds1_spec(PAPER_SEED).scaled(scale))
            .entities
            .into_iter()
            .take(DERIVE_ENTITIES)
            .map(Arc::new)
            .collect();
    let blocking = PrefixBlocking::title3();
    let mut derived = 0usize;
    let derive_ms = median_wall_ms(
        reps,
        || Vec::with_capacity(entities.len()),
        |mut replicas| {
            for entity in &entities {
                Keyed::derive_into(&blocking, black_box(entity), &mut replicas);
            }
            derived = replicas.len();
            replicas
        },
    );
    println!(
        "Keyed::derive_into, {} entities: {derive_ms:.3} ms ({:.0} ns per entity, {derived} replicas)",
        entities.len(),
        derive_ms * 1e6 / entities.len() as f64
    );
    export.push(("derive_entities".into(), Json::Num(entities.len() as f64)));
    export.push(("derive_replicas".into(), Json::Num(derived as f64)));
    export.push(("derive_into_ms".into(), Json::Num(derive_ms)));

    write_bench_json("micro_planning", &Json::obj(export)).expect("bench json export");
}
