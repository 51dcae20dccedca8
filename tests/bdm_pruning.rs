//! Hostile inputs for the pruned BDM: the matrix holds only the blocks
//! that have a pair (`|Φ_k| ≥ 2`), the BDM job's reducer drops the
//! rest, and a record whose rank maps to a dropped block leaves no map
//! output in the matching job.
//!
//! Every case runs BlockSplit and PairRange × spill threshold
//! {none, 1} × parallelism {1, 2, 8} × {no fault, one failed BDM
//! reduce attempt} and is held against
//! [`naive_reference`]: same pairs, bit-identical scores, each pair
//! that shares a block compared exactly once. The matrix of each run
//! must hold exactly the blocks with a pair, and the reducer's counters
//! exactly the others: what it dropped plus what the matrix kept is
//! every replica.

use std::collections::BTreeMap;
use std::sync::Arc;

use dedupe_mr::prelude::*;
use er_loadbalance::bdm_job::{PRUNED_BLOCKS, PRUNED_ENTITIES};

const R: SourceId = SourceId::R;
const S: SourceId = SourceId::S;

fn matcher() -> Arc<Matcher> {
    Arc::new(Matcher::new(
        vec![MatchRule::new(
            "title",
            Arc::new(er_core::similarity::NormalizedLevenshtein),
        )],
        0.6,
    ))
}

/// Pass one blocks on the first two letters of the title, pass two on
/// the brand (absent brand: no key from that pass).
fn two_pass() -> Arc<dyn BlockingFunction> {
    Arc::new(MultiPassBlocking::new(vec![
        Arc::new(PrefixBlocking::new("title", 2)),
        Arc::new(AttributeBlocking::new("brand")),
    ]))
}

/// `(title, brand)` rows as one partition of `source`, ids counting
/// from `first_id`; an empty brand is an absent attribute.
fn partition(source: SourceId, first_id: u64, rows: &[(&str, &str)]) -> Vec<((), Ent)> {
    rows.iter()
        .zip(first_id..)
        .map(|(&(title, brand), id)| {
            let attributes = [("title", title), ("brand", brand)];
            let attributes = attributes
                .into_iter()
                .filter(|(_, value)| !value.is_empty());
            ((), Arc::new(Entity::with_source(source, id, attributes)))
        })
        .collect()
}

/// Size of every block of `input` under `blocking`.
fn block_sizes(
    input: &Partitions<(), Ent>,
    blocking: &dyn BlockingFunction,
) -> BTreeMap<BlockKey, u64> {
    let mut sizes = BTreeMap::new();
    for (_, entity) in input.iter().flatten() {
        for key in blocking.keys(entity) {
            *sizes.entry(key).or_insert(0) += 1;
        }
    }
    sizes
}

/// Pairs that share at least one blocking key — cross-source ones only
/// when `sources` tags the partitions.
fn pairs_sharing_a_block(
    input: &Partitions<(), Ent>,
    sources: Option<&[SourceId]>,
    blocking: &dyn BlockingFunction,
) -> u64 {
    let keyed: Vec<(SourceId, Vec<BlockKey>)> = input
        .iter()
        .enumerate()
        .flat_map(|(p, part)| {
            let side = sources.map_or(R, |tags| tags[p]);
            part.iter().map(move |(_, e)| (side, blocking.keys(e)))
        })
        .collect();
    let mut pairs = 0;
    for (i, (side_a, keys_a)) in keyed.iter().enumerate() {
        for (side_b, keys_b) in &keyed[i + 1..] {
            let comparable = sources.is_none() || side_a != side_b;
            if comparable && keys_a.iter().any(|key| keys_b.contains(key)) {
                pairs += 1;
            }
        }
    }
    pairs
}

/// `(pair, score bits)` of a match result, in pair order.
fn result_bits(result: &MatchResult) -> Vec<(MatchPair, u64)> {
    result.iter().map(|(p, s)| (p, s.to_bits())).collect()
}

/// What every run over one input must produce.
struct Expected {
    /// `(pair, score bits)` of the naive reference.
    matches: Vec<(MatchPair, u64)>,
    /// Pairs sharing a block: each compared exactly once.
    comparisons: u64,
    /// Key and size of the blocks with a pair, in key order.
    kept: Vec<(BlockKey, u64)>,
    /// Blocks without one, and the replicas in them.
    pruned_blocks: u64,
    pruned_entities: u64,
}

impl Expected {
    fn check(&self, case: &str, outcome: &Outcome, faulted: bool) {
        assert_eq!(
            result_bits(&outcome.result),
            self.matches,
            "{case}: pairs and scores"
        );
        assert_eq!(
            outcome.total_comparisons(),
            self.comparisons,
            "{case}: comparisons"
        );
        let failures = outcome.workflow.task_failures();
        assert_eq!(failures, u64::from(faulted), "{case}: task failures");

        // The matrix holds the blocks with a pair and nothing else; the
        // counters hold the rest, whatever attempt counted it.
        let bdm = outcome.details.bdm().expect("a BDM-balanced strategy");
        let in_matrix: Vec<(BlockKey, u64)> = (0..bdm.num_blocks())
            .map(|k| (bdm.key(k).clone(), bdm.size(k)))
            .collect();
        assert_eq!(in_matrix, self.kept, "{case}: blocks of the matrix");
        let counters = &outcome.workflow.counters;
        assert_eq!(
            counters.get(PRUNED_BLOCKS),
            self.pruned_blocks,
            "{case}: pruned blocks"
        );
        assert_eq!(
            counters.get(PRUNED_ENTITIES),
            self.pruned_entities,
            "{case}: pruned entities"
        );
        assert_eq!(bdm.pruned_entities(), self.pruned_entities, "{case}");
        if self.kept.is_empty() {
            assert_eq!(bdm.total_pairs(), 0, "{case}");
            let matching = outcome.details.match_metrics().expect("one match job");
            assert_eq!(
                matching.map_output_records(),
                0,
                "{case}: match-stage map output"
            );
            assert!(outcome.result.is_empty(), "{case}");
        }
    }
}

/// Runs `input` through the whole matrix of the module header.
fn assert_pruned_runs_match_naive(
    what: &str,
    blocking: Arc<dyn BlockingFunction>,
    input: &Partitions<(), Ent>,
    sources: Option<&[SourceId]>,
) {
    let entities: Vec<Ent> = input.iter().flatten().map(|(_, e)| Arc::clone(e)).collect();
    let config = ErConfig::new(StrategyKind::Basic)
        .with_blocking(Arc::clone(&blocking))
        .with_matcher(matcher());
    let mut matches = result_bits(&naive_reference(&entities, &config));
    if sources.is_some() {
        matches.retain(|(pair, _)| pair.lo().source != pair.hi().source);
    }
    let (kept, pruned): (Vec<_>, Vec<_>) = block_sizes(input, blocking.as_ref())
        .into_iter()
        .partition(|&(_, size)| size >= 2);
    let expected = Expected {
        matches,
        comparisons: pairs_sharing_a_block(input, sources, blocking.as_ref()),
        kept,
        pruned_blocks: pruned.len() as u64,
        pruned_entities: pruned.iter().map(|(_, size)| size).sum(),
    };
    let fail_a_bdm_reduce_attempt = FaultPlan::new().silence_injected_panics().panic_at(
        "bdm",
        FaultKind::Reduce,
        0,
        1,
        "injected once",
    );

    for parallelism in [1usize, 2, 8] {
        let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(parallelism));
        let session = Resolver::new(&runtime)
            .with_blocking(Arc::clone(&blocking))
            .with_matcher(matcher())
            .with_reduce_tasks(3);
        for strategy in [StrategyKind::BlockSplit, StrategyKind::PairRange] {
            let scenario = match sources {
                None => Scenario::Dedup { strategy },
                Some(tags) => Scenario::Linkage {
                    strategy,
                    sources: tags.to_vec(),
                },
            };
            for spill in [None, Some(1)] {
                for faulted in [false, true] {
                    let case = format!(
                        "{what}: {strategy}, spill {spill:?}, x{parallelism}, fault {faulted}"
                    );
                    let mut resolver = session.clone().with_spill_threshold(spill);
                    if faulted {
                        resolver = resolver
                            .with_fault_policy(FaultPolicy::retry(2))
                            .with_fault_plan(fail_a_bdm_reduce_attempt.clone());
                    }
                    let outcome = resolver
                        .resolve(&scenario, input.clone())
                        .unwrap_or_else(|e| panic!("{case}: {e}"));
                    expected.check(&case, &outcome, faulted);
                }
            }
        }
    }
}

#[test]
fn every_block_a_singleton() {
    // Eight distinct prefixes, no brand: no block has a pair, so the
    // matrix is empty and neither strategy has anything to plan.
    let rows: Vec<(String, &str)> = (0..8)
        .map(|i| (format!("{}{i}title", (b'a' + i) as char), ""))
        .collect();
    let rows: Vec<(&str, &str)> = rows
        .iter()
        .map(|(title, brand)| (title.as_str(), *brand))
        .collect();
    let input = vec![
        partition(R, 0, &rows[..3]),
        partition(R, 3, &rows[3..4]),
        partition(R, 4, &rows[4..]),
    ];
    assert_pruned_runs_match_naive("all singletons", two_pass(), &input, None);
    // One entity in all.
    let input = vec![partition(R, 0, &rows[..1]), Vec::new()];
    assert_pruned_runs_match_naive("one entity", two_pass(), &input, None);
}

#[test]
fn one_block_holding_everything() {
    let titles: Vec<String> = (0..11).map(|i| format!("aa{:04b}", i)).collect();
    let rows: Vec<(&str, &str)> = titles.iter().map(|title| (title.as_str(), "")).collect();
    let input = vec![
        partition(R, 0, &rows[..4]),
        partition(R, 4, &rows[4..5]),
        partition(R, 5, &rows[5..]),
    ];
    assert_pruned_runs_match_naive("one block", two_pass(), &input, None);
}

#[test]
fn empty_input_partitions() {
    // No entity at all, then entities between empty partitions; the
    // singleton `zz` sits alone in its partition, so that partition's
    // whole remap is pruned.
    let none: Partitions<(), Ent> = vec![Vec::new(), Vec::new()];
    assert_pruned_runs_match_naive("no entities", two_pass(), &none, None);
    let input = vec![
        Vec::new(),
        partition(R, 0, &[("aaab", ""), ("abab", ""), ("aaba", "")]),
        Vec::new(),
        partition(R, 3, &[("zzzz", "")]),
        partition(R, 4, &[("abaa", ""), ("aabb", "")]),
        Vec::new(),
    ];
    assert_pruned_runs_match_naive("empty partitions", two_pass(), &input, None);
}

#[test]
fn a_two_pass_entity_with_a_singleton_first_key() {
    // Entity 0: its prefix block `qq` is a singleton (pruned), its
    // brand block `acme` is shared — it must still meet entities 2
    // and 4 there, and its rank of `qq` must emit nothing. Entity 3
    // has two singleton keys; entities 1 and 5 share both of theirs
    // (compared once, in the smaller common block).
    let input = vec![
        partition(
            R,
            0,
            &[("qqaa", "acme"), ("aaab", "bolt"), ("abab", "acme")],
        ),
        partition(
            R,
            3,
            &[("xyxy", "solo"), ("abaa", "acme"), ("aaba", "bolt")],
        ),
    ];
    assert_pruned_runs_match_naive("two-pass", two_pass(), &input, None);
}

#[test]
fn linkage_with_a_block_of_two_same_source_entities() {
    // Block `aa`: two R entities and nothing of S — kept (size 2) with
    // zero cross pairs. Block `ab`: one of each. Block `zz`: one S
    // entity, pruned.
    let input = vec![
        partition(R, 0, &[("aaab", ""), ("aaba", ""), ("abab", "")]),
        partition(S, 0, &[("abaa", ""), ("zzzz", "")]),
    ];
    let prefix: Arc<dyn BlockingFunction> = Arc::new(PrefixBlocking::new("title", 2));
    assert_pruned_runs_match_naive("linkage", Arc::clone(&prefix), &input, Some(&[R, S]));
    // Only the one-sided block: the matrix is not empty, its pair
    // count is.
    let input = vec![
        partition(R, 0, &[("aaab", ""), ("aaba", "")]),
        partition(S, 0, &[("zzzz", "")]),
    ];
    assert_pruned_runs_match_naive("one-sided linkage", prefix, &input, Some(&[R, S]));
}
