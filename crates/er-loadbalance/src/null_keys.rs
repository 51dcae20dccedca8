//! Entities without a valid blocking key (paper Section III and
//! Appendix I).
//!
//! One source: `match(R) = matchB(R−R∅) ∪ match⊥(R−R∅, R∅) ∪
//! allPairs(R∅)` — the last two terms together are the paper's
//! "Cartesian product of R×R∅".
//!
//! Two sources: `matchB(R,S) = matchB(R−R∅, S−S∅) ∪ match⊥(R, S∅) ∪
//! match⊥(R∅, S−S∅)`.
//!
//! The `⊥` sub-problems run the regular machinery under
//! [`ConstantBlocking`]: every entity lands in one block, which the
//! load-balancing strategies then split — so even the degenerate
//! Cartesian product is processed skew-free.
//!
//! Every sub-problem runs as its own workflow (they differ in partition
//! count, so they cannot share one workflow's chained shape), which the
//! caller's `new_workflow` builds from the sub-problem's name: its
//! pool, fault policy and plan, spill threshold, trace sink and tenant
//! are the caller's, e.g. `|name| runtime.workflow(name)`.

use std::sync::Arc;

use er_core::blocking::{BlockingFunction, ConstantBlocking};
use er_core::{MatchResult, SourceId};
use mr_engine::error::MrError;
use mr_engine::input::Partitions;
use mr_engine::workflow::Workflow;

use crate::driver::{run_er_in, ErConfig};
use crate::Ent;

/// Input split by blocking-key validity, preserving partition shape.
#[derive(Debug)]
pub struct NullKeySplit {
    /// Partitions of entities with at least one valid key.
    pub keyed: Partitions<(), Ent>,
    /// Partitions of entities without any key.
    pub null: Partitions<(), Ent>,
}

impl NullKeySplit {
    /// Total keyed entities.
    pub fn keyed_count(&self) -> usize {
        self.keyed.iter().map(Vec::len).sum()
    }

    /// Total keyless entities.
    pub fn null_count(&self) -> usize {
        self.null.iter().map(Vec::len).sum()
    }
}

/// Splits partitions by whether the blocking function yields a key.
pub fn split_by_key(input: &Partitions<(), Ent>, blocking: &dyn BlockingFunction) -> NullKeySplit {
    let mut keyed: Partitions<(), Ent> = Vec::with_capacity(input.len());
    let mut null: Partitions<(), Ent> = Vec::with_capacity(input.len());
    for partition in input {
        let mut k = Vec::new();
        let mut n = Vec::new();
        for ((), e) in partition {
            if blocking.key(e).is_none() {
                n.push(((), Arc::clone(e)));
            } else {
                k.push(((), Arc::clone(e)));
            }
        }
        keyed.push(k);
        null.push(n);
    }
    NullKeySplit { keyed, null }
}

/// Breakdown of a null-key-aware run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullKeyReport {
    /// Matches from regular blocking-based matching.
    pub blocked_matches: usize,
    /// Matches from the keyed × keyless Cartesian part(s).
    pub cartesian_matches: usize,
    /// Matches among keyless entities (one-source only).
    pub null_null_matches: usize,
}

/// Runs one sub-problem — a dedup, or with `sources` a linkage — on
/// the workflow `new_workflow` builds for it.
fn sub_problem(
    new_workflow: &mut impl FnMut(&str) -> Workflow,
    input: Partitions<(), Ent>,
    sources: Option<Vec<SourceId>>,
    config: &ErConfig,
) -> Result<MatchResult, MrError> {
    let kind = if sources.is_some() { "linkage" } else { "er" };
    let mut workflow = new_workflow(&format!("{kind}-{}", config.strategy));
    Ok(run_er_in(&mut workflow, input, sources, config)?.result)
}

/// Deduplicates one source including keyless entities, running every
/// sub-problem on a workflow of `new_workflow`.
pub fn deduplicate_with_null_keys(
    mut new_workflow: impl FnMut(&str) -> Workflow,
    input: &Partitions<(), Ent>,
    config: &ErConfig,
) -> Result<(MatchResult, NullKeyReport), MrError> {
    let split = split_by_key(input, config.blocking.as_ref());
    let mut result = MatchResult::new();
    let mut report = NullKeyReport::default();

    // matchB(R − R∅)
    if split.keyed_count() > 0 {
        let matches = sub_problem(&mut new_workflow, split.keyed.clone(), None, config)?;
        report.blocked_matches = matches.len();
        result.union(&matches);
    }
    if split.null_count() > 0 {
        let bottom: Arc<dyn BlockingFunction> = Arc::new(ConstantBlocking);
        // match⊥(R − R∅, R∅): keyed partitions as side R, keyless as
        // side S of a constant-key linkage.
        if split.keyed_count() > 0 {
            let mut partitions = split.keyed.clone();
            partitions.extend(split.null.clone());
            let mut sources = vec![SourceId::R; split.keyed.len()];
            sources.extend(vec![SourceId::S; split.null.len()]);
            let cfg = config.clone().with_blocking(Arc::clone(&bottom));
            let matches = sub_problem(&mut new_workflow, partitions, Some(sources), &cfg)?;
            report.cartesian_matches = matches.len();
            result.union(&matches);
        }
        // allPairs(R∅): one-source matching under the constant key.
        if split.null_count() > 1 {
            let cfg = config.clone().with_blocking(bottom);
            let matches = sub_problem(&mut new_workflow, split.null.clone(), None, &cfg)?;
            report.null_null_matches = matches.len();
            result.union(&matches);
        }
    }
    Ok((result, report))
}

/// Links two sources including keyless entities on either side,
/// running every sub-problem on a workflow of `new_workflow`.
pub fn link_with_null_keys(
    mut new_workflow: impl FnMut(&str) -> Workflow,
    input: &Partitions<(), Ent>,
    sources: &[SourceId],
    config: &ErConfig,
) -> Result<(MatchResult, NullKeyReport), MrError> {
    assert_eq!(input.len(), sources.len());
    let split = split_by_key(input, config.blocking.as_ref());
    let mut result = MatchResult::new();
    let mut report = NullKeyReport::default();

    // matchB(R − R∅, S − S∅)
    if split.keyed_count() > 0 {
        let matches = sub_problem(
            &mut new_workflow,
            split.keyed.clone(),
            Some(sources.to_vec()),
            config,
        )?;
        report.blocked_matches = matches.len();
        result.union(&matches);
    }
    let bottom: Arc<dyn BlockingFunction> = Arc::new(ConstantBlocking);
    // match⊥(R, S∅): all of R (keyed + keyless) against keyless S.
    let r_all: Partitions<(), Ent> = input
        .iter()
        .zip(sources)
        .filter(|(_, &s)| s == SourceId::R)
        .map(|(p, _)| p.clone())
        .collect();
    let s_null: Partitions<(), Ent> = split
        .null
        .iter()
        .zip(sources)
        .filter(|(_, &s)| s == SourceId::S)
        .map(|(p, _)| p.clone())
        .collect();
    if !r_all.iter().all(Vec::is_empty) && !s_null.iter().all(Vec::is_empty) {
        let mut partitions = r_all.clone();
        partitions.extend(s_null.clone());
        let mut tags = vec![SourceId::R; r_all.len()];
        tags.extend(vec![SourceId::S; s_null.len()]);
        let cfg = config.clone().with_blocking(Arc::clone(&bottom));
        let matches = sub_problem(&mut new_workflow, partitions, Some(tags), &cfg)?;
        report.cartesian_matches += matches.len();
        result.union(&matches);
    }
    // match⊥(R∅, S − S∅)
    let r_null: Partitions<(), Ent> = split
        .null
        .iter()
        .zip(sources)
        .filter(|(_, &s)| s == SourceId::R)
        .map(|(p, _)| p.clone())
        .collect();
    let s_keyed: Partitions<(), Ent> = split
        .keyed
        .iter()
        .zip(sources)
        .filter(|(_, &s)| s == SourceId::S)
        .map(|(p, _)| p.clone())
        .collect();
    if !r_null.iter().all(Vec::is_empty) && !s_keyed.iter().all(Vec::is_empty) {
        let mut partitions = r_null.clone();
        partitions.extend(s_keyed.clone());
        let mut tags = vec![SourceId::R; r_null.len()];
        tags.extend(vec![SourceId::S; s_keyed.len()]);
        let cfg = config.clone().with_blocking(bottom);
        let matches = sub_problem(&mut new_workflow, partitions, Some(tags), &cfg)?;
        report.cartesian_matches += matches.len();
        result.union(&matches);
    }
    Ok((result, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StrategyKind;
    use er_core::blocking::PrefixBlocking;
    use er_core::Entity;
    use mr_engine::runtime::{Runtime, RuntimeConfig};

    fn ent(id: u64, title: Option<&str>) -> ((), Ent) {
        match title {
            Some(t) => ((), Arc::new(Entity::new(id, [("title", t)]))),
            None => ((), Arc::new(Entity::new(id, [("brand", "keyless")]))),
        }
    }

    fn runtime() -> Runtime {
        Runtime::new(RuntimeConfig::new().with_parallelism(1))
    }

    fn config(strategy: StrategyKind) -> ErConfig {
        ErConfig::new(strategy)
            .with_blocking(Arc::new(PrefixBlocking::new("title", 2)))
            .with_reduce_tasks(3)
    }

    #[test]
    fn split_preserves_partition_shape() {
        let input = vec![
            vec![ent(0, Some("aa x")), ent(1, None)],
            vec![ent(2, None), ent(3, Some("bb y"))],
        ];
        let split = split_by_key(&input, &PrefixBlocking::new("title", 2));
        assert_eq!(split.keyed.len(), 2);
        assert_eq!(split.null.len(), 2);
        assert_eq!(split.keyed_count(), 2);
        assert_eq!(split.null_count(), 2);
    }

    #[test]
    fn keyless_duplicates_are_found_via_cartesian_parts() {
        // Entity 1 (keyless) duplicates entity 0 (keyed) — only the
        // Cartesian part can find the pair. Entities 2 and 3 are
        // keyless duplicates of each other — only the null×null part
        // can find them.
        let input = vec![
            vec![
                (
                    (),
                    Arc::new(Entity::new(
                        0,
                        [("title", "aa same text here"), ("brand", "dupmark")],
                    )),
                ),
                // Keyless (no title): only the brand rule can link it
                // to entity 0.
                ((), Arc::new(Entity::new(1, [("brand", "dupmark")]))),
            ],
            vec![
                ((), Arc::new(Entity::new(2, [("brand", "zz unique text")]))),
                ((), Arc::new(Entity::new(3, [("brand", "zz unique text")]))),
            ],
        ];
        // Matcher on `brand`? The paper matcher uses `title`; give the
        // keyless entities no title so the matcher must use what it
        // can: here we simply match on brand via a custom matcher.
        use er_core::matcher::{MatchRule, Matcher};
        use er_core::similarity::NormalizedLevenshtein;
        let matcher = Arc::new(Matcher::new(
            vec![
                MatchRule::new("title", Arc::new(NormalizedLevenshtein)).with_weight(1.0),
                MatchRule::new("brand", Arc::new(NormalizedLevenshtein)).with_weight(1.0),
            ],
            0.4,
        ));
        let runtime = runtime();
        for strategy in [
            StrategyKind::Basic,
            StrategyKind::BlockSplit,
            StrategyKind::PairRange,
        ] {
            let cfg = config(strategy).with_matcher(Arc::clone(&matcher));
            let (result, report) =
                deduplicate_with_null_keys(|name| runtime.workflow(name), &input, &cfg).unwrap();
            assert!(
                report.cartesian_matches >= 1,
                "{strategy}: keyed x keyless duplicate missed: {report:?}"
            );
            assert!(
                report.null_null_matches >= 1,
                "{strategy}: keyless x keyless duplicate missed"
            );
            assert!(result.len() >= 2);
        }
    }

    #[test]
    fn no_null_keys_degenerates_to_plain_matching() {
        let input = vec![
            vec![
                ent(0, Some("aa same text here")),
                ent(1, Some("aa same text herX")),
            ],
            vec![ent(2, Some("bb other"))],
        ];
        let runtime = runtime();
        let mut new_workflow = |name: &str| runtime.workflow(name);
        let cfg = config(StrategyKind::BlockSplit);
        let (result, report) = deduplicate_with_null_keys(new_workflow, &input, &cfg).unwrap();
        let direct = sub_problem(&mut new_workflow, input.clone(), None, &cfg).unwrap();
        assert_eq!(result.pair_set(), direct.pair_set());
        assert_eq!(report.cartesian_matches, 0);
        assert_eq!(report.null_null_matches, 0);
    }

    /// Keyed duplicates in one partition, keyless ones in the other:
    /// all three sub-problems of a dedup run.
    fn mixed_input() -> Partitions<(), Ent> {
        vec![
            vec![
                ent(0, Some("aa same text here")),
                ent(1, Some("aa same text herX")),
            ],
            vec![ent(2, None), ent(3, None)],
        ]
    }

    #[test]
    fn sub_problems_run_under_the_callers_fault_policy_and_plan() {
        use mr_engine::fault::{FaultKind, FaultPlan, FaultPolicy};
        let input = mixed_input();
        let runtime = runtime();
        let cfg = config(StrategyKind::BlockSplit);
        let (reference, _) =
            deduplicate_with_null_keys(|name| runtime.workflow(name), &input, &cfg).unwrap();
        // Every sub-problem's first reduce attempt dies once; a retry
        // budget of two recovers each, byte-identically.
        let once = FaultPlan::new().silence_injected_panics().panic_at(
            FaultPlan::ANY_JOB,
            FaultKind::Reduce,
            0,
            1,
            "injected once",
        );
        let retrying = |name: &str| {
            runtime
                .workflow(name)
                .with_fault_policy(FaultPolicy::retry(2))
                .with_fault_plan(once.clone())
        };
        let (recovered, _) = deduplicate_with_null_keys(retrying, &input, &cfg).unwrap();
        assert_eq!(recovered.pair_set(), reference.pair_set());
        // Under the fail-fast default the same plan is a typed error.
        let failing = |name: &str| runtime.workflow(name).with_fault_plan(once.clone());
        let err = deduplicate_with_null_keys(failing, &input, &cfg).unwrap_err();
        assert!(matches!(err, MrError::TaskFailed(_)), "got {err:?}");
    }

    #[test]
    fn sub_problems_run_on_the_callers_workflows() {
        use mr_engine::trace::{TraceEventData, TraceRecorder, TraceReport, TraceSink};
        let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
        let recorder = Arc::new(TraceRecorder::new());
        let mut built = Vec::new();
        let new_workflow = |name: &str| {
            built.push(name.to_string());
            runtime
                .workflow(name)
                .with_tenant("null-keys")
                .with_trace_sink(Arc::clone(&recorder) as Arc<dyn TraceSink>)
        };
        let cfg = config(StrategyKind::BlockSplit);
        deduplicate_with_null_keys(new_workflow, &mixed_input(), &cfg).unwrap();
        assert_eq!(
            built,
            ["er-BlockSplit", "linkage-BlockSplit", "er-BlockSplit"]
        );
        // Both stages — the BDM job and the matching job — of every
        // sub-problem start on the workflow the caller built.
        let events = recorder.events();
        let mut started: Vec<(String, usize)> = events
            .iter()
            .filter_map(|event| match &event.data {
                TraceEventData::StageStarted {
                    workflow, stage, ..
                } => Some((workflow.clone(), *stage)),
                _ => None,
            })
            .collect();
        let mut expected: Vec<(String, usize)> = built
            .iter()
            .flat_map(|name| [(name.clone(), 0), (name.clone(), 1)])
            .collect();
        started.sort();
        expected.sort();
        assert_eq!(started, expected);
        let report = TraceReport::from_events(&events);
        let tenants: Vec<&str> = report.tenants().iter().map(|t| t.tenant.as_str()).collect();
        assert_eq!(
            tenants,
            ["null-keys"],
            "every batch is the caller's tenant's"
        );
        assert!(report.tenants()[0].stages_submitted >= 1);
    }

    #[test]
    fn two_source_decomposition_covers_all_parts() {
        // R: one keyed + one keyless; S: one keyed + one keyless.
        let input = vec![
            vec![ent(0, Some("aa alpha beta")), ent(1, None)],
            vec![
                (
                    (),
                    Arc::new(Entity::with_source(
                        SourceId::S,
                        10,
                        [("title", "aa alpha beta")],
                    )),
                ),
                (
                    (),
                    Arc::new(Entity::with_source(SourceId::S, 11, [("brand", "keyless")])),
                ),
            ],
        ];
        let sources = vec![SourceId::R, SourceId::S];
        use er_core::matcher::{MatchRule, Matcher};
        use er_core::similarity::NormalizedLevenshtein;
        let matcher = Arc::new(Matcher::new(
            vec![
                MatchRule::new("title", Arc::new(NormalizedLevenshtein)).with_weight(1.0),
                MatchRule::new("brand", Arc::new(NormalizedLevenshtein)).with_weight(1.0),
            ],
            0.4,
        ));
        let runtime = runtime();
        let cfg = config(StrategyKind::PairRange).with_matcher(matcher);
        let (result, report) =
            link_with_null_keys(|name| runtime.workflow(name), &input, &sources, &cfg).unwrap();
        // Blocked: R#0 ~ S#10 (same title). Cartesian: R#1 ~ S#11
        // (same brand) via match⊥(R, S∅).
        assert!(report.blocked_matches >= 1, "{report:?}");
        assert!(report.cartesian_matches >= 1, "{report:?}");
        for (pair, _) in result.iter() {
            assert_ne!(pair.lo().source, pair.hi().source);
        }
    }
}
