//! Entities without a blocking key through the front door. Dedup and
//! Linkage compare every keyless entity with every other entity —
//! cross-source only between two sources — as the paper's
//! decomposition defines (Section III, Appendix I), under every
//! strategy, as further stages of the session's one workflow.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dedupe_mr::prelude::*;
use mr_engine::error::MrError;
use mr_engine::trace::{TraceEventData, TraceRecorder, TraceReport};

const STRATEGIES: [StrategyKind; 3] = [
    StrategyKind::Basic,
    StrategyKind::BlockSplit,
    StrategyKind::PairRange,
];

/// Entity `id` of `source`; every entity with `id % 10 < keyless_tenths`
/// has no title, hence no key. Titles fall into a few 2-letter blocks
/// and brands repeat, so keyed and keyless entities both match.
fn entity(source: SourceId, id: u64, keyless_tenths: u64) -> Ent {
    let brand = ["acme", "bolt", "core"][(id % 3) as usize];
    let title = format!(
        "{} model {}",
        ["aa", "ab", "ba"][(id % 4 % 3) as usize],
        id % 5
    );
    let mut attributes = vec![("brand", brand.to_string())];
    if id % 10 >= keyless_tenths {
        attributes.push(("title", title));
    }
    Arc::new(Entity::with_source(source, id, attributes))
}

/// A session over 2-letter title blocks whose matcher weighs title and
/// brand equally: an equal brand alone reaches the threshold.
fn session<'rt>(runtime: &'rt Runtime, blocking: Arc<dyn BlockingFunction>) -> Resolver<'rt> {
    let rule = |attribute| {
        MatchRule::new(
            attribute,
            Arc::new(er_core::similarity::NormalizedLevenshtein),
        )
    };
    Resolver::new(runtime)
        .with_blocking(blocking)
        .with_matcher(Arc::new(Matcher::new(
            vec![rule("title"), rule("brand")],
            0.5,
        )))
        .with_reduce_tasks(3)
}

fn prefix2() -> Arc<dyn BlockingFunction> {
    Arc::new(PrefixBlocking::new("title", 2))
}

/// Byte-exact view of a match result: pairs plus raw score bits.
fn result_bits(result: &MatchResult) -> Vec<(MatchPair, u64)> {
    result.iter().map(|(p, s)| (p, s.to_bits())).collect()
}

/// The paper's comparison count of `r` against `s` (or within `r` when
/// `s` is `None`): the pairs of every shared block, plus every pair
/// with a keyless member.
fn paper_comparisons(r: &[Ent], s: Option<&[Ent]>) -> u64 {
    let blocking = prefix2();
    let key = |e: &Ent| blocking.key(e);
    let keyless = |side: &[Ent]| side.iter().filter(|e| key(e).is_none()).count() as u64;
    let n = |side: &[Ent]| side.len() as u64;
    match s {
        None => {
            let mut blocked = 0;
            for (i, a) in r.iter().enumerate() {
                blocked += r[i + 1..]
                    .iter()
                    .filter(|b| key(a).is_some() && key(a) == key(b))
                    .count() as u64;
            }
            let k = keyless(r);
            blocked + k * (n(r) - k) + k * k.saturating_sub(1) / 2
        }
        Some(s) => {
            let blocked: usize = r
                .iter()
                .map(|a| {
                    s.iter()
                        .filter(|b| key(a).is_some() && key(a) == key(b))
                        .count()
                })
                .sum();
            blocked as u64 + n(r) * keyless(s) + keyless(r) * (n(s) - keyless(s))
        }
    }
}

/// Resolves `scenario` under every strategy and holds each outcome to
/// the oracle — `naive_reference`, its cross-source subset for a
/// linkage — byte for byte, and to the paper's comparison count.
fn assert_paper_semantics(input: &Partitions<(), Ent>, sources: Option<Vec<SourceId>>, what: &str) {
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
    let resolver = session(&runtime, prefix2());
    let side = |source: SourceId| -> Vec<Ent> {
        let tagged = input.iter().enumerate();
        let tagged = tagged.filter(|(p, _)| sources.as_ref().is_none_or(|tags| tags[*p] == source));
        tagged
            .flat_map(|(_, part)| part.iter().map(|(_, e)| Arc::clone(e)))
            .collect()
    };
    let (r, s) = (side(SourceId::R), side(SourceId::S));
    let everything: Vec<Ent> = input.iter().flatten().map(|(_, e)| Arc::clone(e)).collect();
    for strategy in STRATEGIES {
        let (scenario, comparisons) = match &sources {
            None => (Scenario::Dedup { strategy }, paper_comparisons(&r, None)),
            Some(tags) => (
                Scenario::Linkage {
                    strategy,
                    sources: tags.clone(),
                },
                paper_comparisons(&r, Some(&s)),
            ),
        };
        let oracle = result_bits(&naive_reference(&everything, &resolver.er_config(strategy)));
        let linked = |(pair, _): &(MatchPair, u64)| pair.lo().source != pair.hi().source;
        let oracle: Vec<_> = oracle
            .into_iter()
            .filter(|bits| sources.is_none() || linked(bits))
            .collect();
        let outcome = resolver.resolve(&scenario, input.clone()).unwrap();
        assert_eq!(
            result_bits(&outcome.result),
            oracle,
            "{what}: {strategy} pairs and scores"
        );
        assert_eq!(
            outcome.total_comparisons(),
            comparisons,
            "{what}: {strategy} comparisons"
        );
    }
}

#[test]
fn dedup_and_linkage_follow_the_papers_decomposition() {
    // The edges: no entity at all, and one keyless entity alone.
    let one_keyless = vec![vec![((), entity(SourceId::R, 0, 10))]];
    assert_paper_semantics(&vec![Vec::new(), Vec::new()], None, "empty dedup");
    assert_paper_semantics(&one_keyless, None, "one keyless entity");
    for keyless_tenths in [0, 1, 10] {
        for p in [1, 2] {
            let what = format!("{}% keyless, p = {p}", keyless_tenths * 10);
            let side = |source, ids: std::ops::Range<u64>| -> Vec<Ent> {
                ids.map(|id| entity(source, id, keyless_tenths)).collect()
            };
            let dedup = side(SourceId::R, 0..20)
                .into_iter()
                .map(|e| ((), e))
                .collect();
            assert_paper_semantics(&partition_evenly(dedup, p), None, &format!("dedup, {what}"));
            let (input, sources) =
                two_source_input(side(SourceId::R, 0..20), side(SourceId::S, 3..13), p);
            assert_paper_semantics(&input, Some(sources), &format!("linkage, {what}"));
        }
    }
}

/// Two keyed entities in one partition, two keyless ones in the other:
/// a dedup runs the match stage and both ⊥ stages.
fn mixed_input() -> Partitions<(), Ent> {
    let keyed = (0..2).map(|id| ((), entity(SourceId::R, id, 0))).collect();
    let keyless = (2..4).map(|id| ((), entity(SourceId::R, id, 10))).collect();
    vec![keyed, keyless]
}

#[test]
fn a_retried_fault_in_every_stage_recovers_byte_identically() {
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
    let resolver = session(&runtime, prefix2());
    let scenario = Scenario::Dedup {
        strategy: StrategyKind::BlockSplit,
    };
    let reference = resolver.resolve(&scenario, mixed_input()).unwrap();
    assert_eq!(
        reference.workflow.num_stages(),
        4,
        "bdm, match and two ⊥ stages"
    );
    // Every stage's first reduce attempt dies once.
    let once = FaultPlan::new().silence_injected_panics().panic_at(
        FaultPlan::ANY_JOB,
        FaultKind::Reduce,
        0,
        1,
        "injected once",
    );
    let retrying = resolver
        .clone()
        .with_fault_policy(FaultPolicy::retry(2))
        .with_fault_plan(once.clone());
    let recovered = retrying.resolve(&scenario, mixed_input()).unwrap();
    assert_eq!(
        result_bits(&recovered.result),
        result_bits(&reference.result)
    );
    assert_eq!(recovered.workflow.tasks_retried(), 4, "one retry per stage");
    // Under the fail-fast default the same plan is the typed error.
    let err = resolver
        .with_fault_plan(once)
        .resolve(&scenario, mixed_input())
        .unwrap_err();
    assert!(
        matches!(err, ResolveError::Mr(MrError::TaskFailed(_))),
        "got {err:?}"
    );
}

#[test]
fn a_fault_plan_naming_the_match_job_hits_the_match_stage_only() {
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
    let resolver = session(&runtime, prefix2()).with_fault_policy(FaultPolicy::retry(2));
    for (strategy, job) in [
        (StrategyKind::Basic, "er-basic"),
        (StrategyKind::BlockSplit, "er-block-split"),
        (StrategyKind::PairRange, "er-pair-range"),
    ] {
        let scenario = Scenario::Dedup { strategy };
        let reference = resolver.resolve(&scenario, mixed_input()).unwrap();
        let once = FaultPlan::new().silence_injected_panics().panic_at(
            job,
            FaultKind::Reduce,
            0,
            1,
            "injected once",
        );
        let faulted = resolver.clone().with_fault_plan(once);
        let recovered = faulted.resolve(&scenario, mixed_input()).unwrap();
        assert_eq!(
            result_bits(&recovered.result),
            result_bits(&reference.result)
        );
        let retried: Vec<(&str, u64)> = recovered
            .workflow
            .stages
            .iter()
            .map(|stage| (stage.job_name.as_str(), stage.tasks_retried()))
            .filter(|&(_, retried)| retried > 0)
            .collect();
        assert_eq!(retried, [(job, 1)], "{strategy}");
        let bottom = format!("{job}-bottom-2");
        assert!(recovered.workflow.stage(&bottom).is_some(), "{strategy}");
    }
}

#[test]
fn the_sessions_tenant_and_trace_sink_see_every_bottom_stage() {
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
    let recorder = Arc::new(TraceRecorder::new());
    let resolver = session(&runtime, prefix2())
        .with_tenant("keyless")
        .with_trace_sink(Arc::clone(&recorder) as Arc<dyn mr_engine::trace::TraceSink>);
    for strategy in STRATEGIES {
        resolver
            .resolve(&Scenario::Dedup { strategy }, mixed_input())
            .unwrap();
    }
    let events = recorder.events();
    let started: Vec<(String, String, usize)> = events
        .iter()
        .filter_map(|event| match &event.data {
            TraceEventData::StageStarted {
                workflow,
                job,
                stage,
            } => Some((workflow.clone(), job.clone(), *stage)),
            _ => None,
        })
        .collect();
    let stages = |workflow: &str, jobs: &[&str]| -> Vec<(String, String, usize)> {
        jobs.iter()
            .enumerate()
            .map(|(stage, job)| (workflow.to_string(), job.to_string(), stage))
            .collect()
    };
    let mut expected = stages(
        "er-Basic",
        &["er-basic", "er-basic-bottom-1", "er-basic-bottom-2"],
    );
    expected.extend(stages(
        "er-BlockSplit",
        &[
            "bdm",
            "er-block-split",
            "er-block-split-bottom-1",
            "er-block-split-bottom-2",
        ],
    ));
    expected.extend(stages(
        "er-PairRange",
        &[
            "bdm",
            "er-pair-range",
            "er-pair-range-bottom-1",
            "er-pair-range-bottom-2",
        ],
    ));
    assert_eq!(started, expected);
    let report = TraceReport::from_events(&events);
    let tenants: Vec<&str> = report.tenants().iter().map(|t| t.tenant.as_str()).collect();
    assert_eq!(tenants, ["keyless"], "every stage is the session tenant's");
}

/// A blocking function that counts its calls.
struct Counting {
    inner: PrefixBlocking,
    calls: AtomicUsize,
}

impl BlockingFunction for Counting {
    fn write_keys(&self, entity: &Entity, out: &mut KeyText) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.write_keys(entity, out);
    }
}

#[test]
fn keys_are_derived_once_per_entity_per_resolve() {
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
    for keyless_tenths in [0, 1, 10] {
        let entities: Vec<((), Ent)> = (0..20)
            .map(|id| ((), entity(SourceId::R, id, keyless_tenths)))
            .collect();
        for strategy in STRATEGIES {
            let counting = Arc::new(Counting {
                inner: PrefixBlocking::new("title", 2),
                calls: AtomicUsize::new(0),
            });
            let resolver = session(&runtime, Arc::clone(&counting) as Arc<dyn BlockingFunction>);
            resolver
                .resolve(
                    &Scenario::Dedup { strategy },
                    partition_evenly(entities.clone(), 2),
                )
                .unwrap();
            assert_eq!(
                counting.calls.load(Ordering::Relaxed),
                20,
                "{strategy}, {}% keyless",
                keyless_tenths * 10
            );
        }
    }
}
