//! Acceptance suite for the `Runtime` + `Resolver` front door:
//!
//! * **pool reuse** — one `Runtime` runs several scenarios back to
//!   back on the worker pool it spawned at construction: no further
//!   thread spawn, no output drift from the brute-force oracles;
//! * **parallelism caps** — `resolve_with` narrows one run without
//!   touching the pool, and a zero cap is a typed error;
//! * **stage sequences** — each scenario compiles to one fixed chain of
//!   jobs, pinned by name together with its `ScenarioDetails` shape.
//!
//! Each scenario is pinned against its oracle across parallelism by
//! its own suite (`strategy_equivalence`, `two_source_equivalence`,
//! `sorted_neighborhood`, `sn_scenarios`, `lsh_oracle`).

use std::sync::Arc;

use dedupe_mr::prelude::*;
use er_datagen::{ds1_spec, generate_products};

/// A DS1-shaped corpus small enough for the full matrix: scenarios ×
/// strategies × parallelism levels, all with real similarity
/// evaluation.
fn corpus(m: usize) -> Partitions<(), Ent> {
    let ds = generate_products(&ds1_spec(77).scaled(0.003));
    partition_evenly(
        ds.entities.into_iter().map(|e| ((), Arc::new(e))).collect(),
        m,
    )
}

/// Two-source input: the corpus split into an R and an S catalog.
fn two_source_corpus() -> (Partitions<(), Ent>, Vec<SourceId>) {
    let ds = generate_products(&ds1_spec(78).scaled(0.003));
    let mut r = Vec::new();
    let mut s = Vec::new();
    for (i, e) in ds.entities.into_iter().enumerate() {
        if i % 2 == 0 {
            r.push(Arc::new(e) as Ent);
        } else {
            s.push(Arc::new(Entity::with_source(SourceId::S, e.id().0, e.attributes())) as Ent);
        }
    }
    two_source_input(r, s, 2)
}

fn passes() -> Vec<Arc<dyn SortKeyFunction>> {
    vec![
        Arc::new(AttributeSortKey::title()),
        Arc::new(ReversedSortKey::title()),
    ]
}

/// Byte-exact view of a match result: pairs plus raw score bits.
fn result_bits(result: &MatchResult) -> Vec<(MatchPair, u64)> {
    result.iter().map(|(p, s)| (p, s.to_bits())).collect()
}

/// The outcome's details as one line: the variant, the job names of the
/// metrics it carries and, for LSH, every executed round.
fn details_shape(details: &ScenarioDetails) -> String {
    let name = |metrics: Option<&mr_engine::metrics::JobMetrics>| {
        metrics.map_or("-".to_string(), |m| m.job_name.clone())
    };
    match details {
        ScenarioDetails::Blocked {
            bdm,
            bdm_metrics,
            match_metrics,
        } => {
            assert_eq!(bdm.is_some(), bdm_metrics.is_some());
            format!(
                "Blocked bdm={} match={}",
                name(bdm_metrics.as_ref()),
                match_metrics.job_name
            )
        }
        ScenarioDetails::Sorted {
            sample_metrics,
            match_metrics,
            ..
        } => {
            // SN runs no distribution job: the field is empty.
            assert!(sample_metrics.map_tasks.is_empty() && sample_metrics.reduce_tasks.is_empty());
            assert_eq!(sample_metrics.wall, std::time::Duration::ZERO);
            format!("Sorted match={}", match_metrics.job_name)
        }
        ScenarioDetails::MultiPass { passes } => format!("MultiPass passes={}", passes.len()),
        ScenarioDetails::Lsh {
            params,
            rounds,
            bdm_metrics,
            match_metrics,
            ..
        } => {
            let rounds: Vec<String> = rounds
                .iter()
                .map(|r| format!("{}:{}", r.params, r.accepted))
                .collect();
            format!(
                "Lsh params={params} rounds=[{}] bdm={} match={}",
                rounds.join(" "),
                bdm_metrics.job_name,
                match_metrics.job_name
            )
        }
    }
}

#[test]
fn every_scenario_compiles_to_its_fixed_stage_sequence() {
    let input = corpus(3);
    let (linkage_input, sources) = two_source_corpus();
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
    let session = Resolver::new(&runtime).with_window(4).with_reduce_tasks(3);

    // A budget between the 8x4 and 16x2 rungs' candidate workloads
    // rejects the widest rung and accepts the next; 4x8 never runs.
    let workload = |params| {
        let outcome = session.resolve(&Scenario::lsh(params), input.clone());
        outcome.unwrap().details.lsh_rounds().unwrap()[0].candidate_pairs
    };
    let budget = workload(LshParams::new(8, 4));
    assert!(workload(LshParams::new(16, 2)) > budget);
    // Only the adaptive scenario walks the ladder.
    let session = session
        .with_lsh_ladder(vec![
            LshParams::new(16, 2),
            LshParams::new(8, 4),
            LshParams::new(4, 8),
        ])
        .with_lsh_budget(Some(budget));

    let dedup = |strategy| Scenario::Dedup { strategy };
    let cases = [
        (
            dedup(StrategyKind::Basic),
            &input,
            vec!["er-basic"],
            "Blocked bdm=- match=er-basic",
        ),
        (
            dedup(StrategyKind::BlockSplit),
            &input,
            vec!["bdm", "er-block-split"],
            "Blocked bdm=bdm match=er-block-split",
        ),
        (
            dedup(StrategyKind::PairRange),
            &input,
            vec!["bdm", "er-pair-range"],
            "Blocked bdm=bdm match=er-pair-range",
        ),
        (
            Scenario::Linkage {
                strategy: StrategyKind::BlockSplit,
                sources,
            },
            &linkage_input,
            vec!["bdm", "er-block-split"],
            "Blocked bdm=bdm match=er-block-split",
        ),
        (
            Scenario::sorted_neighborhood(SnStrategy::RepSn),
            &input,
            vec!["sn-repsn"],
            "Sorted match=sn-repsn",
        ),
        (
            Scenario::multipass_sn(passes()),
            &input,
            vec!["sn-repsn", "sn-repsn"],
            "MultiPass passes=2",
        ),
        (
            Scenario::lsh(LshParams::new(8, 4)),
            &input,
            vec!["lsh-sig-8x4", "er-block-split"],
            "Lsh params=8x4 rounds=[8x4:true] bdm=lsh-sig-8x4 match=er-block-split",
        ),
        (
            Scenario::lsh_adaptive(),
            &input,
            vec!["lsh-sig-16x2", "lsh-sig-8x4", "er-block-split"],
            "Lsh params=8x4 rounds=[16x2:false 8x4:true] bdm=lsh-sig-8x4 match=er-block-split",
        ),
    ];
    for (scenario, input, stages, shape) in cases {
        let outcome = session.resolve(&scenario, input.clone()).unwrap();
        let names: Vec<&str> = outcome
            .workflow
            .stages
            .iter()
            .map(|s| s.job_name.as_str())
            .collect();
        assert_eq!(names, stages, "{scenario}: stage sequence");
        assert_eq!(
            details_shape(&outcome.details),
            shape,
            "{scenario}: details"
        );
    }
}

#[test]
fn resolve_with_caps_parallelism_without_spawning_threads() {
    let input = corpus(3);
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(4)
            .with_reduce_tasks(5),
    );
    let resolver = Resolver::new(&runtime).with_window(4).with_reduce_tasks(3);
    let spawned_at_construction = runtime.pool().threads_spawned();
    assert_eq!(spawned_at_construction, 4);

    for scenario in [
        Scenario::Dedup {
            strategy: StrategyKind::BlockSplit,
        },
        Scenario::sorted_neighborhood(SnStrategy::RepSn),
    ] {
        let uncapped = resolver.resolve(&scenario, input.clone()).unwrap();
        for cap in [1, 2, 8] {
            let capped = resolver
                .resolve_with(&scenario, input.clone(), cap)
                .unwrap();
            assert_eq!(
                result_bits(&capped.result),
                result_bits(&uncapped.result),
                "{scenario}/cap{cap}: capped run drifted from the uncapped one"
            );
            assert_eq!(
                capped.workflow.counters, uncapped.workflow.counters,
                "{scenario}/cap{cap}: merged workflow counters"
            );
            assert_eq!(
                runtime.pool().threads_spawned(),
                spawned_at_construction,
                "{scenario}/cap{cap}: a capped run must reuse the pool, not respawn it"
            );
        }
    }
}

#[test]
fn resolve_with_zero_cap_is_a_typed_error_and_the_runtime_survives() {
    let input = corpus(3);
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
    let resolver = Resolver::new(&runtime);
    let scenario = Scenario::Dedup {
        strategy: StrategyKind::BlockSplit,
    };
    assert_eq!(
        resolver
            .resolve_with(&scenario, input.clone(), 0)
            .unwrap_err(),
        ResolveError::Mr(mr_engine::error::MrError::ZeroParallelism)
    );
    let after = resolver.resolve(&scenario, input.clone()).unwrap();
    let entities: Vec<Ent> = input.iter().flatten().map(|(_, e)| Arc::clone(e)).collect();
    assert_eq!(
        result_bits(&after.result),
        result_bits(&naive_reference(
            &entities,
            &resolver.er_config(StrategyKind::BlockSplit)
        )),
        "the runtime must resolve normally after the rejected run"
    );
}

#[test]
fn one_runtime_reuses_its_pool_across_scenarios_without_drift() {
    let input = corpus(3);
    let (ts_input, ts_sources) = two_source_corpus();

    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(2)
            .with_reduce_tasks(4),
    );
    let resolver = Resolver::new(&runtime).with_window(4).with_reduce_tasks(3);
    // Reference results from the brute-force oracles.
    let entities: Vec<Ent> = input.iter().flatten().map(|(_, e)| Arc::clone(e)).collect();
    let oracle_dedup = naive_reference(&entities, &resolver.er_config(StrategyKind::BlockSplit));
    let oracle_sn = sn_oracle(&input, &resolver.sn_config(SnStrategy::RepSn));
    // Linkage: the cross-source subset of the one-source reference.
    let ts_entities: Vec<Ent> = ts_input
        .iter()
        .flatten()
        .map(|(_, e)| Arc::clone(e))
        .collect();
    let mut oracle_linkage = MatchResult::new();
    for (pair, score) in
        naive_reference(&ts_entities, &resolver.er_config(StrategyKind::BlockSplit)).iter()
    {
        if pair.lo().source != pair.hi().source {
            oracle_linkage.insert(pair, score);
        }
    }

    let spawned_at_construction = runtime.pool().threads_spawned();
    assert_eq!(spawned_at_construction, 2);

    // Three different scenarios, twice each, all on the one pool.
    for round in 0..2 {
        let mut executed_before = runtime.pool().tasks_executed();
        let dedup = resolver
            .resolve(
                &Scenario::Dedup {
                    strategy: StrategyKind::BlockSplit,
                },
                input.clone(),
            )
            .unwrap();
        assert_eq!(
            result_bits(&dedup.result),
            result_bits(&oracle_dedup),
            "round {round}: dedup drifted"
        );
        let sn = resolver
            .resolve(
                &Scenario::sorted_neighborhood(SnStrategy::RepSn),
                input.clone(),
            )
            .unwrap();
        assert_eq!(
            result_bits(&sn.result),
            result_bits(&oracle_sn),
            "round {round}: sn drifted"
        );
        let linkage = resolver
            .resolve(
                &Scenario::Linkage {
                    strategy: StrategyKind::BlockSplit,
                    sources: ts_sources.clone(),
                },
                ts_input.clone(),
            )
            .unwrap();
        assert_eq!(
            result_bits(&linkage.result),
            result_bits(&oracle_linkage),
            "round {round}: linkage drifted"
        );
        // BDM + match job for the blocked scenarios, one window job
        // for SN.
        for (outcome, stages) in [(&dedup, 2), (&sn, 1), (&linkage, 2)] {
            let executed_now = runtime.pool().tasks_executed();
            assert!(executed_now >= executed_before, "counter is monotonic");
            executed_before = executed_now;
            assert_eq!(outcome.workflow.num_stages(), stages);
        }
        assert_eq!(
            runtime.pool().threads_spawned(),
            spawned_at_construction,
            "round {round}: a scenario run spawned threads — the hot path must reuse the pool"
        );
    }
    assert!(
        runtime.pool().tasks_executed() > 0,
        "the scenarios must actually have executed on the pool"
    );
}

#[test]
fn bad_source_tags_are_a_typed_error_in_every_linkage_scenario() {
    // Source tags are outside input: a wrong count, a tag that is
    // neither R nor S, and a partition holding another source than its
    // tag all come back as `ResolveError::SourceTags` naming the
    // partition — for blocking and LSH alike — and the runtime keeps
    // serving.
    let (input, sources) = two_source_corpus();
    let scenarios = |tags: Vec<SourceId>| {
        [
            Scenario::Linkage {
                strategy: StrategyKind::PairRange,
                sources: tags.clone(),
            },
            Scenario::lsh_linkage(Some(LshParams { bands: 4, rows: 4 }), tags),
        ]
    };
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
    let resolver = Resolver::new(&runtime);

    let mut unknown = sources.clone();
    unknown[1] = SourceId(7);
    let mut swapped = sources.clone();
    swapped[3] = SourceId::R;
    for (tags, expected) in [
        (
            sources[..3].to_vec(),
            SourceTagError::Count {
                tags: 3,
                partitions: 4,
            },
        ),
        (
            unknown,
            SourceTagError::Unknown {
                partition: 1,
                tag: SourceId(7),
            },
        ),
        (
            swapped,
            SourceTagError::Mismatch {
                partition: 3,
                tag: SourceId::R,
                entity: SourceId::S,
            },
        ),
    ] {
        for scenario in scenarios(tags) {
            let err = resolver.resolve(&scenario, input.clone()).unwrap_err();
            assert_eq!(err, ResolveError::SourceTags(expected), "{scenario}");
            assert!(err.to_string().contains("source"), "{err}");
        }
    }
    for scenario in scenarios(sources) {
        assert!(resolver.resolve(&scenario, input.clone()).is_ok());
    }
}

/// Resolves `scenario` on a session `configure` has broken and
/// expects `expected` back before any task ran: nothing spawned,
/// nothing executed, and the runtime then serves a clean resolve.
fn assert_invalid_config(
    configure: impl Fn(Resolver<'_>) -> Resolver<'_>,
    scenario: Scenario,
    expected: ConfigError,
) {
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
    let spawned = runtime.pool().threads_spawned();
    let err = configure(Resolver::new(&runtime))
        .resolve(&scenario, corpus(3))
        .unwrap_err();
    assert_eq!(err, ResolveError::InvalidConfig(expected));
    assert!(err.to_string().contains("invalid configuration"), "{err}");
    assert_eq!(runtime.pool().tasks_executed(), 0, "no task may run");
    let clean = Resolver::new(&runtime).resolve(&Scenario::lsh(LshParams::new(4, 4)), corpus(3));
    assert!(clean.is_ok(), "{clean:?}");
    assert_eq!(runtime.pool().threads_spawned(), spawned);
}

#[test]
fn an_empty_lsh_ladder_is_a_typed_error() {
    assert_invalid_config(
        |session| session.with_lsh_ladder(vec![]),
        Scenario::lsh_adaptive(),
        ConfigError::EmptyLshLadder,
    );
}

#[test]
fn a_zero_lsh_banding_is_a_typed_error() {
    // Public fields bypass `LshParams::new`, fixed or on the ladder.
    let no_bands = LshParams { bands: 0, rows: 4 };
    assert_invalid_config(
        |session| session,
        Scenario::lsh(no_bands),
        ConfigError::ZeroLshBanding(no_bands),
    );
    let no_rows = LshParams { bands: 4, rows: 0 };
    assert_invalid_config(
        |session| session.with_lsh_ladder(vec![LshParams::new(8, 4), no_rows]),
        Scenario::lsh_adaptive(),
        ConfigError::ZeroLshBanding(no_rows),
    );
}

/// Every Sorted Neighborhood scenario shape: single- and multi-pass.
fn sn_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::sorted_neighborhood(SnStrategy::RepSn),
        Scenario::multipass_sn([Arc::new(ReversedSortKey::title()) as Arc<dyn SortKeyFunction>]),
    ]
}

#[test]
fn an_sn_window_below_two_is_a_typed_error() {
    for window in [0usize, 1] {
        for scenario in sn_scenarios() {
            assert_invalid_config(
                |session| session.with_window(window),
                scenario,
                ConfigError::SnWindowTooSmall(window),
            );
        }
    }
}

#[test]
fn a_zero_reduce_task_count_is_a_typed_error_in_every_family() {
    // One error whatever runs the jobs — for SN the key ranges are the
    // reduce tasks. `corpus` is all of source R.
    let strategies = [
        StrategyKind::Basic,
        StrategyKind::BlockSplit,
        StrategyKind::PairRange,
    ];
    let blocked = strategies
        .into_iter()
        .map(|strategy| Scenario::Dedup { strategy });
    let linkage = Scenario::Linkage {
        strategy: StrategyKind::BlockSplit,
        sources: vec![SourceId::R; 3],
    };
    let lsh = [
        Scenario::lsh(LshParams::new(4, 4)),
        Scenario::lsh_adaptive(),
    ];
    for scenario in blocked.chain([linkage]).chain(sn_scenarios()).chain(lsh) {
        assert_invalid_config(
            |session| session.with_reduce_tasks(0),
            scenario,
            ConfigError::ZeroReduceTasks,
        );
    }
}

#[test]
fn a_zero_spill_threshold_is_a_typed_error_in_every_family() {
    for scenario in [
        Scenario::Dedup {
            strategy: StrategyKind::BlockSplit,
        },
        Scenario::sorted_neighborhood(SnStrategy::RepSn),
        Scenario::lsh(LshParams::new(4, 4)),
    ] {
        // The session builder stores the value as given...
        assert_invalid_config(
            |session| session.with_spill_threshold(Some(0)),
            scenario.clone(),
            ConfigError::ZeroSpillThreshold,
        );
        // ...and the config's public fields carry it in from a struct
        // literal.
        let runtime = Runtime::new(RuntimeConfig {
            spill_threshold: Some(0),
            ..RuntimeConfig::new().with_parallelism(2)
        });
        let err = Resolver::new(&runtime)
            .resolve(&scenario, corpus(3))
            .unwrap_err();
        assert_eq!(
            err,
            ResolveError::InvalidConfig(ConfigError::ZeroSpillThreshold),
            "{scenario}"
        );
        assert_eq!(
            runtime.pool().tasks_executed(),
            0,
            "{scenario}: no task may run"
        );
        let repaired = Resolver::new(&runtime)
            .with_spill_threshold(Some(1))
            .resolve(&scenario, corpus(3));
        assert!(repaired.is_ok(), "{scenario}: {repaired:?}");
    }
}

#[cfg(target_pointer_width = "64")]
#[test]
fn a_reduce_task_count_past_u32_is_a_typed_error() {
    // Composite map-output keys hold the reduce task (or SN key range)
    // as a `u32`: one more must be refused before any job is built,
    // let alone a map task's per-reduce-task buckets.
    let too_many = u32::MAX as usize + 1;
    for scenario in [
        Scenario::Dedup {
            strategy: StrategyKind::BlockSplit,
        },
        Scenario::sorted_neighborhood(SnStrategy::RepSn),
        Scenario::lsh(LshParams::new(4, 4)),
    ] {
        assert_invalid_config(
            |session| session.with_reduce_tasks(too_many),
            scenario,
            ConfigError::TooManyReduceTasks(too_many),
        );
    }
}
