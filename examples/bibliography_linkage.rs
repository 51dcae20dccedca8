//! Two-source record linkage: match a publication catalog against a
//! second, independently dirty copy (the Appendix-I workflow), with
//! null-key handling for records that lost their title.
//!
//! ```sh
//! cargo run --release --example bibliography_linkage
//! ```

use std::sync::Arc;

use dedupe_mr::prelude::*;
use er_datagen::{ds2_spec, generate_publications};

fn main() {
    // Source R: a slice of the DS2-like catalog. Source S: the same
    // records re-attributed (same titles, fresh venues/years), i.e. a
    // second catalog describing the same publications.
    let base = generate_publications(&ds2_spec(11).scaled(0.001));
    let r_entities: Vec<Ent> = base.entities.iter().map(|e| Arc::new(e.clone())).collect();
    let s_entities: Vec<Ent> = base
        .entities
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0) // S covers half of R's publications
        .map(|(_, e)| Arc::new(Entity::with_source(SourceId::S, e.id().0, e.attributes())))
        .collect();
    println!(
        "source R: {} publications; source S: {} publications\n",
        r_entities.len(),
        s_entities.len()
    );

    // Partitions: R in two partitions, S in two partitions (each
    // partition holds one source, as MultipleInputs would arrange).
    let mut input: Partitions<(), Ent> = Vec::new();
    let mut sources = Vec::new();
    for chunk in r_entities.chunks(r_entities.len() / 2 + 1) {
        input.push(chunk.iter().map(|e| ((), Arc::clone(e))).collect());
        sources.push(SourceId::R);
    }
    for chunk in s_entities.chunks(s_entities.len() / 2 + 1) {
        input.push(chunk.iter().map(|e| ((), Arc::clone(e))).collect());
        sources.push(SourceId::S);
    }

    // One linkage session over the shared runtime; each strategy is a
    // `Scenario::Linkage` resolved on the same worker pool.
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(4)
            .with_reduce_tasks(12),
    );
    let resolver = Resolver::new(&runtime);
    for strategy in [
        StrategyKind::Basic,
        StrategyKind::BlockSplit,
        StrategyKind::PairRange,
    ] {
        let outcome = resolver
            .resolve(
                &Scenario::Linkage {
                    strategy,
                    sources: sources.clone(),
                },
                input.clone(),
            )
            .unwrap();
        let match_metrics = outcome.details.match_metrics().expect("one matching job");
        let stats = WorkloadStats::from_metrics(strategy, match_metrics);
        println!(
            "{:<11} comparisons={:<8} matches={:<6} imbalance={:.2}",
            strategy.to_string(),
            stats.total_comparisons(),
            outcome.result.len(),
            stats.imbalance()
        );
    }

    // Every S record duplicates an R record with an identical title,
    // so the expected match count is |S| (plus matches against R's
    // intra-source duplicates of those titles).
    let expected_min = s_entities.len();
    let outcome = resolver
        .resolve(
            &Scenario::Linkage {
                strategy: StrategyKind::PairRange,
                sources: sources.clone(),
            },
            input.clone(),
        )
        .unwrap();
    println!(
        "\nPairRange found {} cross-source matches for {} S-records (>= {} expected)",
        outcome.result.len(),
        s_entities.len(),
        expected_min
    );

    // Null-key handling on a handcrafted mini-catalog: one S record
    // lost its title entirely, so blocking can never see it — the
    // paper's Cartesian decomposition match⊥(R, S∅) still links it via
    // the authors field.
    println!("\n-- null-key handling (paper Appendix I) --");
    let r_mini: Vec<((), Ent)> = vec![
        (
            (),
            Arc::new(Entity::new(
                0,
                [
                    ("title", "skew handling in parallel joins"),
                    ("authors", "DeWitt, Naughton"),
                ],
            )),
        ),
        (
            (),
            Arc::new(Entity::new(
                1,
                [
                    ("title", "parallel set similarity joins"),
                    ("authors", "Vernica, Carey"),
                ],
            )),
        ),
    ];
    let s_mini: Vec<((), Ent)> = vec![
        (
            (),
            Arc::new(Entity::with_source(
                SourceId::S,
                10,
                [
                    ("title", "skew handling in parallel joinz"),
                    ("authors", "DeWitt, Naughton"),
                ],
            )),
        ),
        // Title lost during extraction — no blocking key.
        (
            (),
            Arc::new(Entity::with_source(
                SourceId::S,
                11,
                [("authors", "Vernica, Carey")],
            )),
        ),
    ];
    let mini_input: Partitions<(), Ent> = vec![r_mini, s_mini];
    let mini_sources = vec![SourceId::R, SourceId::S];
    // Equal weights at threshold 0.5: identical authors alone score
    // (0 + 1)/2 = 0.5 and carry the title-less record.
    let matcher = Arc::new(Matcher::new(
        vec![
            MatchRule::new(
                "title",
                Arc::new(er_core::similarity::NormalizedLevenshtein),
            ),
            MatchRule::new(
                "authors",
                Arc::new(er_core::similarity::NormalizedLevenshtein),
            ),
        ],
        0.5,
    ));
    // The same front door: the match stage links what blocking sees,
    // and since S#11 has no key, the ⊥ stages match⊥(R, S∅) and
    // match⊥(R∅, S − S∅) follow as stages of the same workflow (the
    // second has no keyless R record, so it does not run).
    let outcome = resolver
        .clone()
        .with_matcher(matcher)
        .resolve(
            &Scenario::Linkage {
                strategy: StrategyKind::PairRange,
                sources: mini_sources,
            },
            mini_input,
        )
        .unwrap();
    // PairRange runs the BDM job and the match stage first; each ⊥
    // stage is named after the match job and its sub-problem.
    for (stage, metrics) in outcome.workflow.stages.iter().enumerate() {
        println!(
            "  stage {stage} {:<22} comparisons={}",
            metrics.job_name,
            metrics.counters.get(COMPARISONS)
        );
    }
    println!(
        "matches={}; the title-less S#11 was linked in the ⊥ stage",
        outcome.result.len()
    );
    for (pair, score) in outcome.result.iter() {
        println!("  {:.3}  {} == {}", score, pair.lo(), pair.hi());
    }
}
