//! Beyond entity resolution: pairwise document similarity.
//!
//! The paper's introduction notes that "MR's inherent vulnerability to
//! load imbalances due to data skew is relevant for all kind of
//! pairwise similarity computation, e.g., document similarity
//! computation and set-similarity joins. Such applications can
//! therefore also benefit from our load balancing approaches."
//!
//! This example treats short documents as entities, blocks them by a
//! signature (their rarest starting token — a crude term-signature
//! scheme à la Elsayed et al.), and computes pairwise token-Jaccard
//! similarity under each strategy. Skew appears naturally: most
//! documents share the most common opening words.
//!
//! ```sh
//! cargo run --release --example document_similarity
//! ```

use std::sync::Arc;

use dedupe_mr::prelude::*;
use er_core::similarity::Jaccard;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const TOPICS: &[&str] = &[
    "the quick brown fox jumps over a lazy dog near the river bank",
    "a slow green turtle walks under the warm summer sun all day",
    "the stock market rallied today as tech shares posted gains",
    "scientists discover new species of beetle in remote rainforest",
];

fn synth_documents(n: usize, seed: u64) -> Vec<Ent> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n as u64)
        .map(|id| {
            // Zipf-ish topic choice: topic 0 dominates -> skewed blocks.
            let t = loop {
                let cand = rng.gen_range(0..TOPICS.len());
                if cand == 0 || rng.gen_bool(0.35) {
                    break cand;
                }
            };
            let words: Vec<&str> = TOPICS[t].split_whitespace().collect();
            // Sample a window plus noise words to vary similarity.
            let start = rng.gen_range(0..words.len() / 2);
            let len = rng.gen_range(5..=words.len() - start);
            let mut text: Vec<String> = words[start..start + len]
                .iter()
                .map(|w| w.to_string())
                .collect();
            if rng.gen_bool(0.5) {
                text.push(format!("extra{}", rng.gen_range(0..50)));
            }
            Arc::new(Entity::new(id, [("text", text.join(" ").as_str())]))
        })
        .collect()
}

fn main() {
    let docs = synth_documents(1_500, 77);
    println!("{} documents, blocked on their first token\n", docs.len());
    let input = partition_evenly(docs.iter().map(|d| ((), Arc::clone(d))).collect(), 6);

    // Blocking: first token of the text (a one-signature scheme).
    // Matching: token Jaccard >= 0.7.
    let blocking: Arc<dyn BlockingFunction> = Arc::new(AttributeBlockingFirstWord::new("text"));
    let matcher = Arc::new(Matcher::new(
        vec![MatchRule::new("text", Arc::new(Jaccard))],
        0.7,
    ));

    // One session carries the domain configuration (signature
    // blocking + Jaccard matcher); each strategy is just a scenario.
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(4)
            .with_reduce_tasks(16),
    );
    let resolver = Resolver::new(&runtime)
        .with_blocking(Arc::clone(&blocking))
        .with_matcher(Arc::clone(&matcher));

    println!(
        "{:<11} {:>12} {:>10} {:>10}",
        "strategy", "comparisons", "pairs>=0.7", "imbalance"
    );
    for strategy in [
        StrategyKind::Basic,
        StrategyKind::BlockSplit,
        StrategyKind::PairRange,
    ] {
        let outcome = resolver
            .resolve(&Scenario::Dedup { strategy }, input.clone())
            .unwrap();
        let match_metrics = outcome.details.match_metrics().expect("one matching job");
        let stats = WorkloadStats::from_metrics(strategy, match_metrics);
        println!(
            "{:<11} {:>12} {:>10} {:>10.2}",
            strategy.to_string(),
            stats.total_comparisons(),
            outcome.result.len(),
            stats.imbalance()
        );
    }
    println!("\nSame machinery, different domain: the strategies never look inside");
    println!("the similarity function — any pairwise computation over blocks works.");
}

/// Blocks on the first whitespace token of an attribute.
struct AttributeBlockingFirstWord {
    attribute: String,
}

impl AttributeBlockingFirstWord {
    fn new(attribute: impl Into<String>) -> Self {
        Self {
            attribute: attribute.into(),
        }
    }
}

impl BlockingFunction for AttributeBlockingFirstWord {
    fn write_keys(&self, entity: &Entity, out: &mut KeyText) {
        let text = entity.get(&self.attribute).unwrap_or_default();
        if let Some(word) = text.split_whitespace().next() {
            out.push(word);
        }
    }
}
