//! Differential test of the thresholded compare kernel on the corpus
//! shape the benchmarks run: every pair of the largest title-prefix
//! block of a DS1-shaped dataset, decided by the filter → verify
//! cascade (heap and arena forms) and by the full dynamic program, must
//! agree on the decision and on every bit of the score.

use std::collections::BTreeMap;
use std::sync::Arc;

use er_core::blocking::{BlockKey, BlockingFunction, PrefixBlocking};
use er_core::{Entity, Matcher, MatcherCache};
use er_datagen::{ds1_spec, generate_products};

#[test]
fn cascade_equals_full_dp_on_the_largest_ds1_block() {
    let dataset = generate_products(&ds1_spec(7).scaled(0.01));
    let blocking = PrefixBlocking::title3();
    let mut blocks: BTreeMap<BlockKey, Vec<&Entity>> = BTreeMap::new();
    for entity in dataset.entities.iter() {
        let key = blocking.key(entity).expect("every product has a title");
        blocks.entry(key).or_default().push(entity);
    }
    let block = blocks
        .values()
        .max_by_key(|entities| entities.len())
        .expect("the dataset has blocks");
    assert!(block.len() >= 50, "largest block has {}", block.len());

    let matcher = Arc::new(Matcher::paper_default());
    let mut cache = MatcherCache::new(Arc::clone(&matcher));
    let handles: Vec<_> = block.iter().map(|e| cache.handle(e)).collect();
    let prepared: Vec<_> = block.iter().map(|e| matcher.prepare(e)).collect();

    let (mut matches, mut pairs) = (0usize, 0usize);
    for i in 0..block.len() {
        for j in (i + 1)..block.len() {
            // `score_prepared` runs the unrestricted DP; the threshold
            // is then applied the way `Matcher::matches` applies it.
            let score = matcher.score_prepared(&prepared[i], &prepared[j]);
            let expected = (score >= matcher.threshold()).then(|| score.to_bits());
            let titles = || (block[i].get("title"), block[j].get("title"));
            assert_eq!(
                matcher
                    .matches_prepared(&prepared[i], &prepared[j])
                    .map(f64::to_bits),
                expected,
                "heap forms diverged on {:?}",
                titles()
            );
            assert_eq!(
                cache
                    .matches_handles(&handles[i], &handles[j])
                    .map(f64::to_bits),
                expected,
                "arena forms diverged on {:?}",
                titles()
            );
            matches += usize::from(expected.is_some());
            pairs += 1;
        }
    }
    assert!(
        matches > 0 && matches < pairs,
        "{matches} of {pairs} pairs match: both outcomes must occur"
    );
}
