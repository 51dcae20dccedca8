//! `BlockingFunction::write_keys` against `keys`, for every blocking
//! function of the workspace: written into a `KeyText` that already
//! holds keys, an entity's keys append exactly the text of `keys()`, in
//! its order; after the BDM job's mapper sorts and deduplicates them
//! (`KeyText::sort_and_dedup_from`) they are `keys()` sorted and
//! without repeats; and the entries before them stay as they were.
//! Prefix blocking runs on non-ASCII text and past its 32-byte stack
//! prefix, LSH blocking past band 999 (where its band keys stop being
//! strictly increasing), and one local function yields unsorted,
//! repeated keys through the trait's default `write_keys`.

use std::sync::Arc;

use er_core::blocking::{
    AttributeBlocking, BlockKey, BlockingFunction, ConstantBlocking, KeyText, MultiPassBlocking,
    PrefixBlocking,
};
use er_core::minhash::ShingleScheme;
use er_core::Entity;
use er_lsh::{LshBlocking, LshParams};
use proptest::prelude::*;

/// Every lower-cased word of the title, in text order, repeats kept:
/// keys that are neither sorted nor distinct.
struct TitleWords;

impl BlockingFunction for TitleWords {
    fn key(&self, entity: &Entity) -> Option<BlockKey> {
        self.keys(entity).into_iter().next()
    }

    fn keys(&self, entity: &Entity) -> Vec<BlockKey> {
        let title = entity.get("title").unwrap_or_default();
        title
            .split_whitespace()
            .map(|word| BlockKey::new(word.to_lowercase()))
            .collect()
    }
}

fn functions() -> Vec<(&'static str, Arc<dyn BlockingFunction>)> {
    let prefix = |len| Arc::new(PrefixBlocking::new("title", len));
    let lsh = |bands, rows, scheme| {
        Arc::new(LshBlocking::new(
            LshParams::new(bands, rows),
            scheme,
            "title",
            7,
        ))
    };
    vec![
        ("prefix 1", prefix(1)),
        ("prefix 3", prefix(3)),
        ("prefix 32", prefix(32)),
        ("prefix 33", prefix(33)),
        ("prefix 48", prefix(48)),
        ("attribute title", Arc::new(AttributeBlocking::new("title"))),
        ("attribute brand", Arc::new(AttributeBlocking::new("brand"))),
        ("constant", Arc::new(ConstantBlocking)),
        (
            "multi-pass",
            Arc::new(MultiPassBlocking::new(vec![
                prefix(3),
                Arc::new(AttributeBlocking::new("brand")),
                prefix(1),
                Arc::new(TitleWords),
            ])),
        ),
        ("lsh 8x4", lsh(8, 4, ShingleScheme::CharGrams(3))),
        ("lsh 3x2 tokens", lsh(3, 2, ShingleScheme::Tokens)),
        ("lsh 1001x1", lsh(1001, 1, ShingleScheme::CharGrams(2))),
        ("title words", Arc::new(TitleWords)),
    ]
}

/// Text of every kind the functions treat apart: ASCII letters and
/// digits, punctuation and whitespace, any printable character,
/// letters whose lower case is longer or decomposed, and a word that
/// recurs (sorted keys with repeats).
fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            "[a-zA-Z0-9]{0,12}",
            "[ -/:-@]{0,3}",
            "\\PC{0,4}",
            Just("İ".to_string()),
            Just("ǅ".to_string()),
            Just("e\u{301}".to_string()),
            Just(" ".to_string()),
            Just(" ab ".to_string()),
        ],
        0..10,
    )
    .prop_map(|pieces| pieces.concat())
}

proptest! {
    #[test]
    fn write_keys_appends_exactly_the_keys(
        title in text(),
        brand in text(),
        present in 0usize..4,
        prior in proptest::collection::vec(prop_oneof!["[a-z]{0,4}", "\\PC{0,3}"], 0..4),
    ) {
        let mut attributes = Vec::new();
        if present & 1 == 0 {
            attributes.push(("title", title.as_str()));
        }
        if present & 2 == 0 {
            attributes.push(("brand", brand.as_str()));
        }
        let entity = Entity::new(1, attributes);
        for (name, function) in functions() {
            let mut column: KeyText = prior.iter().collect();
            let start = column.len();
            function.write_keys(&entity, &mut column);
            let keys: Vec<String> = function
                .keys(&entity)
                .iter()
                .map(|key| key.as_str().to_owned())
                .collect();
            let written: Vec<&str> = column.iter().skip(start).collect();
            prop_assert_eq!(&written, &keys, "{} writes keys() in order", name);

            column.sort_and_dedup_from(start);
            let mut expected = keys;
            expected.sort();
            expected.dedup();
            let before: Vec<&str> = column.iter().take(start).collect();
            prop_assert_eq!(&before, &prior, "{} keeps the earlier entries", name);
            let after: Vec<&str> = column.iter().skip(start).collect();
            prop_assert_eq!(&after, &expected, "{} after sort and dedup", name);
        }
    }
}
