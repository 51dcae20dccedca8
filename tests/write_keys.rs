//! The `BlockingFunction` contract, for every blocking function of the
//! workspace: `write_keys`, the one method a function implements,
//! appends an entity's keys to a `KeyText` and leaves the entries
//! already there as they were; `key` is the first key it wrote; `keys`
//! is what it wrote, sorted and without repeats — as is the column
//! after the BDM job's mapper sorts and deduplicates the entity's keys
//! in place (`KeyText::sort_and_dedup_from`). Prefix blocking runs on
//! non-ASCII text and past its 32-byte stack prefix, LSH blocking past
//! band 999 (where its band keys stop being strictly increasing), and
//! one local function writes unsorted, repeated keys.

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
    fn write_keys(&self, entity: &Entity, out: &mut KeyText) {
        let title = entity.get("title").unwrap_or_default();
        for word in title.split_whitespace() {
            out.push(&word.to_lowercase());
        }
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
            let before: Vec<&str> = column.iter().take(start).collect();
            prop_assert_eq!(&before, &prior, "{} keeps the earlier entries", name);
            let written: Vec<String> = column.iter().skip(start).map(str::to_owned).collect();
            let key = function.key(&entity);
            prop_assert_eq!(
                key.as_ref().map(BlockKey::as_str),
                written.first().map(String::as_str),
                "{} key() is the first key written", name
            );

            let mut expected = written;
            expected.sort();
            expected.dedup();
            let keys = function.keys(&entity);
            let keys: Vec<&str> = keys.iter().map(BlockKey::as_str).collect();
            prop_assert_eq!(&keys, &expected, "{} keys() sorts and dedups what it wrote", name);
            column.sort_and_dedup_from(start);
            let after: Vec<&str> = column.iter().skip(start).collect();
            prop_assert_eq!(&after, &expected, "{} after the mapper's sort and dedup", name);
            let before: Vec<&str> = column.iter().take(start).collect();
            prop_assert_eq!(&before, &prior, "{} sorts only its own entries", name);
        }
    }
}
