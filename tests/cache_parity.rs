//! The cache-parity invariant: a report served from the parse cache
//! by exact-hit replay is **byte-identical** to a cold parse of the
//! same page, and a page that differs from every cached visit is a
//! miss that parses cold.
//!
//! Coverage:
//!
//! - every survey-corpus page, revisited unchanged (exact hit);
//! - every deterministic revisit scenario (label edit, row insertion,
//!   bbox jitter) against a cache primed with the original: a miss,
//!   byte-identical to a cold parse;
//! - seven column-realignment scenarios pinned as cold, so a future
//!   cache tier cannot start warming them unnoticed;
//! - both fix-point schedules;
//! - random multi-edit mutation scripts (property test), because the
//!   hand-picked scenarios are single edits.

use metaform_datasets::revisit::{bbox_jitter, insert_row, label_edit};
use metaform_datasets::{revisit_scenarios, survey_corpus};
use metaform_extractor::{FormExtractor, LruParseCache, Provenance};
use metaform_parser::{FixpointMode, ParserOptions};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

const MODES: [FixpointMode; 2] = [FixpointMode::SemiNaive, FixpointMode::Naive];

fn opts(mode: FixpointMode) -> ParserOptions {
    ParserOptions {
        fixpoint: mode,
        ..ParserOptions::default()
    }
}

fn cold_extractor(mode: FixpointMode) -> FormExtractor {
    FormExtractor::new().parser_options(opts(mode))
}

fn cached_extractor(mode: FixpointMode) -> FormExtractor {
    cold_extractor(mode).parse_cache(Arc::new(LruParseCache::new(256)))
}

/// Asserts the cached-path extraction matches the cold one byte for
/// byte — the report document *and* the typed report.
fn assert_parity(
    cold: &metaform_extractor::Extraction,
    warm: &metaform_extractor::Extraction,
    label: &str,
) {
    assert_eq!(
        cold.report.to_string(),
        warm.report.to_string(),
        "{label}: rendered reports diverged (warm via {:?})",
        warm.via
    );
    assert_eq!(cold.report, warm.report, "{label}: typed reports diverged");
}

#[test]
fn unchanged_revisits_replay_byte_identically() {
    for mode in MODES {
        let cold = cold_extractor(mode);
        let cached = cached_extractor(mode);
        for (name, html) in survey_corpus() {
            let label = format!("{name} [{mode:?}]");
            let first = cached.extract(&html);
            assert_parity(&cold.extract(&html), &first, &label);
            let revisit = cached.extract(&html);
            assert_eq!(
                revisit.via,
                Provenance::CacheHit,
                "{label}: unchanged revisit must hit"
            );
            assert_parity(&first, &revisit, &label);
        }
    }
}

#[test]
fn mutated_revisits_match_a_cold_parse() {
    let scenarios = revisit_scenarios();
    assert!(!scenarios.is_empty());
    for mode in MODES {
        let cold = cold_extractor(mode);
        for scenario in &scenarios {
            let label = format!("{} [{mode:?}]", scenario.name);
            // A fresh cache per scenario holds only this scenario's
            // original visit.
            let cached = cached_extractor(mode);
            cached.extract(&scenario.original);
            let warm = cached.extract(&scenario.mutated);
            assert_eq!(
                warm.via,
                Provenance::Grammar,
                "{label}: an edited revisit must miss and parse cold"
            );
            assert_parity(&cold.extract(&scenario.mutated), &warm, &label);
        }
    }
}

/// Seven column-realignment scenarios: each edit realigns one layout
/// column, so shifted and unshifted tokens alternate and absolute
/// distances between the two token classes genuinely change. The
/// proximity predicates must be re-evaluated, so any cache that served
/// these without a cold parse would be unsound, not an optimization.
const SOUNDLY_COLD: [&str; 7] = [
    "books-006/label-edit",
    "books-009/label-edit",
    "automobiles-005/label-edit",
    "automobiles-007/label-edit",
    "airfares-000/label-edit",
    "airfares-001/label-edit",
    "airfares-004/bbox-jitter",
];

#[test]
fn column_realignment_revisits_stay_soundly_cold() {
    // Regression pin for the list above: a future cache tier that
    // starts warming any of these must edit this list explicitly (and
    // argue why reusing work across a column realignment is sound).
    let scenarios = revisit_scenarios();
    let mut seen = 0;
    for scenario in &scenarios {
        if !SOUNDLY_COLD.contains(&scenario.name.as_str()) {
            continue;
        }
        seen += 1;
        for mode in MODES {
            let cached = cached_extractor(mode);
            cached.extract(&scenario.original);
            let warm = cached.extract(&scenario.mutated);
            assert_eq!(
                warm.via,
                Provenance::Grammar,
                "{} [{mode:?}]: must re-parse cold, not {:?}",
                scenario.name,
                warm.via
            );
            assert_parity(
                &cold_extractor(mode).extract(&scenario.mutated),
                &warm,
                &format!("{} [{mode:?}]", scenario.name),
            );
        }
    }
    assert_eq!(
        seen,
        SOUNDLY_COLD.len(),
        "every pinned scenario still exists in the revisit set"
    );
}

proptest! {
    // Each case runs four parses per mode; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mutation scripts: compose 1–3 edits onto a corpus page,
    /// prime the cache with the original, and require the revisit to
    /// be byte-identical to a cold parse of the final form — whether
    /// it hits (every edit was a no-op) or misses.
    #[test]
    fn random_mutation_scripts_preserve_parity(
        page in 0usize..33,
        script in vec(0usize..3, 1..4),
    ) {
        let corpus = survey_corpus();
        let (name, original) = &corpus[page % corpus.len()];
        let mut mutated = original.clone();
        for step in &script {
            let next = match step {
                0 => label_edit(&mutated),
                1 => insert_row(&mutated),
                _ => bbox_jitter(&mutated),
            };
            if let Some(next) = next {
                mutated = next;
            }
        }
        for mode in MODES {
            let cached = cached_extractor(mode);
            cached.extract(original);
            let warm = cached.extract(&mutated);
            let cold = cold_extractor(mode).extract(&mutated);
            prop_assert_eq!(
                cold.report.to_string(),
                warm.report.to_string(),
                "{} script {:?} [{:?}] diverged via {:?}",
                name, script, mode, warm.via
            );
        }
    }
}
