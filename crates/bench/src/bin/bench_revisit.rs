//! Revisit-path benchmark: cold parses vs the parse cache's exact-hit
//! replay over the survey corpus. Run as:
//!
//! ```text
//! cargo run --release -p metaform-bench --bin bench_revisit [-- <out.json>]
//! ```
//!
//! Writes `BENCH_revisit.json` (or `<out.json>`) with the median
//! wall-clock time of two legs over pre-tokenized pages:
//!
//! - `cold`: every corpus page, no cache;
//! - `exact_hit`: every corpus page re-extracted against a primed
//!   cache (all replays).
//!
//! Every replayed report is asserted byte-identical to its cold
//! counterpart — the bench refuses to publish numbers for a cache
//! that changes answers. Timing claims live in the JSON, not in
//! asserts: the headline ratio is `exact_hit_speedup`
//! (cold / exact_hit).

use metaform_bench::tokens_of;
use metaform_core::Token;
use metaform_datasets::survey_corpus;
use metaform_extractor::{FormExtractor, LruParseCache, Provenance};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timing iterations per leg (median taken; one extra warm-up).
const ITERATIONS: usize = 7;

fn median(mut times: Vec<Duration>) -> Duration {
    times.sort();
    times[times.len() / 2]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times one pass of `extractor` over `batch`.
fn pass(extractor: &FormExtractor, batch: &[Vec<Token>]) -> Duration {
    let started = Instant::now();
    for tokens in batch {
        let _ = extractor.extract_tokens(tokens);
    }
    started.elapsed()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_revisit.json".into());

    let corpus: Vec<(String, Vec<Token>)> = survey_corpus()
        .iter()
        .map(|(name, html)| (name.clone(), tokens_of(html)))
        .collect();
    let corpus_tokens: Vec<Vec<Token>> = corpus.iter().map(|(_, t)| t.clone()).collect();
    eprintln!(
        "bench_revisit: {} corpus pages, {} timing iterations per leg",
        corpus.len(),
        ITERATIONS
    );

    // Exact-hit leg: prime once (the default capacity holds the whole
    // corpus), verify every revisit replays and matches cold, then
    // time the replay passes.
    let cold = FormExtractor::new();
    let warm = FormExtractor::new().parse_cache(Arc::new(LruParseCache::default()));
    for (name, tokens) in &corpus {
        let first = warm.extract_tokens(tokens);
        assert_eq!(first.via, Provenance::Grammar, "{name}: first visit parses");
        let hit = warm.extract_tokens(tokens);
        assert_eq!(
            hit.via,
            Provenance::CacheHit,
            "{name}: unchanged revisit must replay from the cache"
        );
        assert_eq!(
            cold.extract_tokens(tokens).report.to_string(),
            hit.report.to_string(),
            "{name}: cached report diverged from cold"
        );
    }

    pass(&cold, &corpus_tokens); // warm-up: fault in buffers
    let cold_median = median(
        (0..ITERATIONS)
            .map(|_| pass(&cold, &corpus_tokens))
            .collect(),
    );
    let hit_median = median(
        (0..ITERATIONS)
            .map(|_| pass(&warm, &corpus_tokens))
            .collect(),
    );

    let exact_hit_speedup = cold_median.as_secs_f64() / hit_median.as_secs_f64().max(1e-9);
    eprintln!(
        "  cold      median {:>9.3} ms  ({} pages)",
        ms(cold_median),
        corpus.len()
    );
    eprintln!(
        "  exact_hit median {:>9.3} ms  speedup {exact_hit_speedup:.1}x",
        ms(hit_median)
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": \"survey_revisit\",\n",
            "  \"interfaces\": {},\n",
            "  \"iterations\": {},\n",
            "{},\n",
            "  \"legs\": {{\n",
            "    \"cold\": {{ \"pages\": {}, \"median_ms\": {:.3} }},\n",
            "    \"exact_hit\": {{ \"pages\": {}, \"median_ms\": {:.3} }}\n",
            "  }},\n",
            "  \"exact_hit_speedup\": {:.3}\n",
            "}}\n"
        ),
        corpus.len(),
        ITERATIONS,
        metaform_bench::metadata_json("  "),
        corpus.len(),
        ms(cold_median),
        corpus.len(),
        ms(hit_median),
        exact_hit_speedup,
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("{json}");
    eprintln!("wrote {out_path}");
}
