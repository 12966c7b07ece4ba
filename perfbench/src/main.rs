//! End-to-end and per-layer benchmark for metaform.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload survey_mix --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//! - `survey_mix`: survey-like forms from the four generator profiles,
//!   in process, default budgets, no cache;
//! - `hostile_pages`: the same forms inside heavy site chrome, with an
//!   instance cap that sends part of them down the retry → salvage →
//!   baseline ladder;
//! - `service_revisit`: an in-process `metaformd` over loopback
//!   keep-alive HTTP, fed Zipf-popular pages — repeats, mutated
//!   revisits and fresh pages — closed loop for its throughput, then
//!   open loop at two fixed rates for its latency.
//!
//! Every run generates its pages from `--seed`, computes reference
//! reports (in process, uncached, one worker, same budgets) before
//! timing, and checks every page the timed part serves against them.
//! Work counts of every later pass over the pages must equal the first
//! pass's (the exact-count gate). It
//! prints each metric as `name value unit`, then one JSON line: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. A failed output check or exact-count gate reads
//! `"correct": false`; the exit code is 0 whenever the run completed.
//!
//! Job latency is gated at p50 and p90. On a small shared virtual
//! machine the host's stolen CPU time alone moves p99 by more than a
//! quarter from run to run, so p99 is reported per layer, under
//! `loadgen`.

mod inproc;
mod service;
mod stats;
mod trace;
mod workload;

use metaform_extractor::{AdaptiveOptions, FormExtractor};
use metaform_grammar::global_grammar;
use metaform_layout::LayoutOptions;
use stats::{median, peak_rss_mb, share, Sheet, Steal};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use trace::{run_pages, Config, Counts, Tracer};
use workload::Page;

/// The end-to-end metrics and their units, in `BENCHMARK.json` order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pages_per_s", "1/s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p90_ms", "ms"),
    ("job_latency_p50_ms.low_rate", "ms"),
    ("accuracy", "ratio"),
    ("success_share", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics and their units, in `BENCHMARK.json` order.
/// The prefix before the first dot names the layer; `workload.*` are
/// the traffic properties each workload is meant to have.
const PER_LAYER: &[(&str, &str)] = &[
    ("grammar.compile_ms", "ms"),
    ("html.busy_ms", "ms"),
    ("html.us_p99", "us"),
    ("html.nodes", "count"),
    ("layout.busy_ms", "ms"),
    ("layout.us_p99", "us"),
    ("tokenize.busy_ms", "ms"),
    ("tokenize.tokens", "count"),
    ("parse.busy_ms", "ms"),
    ("parse.us_p99", "us"),
    ("parse.alloc_ms", "ms"),
    ("parse.instantiate_ms", "ms"),
    ("parse.enforce_ms", "ms"),
    ("parse.maximize_ms", "ms"),
    ("parse.combos_enumerated", "count"),
    ("parse.instances_created", "count"),
    ("parse.invalidated", "count"),
    ("parse.rolled_back", "count"),
    ("parse.temporary_share", "ratio"),
    ("merge.busy_ms", "ms"),
    ("salvage_merge.busy_ms", "ms"),
    ("extract.self_ms", "ms"),
    ("ladder.truncated", "count"),
    ("ladder.retried", "count"),
    ("ladder.recovered", "count"),
    ("ladder.salvaged", "count"),
    ("ladder.degraded", "count"),
    ("ladder.useful_share", "ratio"),
    ("baseline.busy_ms", "ms"),
    ("cache.hit_share", "ratio"),
    ("cache.miss_share", "ratio"),
    ("cache.lookup_us_p50", "us"),
    ("cache.store.busy_ms", "ms"),
    ("http.submit_us_p99", "us"),
    ("http.results_us_p99", "us"),
    ("jobs.queue_wait_ms_p99", "ms"),
    ("json.results_bytes_per_page", "B"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.job_latency_p99_ms", "ms"),
    ("loadgen.job_latency_p99_ms.low_rate", "ms"),
    ("loadgen.job_latency_p50_ms.closed_loop", "ms"),
    ("loadgen.pages_per_s.closed_loop", "1/s"),
    ("loadgen.achieved_share", "ratio"),
    ("loadgen.backlog_jobs", "count"),
    ("trace.overhead_share", "ratio"),
    ("workload.tokens_per_page", "count"),
    ("workload.bytes_per_page", "B"),
    ("workload.withheld_share", "ratio"),
    ("workload.truncated_share", "ratio"),
    ("workload.repeat_share", "ratio"),
    ("workload.mutated_share", "ratio"),
    ("workload.fresh_share", "ratio"),
    ("workload.working_set_per_cache_entry", "ratio"),
];

/// Pages per reference batch.
const REFERENCE_CHUNK: usize = 256;

/// Set-up repetitions before the workload and between its rounds;
/// `setup_s` is their median.
const SETUP_REPS: usize = 31;
const SETUP_REPS_PER_ROUND: usize = 31;

/// Survey forms in the pool: 32 cycles of the paper's profile mix,
/// enough that the pool's work and accuracy barely move between seeds.
const SURVEY_POOL: usize = 32 * workload::PROFILE_CYCLE;
/// Forms in the hostile pool: 96 under each kind of chrome, enough that
/// the pool's truncated share and accuracy barely move between seeds.
const HOSTILE_FORMS: usize = 96 * workload::CHROME.len();
/// The hostile workload's per-page instance cap: about half the forms
/// exceed it on their first attempt.
const HOSTILE_CAP: usize = 64;
/// The hostile workload's retry policy: one retry at twice the cap.
const HOSTILE_RETRIES: AdaptiveOptions = AdaptiveOptions {
    max_retries: 1,
    budget_growth: 2,
};
/// Fixed rates of the open-loop legs, in jobs per second.
const SURVEY_LOW_RATE: f64 = 200.0;
const HOSTILE_LOW_RATE: f64 = 20.0;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required (survey_mix, hostile_pages, service_revisit)".into());
    }
    Ok(args)
}

/// What a run works on: its distinct pages and where it writes.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub pages: Vec<Page>,
    pub out_dir: PathBuf,
    pub nproc: usize,
}

/// The output check: every served report against its reference. Each
/// client thread keeps its own over the shared references; the run
/// adds them up with [`Check::absorb`].
pub struct Check {
    reference: Arc<Vec<String>>,
    wrong: Vec<bool>,
    pub attempted: u64,
    pub failed: u64,
    shown: usize,
}

impl Check {
    pub fn new(reference: Arc<Vec<String>>) -> Self {
        Check {
            wrong: vec![false; reference.len()],
            reference,
            attempted: 0,
            failed: 0,
            shown: 0,
        }
    }

    /// Compares the reports served for pages `indices`, in order. A
    /// missing report counts as a failure.
    pub fn pages(&mut self, indices: &[usize], reports: impl Iterator<Item = String>) {
        let mut reports = reports;
        for &i in indices {
            self.page(i, reports.next().as_deref());
        }
    }

    /// Compares the report served for page `i` (`None`: no report) and
    /// says whether it matched.
    pub fn page(&mut self, i: usize, got: Option<&str>) -> bool {
        self.attempted += 1;
        if got == Some(self.reference[i].as_str()) {
            return true;
        }
        self.failed += 1;
        self.wrong[i] = true;
        if self.shown < 3 {
            self.shown += 1;
            eprintln!(
                "perfbench: page {i} output differs from its reference\n--- reference\n{}\n--- served\n{}",
                self.reference[i],
                got.unwrap_or("(none)")
            );
        }
        false
    }

    /// An empty check over the same references, for another thread.
    pub fn fresh(&self) -> Check {
        Check::new(Arc::clone(&self.reference))
    }

    /// Adds the pages another check over the same references saw.
    pub fn absorb(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (wrong, theirs) in self.wrong.iter_mut().zip(other.wrong) {
            *wrong |= theirs;
        }
        self.shown = self.shown.max(other.shown);
    }

    /// Counts `n` attempted pages that failed without a report (error,
    /// non-2xx answer, or a job that never finished).
    pub fn lost(&mut self, n: u64, why: &str) {
        if n > 0 {
            self.attempted += n;
            self.failed += n;
            if self.shown < 3 {
                self.shown += 1;
                eprintln!("perfbench: {n} page(s) failed: {why}");
            }
        }
    }

    pub fn is_wrong(&self, i: usize) -> bool {
        self.wrong[i]
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

/// One set-up: compiles the grammar and builds an extractor the way the
/// workload configures it. Returns the extractor, the seconds it took
/// and the milliseconds of those spent compiling.
fn setup_once(
    build: impl Fn(FormExtractor) -> FormExtractor,
) -> Result<(FormExtractor, f64, f64), String> {
    let started = Instant::now();
    let compiled = global_grammar()
        .compile()
        .map_err(|e| format!("grammar does not compile: {e}"))?;
    let compile_ms = started.elapsed().as_secs_f64() * 1e3;
    let ext = build(FormExtractor::with_compiled(Arc::new(compiled)));
    Ok((ext, started.elapsed().as_secs_f64(), compile_ms))
}

fn run(args: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    let out_dir = exe
        .parent()
        .map_or_else(|| PathBuf::from("."), |d| d.join("perfbench-out"));
    let mut sheet = Sheet::default();
    let (cap, opts, low_rate) = match args.workload.as_str() {
        "survey_mix" => (None, AdaptiveOptions::default(), SURVEY_LOW_RATE),
        "hostile_pages" => (Some(HOSTILE_CAP), HOSTILE_RETRIES, HOSTILE_LOW_RATE),
        "service_revisit" => return service::run(args, nproc, out_dir),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let build = |ext: FormExtractor| {
        let ext = ext.worker_threads(nproc);
        match cap {
            Some(cap) => ext.max_instances(cap),
            None => ext,
        }
    };
    // Set-up runs SETUP_REPS times before the workload and more times
    // between its rounds, so `setup_s` sees the host as the run does.
    let (mut setup_s, mut compile_ms) = (Vec::new(), Vec::new());
    let mut ext = None;
    for _ in 0..SETUP_REPS {
        let (built, secs, ms) = setup_once(build)?;
        setup_s.push(secs);
        compile_ms.push(ms);
        ext = Some(built);
    }
    let ext = ext.expect("at least one set-up rep");
    let started = Instant::now();
    let pages = match cap {
        None => workload::survey_pool(args.seed, SURVEY_POOL),
        Some(_) => workload::hostile_pool(args.seed, HOSTILE_FORMS),
    };
    let mut run = Run {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        pages,
        out_dir,
        nproc,
    };
    let reference = ext.clone().worker_threads(1);
    let prep = prepare(&mut run, &reference, &opts, &mut sheet)?;
    println!("# prepared in {:.2}s", started.elapsed().as_secs_f64());
    let mut check = Check::new(Arc::clone(&prep.reports));
    let steal = Steal::start();
    let mut between_rounds = || {
        for _ in 0..SETUP_REPS_PER_ROUND {
            if let Ok((_, secs, ms)) = setup_once(build) {
                setup_s.push(secs);
                compile_ms.push(ms);
            }
        }
    };
    let load = inproc::Load {
        ext: &ext,
        opts: &opts,
        low_rate,
    };
    let steady = if args.trace {
        // The traced run gives half its time to the load legs, for the
        // load generator's own figures, and half to traced passes.
        let half = run.seconds / 2.0;
        inproc::timed_legs(
            &run,
            &load,
            half,
            &mut between_rounds,
            &mut check,
            &mut sheet,
        );
        put_timed_end(&mut sheet, &check);
        inproc::traced_passes(&run, &prep, half, &mut check, &mut sheet)
    } else {
        inproc::timed_legs(
            &run,
            &load,
            run.seconds,
            &mut between_rounds,
            &mut check,
            &mut sheet,
        );
        put_timed_end(&mut sheet, &check);
        recount(&run, &prep, &mut check)
    };
    sheet.put("setup_s", median(&setup_s), "s");
    sheet.put("grammar.compile_ms", median(&compile_ms), "ms");
    sheet.put("host.steal_share", steal.share(nproc), "ratio");
    let all: Vec<usize> = (0..run.pages.len()).collect();
    sheet.put("accuracy", accuracy(&prep, &check, &all), "ratio");
    finish(args, &mut sheet, &check, prep.gate_ok && steady)
}

/// What [`prepare`] computes before timing starts.
pub struct Prepared {
    pub reports: Arc<Vec<String>>,
    /// Per page with ground truth: (matched, truth) conditions of its
    /// reference report, via `metaform_eval::score_extraction`.
    pub scores: Vec<Option<(usize, usize)>>,
    pub config: Config,
    /// Work counts of one untraced pass of the traced pipeline over the
    /// run's distinct pages; every later pass must repeat them.
    pub counts: Counts,
    pub gate_ok: bool,
}

/// Reference reports, the traced pipeline's agreement with them, the
/// deterministic work counts and the exact-count gate. The pages'
/// ground truth is scored here and then dropped, so only their HTML
/// stays resident while the run is timed.
pub fn prepare(
    run: &mut Run,
    reference: &FormExtractor,
    opts: &AdaptiveOptions,
    sheet: &mut Sheet,
) -> Result<Prepared, String> {
    let (max_instances, deadline) = reference.budgets();
    if deadline.is_some() {
        return Err("a workload set a wall-clock deadline; outcomes would vary run to run".into());
    }
    let html: Vec<&str> = run.pages.iter().map(|p| p.html.as_str()).collect();
    // In chunks, so the reference's extractions do not set the run's
    // peak memory.
    let mut reports = Vec::with_capacity(html.len());
    let mut scores = Vec::with_capacity(html.len());
    let mut stats = metaform_extractor::BatchStats::default();
    for (chunk, pages) in html
        .chunks(REFERENCE_CHUNK)
        .zip(run.pages.chunks(REFERENCE_CHUNK))
    {
        let batch = reference.extract_batch_adaptive(chunk, opts);
        for (page, ex) in pages.iter().zip(&batch.extractions) {
            reports.push(ex.report.to_string());
            scores.push(page.source.as_ref().map(|source| {
                let score = metaform_eval::score_extraction(source, ex);
                (score.matched, score.truth)
            }));
        }
        stats.truncated += batch.stats.truncated;
        stats.retried += batch.stats.retried;
        stats.recovered += batch.stats.recovered;
        stats.salvaged += batch.stats.salvaged;
        stats.degraded += batch.stats.degraded;
        stats.tokens += batch.stats.tokens;
    }

    let parser = metaform_parser::ParserOptions {
        max_instances,
        ..Default::default()
    };
    let config = Config {
        grammar: Arc::clone(reference.compiled()),
        parser,
        layout: LayoutOptions::default(),
        adaptive: *opts,
    };
    let mirror = run_pages(&config, &html, &mut Tracer::new(false, Instant::now()), 1);
    let mut gate_ok = true;
    let disagree = mirror
        .reports
        .iter()
        .zip(&reports)
        .filter(|(a, b)| a != b)
        .count();
    if disagree > 0 {
        eprintln!("perfbench: the traced pipeline disagrees with extract_batch_adaptive on {disagree} page(s)");
        gate_ok = false;
    }
    let c = &mirror.counts;
    let library = [
        ("truncated", stats.truncated, c.truncated),
        ("retried", stats.retried, c.retried),
        ("recovered", stats.recovered, c.recovered),
        ("salvaged", stats.salvaged, c.salvaged),
        ("degraded", stats.degraded, c.degraded),
    ];
    for (name, lib, mine) in library {
        if lib as u64 != mine {
            eprintln!("perfbench: ladder.{name}: BatchStats says {lib}, the traced pipeline counted {mine}");
            gate_ok = false;
        }
    }
    put_counts(sheet, c);
    let bytes: usize = html.iter().map(|h| h.len()).sum();
    sheet.put("workload.pages", run.pages.len() as f64, "count");
    sheet.put(
        "workload.tokens_per_page",
        share(stats.tokens as f64, run.pages.len() as f64),
        "count",
    );
    sheet.put(
        "workload.bytes_per_page",
        share(bytes as f64, run.pages.len() as f64),
        "B",
    );
    let withheld = run.pages.iter().filter(|p| p.withheld()).count();
    sheet.put(
        "workload.withheld_share",
        share(withheld as f64, run.pages.len() as f64),
        "ratio",
    );
    sheet.put(
        "workload.truncated_share",
        share(c.first_truncated as f64, run.pages.len() as f64),
        "ratio",
    );
    let (matched, truth) = scores
        .iter()
        .flatten()
        .fold((0, 0), |(m, t), (dm, dt)| (m + dm, t + dt));
    let mut exact = c.entries();
    exact.push(("accuracy.matched", matched as u64));
    exact.push(("accuracy.truth", truth as u64));
    gate_ok &= exact_gate(run, &exact);
    for page in &mut run.pages {
        page.source = None;
    }
    Ok(Prepared {
        reports: Arc::new(reports),
        scores,
        config,
        counts: mirror.counts,
        gate_ok,
    })
}

/// The in-run exact-count gate: work counts of a later pass over the
/// run's distinct pages must equal those [`prepare`] took.
pub fn same_counts(prep: &Prepared, counts: &Counts, pass: &str) -> bool {
    if *counts == prep.counts {
        return true;
    }
    eprintln!(
        "perfbench: exact counts of {pass} differ from the first pass\n--- first\n{:?}\n--- {pass}\n{counts:?}",
        prep.counts
    );
    false
}

/// A second untraced pass of the traced pipeline after the timed part:
/// its reports go through the output check and its counts through
/// [`same_counts`]. Traced runs check every traced pass instead.
pub fn recount(run: &Run, prep: &Prepared, check: &mut Check) -> bool {
    let html: Vec<&str> = run.pages.iter().map(|p| p.html.as_str()).collect();
    let out = run_pages(
        &prep.config,
        &html,
        &mut Tracer::new(false, Instant::now()),
        1,
    );
    let all: Vec<usize> = (0..html.len()).collect();
    check.pages(&all, out.reports.into_iter());
    same_counts(prep, &out.counts, "the second pass")
}

/// Ground-truth conditions matched over `pages` (each counted once),
/// crediting no match to a page whose served output ever differed from
/// its reference.
pub fn accuracy(prep: &Prepared, check: &Check, pages: &[usize]) -> f64 {
    let (mut matched, mut truth) = (0, 0);
    for &i in pages {
        if let Some((m, t)) = prep.scores[i] {
            truth += t;
            if !check.is_wrong(i) {
                matched += m;
            }
        }
    }
    share(matched as f64, truth as f64)
}

fn put_counts(sheet: &mut Sheet, c: &Counts) {
    sheet.put("html.nodes", c.html_nodes as f64, "count");
    sheet.put("tokenize.tokens", c.tokens as f64, "count");
    sheet.put(
        "parse.combos_enumerated",
        c.combos_enumerated as f64,
        "count",
    );
    sheet.put(
        "parse.instances_created",
        c.instances_created as f64,
        "count",
    );
    sheet.put("parse.invalidated", c.invalidated as f64, "count");
    sheet.put("parse.rolled_back", c.rolled_back as f64, "count");
    sheet.put(
        "parse.temporary_share",
        share(c.temporary as f64, c.instances_created as f64),
        "ratio",
    );
    sheet.put("ladder.truncated", c.truncated as f64, "count");
    sheet.put("ladder.retried", c.retried as f64, "count");
    sheet.put("ladder.recovered", c.recovered as f64, "count");
    sheet.put("ladder.salvaged", c.salvaged as f64, "count");
    sheet.put("ladder.degraded", c.degraded as f64, "count");
    sheet.put(
        "ladder.useful_share",
        share(c.recovered as f64, c.retried as f64),
        "ratio",
    );
}

/// The exact-count gate across runs, an extra to [`same_counts`]: the
/// work counts and reference accuracy of this workload and seed are
/// stored beside the binary on the first run and must repeat exactly on
/// every later run of the same binary.
fn exact_gate(run: &Run, counts: &[(&str, u64)]) -> bool {
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| std::fs::read(p).ok())
        .unwrap_or_default();
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for b in &exe {
        hash = (hash ^ u64::from(*b)).wrapping_mul(0x0100_0000_01B3);
    }
    let text: String = counts.iter().map(|(n, v)| format!("{n} {v}\n")).collect();
    let path = run.out_dir.join(format!(
        "counts-{hash:016x}-{}-{}.txt",
        run.workload, run.seed
    ));
    match std::fs::read_to_string(&path) {
        Ok(before) if before == text => true,
        Ok(before) => {
            eprintln!(
                "perfbench: exact counts drifted from an earlier run of this binary ({})\n--- before\n{before}--- now\n{text}",
                path.display()
            );
            false
        }
        Err(_) => {
            let _ = std::fs::create_dir_all(&run.out_dir);
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!(
                    "perfbench: cannot record exact counts at {}: {e}",
                    path.display()
                );
            }
            true
        }
    }
}

/// The end-to-end figures taken when the timed part ends, before any
/// later pass over the pages: peak memory, and the share of the pages
/// served so far that did not fail.
pub fn put_timed_end(sheet: &mut Sheet, check: &Check) {
    sheet.put("peak_rss_mb", peak_rss_mb(), "MiB");
    sheet.put(
        "success_share",
        1.0 - share(check.failed as f64, check.attempted as f64),
        "ratio",
    );
}

/// Prints the sheet and the result line.
pub fn finish(args: &Args, sheet: &mut Sheet, check: &Check, gate_ok: bool) -> Result<(), String> {
    let correct = gate_ok && check.failed == 0 && check.attempted > 0;
    sheet.fill_absent(END_TO_END);
    sheet.fill_absent(PER_LAYER);
    if !sheet.absent.is_empty() {
        println!(
            "# not run on this workload, reported as 0: {}",
            sheet.absent.join(" ")
        );
    }
    sheet.print(&format!(
        "{} seed={} seconds={} trace={} attempted={} failed={} correct={correct}",
        args.workload, args.seed, args.seconds, args.trace as u8, check.attempted, check.failed
    ));
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = sheet.json(wanted)?;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        check.attempted.max(1),
        check.failed
    );
    Ok(())
}
