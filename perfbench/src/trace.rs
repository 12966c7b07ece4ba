//! In-memory spans, taken from outside the program around its public
//! calls, and the traced page pipeline that makes those calls.
//!
//! [`run_pages`] composes the extractor's public pieces —
//! `metaform_html::parse`, `metaform_layout::layout_with`,
//! `metaform_tokenizer::tokenize`, `ParseSession::parse`, `merge`,
//! `salvage_merge` and `extract_baseline` — into the same retry →
//! salvage → baseline ladder `extract_batch_adaptive` runs, with a span
//! around each call. Its reports are checked against the library's, so
//! the spans time the work the library does.

use metaform_core::ExtractionReport;
use metaform_core::Proximity;
use metaform_extractor::{condition_coverage, extract_baseline, token_coverage, AdaptiveOptions};
use metaform_grammar::{CompiledGrammar, PatternSpan};
use metaform_layout::LayoutOptions;
use metaform_parser::{
    merge, salvage_merge, BudgetOutcome, ParseSession, ParseStats, ParserOptions,
};
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One timed interval. `parent` is the index of the enclosing span plus
/// one (0 for a root); spans of one page or job share `trace`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub trace: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans when on; a pass-through when off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    trace: u32,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            trace: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts a new trace (page or job) for the spans that follow.
    pub fn begin_trace(&mut self, id: u32) {
        self.trace = id;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let parent = self.open.last().map_or(0, |&p| p + 1);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            trace: self.trace,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Opens a root span that started at `start`, to be closed with
    /// [`Tracer::close`]; for work that interleaves with other spans.
    pub fn open_at(&mut self, name: &'static str, start: Instant) -> u32 {
        if !self.on {
            return 0;
        }
        let at = self.at(start);
        self.spans.push(Span {
            name,
            parent: 0,
            trace: self.trace,
            start_ns: at,
            end_ns: at,
        });
        self.spans.len() as u32
    }

    /// Closes a span [`Tracer::open_at`] returned.
    pub fn close(&mut self, span: u32, end: Instant) {
        if self.on && span > 0 {
            let at = self.at(end);
            let span = &mut self.spans[span as usize - 1];
            span.end_ns = at;
        }
    }

    /// Records a finished interval inside the span `parent`
    /// ([`Tracer::open_at`]'s value), in that span's trace.
    pub fn record_in(&mut self, name: &'static str, parent: u32, start: Instant, end: Instant) {
        if self.on && parent > 0 {
            let trace = self.spans[parent as usize - 1].trace;
            let (start_ns, end_ns) = (self.at(start), self.at(end));
            self.spans.push(Span {
                name,
                parent,
                trace,
                start_ns,
                end_ns,
            });
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// Per-layer totals over a set of spans.
#[derive(Default)]
pub struct LayerTimes {
    /// (name, total ns, per-call ns)
    layers: Vec<(&'static str, u64, Vec<u64>)>,
    /// (name, total self ns): duration minus the time its children cover.
    selfs: Vec<(&'static str, u64)>,
}

impl LayerTimes {
    pub fn of(spans: &[Span]) -> Self {
        let mut out = LayerTimes::default();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if span.parent > 0 {
                child_ns[span.parent as usize - 1] += span.ns();
            }
        }
        for (i, span) in spans.iter().enumerate() {
            match out.layers.iter_mut().find(|(n, _, _)| *n == span.name) {
                Some(entry) => {
                    entry.1 += span.ns();
                    entry.2.push(span.ns());
                }
                None => out.layers.push((span.name, span.ns(), vec![span.ns()])),
            }
            let own = span.ns().saturating_sub(child_ns[i]);
            match out.selfs.iter_mut().find(|(n, _)| *n == span.name) {
                Some(entry) => entry.1 += own,
                None => out.selfs.push((span.name, own)),
            }
        }
        out
    }

    /// Total milliseconds spent in spans named `name`.
    pub fn busy_ms(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, ns, _)| *ns as f64 / 1e6)
    }

    /// Per-call durations of `name`, in microseconds.
    pub fn calls_us(&self, name: &str) -> Vec<f64> {
        self.layers
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or_else(Vec::new, |(_, _, calls)| {
                calls.iter().map(|&ns| ns as f64 / 1e3).collect()
            })
    }

    /// `name=self_ms` for every span name, in first-seen order.
    pub fn self_line(&self) -> String {
        let parts: Vec<String> = self
            .selfs
            .iter()
            .map(|(name, ns)| format!("{name}={:.3}", *ns as f64 / 1e6))
            .collect();
        parts.join(" ")
    }

    /// Total self time of spans named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.selfs
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, ns)| *ns as f64 / 1e6)
    }
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"trace\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            i + 1,
            s.parent,
            s.trace,
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

/// Deterministic work counts of one pass over a page set: sums over
/// every call a layer served, retries and baseline re-tokenization
/// included.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub html_nodes: u64,
    pub tokens: u64,
    pub combos_enumerated: u64,
    pub instances_created: u64,
    pub invalidated: u64,
    pub rolled_back: u64,
    pub temporary: u64,
    /// Pages whose first attempt hit the instance cap.
    pub first_truncated: u64,
    pub truncated: u64,
    pub retried: u64,
    pub recovered: u64,
    pub salvaged: u64,
    pub degraded: u64,
}

impl Counts {
    /// `name=value` pairs in a fixed order, for the exact-count gate.
    pub fn entries(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("html.nodes", self.html_nodes),
            ("tokenize.tokens", self.tokens),
            ("parse.combos_enumerated", self.combos_enumerated),
            ("parse.instances_created", self.instances_created),
            ("parse.invalidated", self.invalidated),
            ("parse.rolled_back", self.rolled_back),
            ("ladder.first_truncated", self.first_truncated),
            ("ladder.truncated", self.truncated),
            ("ladder.retried", self.retried),
            ("ladder.recovered", self.recovered),
            ("ladder.salvaged", self.salvaged),
            ("ladder.degraded", self.degraded),
        ]
    }
}

/// Parser phase totals from `ParserOptions::profile`, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    pub alloc_ns: u64,
    pub instantiate_ns: u64,
    pub enforce_ns: u64,
    pub maximize_ns: u64,
}

/// The extractor configuration the traced pipeline reproduces.
pub struct Config {
    pub grammar: Arc<CompiledGrammar>,
    pub parser: ParserOptions,
    pub layout: LayoutOptions,
    pub adaptive: AdaptiveOptions,
}

/// What one pass produced.
pub struct PassOut {
    pub reports: Vec<String>,
    pub counts: Counts,
    pub phases: Phases,
}

/// One page's grammar-path attempt.
struct Attempt {
    report: ExtractionReport,
    tokens: usize,
    stats: ParseStats,
    pattern_spans: Vec<PatternSpan>,
}

/// Runs `pages` one after another through the traced ladder: attempts
/// at escalating instance caps, then salvage-or-baseline for pages that
/// still fail. One page is one trace.
pub fn run_pages(cfg: &Config, pages: &[&str], tracer: &mut Tracer, first_trace: u32) -> PassOut {
    let mut counts = Counts::default();
    let mut phases = Phases::default();
    let mut sessions: Vec<ParseSession> = Vec::new();
    let mut reports = Vec::with_capacity(pages.len());
    let proximity = cfg.grammar.grammar().proximity;
    for (i, html) in pages.iter().enumerate() {
        tracer.begin_trace(first_trace + i as u32);
        let report = tracer.span("page", |t| {
            let mut cap = cfg.parser.max_instances;
            let mut attempts = 0;
            loop {
                if sessions.len() <= attempts {
                    let mut opts = cfg.parser.clone();
                    opts.max_instances = cap;
                    opts.profile = t.is_on();
                    sessions.push(ParseSession::with_options(cfg.grammar.clone(), opts));
                }
                let attempt = attempt(
                    cfg,
                    &mut sessions[attempts],
                    html,
                    t,
                    &mut counts,
                    &mut phases,
                );
                let truncated = attempt
                    .as_ref()
                    .is_some_and(|a| a.stats.budget == BudgetOutcome::TruncatedInstances);
                if attempts == 0 && truncated {
                    counts.first_truncated += 1;
                }
                if !truncated || attempts == cfg.adaptive.max_retries {
                    if !truncated {
                        if attempts > 0 {
                            counts.recovered += 1;
                        }
                        if let Some(a) = attempt {
                            break a.report;
                        }
                    } else {
                        counts.truncated += 1;
                    }
                    // Truncated after the last retry, or no tokens: the
                    // salvage-or-baseline settlement.
                    let settled = t.span("settle", |t| {
                        settle(cfg, html, attempt, t, &mut counts, proximity)
                    });
                    break settled;
                }
                attempts += 1;
                counts.retried += 1;
                cap = cap.saturating_mul(cfg.adaptive.budget_growth.max(1) as usize);
            }
        });
        reports.push(report.to_string());
    }
    PassOut {
        reports,
        counts,
        phases,
    }
}

/// html → layout → tokenize, each in its span.
fn front_end(
    cfg: &Config,
    html: &str,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Vec<metaform_core::Token> {
    let doc = t.span("html", |_| metaform_html::parse(html));
    counts.html_nodes += doc.len() as u64;
    let lay = t.span("layout", |_| {
        metaform_layout::layout_with(&doc, &cfg.layout)
    });
    let tokens = t.span("tokenize", |_| {
        metaform_tokenizer::tokenize(&doc, &lay).tokens
    });
    counts.tokens += tokens.len() as u64;
    tokens
}

/// One attempt; `None` when the page has no tokens.
fn attempt(
    cfg: &Config,
    session: &mut ParseSession,
    html: &str,
    t: &mut Tracer,
    counts: &mut Counts,
    phases: &mut Phases,
) -> Option<Attempt> {
    t.span("attempt", |t| {
        let tokens = front_end(cfg, html, t, counts);
        if tokens.is_empty() {
            return None;
        }
        let result = t.span("parse", |_| session.parse(&tokens));
        let stats = result.stats.clone();
        counts.combos_enumerated += stats.combos_enumerated;
        counts.instances_created += stats.created as u64;
        counts.invalidated += stats.invalidated as u64;
        counts.rolled_back += stats.rolled_back as u64;
        counts.temporary += stats.temporary as u64;
        phases.alloc_ns += stats.phase.alloc_ns;
        phases.instantiate_ns += stats.phase.instantiate_ns;
        phases.enforce_ns += stats.phase.enforce_ns;
        phases.maximize_ns += stats.phase.maximize_ns;
        let report = match stats.budget {
            BudgetOutcome::Completed => t.span("merge", |_| merge(&result.chart, &result.trees)),
            _ => t.span("salvage_merge", |_| {
                salvage_merge(&result.chart, &result.trees)
            }),
        };
        // The extractor derives its induction evidence from every parse.
        let grammar = cfg.grammar.grammar();
        let pattern_spans = metaform_parser::pattern_spans(&result.chart, &result.trees, grammar);
        std::hint::black_box(metaform_parser::tree_symbols(
            &result.chart,
            &result.trees,
            grammar,
        ));
        let tokens = tokens.len();
        session.recycle(result);
        Some(Attempt {
            report,
            tokens,
            stats,
            pattern_spans,
        })
    })
}

/// The ladder's last rungs: the partial report when it dominates the
/// proximity baseline (token coverage, then claimed tokens, then tree
/// count, then the rendered report), the baseline otherwise.
fn settle(
    cfg: &Config,
    html: &str,
    partial: Option<Attempt>,
    t: &mut Tracer,
    counts: &mut Counts,
    proximity: Proximity,
) -> ExtractionReport {
    let tokens = front_end(cfg, html, t, counts);
    let baseline = t.span("baseline", |_| extract_baseline(&tokens));
    // Failed pages also yield mined arrangements for grammar induction.
    match partial {
        Some(partial) if dominates(&partial, &baseline, tokens.len()) => {
            counts.salvaged += 1;
            // The salvaged page keeps its attempt's tokens; the
            // baseline re-tokenized the same HTML to the same ones.
            std::hint::black_box(metaform_grammar::mine_page(
                &tokens,
                &partial.report.missing,
                &partial.pattern_spans,
                &proximity,
            ));
            partial.report
        }
        _ => {
            counts.degraded += 1;
            std::hint::black_box(metaform_grammar::mine_page(
                &tokens,
                &baseline.missing,
                &[],
                &proximity,
            ));
            baseline
        }
    }
}

fn dominates(partial: &Attempt, baseline: &ExtractionReport, baseline_tokens: usize) -> bool {
    let partial_claims = condition_coverage(&partial.report);
    let baseline_claims = condition_coverage(baseline);
    if partial_claims * 2 < baseline_claims {
        return false;
    }
    let partial_key = (
        token_coverage(&partial.report, partial.tokens),
        partial_claims,
        partial.stats.trees,
    );
    let baseline_key = (
        token_coverage(baseline, baseline_tokens),
        baseline_claims,
        0,
    );
    match partial_key.cmp(&baseline_key) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => partial.report.to_string() < baseline.to_string(),
    }
}
