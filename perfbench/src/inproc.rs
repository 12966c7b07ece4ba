//! The two in-process workloads: one client thread calling
//! `extract_batch_adaptive` on 8-page jobs, first closed loop, then
//! open loop at a fixed low rate.

use crate::stats::{median, quantile, wait_until, Sheet, Windows};
use crate::trace::{run_pages, write_spans, LayerTimes, Tracer};
use crate::workload::{JobSweep, JOB_PAGES};
use crate::{same_counts, Check, Prepared, Run};
use metaform_extractor::{AdaptiveOptions, FormExtractor};
use std::time::{Duration, Instant};

/// Rounds per run. Each round runs a closed-loop window, then a window
/// open loop at the fixed low rate; see [`Windows`] for how the
/// windows' figures combine.
const ROUNDS: usize = 10;
/// Share of each round spent closed loop; the low-rate window gets the
/// rest.
const CLOSED_SHARE: f64 = 0.6;

/// How the timed legs drive the extractor.
pub struct Load<'a> {
    pub ext: &'a FormExtractor,
    pub opts: &'a AdaptiveOptions,
    /// Jobs per second of the open-loop windows.
    pub low_rate: f64,
}

/// The timed legs, `seconds` long.
pub fn timed_legs(
    run: &Run,
    load: &Load,
    seconds: f64,
    between_rounds: &mut dyn FnMut(),
    check: &mut Check,
    sheet: &mut Sheet,
) {
    let (ext, opts, low_rate) = (load.ext, load.opts, load.low_rate);
    let pages: Vec<&str> = run.pages.iter().map(|p| p.html.as_str()).collect();
    let mut jobs = JobSweep::new(run.seed, pages.len());
    // Serves one job and returns when its batch call started and
    // returned; the output check runs after, outside the job's latency.
    let mut serve = |check: &mut Check| -> (Instant, Instant) {
        let picks = jobs.next_job();
        let batch_pages: Vec<&str> = picks.iter().map(|&i| pages[i]).collect();
        let started = Instant::now();
        let batch = ext.extract_batch_adaptive(&batch_pages, opts);
        let done = Instant::now();
        check.pages(
            &picks,
            batch.extractions.iter().map(|e| e.report.to_string()),
        );
        (started, done)
    };
    let round = seconds / ROUNDS as f64;
    let closed_window = Duration::from_secs_f64(round * CLOSED_SHARE);
    let open_window = round * (1.0 - CLOSED_SHARE);
    let (mut rates, mut latencies_ms, mut windows) =
        (Windows::default(), Windows::default(), Windows::default());
    let mut lags_all = Vec::new();
    let (mut closed_jobs, mut open_jobs) = (0usize, 0usize);
    for _ in 0..ROUNDS {
        between_rounds();
        // Closed loop: the next job starts when the previous one returns.
        let leg = Instant::now();
        let mut busy = Duration::ZERO;
        let mut latencies = Vec::new();
        while leg.elapsed() < closed_window {
            let (started, done) = serve(check);
            let took = done - started;
            busy += took;
            latencies.push(took.as_secs_f64() * 1e3);
        }
        closed_jobs += latencies.len();
        rates.add(
            "pages_per_s",
            (latencies.len() * JOB_PAGES) as f64 / busy.as_secs_f64(),
            "1/s",
        );
        latencies_ms.add("job_latency_p50_ms", median(&latencies), "ms");
        latencies_ms.add("job_latency_p90_ms", quantile(&latencies, 0.90), "ms");
        latencies_ms.add(
            "loadgen.job_latency_p99_ms",
            quantile(&latencies, 0.99),
            "ms",
        );

        // Open loop at a fixed rate: latency runs from each job's
        // scheduled start, so a job that overruns delays the ones
        // behind it.
        let planned = (open_window * low_rate).round().max(1.0) as usize;
        let leg = Instant::now();
        let mut latencies = Vec::with_capacity(planned);
        let mut lags = Vec::with_capacity(planned);
        for k in 0..planned {
            let due = leg + Duration::from_secs_f64(k as f64 / low_rate);
            wait_until(due);
            lags.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            let (_, done) = serve(check);
            latencies.push(done.saturating_duration_since(due).as_secs_f64() * 1e3);
        }
        open_jobs += planned;
        // Below the offered rate when the jobs could not keep up.
        let elapsed = leg.elapsed().as_secs_f64().max(planned as f64 / low_rate);
        latencies_ms.add("job_latency_p50_ms.low_rate", median(&latencies), "ms");
        latencies_ms.add(
            "loadgen.job_latency_p99_ms.low_rate",
            quantile(&latencies, 0.99),
            "ms",
        );
        windows.add(
            "loadgen.achieved_share",
            planned as f64 / elapsed / low_rate,
            "ratio",
        );
        lags_all.extend(lags);
    }
    windows.put_medians(sheet);
    rates.put_maxima(sheet);
    latencies_ms.put_minima(sheet);
    sheet.put("loadgen.lag_ms_p99", quantile(&lags_all, 0.99), "ms");
    sheet.put("loadgen.offered_jobs_per_s.low_rate", low_rate, "1/s");
    sheet.put("jobs.closed_loop", closed_jobs as f64, "count");
    sheet.put("jobs.low_rate", open_jobs as f64, "count");
}

/// The traced passes: the pipeline of [`run_pages`] runs over the pool
/// on one thread, alternately with and without spans (and parser phase
/// profiling), until `budget_s` seconds are spent. Per-layer times are
/// medians over the traced passes; the tracing overhead compares the two
/// kinds of pass. Every pass's reports go through the output check and
/// its work counts through the exact-count gate; returns whether the
/// counts held.
pub fn traced_passes(
    run: &Run,
    prep: &Prepared,
    budget_s: f64,
    check: &mut Check,
    sheet: &mut Sheet,
) -> bool {
    let cfg = &prep.config;
    let mut steady = true;
    let pages: Vec<&str> = run.pages.iter().map(|p| p.html.as_str()).collect();
    let all: Vec<usize> = (0..pages.len()).collect();
    let epoch = Instant::now();
    let mut kept = Vec::new();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut per_pass: Vec<LayerTimes> = Vec::new();
    let mut calls: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut phases = Vec::new();
    while plain_s.len() < 2 || (epoch.elapsed().as_secs_f64() < budget_s && plain_s.len() < 200) {
        let started = Instant::now();
        let out = run_pages(cfg, &pages, &mut Tracer::new(false, epoch), 1);
        plain_s.push(started.elapsed().as_secs_f64());
        steady &= same_counts(prep, &out.counts, "an untraced pass");
        check.pages(&all, out.reports.into_iter());

        let mut tracer = Tracer::new(true, epoch);
        let started = Instant::now();
        let out = run_pages(cfg, &pages, &mut tracer, 1);
        traced_s.push(started.elapsed().as_secs_f64());
        steady &= same_counts(prep, &out.counts, "a traced pass");
        check.pages(&all, out.reports.into_iter());
        phases.push(out.phases);
        let times = LayerTimes::of(&tracer.spans);
        for name in ["html", "layout", "tokenize", "parse"] {
            match calls.iter_mut().find(|(n, _)| *n == name) {
                Some((_, v)) => v.extend(times.calls_us(name)),
                None => calls.push((name, times.calls_us(name))),
            }
        }
        per_pass.push(times);
        if kept.is_empty() {
            kept = tracer.spans;
        }
    }
    let med = |f: &dyn Fn(&LayerTimes) -> f64| median(&per_pass.iter().map(f).collect::<Vec<_>>());
    for name in [
        "html",
        "layout",
        "tokenize",
        "parse",
        "merge",
        "salvage_merge",
        "baseline",
    ] {
        sheet.put(&format!("{name}.busy_ms"), med(&|t| t.busy_ms(name)), "ms");
    }
    sheet.put(
        "extract.self_ms",
        med(&|t| t.self_ms("page") + t.self_ms("attempt") + t.self_ms("settle")),
        "ms",
    );
    for (name, v) in &calls {
        sheet.put(&format!("{name}.us_p99"), quantile(v, 0.99), "us");
    }
    let phase_ms = |f: &dyn Fn(&crate::trace::Phases) -> u64| {
        median(&phases.iter().map(|p| f(p) as f64 / 1e6).collect::<Vec<_>>())
    };
    sheet.put("parse.alloc_ms", phase_ms(&|p| p.alloc_ns), "ms");
    sheet.put(
        "parse.instantiate_ms",
        phase_ms(&|p| p.instantiate_ns),
        "ms",
    );
    sheet.put("parse.enforce_ms", phase_ms(&|p| p.enforce_ns), "ms");
    sheet.put("parse.maximize_ms", phase_ms(&|p| p.maximize_ns), "ms");
    sheet.put(
        "trace.overhead_share",
        median(&traced_s) / median(&plain_s) - 1.0,
        "ratio",
    );
    sheet.put("trace.passes", per_pass.len() as f64, "count");
    if let Some(first) = per_pass.first() {
        println!(
            "# self time per span, ms, first traced pass: {}",
            first.self_line()
        );
    }
    let path = run
        .out_dir
        .join(format!("spans-{}-{}.jsonl", run.workload, run.seed));
    match write_spans(&path, &kept) {
        Ok(()) => println!("# spans of the first traced pass: {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
    }
    steady
}
