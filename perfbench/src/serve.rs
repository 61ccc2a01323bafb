//! `serve`: an open-loop request stream through `Service::run` with the
//! CNN primary, the anytime ladder, the distilled student, the centroid
//! fallback and the default fault plan.
//!
//! Arrivals are virtual-time Poisson sessions with Zipf site popularity
//! (`bf_bench::load`); latencies are virtual ticks counted from each
//! request's arrival tick, so the generator is never late by construction.

use crate::collect::write_spans;
use crate::report::Report;
use crate::spans::{Recorder, Span};
use crate::stats::{mean, median, quantile, rss_peak_mb, timed};
use crate::train::{
    nn_metrics, predict_ns, probs_digest, traced_corpus, Corpus, FIT_THREADS, PREDICT_BATCH,
};
use crate::{with_threads, Args, POOL_THREADS};
use bf_bench::{open_system_requests, LoadConfig};
use bf_fault::{BackoffPolicy, FaultPlan};
use bf_ml::{
    AnytimeLadder, Calibration, CentroidClassifier, Classifier, DistillConfig, DistilledClassifier,
    PREFIX_PERCENTS,
};
use bf_serve::{
    BreakerConfig, Outcome, Resolved, ServeConfig, ServeRequest, Service, Tier, TierConfig,
    TierModels,
};
use bf_stats::rng::combine_seeds;
use std::time::{Duration, Instant};

/// Requests in the stream.
pub const REQUESTS: usize = 480;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 2;

/// Requests of the warm-up run at the end of set-up.
const WARMUP_REQUESTS: usize = 16;

/// Leading requests of the stream that are also served at one thread:
/// their outcomes must equal those at the pool size.
const THREAD_CHECK_REQUESTS: usize = 96;

/// The arrival process: Poisson sessions of Zipf-chosen visits, about 0.06
/// requests per virtual tick. Two logical workers of batch 8 sustain about
/// 0.08; at 0.08 a 480-request stream already sheds, at 0.06 it queues
/// without shedding for most seeds.
pub fn load() -> LoadConfig {
    LoadConfig {
        session_gap_units: 100.0,
        mean_visits: 6.0,
        think_units: 100.0,
        zipf_exponent: 1.1,
    }
}

/// The service tuning, every field explicit.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        queue_cap: 32,
        deadline_units: 1_000,
        collect_attempt_units: 100,
        primary_units: 50,
        fallback_units: 5,
        slow_penalty_units: 10_000,
        backoff: BackoffPolicy {
            base_units: 25,
            max_units: 400,
            jitter: 0.5,
        },
        breaker: BreakerConfig {
            open_after: 5,
            cooldown_units: 2_000,
            close_after: 3,
        },
        slow_storm: None,
        wave_cap: Some(POOL_THREADS),
        tiers: TierConfig {
            ladder: true,
            confidence_threshold: 0.85,
            distilled_units: 15,
        },
        batch: 8,
        down_windows: Vec::new(),
    }
}

/// The serving-time fault plan: the documented default chaos plan,
/// seeded from the workload seed.
pub fn faults(seed: u64) -> FaultPlan {
    FaultPlan {
        seed: combine_seeds(seed, 0xFB),
        ..FaultPlan::default_plan()
    }
}

/// The fitted models a service is assembled from.
pub struct Models {
    pub primary: Box<dyn Classifier>,
    pub fallback: CentroidClassifier,
    pub tiers: TierModels,
}

/// Fit the primary, the centroid fallback, the ladder calibrations and
/// the distilled student, each inside a span. Fitting runs at the thread
/// count the `train` workload measures fits at.
pub fn fit_models(corpus: &Corpus, seed: u64, rec: &mut Recorder) -> Models {
    with_threads(FIT_THREADS, || fit_models_inner(corpus, seed, rec))
}

fn fit_models_inner(corpus: &Corpus, seed: u64, rec: &mut Recorder) -> Models {
    let (train, held) = (&corpus.train, &corpus.held);
    let mut primary = corpus.classifier(seed);
    rec.span("ml.fit", || primary.fit(train, held));
    let mut fallback = CentroidClassifier::new(corpus.data.n_classes());
    rec.span("ml.fit_centroid", || fallback.fit(train, held));
    let ladder = rec.span("ml.fit_ladder", || AnytimeLadder::fit(&mut *primary, held));
    let distill = DistillConfig {
        max_epochs: 12,
        seed: combine_seeds(seed, 0xD1),
        ..DistillConfig::default()
    };
    assert!(
        DistilledClassifier::feasible(held.feature_len(), held.n_classes(), distill.conv_filters),
        "the student fits the default feature length"
    );
    let mut student = DistilledClassifier::new(held.feature_len(), held.n_classes(), distill);
    rec.span("ml.distill", || student.distill(&mut *primary, train));
    let cal = rec.span("ml.calibrate", || {
        Calibration::fit(&student.predict_proba(held.features()), held.labels())
    });
    let tiers = TierModels {
        ladder,
        distilled: Some(Box::new(student)),
        distilled_calibration: cal,
    };
    Models {
        primary,
        fallback,
        tiers,
    }
}

/// The service over the corpus's sites, with the serving fault plan.
pub fn service(corpus: &Corpus, models: Models, seed: u64) -> Service {
    let sites = crate::pipeline::sites(&corpus.cfg, corpus.data.n_classes());
    let serving = corpus.cfg.clone().with_faults(faults(seed));
    Service::new(
        serving,
        sites,
        models.primary,
        models.fallback,
        serve_config(),
    )
    .with_tiers(models.tiers)
}

pub fn requests(seed: u64) -> Vec<ServeRequest> {
    open_system_requests(&load(), REQUESTS, crate::pipeline::N_SITES, seed)
}

/// Outcome tallies of one run of the stream (all exact).
#[derive(Debug, Clone, PartialEq)]
pub struct Tally {
    pub submitted: usize,
    pub answered: usize,
    pub correct: usize,
    pub failed: usize,
    pub latency: Vec<f64>,
    pub queue: Vec<f64>,
    pub work: Vec<f64>,
    pub tiers: [usize; 6],
}

const TIER_NAMES: [&str; 6] = [
    "serve.tier_frac.full",
    "serve.tier_frac.early_exit_25",
    "serve.tier_frac.early_exit_50",
    "serve.tier_frac.early_exit_75",
    "serve.tier_frac.distilled",
    "serve.tier_frac.centroid",
];

fn tier_slot(tier: Tier) -> usize {
    match tier {
        Tier::Full => 0,
        Tier::EarlyExit(25) => 1,
        Tier::EarlyExit(50) => 2,
        Tier::EarlyExit(75) => 3,
        Tier::EarlyExit(p) => panic!("no ladder rung at {p}%"),
        Tier::Distilled => 4,
        Tier::Centroid => 5,
    }
}

pub fn tally(resolved: &[Resolved]) -> Tally {
    let mut t = Tally {
        submitted: resolved.len(),
        answered: 0,
        correct: 0,
        failed: 0,
        latency: Vec::new(),
        queue: Vec::new(),
        work: Vec::new(),
        tiers: [0; 6],
    };
    for r in resolved {
        match &r.outcome {
            Outcome::Prediction { class, tier, .. } | Outcome::Degraded { class, tier, .. } => {
                t.answered += 1;
                t.correct += usize::from(*class == r.site);
                t.tiers[tier_slot(*tier)] += 1;
                t.latency.push(r.latency_units() as f64);
                t.queue.push(r.queue_units as f64);
                t.work.push(r.work_units as f64);
            }
            _ => t.failed += 1,
        }
    }
    t
}

/// Run the stream once from a fresh breaker and tallies, checking that
/// every request resolves exactly once.
fn run_stream(
    svc: &mut Service,
    reqs: &[ServeRequest],
) -> Result<(Vec<Resolved>, Duration), String> {
    svc.reset();
    let (resolved, wall) = timed(|| svc.run(reqs));
    let h = svc.health();
    if resolved.len() != reqs.len()
        || h.resolved() != h.submitted
        || h.submitted != reqs.len() as u64
    {
        return Err(format!(
            "exactly-once violated: {} requests, {} records, health resolved {} of {} submitted",
            reqs.len(),
            resolved.len(),
            h.resolved(),
            h.submitted
        ));
    }
    Ok((resolved, wall))
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    if args.trace {
        return traced(args, report);
    }
    let reqs = requests(args.seed);
    let mut setup_s = Vec::new();
    let mut digests = Vec::new();
    let mut stack = None;
    for _ in 0..SETUP_REPEATS {
        let (built, took) = timed(|| -> Result<_, String> {
            let corpus = Corpus::collect(args.seed);
            let mut rec = Recorder::new(Instant::now(), 0);
            let mut models = fit_models(&corpus, args.seed, &mut rec);
            let probe = probs_digest(&models.primary.predict_proba(corpus.held.features()));
            let mut svc = service(&corpus, models, args.seed);
            run_stream(&mut svc, &reqs[..WARMUP_REQUESTS])?;
            Ok((svc, (corpus.data.fingerprint(), probe)))
        });
        let (svc, digest) = built?;
        setup_s.push(took.as_secs_f64());
        digests.push(digest);
        stack = Some(svc);
    }
    report.check(
        "setup_repeat",
        digests.iter().all(|d| *d == digests[0]),
        format!("{SETUP_REPEATS} set-ups give bit-identical corpora and primary models"),
    );
    let mut svc = stack.expect("at least one set-up");

    let window = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<Vec<Resolved>> = None;
    let mut repeats_ok = true;
    let (mut submitted, mut failed) = (0u64, 0u64);
    let calls_before = counter("collect.traces");
    while walls.is_empty() || t0.elapsed() < window {
        let (resolved, wall) = run_stream(&mut svc, &reqs)?;
        walls.push(wall.as_secs_f64());
        let t = tally(&resolved);
        submitted += t.submitted as u64;
        failed += t.failed as u64;
        repeats_ok &= *first.get_or_insert(resolved.clone()) == resolved;
    }
    let first = first.expect("at least one run");
    let calls = counter("collect.traces") - calls_before;
    report.note(
        "serve.collect_calls_per_req",
        calls as f64 / submitted as f64,
    );
    report.check(
        "exactly_once",
        true,
        format!("{} runs: health().resolved() == submitted", walls.len()),
    );
    report.check(
        "outcomes_repeat",
        repeats_ok,
        format!("{} runs bit-identical", walls.len()),
    );
    let prefix = &reqs[..THREAD_CHECK_REQUESTS];
    let pool = run_stream(&mut svc, prefix)?.0;
    let one = with_threads(1, || run_stream(&mut svc, prefix))?.0;
    report.check(
        "outcomes_threads",
        one == pool,
        format!("first {THREAD_CHECK_REQUESTS} requests: 1-thread outcomes equal {POOL_THREADS}-thread outcomes"),
    );

    let t = tally(&first);
    let requests_per_s = REQUESTS as f64 / median(&walls);
    report.set("setup_s", median(&setup_s));
    report.set("rss_peak_mb", rss_peak_mb()?);
    report.set("item_ms", 1e3 / requests_per_s);
    report.count(submitted, failed);
    report.note(
        "serve.requests_per_s",
        format!("{requests_per_s:.3} 1/s (median of {} runs)", walls.len()),
    );
    virtual_notes(report, &t);
    Ok(())
}

/// The exact serve metrics, as readable notes.
fn virtual_notes(report: &mut Report, t: &Tally) {
    let n = t.submitted as f64;
    report.note(
        "serve.answered_frac",
        format!("{} (virtual)", t.answered as f64 / n),
    );
    report.note(
        "serve.accuracy",
        format!("{} (virtual, over submitted)", t.correct as f64 / n),
    );
    report.note(
        "serve.failed_frac",
        format!(
            "{} (timeouts, shed and failed over submitted)",
            t.failed as f64 / n
        ),
    );
    report.note(
        "serve.p50_units / p99_units",
        format!(
            "{} / {} vtick over {} answered (virtual, from arrival tick)",
            quantile(&t.latency, 0.5),
            quantile(&t.latency, 0.99),
            t.answered
        ),
    );
    report.note(
        "load generator",
        "virtual-time arrivals: never late by construction",
    );
}

fn counter(name: &str) -> u64 {
    bf_obs::counter(name).get()
}

/// Program counters read around each traced run of the stream.
const COUNTERS: [&str; 4] = [
    "collect.traces",
    "fault.retries",
    "fault.clamped",
    "fault.quarantined",
];

fn traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let epoch = Instant::now();
    let (corpus, pass) = traced_corpus(report, args.seed, epoch);
    let mut rec = Recorder::new(epoch, u64::MAX);
    nn_metrics(report, &corpus, args.seed, &mut rec);
    let mut models = fit_models(&corpus, args.seed, &mut rec);

    // Per-trace prediction cost of every tier, batches of 8.
    let rows = corpus.held.features();
    let mut predict = [0.0; 6];
    for (idx, _) in PREFIX_PERCENTS.iter().enumerate() {
        let primary = &mut *models.primary;
        let ladder = &models.tiers.ladder;
        predict[idx] = predict_ns(rows, |b| {
            let refs: Vec<&[f32]> = b.iter().map(Vec::as_slice).collect();
            std::hint::black_box(ladder.classify_at_batch(primary, &refs, idx));
        });
    }
    let student = models.tiers.distilled.as_mut().expect("student fitted");
    predict[4] = predict_ns(rows, |b| {
        std::hint::black_box(student.predict_proba_prefix(b));
    });
    predict[5] = predict_ns(rows, |b| {
        std::hint::black_box(models.fallback.predict_proba(b));
    });
    let names = [
        "rung25",
        "rung50",
        "rung75",
        "rung100",
        "distilled",
        "centroid",
    ];
    for (name, ns) in names.iter().zip(predict) {
        report.set(&format!("ml.predict_ns.{name}"), ns);
    }
    report.note(
        "ml.predict_ns batch",
        format!("{PREDICT_BATCH} traces per call"),
    );

    let mut svc = service(&corpus, models, args.seed);
    let reqs = requests(args.seed);
    let window = Duration::from_secs_f64(args.seconds);
    let mut walls = Vec::new();
    let mut first: Option<(Vec<Resolved>, [u64; 4], f64)> = None;
    let mut same = true;
    while walls.is_empty() || epoch.elapsed() < window {
        let before = COUNTERS.map(counter);
        let batches = bf_obs::histogram("serve.batch.size").snapshot();
        let (resolved, wall) = rec.span("serve.run", || run_stream(&mut svc, &reqs))?;
        let after = COUNTERS.map(counter);
        let delta = [0, 1, 2, 3].map(|i| after[i] - before[i]);
        let batch_mean = bf_obs::histogram("serve.batch.size")
            .snapshot()
            .delta_since(&batches)
            .mean();
        walls.push(wall.as_secs_f64());
        let this = (resolved, delta, batch_mean);
        same &= *first.get_or_insert(this.clone()) == this;
    }
    let (resolved, delta, batch_mean) = first.expect("at least one run");
    report.check(
        "exactly_once",
        true,
        format!("{} runs: health().resolved() == submitted", walls.len()),
    );
    report.check(
        "outcomes_repeat",
        same,
        format!("{} runs bit-identical, counters included", walls.len()),
    );

    // Attribution at one thread, where wall time is the work done, over
    // the leading requests of the stream.
    let prefix = &reqs[..THREAD_CHECK_REQUESTS];
    let pool = run_stream(&mut svc, prefix)?.0;
    let calls_before = counter("collect.traces");
    let (one, wall_1t) = with_threads(1, || run_stream(&mut svc, prefix))?;
    let calls = counter("collect.traces") - calls_before;
    report.check(
        "outcomes_threads",
        one == pool,
        format!("first {THREAD_CHECK_REQUESTS} requests: 1-thread outcomes equal {POOL_THREADS}-thread outcomes"),
    );
    let one = tally(&one);
    let t = tally(&resolved);
    let collect_ns = mean(
        &pass
            .records
            .iter()
            .map(|r| r.ns(crate::pipeline::TRACE))
            .collect::<Vec<_>>(),
    );
    // A request answered at a ladder rung paid every rung below it.
    let predict_paid: f64 = (0..6)
        .map(|slot| {
            let per_trace = match slot {
                0 => predict[..4].iter().sum(),
                1..=3 => predict[..slot].iter().sum(),
                s => predict[s],
            };
            one.tiers[slot] as f64 * per_trace
        })
        .sum();
    let attributed = calls as f64 * collect_ns + predict_paid;
    let unattributed = 1.0 - attributed / wall_1t.as_nanos() as f64;

    let n = t.submitted as f64;
    report.set("serve.queue_units.p50", quantile(&t.queue, 0.5));
    report.set("serve.queue_units.p99", quantile(&t.queue, 0.99));
    report.set("serve.work_units.mean", mean(&t.work));
    report.set("serve.batch_size.mean", batch_mean);
    for (name, count) in TIER_NAMES.iter().zip(t.tiers) {
        report.set(name, count as f64 / t.answered as f64);
    }
    report.set("serve.answered_frac", t.answered as f64 / n);
    report.set("serve.accuracy", t.correct as f64 / n);
    report.set("serve.p50_units", quantile(&t.latency, 0.5));
    report.set("serve.p99_units", quantile(&t.latency, 0.99));
    report.set("serve.collect_calls_per_req", delta[0] as f64 / n);
    report.set("fault.retries", delta[1] as f64);
    report.set("fault.clamped", delta[2] as f64);
    report.set("fault.quarantined", delta[3] as f64);
    report.set("serve.host_ns_per_req", median(&walls) * 1e9 / n);
    report.set("serve.unattributed_frac", unattributed);
    report.note(
        "serve.unattributed_frac base",
        format!(
            "1-thread run of {THREAD_CHECK_REQUESTS} requests {:.3} s; attributed {calls} collections x {:.0} ns (mean traced loop \
             trace) + ladder/tier predictions",
            wall_1t.as_secs_f64(),
            collect_ns
        ),
    );
    report.note(
        "latency samples",
        format!("{} answered of {} submitted", t.answered, t.submitted),
    );
    virtual_notes(report, &t);
    let runs = walls.len() as u64;
    report.count(n as u64 * runs, t.failed as u64 * runs);
    let spans: Vec<&Span> = pass
        .records
        .iter()
        .flat_map(|r| &r.spans)
        .chain(&rec.spans)
        .collect();
    write_spans(args, spans)
}
