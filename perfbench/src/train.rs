//! `train`: fit the default-scale CNN+LSTM on a loop-counting corpus
//! collected during set-up, then predict the held-out fold.

use crate::collect::{layer_metrics, write_spans};
use crate::pipeline::{self, N_SITES};
use crate::report::Report;
use crate::spans::{Recorder, Span};
use crate::stats::{median, rss_peak_mb, timed};
use crate::{with_threads, Args, POOL_THREADS};
use bf_core::{AttackKind, CollectionConfig};
use bf_fault::FaultPlan;
use bf_ml::{Classifier, Dataset};
use bf_nn::{CnnLstm, CnnLstmConfig, Tensor};
use std::time::{Duration, Instant};

/// Traces per site in the corpus (20 sites: 180 to fit, 60 held out).
pub const TRACES_PER_SITE: usize = 12;

/// The held-out fold is one of this many stratified folds.
const FOLDS: usize = 5;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Threads fits run on. At the default shape a fit at two threads takes
/// about three times as long as at one on a 2-core host (`par.fit_speedup`
/// in the traced run), so fits run at one thread; the thread check fits
/// again at the pool size.
pub const FIT_THREADS: usize = 1;

/// Timed `train_batch` / `forward` calls per layer metric.
const STEP_SAMPLES: usize = 15;

/// Rows per `predict_proba` call in the per-trace prediction timings.
pub const PREDICT_BATCH: usize = 8;

/// A loop-counting corpus with a stratified held-out fold.
pub struct Corpus {
    pub cfg: CollectionConfig,
    pub data: Dataset,
    pub train: Dataset,
    pub held: Dataset,
}

impl Corpus {
    pub fn new(cfg: CollectionConfig, data: Dataset, seed: u64) -> Self {
        let folds = data.stratified_folds(FOLDS, seed);
        let train_idx: Vec<usize> = folds[1..].iter().flatten().copied().collect();
        let train = data.subset(&train_idx);
        let held = data.subset(&folds[0]);
        Corpus {
            cfg,
            data,
            train,
            held,
        }
    }

    pub fn config() -> CollectionConfig {
        pipeline::config(AttackKind::LoopCounting, FaultPlan::off())
    }

    pub fn collect(seed: u64) -> Self {
        let cfg = Self::config();
        let data = cfg.collect_closed_world(N_SITES, TRACES_PER_SITE, seed);
        Self::new(cfg, data, seed)
    }

    /// The model `classifier_for` builds for this corpus.
    pub fn classifier(&self, seed: u64) -> Box<dyn Classifier> {
        self.cfg.classifier_for(&self.data, seed)
    }

    /// The architecture `classifier_for` uses at the default scale (kept
    /// in step with it by hand; the per-layer timings build it directly).
    pub fn arch(&self) -> CnnLstmConfig {
        CnnLstmConfig {
            learning_rate: 0.01,
            dropout: 0.5,
            ..CnnLstmConfig::scaled(
                self.data.feature_len(),
                self.data.n_classes(),
                self.cfg.scale.conv_filters(),
            )
        }
    }
}

/// Bit digest of a probability matrix.
pub fn probs_digest(probs: &[Vec<f32>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in probs.iter().flatten() {
        h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Top-1 accuracy of `probs` against `labels`.
pub fn accuracy(probs: &[Vec<f32>], labels: &[usize]) -> f64 {
    let preds: Vec<usize> = probs.iter().map(|p| bf_ml::argmax(p)).collect();
    bf_ml::accuracy(&preds, labels)
}

/// One fit + held-out prediction.
struct Fit {
    fit: Duration,
    epochs: u64,
    accuracy: f64,
    digest: u64,
}

impl Fit {
    /// Fit time per trace per epoch, in ms. Early stopping makes the
    /// epoch count depend on the seed; the time per trace-epoch does not.
    fn item_ms(&self, train_len: usize) -> f64 {
        self.fit.as_secs_f64() * 1e3 / (train_len as u64 * self.epochs) as f64
    }
}

fn fit_once(corpus: &Corpus, seed: u64, rec: &mut Recorder) -> Fit {
    let mut model = corpus.classifier(seed);
    let epochs = bf_obs::counter("nn.epochs");
    let before = epochs.get();
    let (_, fit) = timed(|| rec.span("ml.fit", || model.fit(&corpus.train, &corpus.held)));
    let epochs = epochs.get() - before;
    let probs = rec.span("ml.predict_proba", || {
        model.predict_proba(corpus.held.features())
    });
    Fit {
        fit,
        epochs,
        accuracy: accuracy(&probs, corpus.held.labels()),
        digest: probs_digest(&probs),
    }
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    if args.trace {
        return traced(args, report);
    }
    let mut setup_s = Vec::new();
    let mut digests = Vec::new();
    let mut corpus = None;
    for _ in 0..SETUP_REPEATS {
        let (c, took) = timed(|| Corpus::collect(args.seed));
        setup_s.push(took.as_secs_f64());
        digests.push(c.data.fingerprint());
        corpus = Some(c);
    }
    let corpus = corpus.expect("at least one set-up");
    report.check(
        "corpus_repeat",
        digests.iter().all(|d| *d == digests[0]),
        format!("{SETUP_REPEATS} set-up corpora bit-identical"),
    );

    let window = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let mut rec = Recorder::new(t0, 0);
    let mut fits: Vec<Fit> = Vec::new();
    while fits.is_empty() || t0.elapsed() < window {
        fits.push(with_threads(FIT_THREADS, || {
            fit_once(&corpus, args.seed, &mut rec)
        }));
    }
    let first = (fits[0].accuracy, fits[0].digest, fits[0].epochs);
    report.check(
        "fit_repeat",
        fits.iter()
            .all(|f| (f.accuracy, f.digest, f.epochs) == first),
        format!(
            "{} fits give bit-identical held-out probabilities",
            fits.len()
        ),
    );
    let again = with_threads(POOL_THREADS, || fit_once(&corpus, args.seed, &mut rec));
    report.check(
        "fit_threads",
        (again.accuracy, again.digest, again.epochs) == first,
        format!("fit at {POOL_THREADS} threads equals the fit at {FIT_THREADS}"),
    );

    let fit_s = median(&fits.iter().map(|f| f.fit.as_secs_f64()).collect::<Vec<_>>());
    let item_ms: Vec<f64> = fits.iter().map(|f| f.item_ms(corpus.train.len())).collect();
    report.set("setup_s", median(&setup_s));
    report.set("rss_peak_mb", rss_peak_mb()?);
    report.set("item_ms", median(&item_ms));
    report.count(fits.len() as u64, 0);
    report.note(
        "train.fit_s",
        format!(
            "{fit_s:.4} s (median of {} fits at {FIT_THREADS} thread(s), {} epochs each)",
            fits.len(),
            first.2
        ),
    );
    report.note(
        "train.accuracy",
        format!(
            "{:.4} over {} held-out traces (exact)",
            first.0,
            corpus.held.len()
        ),
    );
    report.note("train.failed_frac", 0.0);
    Ok(())
}

/// Median ns of `f` over [`STEP_SAMPLES`] calls after two warm-up calls.
fn time_calls(rec: &mut Recorder, name: &'static str, mut f: impl FnMut()) -> f64 {
    f();
    f();
    let samples: Vec<f64> = (0..STEP_SAMPLES)
        .map(|_| timed(|| rec.span(name, &mut f)).1.as_nanos() as f64)
        .collect();
    median(&samples)
}

/// `nn.train_step_ns` and `nn.forward_ns`: one `train_batch` and one
/// inference `forward` of a batch at the architecture and batch size of
/// `classifier_for`, at the thread count fits run at.
pub fn nn_metrics(report: &mut Report, corpus: &Corpus, seed: u64, rec: &mut Recorder) {
    with_threads(FIT_THREADS, || nn_metrics_inner(report, corpus, seed, rec));
}

fn nn_metrics_inner(report: &mut Report, corpus: &Corpus, seed: u64, rec: &mut Recorder) {
    const BATCH: usize = 32;
    let arch = corpus.arch();
    let mut net = CnnLstm::new(arch, seed);
    let rows = &corpus.train.features()[..BATCH];
    let labels = &corpus.train.labels()[..BATCH];
    let x = Tensor::new(&[BATCH, 1, arch.input_len], rows.concat());
    let step = time_calls(rec, "nn.train_batch", || {
        std::hint::black_box(net.train_batch(&x, labels));
    });
    let fwd = time_calls(rec, "nn.forward", || {
        let y = net.forward(std::hint::black_box(&x), false);
        bf_nn::workspace::recycle(y);
    });
    report.set("nn.train_step_ns", step);
    report.set("nn.forward_ns", fwd);
    report.note(
        "nn batch",
        format!(
            "{BATCH} traces x {} samples, {FIT_THREADS} thread(s)",
            arch.input_len
        ),
    );
}

/// Per-trace ns of `predict` over `rows` in batches of [`PREDICT_BATCH`].
pub fn predict_ns(rows: &[Vec<f32>], mut predict: impl FnMut(&[Vec<f32>])) -> f64 {
    predict(&rows[..PREDICT_BATCH]);
    let mut per_trace = Vec::new();
    for chunk in rows.chunks_exact(PREDICT_BATCH) {
        let (_, took) = timed(|| predict(chunk));
        per_trace.push(took.as_nanos() as f64 / PREDICT_BATCH as f64);
    }
    median(&per_trace)
}

/// Collect the corpus twice, through `collect_closed_world` and step by
/// step with spans; the traced copy must equal the other bit for bit.
pub fn traced_corpus(report: &mut Report, seed: u64, epoch: Instant) -> (Corpus, pipeline::Pass) {
    let cfg = Corpus::config();
    let data = cfg.collect_closed_world(N_SITES, TRACES_PER_SITE, seed);
    let sites = pipeline::sites(&cfg, N_SITES);
    let jobs = pipeline::jobs(N_SITES, TRACES_PER_SITE, seed);
    let pass = pipeline::traced_pass(&cfg, &sites, &jobs, epoch, None);
    report.check(
        "step_by_step_corpus",
        pass.dataset(&jobs, N_SITES).fingerprint() == data.fingerprint(),
        format!("{} traced traces equal collect_closed_world", jobs.len()),
    );
    let r = pipeline::matches_collect_trace(&cfg, &sites, &jobs, 3);
    report.check(
        "step_by_step_loop",
        r.is_ok(),
        r.err()
            .unwrap_or_else(|| "3 traces equal collect_trace bit for bit".into()),
    );
    let records: Vec<&pipeline::TraceRec> = pass.records.iter().collect();
    layer_metrics(report, &records);
    report.set("par.busy_frac.collect", pass.busy_frac());
    (Corpus::new(cfg, data, seed), pass)
}

fn traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let epoch = Instant::now();
    let (corpus, pass) = traced_corpus(report, args.seed, epoch);
    let mut rec = Recorder::new(epoch, u64::MAX);
    nn_metrics(report, &corpus, args.seed, &mut rec);

    // Fit speed-up: fits at 1 thread over fits at the pool size, both
    // measured here, alternating until the window is used.
    let window = Duration::from_secs_f64(args.seconds);
    let (mut one, mut pool) = (Vec::new(), Vec::new());
    let mut digests = Vec::new();
    while one.is_empty() || epoch.elapsed() < window {
        for (threads, out) in [(1, &mut one), (POOL_THREADS, &mut pool)] {
            let f = with_threads(threads, || fit_once(&corpus, args.seed, &mut rec));
            out.push(f.fit.as_secs_f64());
            digests.push((f.accuracy, f.digest));
        }
    }
    report.check(
        "fit_threads",
        digests.iter().all(|d| *d == digests[0]),
        format!(
            "{} fits at 1 and {POOL_THREADS} threads bit-identical",
            digests.len()
        ),
    );
    report.set("par.fit_speedup", median(&one) / median(&pool));
    report.set("train.accuracy", digests[0].0);
    report.note(
        "par.fit_speedup base",
        format!(
            "median 1-thread fit {:.4} s over median {POOL_THREADS}-thread fit {:.4} s",
            median(&one),
            median(&pool)
        ),
    );

    report.count(pass.records.len() as u64 + digests.len() as u64, 0);
    let spans: Vec<&Span> = pass
        .records
        .iter()
        .flat_map(|r| &r.spans)
        .chain(&rec.spans)
        .collect();
    write_spans(args, spans)
}
