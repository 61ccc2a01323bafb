//! The repository benchmark: three workloads over the pipeline's public
//! APIs, each run in one process.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload collect|train|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! * `collect` — a Table-1 cell: `collect_closed_world` over the same
//!   sites and seeds with the loop-counting and the sweep-counting
//!   attacker. Victim synthesis, the machine simulation and attack replay;
//!   no model code.
//! * `train` — `Classifier::fit` of the default-scale CNN+LSTM on a
//!   loop-counting corpus collected during set-up, then `predict_proba` on
//!   the held-out fold. Model code only; no simulation.
//! * `serve` — an open-loop Poisson/Zipf request stream through
//!   `Service::run` with the anytime ladder, the distilled student, the
//!   centroid fallback and the default fault plan.
//!
//! The end-to-end metrics are shared by every workload: `setup_s` (median
//! of the set-ups one run makes), `rss_peak_mb`, and `item_ms`, the median
//! host time of one item of the workload's repeated job: one collected
//! trace (`collect`), one training trace through one epoch of a fit
//! (`train`, so that early stopping does not make it depend on the seed),
//! or one request of the stream (`serve`).
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! benchmark spans on the measured path. With `--trace 1` it is a separate
//! run that calls each layer's public function itself, wraps every call in
//! a benchmark-side span kept in memory (written to `perfbench/out/` at
//! the end) and reports the per-layer metrics.
//!
//! What each layer metric should move (predictions, not measurements):
//! `victim.*`, `sim.*` and `core.*` move `item_ms` on `collect` and
//! `serve` and nothing on `train`; `sim.run_ns` is the largest host share
//! on `serve`. `attack.sweep_ns` moves `item_ms` on `collect` only.
//! `par.busy_frac.collect` moves `item_ms` on `collect`; `par.fit_speedup`,
//! `nn.train_step_ns` and (through validation) `nn.forward_ns` move
//! `item_ms` on `train` and `setup_s` on `serve`. `ml.predict_ns.*` move
//! `item_ms` on `serve` a little. The exact `serve.*` and `fault.*`
//! metrics move the serve answers and latencies; `serve.host_ns_per_req`
//! and `serve.unattributed_frac` move `item_ms` on `serve`.
//!
//! Every metric is declared once, in `BENCHMARK.json` (compiled in). A
//! metric's clock follows from its unit: `s`, `ms`, `ns`, `1/s`, `MB` and
//! `ratio` are host measurements; `frac`, `count`, `vtick` and `1/req` are
//! exact — virtual ticks of the serve scheduler or counts — and must read
//! the same in every run and at 1 and 2 threads.
//!
//! The last line on stdout is the JSON result; the readable report and
//! the check log go to stderr. The exit code is 1 when an output check
//! failed and 2 on a usage error.

mod collect;
mod pipeline;
mod report;
#[cfg(test)]
mod sensitivity;
mod serve;
mod spans;
mod stats;
mod train;

use report::Report;
use std::process::ExitCode;

/// Worker threads every workload pins the `bf-par` pool to.
pub const POOL_THREADS: usize = 2;

/// Run `f` with the pool at `n` threads, then pin it back.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    bf_par::set_threads(Some(n));
    let r = f();
    bf_par::set_threads(Some(POOL_THREADS));
    r
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The pipeline reads `BF_*` knobs from the environment in several places
/// (fault plan, scale, serve tuning, pool size, logging, tracing). Every
/// workload sets these explicitly, so a knob in the environment could only
/// change a workload behind the benchmark's back: refuse to run instead.
fn refuse_bf_knobs() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, v)| {
            let k = k.to_string_lossy().into_owned();
            k.starts_with("BF_")
                .then(|| format!("{k}={}", v.to_string_lossy()))
        })
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with BF_* knobs set ({}); the benchmark configures every \
             workload explicitly, unset them",
            set.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match refuse_bf_knobs().and_then(|()| parse_args(&argv)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Explicit process-wide settings: program events at error level only
    // (info-level progress lines would cost host time on the measured
    // path), the program's own trace recorder off, and the pool pinned.
    bf_obs::set_level(Some(bf_obs::Level::Error));
    bf_obs::trace::set_enabled(false);
    bf_par::set_threads(Some(POOL_THREADS));

    let mut report = Report::new(&args);
    let outcome = match args.workload.as_str() {
        "collect" => collect::run(&args, &mut report),
        "train" => train::run(&args, &mut report),
        "serve" => serve::run(&args, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (collect, train or serve)");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = outcome {
        report.fail(&e);
    }
    report.finish()
}
