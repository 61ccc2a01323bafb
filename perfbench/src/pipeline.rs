//! The collection pipeline, explicitly configured, and a step-by-step
//! traced copy of `CollectionConfig::collect_trace` for the per-layer run.

use crate::spans::{Recorder, Span};
use crate::stats::busy_wait;
use bf_attack::{LoopCountingAttacker, SweepCountingAttacker};
use bf_core::{AttackKind, CollectionConfig, ExperimentScale};
use bf_fault::FaultPlan;
use bf_ml::Dataset;
use bf_sim::Machine;
use bf_stats::rng::combine_seeds;
use bf_timer::BrowserKind;
use bf_victim::{Catalog, LoadEnv, WebsiteProfile};
use std::time::{Duration, Instant};

/// Closed-world sites of the default experiment shape.
pub const N_SITES: usize = 20;

/// Span names of the collection layers, in call order.
pub const SYNTH: &str = "victim.synth";
pub const SIM: &str = "sim.run";
pub const REPLAY: &str = "attack.replay";
pub const FEATURIZE: &str = "core.featurize";
pub const RECYCLE: &str = "sim.recycle";
pub const TRACE: &str = "core.collect_trace";

/// A Chrome collection at the default experiment shape (15 s traces,
/// 600-sample features, 16-filter CNN+LSTM), with every knob the
/// environment could otherwise supply set explicitly: no fault plan
/// unless `faults` says so.
pub fn config(attack: AttackKind, faults: FaultPlan) -> CollectionConfig {
    CollectionConfig::new(BrowserKind::Chrome, attack)
        .with_scale(ExperimentScale::Default)
        .with_faults(faults)
}

/// The closed-world sites `collect_closed_world` labels `0..n`.
pub fn sites(cfg: &CollectionConfig, n: usize) -> Vec<WebsiteProfile> {
    Catalog::closed_world_subset_with_tuning(n, cfg.tuning)
        .sites()
        .to_vec()
}

/// `(label, run seed)` of every trace `collect_closed_world(n_sites,
/// traces_per_site, seed)` collects, in dataset order.
pub fn jobs(n_sites: usize, traces_per_site: usize, seed: u64) -> Vec<(usize, u64)> {
    (0..n_sites)
        .flat_map(|label| {
            (0..traces_per_site)
                .map(move |run| (label, combine_seeds(seed, (label * 100_000 + run) as u64)))
        })
        .collect()
}

/// A busy-wait added around one layer call, in benchmark code only
/// (used by the sensitivity self-test).
#[derive(Debug, Clone, Copy)]
pub struct Inject {
    pub span: &'static str,
    pub spin: Duration,
}

/// One traced trace: its features, spans, and layer work counts.
#[derive(Debug)]
pub struct TraceRec {
    pub attack: AttackKind,
    pub features: Vec<f32>,
    pub spans: Vec<Span>,
    pub victim_events: usize,
    pub kernel_events: usize,
}

impl TraceRec {
    /// Duration of this trace's span named `name`.
    pub fn ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .sum()
    }
}

/// `collect_trace` followed by `featurize`, one public call at a time,
/// each inside a span. Supports the configuration [`config`] builds
/// (Chrome, no defense, no background apps, native timer); the output
/// checks compare its features with `collect_trace`'s bit for bit.
pub fn collect_traced(
    cfg: &CollectionConfig,
    site: &WebsiteProfile,
    run_seed: u64,
    rec: &mut Recorder,
    inject: Option<Inject>,
) -> TraceRec {
    let spin = |name: &str| {
        if let Some(i) = inject.filter(|i| i.span == name) {
            busy_wait(i.spin);
        }
    };
    let root = rec.open(TRACE);
    let workload = rec.span(SYNTH, || {
        spin(SYNTH);
        site.generate_in_env(cfg.browser.trace_duration(), run_seed, &LoadEnv::direct())
    });
    let sim = rec.span(SIM, || {
        spin(SIM);
        Machine::new(cfg.machine.clone()).run(&workload, combine_seeds(run_seed, 0x51))
    });
    let trace = rec.span(REPLAY, || {
        spin(REPLAY);
        let mut timer = cfg.browser.timer(combine_seeds(run_seed, 0x71));
        match cfg.attack {
            AttackKind::LoopCounting => LoopCountingAttacker::for_browser(cfg.browser, cfg.period)
                .collect(&sim, timer.as_mut()),
            AttackKind::SweepCounting => SweepCountingAttacker::new(cfg.period, cfg.machine.cache)
                .collect(&sim, timer.as_mut(), combine_seeds(run_seed, 0xCC)),
        }
    });
    let features = rec.span(FEATURIZE, || {
        spin(FEATURIZE);
        cfg.featurize(&trace)
    });
    let kernel_events = sim.kernel_log.len();
    rec.span(RECYCLE, || {
        spin(RECYCLE);
        bf_sim::workspace::recycle(sim)
    });
    rec.close(root);
    TraceRec {
        attack: cfg.attack,
        features,
        spans: std::mem::take(&mut rec.spans),
        victim_events: workload.len(),
        kernel_events,
    }
}

/// One traced pass over `jobs` on the `bf-par` pool.
#[derive(Debug)]
pub struct Pass {
    pub records: Vec<TraceRec>,
    pub wall: Duration,
    pub threads: usize,
}

impl Pass {
    /// Summed per-trace job time over threads × wall time.
    pub fn busy_frac(&self) -> f64 {
        let busy: f64 = self.records.iter().map(|r| r.ns(TRACE)).sum();
        busy / (self.threads as f64 * self.wall.as_nanos() as f64)
    }

    /// The features in dataset order, as `collect_closed_world` returns them.
    pub fn dataset(&self, jobs: &[(usize, u64)], n_classes: usize) -> Dataset {
        let mut d = Dataset::new(n_classes);
        for (rec, &(label, _)) in self.records.iter().zip(jobs) {
            d.push(rec.features.clone(), label);
        }
        d
    }
}

/// Collect every job step by step inside `bf_par::par_map_indexed`, so the
/// pool's busy time is measured too. Trace ids are the job indices.
pub fn traced_pass(
    cfg: &CollectionConfig,
    sites: &[WebsiteProfile],
    jobs: &[(usize, u64)],
    epoch: Instant,
    inject: Option<Inject>,
) -> Pass {
    let t0 = Instant::now();
    let records = bf_par::par_map_indexed(jobs, |i, &(label, run_seed)| {
        let mut rec = Recorder::new(epoch, i as u64);
        collect_traced(cfg, &sites[label], run_seed, &mut rec, inject)
    });
    Pass {
        records,
        wall: t0.elapsed(),
        threads: bf_par::threads(),
    }
}

/// Check that the step-by-step path reproduces `collect_trace` +
/// `featurize` bit for bit on the first `n` jobs.
pub fn matches_collect_trace(
    cfg: &CollectionConfig,
    sites: &[WebsiteProfile],
    jobs: &[(usize, u64)],
    n: usize,
) -> Result<(), String> {
    let epoch = Instant::now();
    for &(label, run_seed) in jobs.iter().take(n) {
        let mut rec = Recorder::new(epoch, 0);
        let traced = collect_traced(cfg, &sites[label], run_seed, &mut rec, None).features;
        let direct = cfg.featurize(&cfg.collect_trace(&sites[label], run_seed));
        let same = traced.len() == direct.len()
            && traced
                .iter()
                .zip(&direct)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(format!(
                "{} trace of site {label} (seed {run_seed:#x}) differs from collect_trace",
                cfg.attack
            ));
        }
    }
    Ok(())
}
