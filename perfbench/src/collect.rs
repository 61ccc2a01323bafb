//! `collect`: a Table-1 cell, collected with the loop-counting and the
//! sweep-counting attacker over the same sites and seeds.

use crate::pipeline::{self, Pass, N_SITES};
use crate::report::Report;
use crate::spans::{Recorder, Span};
use crate::stats::{median, quantile, rss_peak_mb, timed};
use crate::{with_threads, Args, POOL_THREADS};
use bf_core::{AttackKind, CollectionConfig};
use bf_fault::FaultPlan;
use bf_ml::Dataset;
use bf_victim::WebsiteProfile;
use std::time::{Duration, Instant};

/// Traces per site in one cell; the cell is `N_SITES` traces per attacker.
pub const TRACES_PER_SITE: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Per-trace self times must account for the untraced time within this.
const ACCOUNTING_TOLERANCE: f64 = 0.05;

/// Traces compared one by one against `collect_trace` per attacker.
const STEP_CHECK_TRACES: usize = 3;

/// The two collections of one Table-1 cell.
pub struct Cell {
    pub configs: [CollectionConfig; 2],
    pub sites: Vec<WebsiteProfile>,
    pub jobs: Vec<(usize, u64)>,
    pub seed: u64,
}

impl Cell {
    pub fn new(seed: u64) -> Self {
        let configs = [AttackKind::LoopCounting, AttackKind::SweepCounting]
            .map(|a| pipeline::config(a, FaultPlan::off()));
        let sites = pipeline::sites(&configs[0], N_SITES);
        Cell {
            configs,
            sites,
            jobs: pipeline::jobs(N_SITES, TRACES_PER_SITE, seed),
            seed,
        }
    }

    pub fn traces(&self) -> usize {
        self.configs.len() * self.jobs.len()
    }

    /// The cell through the program's own entry point.
    pub fn collect(&self) -> [Dataset; 2] {
        [0, 1].map(|i| self.configs[i].collect_closed_world(N_SITES, TRACES_PER_SITE, self.seed))
    }

    /// The cell step by step, with spans.
    pub fn traced(&self, epoch: Instant) -> [Pass; 2] {
        [0, 1]
            .map(|i| pipeline::traced_pass(&self.configs[i], &self.sites, &self.jobs, epoch, None))
    }
}

fn bits(features: &[f32]) -> Vec<u32> {
    features.iter().map(|v| v.to_bits()).collect()
}

fn digests(d: &[Dataset; 2]) -> [u64; 2] {
    [d[0].fingerprint(), d[1].fingerprint()]
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    // Set-up: configs, catalog, and one warm-up cell that fills every
    // worker's simulation workspace; its digests are the reference.
    let mut setup_s = Vec::new();
    let mut setups = Vec::new();
    let mut cell = None;
    for _ in 0..SETUP_REPEATS {
        let ((c, d), took) = timed(|| {
            let c = Cell::new(args.seed);
            let d = digests(&c.collect());
            (c, d)
        });
        setup_s.push(took.as_secs_f64());
        setups.push(d);
        cell = Some(c);
    }
    let cell = cell.expect("at least one set-up");
    let reference = setups[0];
    report.check(
        "setup_repeat",
        setups.iter().all(|d| *d == reference),
        format!("{SETUP_REPEATS} set-up cells bit-identical"),
    );

    for cfg in &cell.configs {
        let r = pipeline::matches_collect_trace(cfg, &cell.sites, &cell.jobs, STEP_CHECK_TRACES);
        report.check(
            &format!("step_by_step_{}", cfg.attack.label().to_lowercase()),
            r.is_ok(),
            r.err().unwrap_or_else(|| {
                format!("{STEP_CHECK_TRACES} traces equal collect_trace bit for bit")
            }),
        );
    }

    if args.trace {
        traced(args, report, &cell, reference)
    } else {
        end_to_end(args, report, &cell, reference, &setup_s)
    }
}

fn end_to_end(
    args: &Args,
    report: &mut Report,
    cell: &Cell,
    reference: [u64; 2],
    setup_s: &[f64],
) -> Result<(), String> {
    let window = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let mut item_ms = Vec::new();
    let (mut kept, mut attempted, mut repeats_ok) = (0u64, 0u64, true);
    while item_ms.is_empty() || t0.elapsed() < window {
        let (d, wall) = timed(|| cell.collect());
        item_ms.push(wall.as_secs_f64() * 1e3 / cell.traces() as f64);
        kept += (d[0].len() + d[1].len()) as u64;
        attempted += cell.traces() as u64;
        repeats_ok &= digests(&d) == reference;
    }
    report.check(
        "digests_repeat",
        repeats_ok,
        format!("{} cells bit-identical to the set-up cell", item_ms.len()),
    );
    let one = with_threads(1, || digests(&cell.collect()));
    report.check(
        "digests_threads",
        one == reference,
        "1-thread cell equals the 2-thread cell",
    );

    let ms = median(&item_ms);
    report.set("setup_s", median(setup_s));
    report.set("rss_peak_mb", rss_peak_mb()?);
    report.set("item_ms", ms);
    report.count(attempted, attempted - kept);
    report.note(
        "collect.traces_per_s",
        format!("{:.3} 1/s (1000 / item_ms)", 1e3 / ms),
    );
    report.note(
        "collect.failed_frac",
        format!(
            "{} (quarantined traces)",
            (attempted - kept) as f64 / attempted as f64
        ),
    );
    report.note(
        "cells measured",
        format!("{} x {} traces", item_ms.len(), cell.traces()),
    );
    Ok(())
}

fn traced(
    args: &Args,
    report: &mut Report,
    cell: &Cell,
    reference: [u64; 2],
) -> Result<(), String> {
    let window = Duration::from_secs_f64(args.seconds);
    let epoch = Instant::now();
    // Nanoseconds summed over the accounting traces: untraced, the traced
    // trace spans, and the traced layer spans inside them.
    let (mut untraced, mut traced, mut layers) = (0.0, 0.0, 0.0);
    let mut passes: Vec<Pass> = Vec::new();
    let mut rounds = 0;
    let mut same = true;
    while rounds == 0 || epoch.elapsed() < window {
        // Accounting on this one thread: every trace of the cell through
        // `collect_trace` + `featurize` and step by step, back to back and
        // alternating which goes first, so a drift in the host's speed
        // hits both sides alike.
        for cfg in &cell.configs {
            for (i, &(label, run_seed)) in cell.jobs.iter().enumerate() {
                let site = &cell.sites[label];
                let direct = || timed(|| cfg.featurize(&cfg.collect_trace(site, run_seed)));
                let step = || {
                    let mut rec = Recorder::new(epoch, i as u64);
                    pipeline::collect_traced(cfg, site, run_seed, &mut rec, None)
                };
                let ((features, took), rec) = if i % 2 == 0 {
                    let d = direct();
                    (d, step())
                } else {
                    let r = step();
                    (direct(), r)
                };
                same &= bits(&features) == bits(&rec.features);
                untraced += took.as_nanos() as f64;
                traced += rec.ns(pipeline::TRACE);
                layers += rec
                    .spans
                    .iter()
                    .filter(|s| s.parent.is_some())
                    .map(|s| s.dur_ns() as f64)
                    .sum::<f64>();
            }
        }
        // Layer metrics and pool busy time at the workload's pool size.
        let p = cell.traced(epoch);
        same &= [0, 1].map(|i| p[i].dataset(&cell.jobs, N_SITES).fingerprint()) == reference;
        passes.extend(p);
        rounds += 1;
    }
    report.check(
        "step_by_step_cell",
        same,
        format!(
            "{rounds} rounds: every trace equals collect_trace bit for bit, and the traced \
             cells at {POOL_THREADS} threads equal collect_closed_world"
        ),
    );
    let unattributed = 1.0 - layers / untraced;
    report.check(
        "accounting",
        unattributed.abs() <= ACCOUNTING_TOLERANCE,
        format!(
            "layer self times {:.3} s vs untraced 1-thread {:.3} s (unattributed \
             {unattributed:+.4}, tolerance {ACCOUNTING_TOLERANCE})",
            layers * 1e-9,
            untraced * 1e-9
        ),
    );

    let records: Vec<&pipeline::TraceRec> = passes.iter().flat_map(|p| &p.records).collect();
    layer_metrics(report, &records);
    let busy: Vec<f64> = passes.iter().map(Pass::busy_frac).collect();
    report.set("par.busy_frac.collect", median(&busy));
    report.set("collect.unattributed_frac", unattributed);
    report.set("obs.trace_overhead_frac", traced / untraced - 1.0);
    report.note(
        "obs.trace_overhead_frac base",
        format!(
            "untraced collect_trace + featurize, {:.3} s over {rounds} rounds of the cell",
            untraced * 1e-9
        ),
    );
    report.count((records.len()) as u64, 0);
    write_spans(
        args,
        passes
            .iter()
            .flat_map(|p| &p.records)
            .flat_map(|r| &r.spans),
    )
}

/// The collection-layer metrics over traced traces.
pub fn layer_metrics(report: &mut Report, records: &[&pipeline::TraceRec]) {
    use pipeline::{FEATURIZE, RECYCLE, REPLAY, SIM, SYNTH, TRACE};
    let per = |name: &str| -> Vec<f64> { records.iter().map(|r| r.ns(name)).collect() };
    let replay = |attack: AttackKind| -> Vec<f64> {
        records
            .iter()
            .filter(|r| r.attack == attack)
            .map(|r| r.ns(REPLAY))
            .collect()
    };
    let sim_ns: f64 = per(SIM).iter().sum();
    let kernel_events: usize = records.iter().map(|r| r.kernel_events).sum();
    let victim_events: usize = records.iter().map(|r| r.victim_events).sum();
    let n = records.len() as f64;
    let totals = per(TRACE);
    report.set("victim.synth_ns", median(&per(SYNTH)));
    report.set("victim.events", victim_events as f64 / n);
    report.set("sim.run_ns", median(&per(SIM)));
    report.set("sim.kernel_events", kernel_events as f64 / n);
    report.set("sim.ns_per_event", sim_ns / kernel_events as f64);
    report.set("sim.recycle_ns", median(&per(RECYCLE)));
    let loop_ns = replay(AttackKind::LoopCounting);
    report.set("attack.loop_ns", median(&loop_ns));
    let sweep_ns = replay(AttackKind::SweepCounting);
    if !sweep_ns.is_empty() {
        report.set("attack.sweep_ns", median(&sweep_ns));
    }
    report.set("core.featurize_ns", median(&per(FEATURIZE)));
    report.set("core.collect_trace_ns.p50", quantile(&totals, 0.50));
    report.set("core.collect_trace_ns.p99", quantile(&totals, 0.99));
    report.note(
        "traced traces",
        format!(
            "{} (loop {}, sweep {})",
            records.len(),
            loop_ns.len(),
            sweep_ns.len()
        ),
    );
}

/// Write the run's spans to `perfbench/out/`.
pub fn write_spans<'a>(
    args: &Args,
    spans: impl IntoIterator<Item = &'a Span>,
) -> Result<(), String> {
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/spans-{}-seed{}.jsonl",
        args.workload, args.seed
    ));
    crate::spans::write_jsonl(&path, spans)?;
    eprintln!("spans -> {}", path.display());
    Ok(())
}
