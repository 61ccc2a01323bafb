//! Self-tests of the benchmark itself: a slowed layer must show, and the
//! declaration file must stay within the benchmark contract.

use crate::pipeline::{self, Inject, Pass, REPLAY, SIM, TRACE};
use crate::report::{bound, declarations};
use crate::stats::{mean, median};
use bf_core::AttackKind;
use bf_fault::FaultPlan;
use std::time::{Duration, Instant};

/// Relative change of `item_ms`, `sim.run_ns` and `attack.loop_ns` when a
/// busy-wait of `share` of a trace's collection time is added around
/// `Machine::run` in the benchmark's step-by-step collector (medians over
/// alternating plain and slowed passes of the same traces).
fn slow_sim_by(share: f64) -> [f64; 3] {
    bf_obs::set_level(Some(bf_obs::Level::Error));
    // One thread: the pass time is then the sum of the trace times, with
    // no load-balancing jitter between the workers.
    bf_par::set_threads(Some(1));
    let cfg = pipeline::config(AttackKind::LoopCounting, FaultPlan::off());
    let sites = pipeline::sites(&cfg, pipeline::N_SITES);
    let jobs = pipeline::jobs(pipeline::N_SITES, 1, 42);
    let epoch = Instant::now();
    let pass = |inject| pipeline::traced_pass(&cfg, &sites, &jobs, epoch, inject);
    let per_trace =
        |p: &Pass, name: &str| median(&p.records.iter().map(|r| r.ns(name)).collect::<Vec<_>>());

    let warm = pass(None);
    let traces: Vec<f64> = warm.records.iter().map(|r| r.ns(TRACE)).collect();
    let spin = Duration::from_nanos((mean(&traces) * share) as u64);
    let inject = Inject { span: SIM, spin };
    let (mut base, mut slow) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        base.push(pass(None));
        slow.push(pass(Some(inject)));
    }
    let metrics = |p: &Pass| {
        [
            p.wall.as_secs_f64() / p.records.len() as f64,
            per_trace(p, SIM),
            per_trace(p, REPLAY),
        ]
    };
    // Median over the pairs of each pair's relative change, so drift in
    // the host's speed between pairs cancels.
    [0, 1, 2].map(|i| {
        let ratios: Vec<f64> = base
            .iter()
            .zip(&slow)
            .map(|(b, s)| metrics(s)[i] / metrics(b)[i] - 1.0)
            .collect();
        median(&ratios)
    })
}

/// A busy-wait of 10 % of a trace's collection time around one layer call
/// shows up in that layer's metric, less diluted in the end-to-end
/// `item_ms`, and not in the next layer. On a noisy shared host the `item_ms`
/// bound is wider than 10 %, so a busy-wait just past the bound must fall
/// outside it in both metrics. (One test: timings must not overlap.)
#[test]
fn a_slowed_layer_shows_in_its_metric_and_end_to_end() {
    let [e2e, sim, replay] = slow_sim_by(0.10);
    assert!(e2e > 0.05, "10 % busy-wait moved item_ms by only {e2e:+.3}");
    assert!(
        sim > e2e,
        "sim.run_ns moved {sim:+.3}, less than item_ms {e2e:+.3}"
    );
    assert!(
        replay < sim / 2.0,
        "busy-wait in sim moved attack.loop_ns by {replay:+.3}"
    );

    let bound = bound("item_ms");
    let [e2e, sim, _] = slow_sim_by(bound + 0.1);
    assert!(
        e2e > bound,
        "item_ms moved {e2e:+.3}, within the {bound} bound"
    );
    assert!(
        sim > bound,
        "sim.run_ns moved {sim:+.3}, within the {bound} bound"
    );
}

/// `BENCHMARK.json` stays within the benchmark contract.
#[test]
fn declarations_follow_the_contract() {
    let allowed = |s: &str, extra: &str| {
        s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    };
    let mut names = std::collections::BTreeSet::new();
    for (section, max) in [("end_to_end", 16), ("per_layer", 128)] {
        let decls = declarations(section);
        assert!((1..=max).contains(&decls.len()), "{section}");
        for d in decls {
            assert!(d.name.len() <= 64 && allowed(&d.name, "_.-"), "{}", d.name);
            assert!(
                d.name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{}",
                d.name
            );
            assert!(
                d.unit.len() <= 16 && allowed(&d.unit, "_/%.-"),
                "{}",
                d.unit
            );
            assert!(d.better == "lower" || d.better == "higher", "{}", d.name);
            assert!(names.insert(d.name.clone()), "{} declared twice", d.name);
        }
    }
    let setup = bound("setup_s");
    for d in declarations("end_to_end") {
        let b = bound(&d.name);
        assert!(
            b > 0.0 && b <= setup && setup <= 0.25,
            "bound of {}",
            d.name
        );
    }
    let json = bf_obs::Json::parse(include_str!("../../BENCHMARK.json")).expect("parses");
    let Some(bf_obs::Json::Array(workloads)) = json.get("workloads") else {
        panic!("no workloads")
    };
    let names: Vec<_> = workloads.iter().filter_map(|w| w.get("name")).collect();
    let known = ["collect", "train", "serve"].map(|n| bf_obs::Json::Str(n.to_owned()));
    assert_eq!(
        names,
        known.iter().collect::<Vec<_>>(),
        "the workloads main() runs"
    );
}
