//! Property-based invariants for the machine simulator.

use bf_sim::{
    CoreTimeline, Gap, GapCause, InterruptKind, KernelEventKind, Machine, MachineConfig,
    TimedEvent, Workload, WorkloadEvent,
};
use bf_stats::StepSeries;
use bf_timer::Nanos;
use proptest::prelude::*;

/// Random small workloads over a 200 ms window.
fn workload_strategy() -> impl Strategy<Value = Workload> {
    proptest::collection::vec(
        (0u64..200_000_000, 0u8..6, 1u32..2_000),
        0..60,
    )
    .prop_map(|evs| {
        let mut w = Workload::new(Nanos::from_millis(200));
        for (t, kind, magnitude) in evs {
            let event = match kind {
                0 => WorkloadEvent::NetworkPacket { bytes: magnitude },
                1 => WorkloadEvent::VictimWake,
                2 => WorkloadEvent::TlbShootdown { pages: magnitude.min(512) },
                3 => WorkloadEvent::GraphicsFrame,
                4 => WorkloadEvent::CacheLoad { lines: magnitude },
                _ => WorkloadEvent::CpuBurst {
                    duration: Nanos::from_micros(u64::from(magnitude.min(5_000))),
                },
            };
            w.push(TimedEvent { t: Nanos(t), event });
        }
        w
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Simulation is a pure function of (workload, seed).
    #[test]
    fn simulation_is_deterministic(w in workload_strategy(), seed in 0u64..1_000) {
        let m = Machine::new(MachineConfig::default());
        let a = m.run(&w, seed);
        let b = m.run(&w, seed);
        prop_assert_eq!(a.attacker_timeline().gaps(), b.attacker_timeline().gaps());
        prop_assert_eq!(
            a.kernel_log.events().collect::<Vec<_>>(),
            b.kernel_log.events().collect::<Vec<_>>()
        );
    }

    /// Gaps on every core are sorted, disjoint, and non-empty.
    #[test]
    fn gaps_well_formed(w in workload_strategy(), seed in 0u64..1_000) {
        let m = Machine::new(MachineConfig::default());
        let out = m.run(&w, seed);
        for tl in &out.cores {
            for g in tl.gaps() {
                prop_assert!(g.end > g.start);
            }
            for pair in tl.gaps().windows(2) {
                prop_assert!(pair[1].start > pair[0].end);
            }
        }
    }

    /// Kernel interrupt time on a core is fully contained in that core's
    /// gap set (every handler interval pauses user code).
    #[test]
    fn kernel_time_is_inside_gaps(w in workload_strategy(), seed in 0u64..1_000) {
        let mut cfg = MachineConfig::default();
        cfg.isolation.pin_cores = true;
        let m = Machine::new(cfg);
        let out = m.run(&w, seed);
        let core = out.attacker_core;
        let tl = out.attacker_timeline();
        for ev in out.kernel_log.events_on_core(core) {
            if ev.kind == KernelEventKind::ContextSwitch {
                continue;
            }
            // The handler interval must lie within the gap set.
            let covered = tl.gap_time_between(ev.start, ev.end);
            prop_assert_eq!(covered, ev.len(), "event {:?} not covered", ev);
        }
    }

    /// The LLC load series is non-decreasing.
    #[test]
    fn llc_series_monotone(w in workload_strategy(), seed in 0u64..1_000) {
        let m = Machine::new(MachineConfig::default());
        let out = m.run(&w, seed);
        let mut last = 0.0;
        for &(_, v) in out.llc_loads.points() {
            prop_assert!(v >= last);
            last = v;
        }
    }

    /// irqbalance guarantees: no movable IRQ ever lands on a non-target
    /// core.
    #[test]
    fn irqbalance_confines_movable(w in workload_strategy(), seed in 0u64..1_000) {
        let mut cfg = MachineConfig::default();
        cfg.isolation.confine_movable_irqs = true;
        let m = Machine::new(cfg);
        let out = m.run(&w, seed);
        for ev in out.kernel_log.events() {
            if let Some(kind) = ev.kind.interrupt() {
                if kind.is_movable() {
                    prop_assert_eq!(ev.core, 0, "{} on core {}", kind, ev.core);
                }
            }
        }
    }

    /// Pinned cores mean no preemption gaps on the attacker core.
    #[test]
    fn pinning_removes_preemption(w in workload_strategy(), seed in 0u64..1_000) {
        let mut cfg = MachineConfig::default();
        cfg.isolation.pin_cores = true;
        let m = Machine::new(cfg);
        let out = m.run(&w, seed);
        for g in out.attacker_timeline().gaps() {
            prop_assert!(g.cause != GapCause::Preemption);
        }
    }

    /// The merged event stream is non-decreasing in time: the kernel log
    /// comes out of the streamed engine already ordered by (start, core),
    /// with no finalize pass.
    #[test]
    fn kernel_log_sorted_without_finalize(w in workload_strategy(), seed in 0u64..1_000) {
        let m = Machine::new(MachineConfig::default());
        let out = m.run(&w, seed);
        let events: Vec<_> = out.kernel_log.events().collect();
        for pair in events.windows(2) {
            prop_assert!(
                (pair[0].start, pair[0].core) <= (pair[1].start, pair[1].core),
                "out of order: {:?} then {:?}", pair[0], pair[1]
            );
        }
    }

    /// Every output surface — kernel log, per-core gaps, LLC series,
    /// frequency series — is identical across reruns, and identical
    /// whether the workload streams sorted or through the stable index.
    #[test]
    fn full_output_deterministic(w in workload_strategy(), seed in 0u64..1_000) {
        let m = Machine::new(MachineConfig::default());
        let a = m.run(&w, seed);
        let b = m.run(&w, seed);
        let mut sorted = w.clone();
        sorted.finalize();
        let c = m.run(&sorted, seed);
        for other in [&b, &c] {
            prop_assert_eq!(
                a.kernel_log.events().collect::<Vec<_>>(),
                other.kernel_log.events().collect::<Vec<_>>()
            );
            prop_assert_eq!(&a.llc_loads, &other.llc_loads);
            prop_assert_eq!(a.cores.len(), other.cores.len());
            for (x, y) in a.cores.iter().zip(&other.cores) {
                prop_assert_eq!(x, y);
            }
        }
    }
}

/// Span of the random timelines the walker is checked on.
const WALK_SPAN: u64 = 100_000;

/// A random timeline: gaps (some touching, so construction merges them)
/// and frequency steps, over `WALK_SPAN` ns.
fn walk_timeline_strategy() -> impl Strategy<Value = CoreTimeline> {
    let gaps = proptest::collection::vec((0u64..WALK_SPAN, 1u64..3_000, 0u8..4), 0..40);
    let steps = proptest::collection::vec((1u64..WALK_SPAN, 0.5f64..1.5), 0..30);
    (gaps, steps, 0.5f64..1.5).prop_map(|(mut raw, mut steps, initial)| {
        raw.sort_unstable();
        let mut gaps = Vec::new();
        let mut cursor = 0u64;
        for (start, len, spacing) in raw {
            // A quarter of the gaps start exactly where the previous ended.
            let s = if spacing == 0 { cursor } else { start.max(cursor + 1) };
            gaps.push(Gap {
                start: Nanos(s),
                end: Nanos(s + len),
                cause: GapCause::Interrupt(InterruptKind::TimerTick),
            });
            cursor = s + len;
        }
        steps.sort_by_key(|&(t, _)| t);
        steps.dedup_by_key(|&mut (t, _)| t);
        let freq = StepSeries::from_points(initial, steps).expect("sorted, deduplicated");
        CoreTimeline::new(Nanos(WALK_SPAN), gaps, freq)
    })
}

/// Raw query material: `(op, snap, time, pick, amount)`. `snap` moves
/// the query start, its end, or both exactly onto a gap start, a gap end
/// or a frequency change.
fn walk_queries_strategy() -> impl Strategy<Value = Vec<(u8, u8, u64, usize, f64)>> {
    let query = (0u8..3, 0u8..4, 0u64..WALK_SPAN + 5_000, 0usize..1_000, 0.0f64..20_000.0);
    proptest::collection::vec(query, 1..60)
}

/// The times a query may snap to: every gap edge and frequency change.
fn walk_landmarks(tl: &CoreTimeline) -> Vec<u64> {
    let mut marks: Vec<u64> = tl.gaps().iter().flat_map(|g| [g.start.0, g.end.0]).collect();
    marks.extend(tl.freq().points().iter().map(|&(t, _)| t));
    marks
}

/// Linear-scan reference answers for one timeline, built from its raw
/// parts only.
struct Linear {
    gaps: Vec<Gap>,
    initial: f64,
    points: Vec<(u64, f64)>,
}

impl Linear {
    fn new(tl: &CoreTimeline) -> Self {
        let (_, gaps, freq) = tl.clone().into_parts();
        let (initial, points) = freq.into_parts();
        Linear { gaps, initial, points }
    }

    fn freq_at(&self, t: u64) -> f64 {
        let mut v = self.initial;
        for &(pt, pv) in &self.points {
            if pt > t {
                break;
            }
            v = pv;
        }
        v
    }

    fn next_change(&self, t: u64) -> Option<u64> {
        self.points.iter().map(|&(pt, _)| pt).find(|&pt| pt > t)
    }

    /// The frequency integral over `[a, b)`, in the series' order of
    /// floating-point operations.
    fn integrate(&self, a: u64, b: u64) -> f64 {
        if a == b {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut t = a;
        let mut v = self.freq_at(a);
        for &(pt, pv) in &self.points {
            if pt <= a {
                continue;
            }
            if pt >= b {
                break;
            }
            acc += v * (pt - t) as f64;
            t = pt;
            v = pv;
        }
        acc + v * (b - t) as f64
    }

    fn next_runnable(&self, t: u64) -> u64 {
        self.gaps.iter().find(|g| g.start.0 <= t && t < g.end.0).map_or(t, |g| g.end.0)
    }

    /// The full integral minus each overlapping gap's integral, in gap
    /// order.
    fn work_between(&self, a: u64, b: u64) -> f64 {
        let mut work = self.integrate(a, b);
        for g in &self.gaps {
            let lo = g.start.0.max(a);
            let hi = g.end.0.min(b);
            if hi > lo {
                work -= self.integrate(lo, hi);
            }
        }
        work.max(0.0)
    }

    /// Step over gaps and frequency changes one at a time.
    fn real_time_after_work(&self, t: u64, work: f64) -> u64 {
        let mut at = t;
        let mut remaining = work;
        loop {
            let resumed = self.next_runnable(at);
            if resumed != at {
                at = resumed;
                continue;
            }
            let seg_end = self.gaps.iter().map(|g| g.start.0).find(|&s| s > at).unwrap_or(u64::MAX);
            let m = self.freq_at(at).max(1e-9);
            let next = self.next_change(at).map_or(seg_end, |p| p.min(seg_end));
            let capacity = (next - at) as f64 * m;
            if capacity >= remaining {
                return at + (remaining / m).ceil() as u64;
            }
            remaining -= capacity;
            at = next;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The timeline walker and the one-shot timeline queries answer
    /// exactly as linear scans do, bit for bit, over non-decreasing
    /// query times (the replay access pattern) and in arbitrary order.
    #[test]
    fn walker_matches_linear_scan(
        tl in walk_timeline_strategy(),
        raw in walk_queries_strategy(),
    ) {
        let linear = Linear::new(&tl);
        let marks = walk_landmarks(&tl);
        let snap = |on: bool, raw: u64, pick: usize| {
            if on && !marks.is_empty() { marks[pick % marks.len()] } else { raw }
        };
        let queries: Vec<(u8, u64, u64, f64)> = raw
            .iter()
            .map(|&(op, at, t, pick, amount)| {
                let a = snap(at & 1 == 1, t, pick);
                let b = snap(at >= 2, a + amount as u64, pick / 7).max(a);
                let work = if pick % 5 == 0 { 0.0 } else { amount };
                (op, a, b, work)
            })
            .collect();
        let mut sorted = queries.clone();
        sorted.sort_by_key(|q| q.1);
        for order in [&sorted, &queries] {
            let mut walker = tl.walker();
            for &(op, a, b, w) in order.iter() {
                match op {
                    0 => {
                        let want = linear.next_runnable(a);
                        prop_assert_eq!(walker.next_runnable(Nanos(a)).0, want, "next_runnable({})", a);
                        prop_assert_eq!(tl.next_runnable(Nanos(a)).0, want);
                    }
                    1 => {
                        let want = linear.work_between(a, b).to_bits();
                        prop_assert_eq!(walker.work_between(Nanos(a), Nanos(b)).to_bits(), want, "work_between({}, {})", a, b);
                        prop_assert_eq!(tl.work_between(Nanos(a), Nanos(b)).to_bits(), want);
                    }
                    _ => {
                        let want = linear.real_time_after_work(a, w);
                        prop_assert_eq!(walker.real_time_after_work(Nanos(a), w).0, want, "real_time_after_work({}, {})", a, w);
                        prop_assert_eq!(tl.real_time_after_work(Nanos(a), w).0, want);
                    }
                }
            }
        }
    }
}
