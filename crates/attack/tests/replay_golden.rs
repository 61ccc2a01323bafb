//! Golden replay fingerprints: FNV-1a digests of the trace-value bits and
//! the per-period records of both counting attackers, over three catalog
//! sites, four timer models and three machine configurations.
//!
//! The replay engine is an optimisation target; any change to it must
//! keep every output bit. A digest mismatch here is a behaviour change,
//! not a tolerance question — never update a constant to make it pass.

use bf_attack::replay::PeriodRecord;
use bf_attack::{LoopCountingAttacker, SweepCountingAttacker, Trace};
use bf_sim::{FrequencyConfig, Machine, MachineConfig};
use bf_timer::{BrowserKind, Nanos, PreciseTimer, QuantizedTimer, RandomizedTimer, Timer};
use bf_victim::Catalog;

const DURATION: Nanos = Nanos(3_000_000_000);
const PERIOD: Nanos = Nanos(5_000_000);
const SITES: usize = 3;

const MACHINES: [&str; 3] = ["default", "turbo", "pinned"];
const TIMERS: [&str; 4] = ["precise", "quantized_1ms", "chrome", "randomized"];

fn machine(name: &str) -> MachineConfig {
    match name {
        "default" => MachineConfig::default(),
        "turbo" => MachineConfig {
            turbo_boost: true,
            ..MachineConfig::default()
        },
        "pinned" => MachineConfig {
            frequency: FrequencyConfig::pinned(),
            ..MachineConfig::default()
        },
        _ => unreachable!("unknown machine {name}"),
    }
}

fn timer(name: &str, seed: u64) -> Box<dyn Timer> {
    match name {
        "precise" => Box::new(PreciseTimer::new()),
        "quantized_1ms" => Box::new(QuantizedTimer::new(Nanos::from_millis(1))),
        "chrome" => BrowserKind::Chrome.timer(seed),
        "randomized" => Box::new(RandomizedTimer::with_defaults(seed)),
        _ => unreachable!("unknown timer {name}"),
    }
}

/// FNV-1a 64 over little-endian `u64` words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn replay(&mut self, (trace, records): &(Trace, Vec<PeriodRecord>)) {
        self.word(trace.len() as u64);
        for v in trace.values() {
            self.word(v.to_bits());
        }
        self.word(records.len() as u64);
        for r in records {
            self.word(r.start_real.as_nanos());
            self.word(r.end_real.as_nanos());
            self.word(r.start_observed.as_nanos());
            self.word(r.count.to_bits());
        }
    }
}

/// `(attacker, machine, timer)` → digest over every site's replay.
fn fingerprints() -> Vec<(String, u64)> {
    let catalog = Catalog::closed_world_subset(SITES);
    let mut out = Vec::new();
    for m in MACHINES {
        let cfg = machine(m);
        let sims: Vec<_> = catalog
            .sites()
            .iter()
            .enumerate()
            .map(|(i, site)| {
                let run = 11 + i as u64;
                Machine::new(cfg.clone()).run(&site.generate(DURATION, run), run ^ 0x5EED)
            })
            .collect();
        for t in TIMERS {
            let mut loop_digest = Fnv::new();
            let mut sweep_digest = Fnv::new();
            for (i, sim) in sims.iter().enumerate() {
                let seed = 101 + i as u64;
                let looper = LoopCountingAttacker::for_browser(BrowserKind::Chrome, PERIOD);
                loop_digest.replay(&looper.collect_detailed(sim, &mut *timer(t, seed)));
                let sweeper = SweepCountingAttacker::new(PERIOD, cfg.cache);
                sweep_digest.replay(&sweeper.collect_detailed(sim, &mut *timer(t, seed), seed));
            }
            out.push((format!("loop/{m}/{t}"), loop_digest.0));
            out.push((format!("sweep/{m}/{t}"), sweep_digest.0));
        }
    }
    out
}

/// Pinned against the per-sweep binary-search replay engine.
const GOLDEN: [(&str, u64); 24] = [
    ("loop/default/precise", 0xa8b248139ad090ba),
    ("sweep/default/precise", 0x37f109519c0b0919),
    ("loop/default/quantized_1ms", 0x5e4199d5cc6c536e),
    ("sweep/default/quantized_1ms", 0x515e6ed3d74f00b8),
    ("loop/default/chrome", 0x4f947b1cc3afa58e),
    ("sweep/default/chrome", 0x6f75777b615503b6),
    ("loop/default/randomized", 0x294098d7ce8d8a3f),
    ("sweep/default/randomized", 0x4523b6c725b93d91),
    ("loop/turbo/precise", 0xb1df864246786e93),
    ("sweep/turbo/precise", 0x0cc928b52edff96e),
    ("loop/turbo/quantized_1ms", 0x0dcca0ef13b509ea),
    ("sweep/turbo/quantized_1ms", 0x06b9f9f47d4737f3),
    ("loop/turbo/chrome", 0xbe5301c7fbfbaabe),
    ("sweep/turbo/chrome", 0xb0e703dd8410d866),
    ("loop/turbo/randomized", 0xf27adbdefcd68348),
    ("sweep/turbo/randomized", 0x8c6991a177800669),
    ("loop/pinned/precise", 0x2751c4288476867a),
    ("sweep/pinned/precise", 0xa1c6291932067560),
    ("loop/pinned/quantized_1ms", 0xaad977a792628bf2),
    ("sweep/pinned/quantized_1ms", 0xc85344cb97b0e2fc),
    ("loop/pinned/chrome", 0x111b63de60128cae),
    ("sweep/pinned/chrome", 0xa95d0707519917a2),
    ("loop/pinned/randomized", 0xbefcc8f49767a351),
    ("sweep/pinned/randomized", 0x4b1b4cb6593fe2b9),
];

#[test]
fn replay_fingerprints_are_pinned() {
    let got = fingerprints();
    let mismatches: Vec<String> = got
        .iter()
        .zip(GOLDEN.iter())
        .filter(|((gk, gv), (wk, wv))| gk != wk || gv != wv)
        .map(|((gk, gv), (wk, wv))| format!("{gk}: got {gv:#018x}, pinned {wk} = {wv:#018x}"))
        .collect();
    assert_eq!(got.len(), GOLDEN.len());
    assert!(
        mismatches.is_empty(),
        "replay output changed:\n{}",
        mismatches.join("\n")
    );
}
