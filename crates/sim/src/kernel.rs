//! The kernel-side ground-truth event log.
//!
//! The simulator records every kernel entry — interrupt handlers,
//! scheduler preemptions — with exact start/end timestamps on the shared
//! monotonic clock. `bf-ebpf` consumes this log exactly the way the
//! paper's eBPF tool consumes kprobe/tracepoint output: it is the "kernel
//! view" matched against the attacker's user-space view.

use crate::interrupt::InterruptKind;
use bf_timer::Nanos;
use serde::{Deserialize, Serialize};

/// What the kernel was doing during a logged interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelEventKind {
    /// An interrupt handler ran.
    Interrupt(InterruptKind),
    /// The scheduler context-switched this core to another task.
    ContextSwitch,
}

impl KernelEventKind {
    /// The interrupt kind, if this event is an interrupt.
    pub fn interrupt(self) -> Option<InterruptKind> {
        match self {
            KernelEventKind::Interrupt(k) => Some(k),
            KernelEventKind::ContextSwitch => None,
        }
    }
}

/// One kernel-mode interval on one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelEvent {
    /// Core the handler ran on.
    pub core: usize,
    /// Handler entry time.
    pub start: Nanos,
    /// Handler exit time (exclusive).
    pub end: Nanos,
    /// What ran.
    pub kind: KernelEventKind,
}

impl KernelEvent {
    /// Handler runtime.
    pub fn len(&self) -> Nanos {
        self.end - self.start
    }

    /// True for degenerate zero-length records.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Time-ordered log of kernel activity across all cores, stored per core.
///
/// Each core's events are kept in start order (service start times on a
/// core strictly increase, so the engine's per-core logs are born
/// sorted). Per-core queries read one core's vector directly; the
/// all-core view [`KernelLog::events`] merges the cores on read.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct KernelLog {
    /// `cores[c]`: the events on core `c`, ascending by start.
    cores: Vec<Vec<KernelEvent>>,
}

impl KernelLog {
    /// An empty log.
    pub fn new() -> Self {
        KernelLog::default()
    }

    /// Adopt per-core logs without copying: `cores[c]` holds core `c`'s
    /// events in start order.
    ///
    /// Both properties are debug-asserted; a log that breaks them in
    /// release builds yields wrong order-dependent queries.
    pub fn from_core_logs(cores: Vec<Vec<KernelEvent>>) -> Self {
        debug_assert!(
            cores.iter().enumerate().all(|(core, log)| {
                log.iter().all(|e| e.core == core)
                    && log.windows(2).all(|w| w[0].start <= w[1].start)
            }),
            "from_core_logs requires per-core logs in start order"
        );
        KernelLog { cores }
    }

    /// Dismantle the log into its per-core storage so the vectors can be
    /// pooled and reused.
    pub fn into_core_logs(self) -> Vec<Vec<KernelEvent>> {
        self.cores
    }

    /// Insert one event, in any order. It lands after every event on its
    /// core that starts no later, so equal starts keep insertion order —
    /// the order a stable sort by `(start, core)` gives.
    pub fn record(&mut self, ev: KernelEvent) {
        debug_assert!(!ev.is_empty(), "zero-length kernel event");
        if self.cores.len() <= ev.core {
            self.cores.resize_with(ev.core + 1, Vec::new);
        }
        let log = &mut self.cores[ev.core];
        let at = log.partition_point(|e| e.start <= ev.start);
        log.insert(at, ev);
    }

    /// All events in `(start, core)` order, merged from the per-core logs
    /// as the iterator advances.
    pub fn events(&self) -> Events<'_> {
        Events {
            rest: self.cores.iter().map(Vec::as_slice).collect(),
        }
    }

    /// Events on a specific core, in start order.
    pub fn events_on_core(&self, core: usize) -> std::slice::Iter<'_, KernelEvent> {
        self.cores.get(core).map_or(&[][..], Vec::as_slice).iter()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.cores.iter().map(Vec::len).sum()
    }

    /// True when nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.cores.iter().all(Vec::is_empty)
    }

    /// Total kernel time on a core attributable to interrupts, within
    /// `[a, b)`.
    pub fn interrupt_time_on_core(&self, core: usize, a: Nanos, b: Nanos) -> Nanos {
        self.events_on_core(core)
            .filter(|e| matches!(e.kind, KernelEventKind::Interrupt(_)))
            .map(|e| {
                let lo = e.start.max(a);
                let hi = e.end.min(b);
                hi.saturating_sub(lo)
            })
            .sum()
    }
}

impl Extend<KernelEvent> for KernelLog {
    fn extend<I: IntoIterator<Item = KernelEvent>>(&mut self, iter: I) {
        for ev in iter {
            self.record(ev);
        }
    }
}

/// A [`KernelLog`]'s events in `(start, core)` order; see
/// [`KernelLog::events`].
#[derive(Debug, Clone)]
pub struct Events<'a> {
    /// Each core's events not yet yielded; index = core id.
    rest: Vec<&'a [KernelEvent]>,
}

impl<'a> Iterator for Events<'a> {
    type Item = &'a KernelEvent;

    fn next(&mut self) -> Option<&'a KernelEvent> {
        // Strict `<` keeps the lowest core on equal starts.
        let mut best: Option<(usize, Nanos)> = None;
        for (core, rest) in self.rest.iter().enumerate() {
            if let Some(e) = rest.first() {
                if best.is_none_or(|(_, start)| e.start < start) {
                    best = Some((core, e.start));
                }
            }
        }
        let (core, _) = best?;
        let (ev, rest) = self.rest[core].split_first()?;
        self.rest[core] = rest;
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(core: usize, start: u64, end: u64, kind: KernelEventKind) -> KernelEvent {
        KernelEvent { core, start: Nanos(start), end: Nanos(end), kind }
    }

    #[test]
    fn record_orders_by_time() {
        let mut log = KernelLog::new();
        log.record(ev(0, 50, 60, KernelEventKind::ContextSwitch));
        log.record(ev(1, 10, 20, KernelEventKind::Interrupt(InterruptKind::TimerTick)));
        assert_eq!(log.events().next().map(|e| e.start), Some(Nanos(10)));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn record_matches_stable_sort_by_start_and_core() {
        let tick = KernelEventKind::Interrupt(InterruptKind::TimerTick);
        let disk = KernelEventKind::Interrupt(InterruptKind::Disk);
        let recorded = [
            ev(2, 30, 40, tick),
            ev(0, 30, 35, tick),
            ev(2, 10, 20, disk),
            ev(0, 30, 45, disk),
            ev(1, 5, 9, tick),
            ev(2, 30, 31, disk),
            ev(0, 0, 3, tick),
        ];
        let mut log = KernelLog::new();
        log.extend(recorded);
        let mut want = recorded.to_vec();
        want.sort_by_key(|e| (e.start, e.core));
        assert_eq!(log.events().copied().collect::<Vec<_>>(), want);
        for core in 0..3 {
            let on_core: Vec<_> = want.iter().filter(|e| e.core == core).copied().collect();
            assert_eq!(log.events_on_core(core).copied().collect::<Vec<_>>(), on_core);
        }
        assert_eq!(log.events_on_core(7).count(), 0);
    }

    #[test]
    fn core_logs_round_trip() {
        let cores = vec![
            vec![ev(0, 50, 60, KernelEventKind::ContextSwitch)],
            vec![ev(1, 10, 20, KernelEventKind::Interrupt(InterruptKind::TimerTick))],
        ];
        let log = KernelLog::from_core_logs(cores.clone());
        assert_eq!(
            log.events().copied().collect::<Vec<_>>(),
            [cores[1][0], cores[0][0]]
        );
        assert_eq!(log.into_core_logs(), cores);
    }

    #[test]
    fn empty_cores_are_empty() {
        let log = KernelLog::from_core_logs(vec![Vec::new(), Vec::new()]);
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        assert_eq!(log.events().next(), None);
    }

    #[test]
    fn events_on_core_filters() {
        let mut log = KernelLog::new();
        log.record(ev(0, 0, 10, KernelEventKind::ContextSwitch));
        log.record(ev(2, 5, 15, KernelEventKind::Interrupt(InterruptKind::NetworkRx)));
        assert_eq!(log.events_on_core(2).count(), 1);
        assert_eq!(log.events_on_core(1).count(), 0);
    }

    #[test]
    fn interrupt_time_excludes_context_switches() {
        let mut log = KernelLog::new();
        log.record(ev(0, 0, 100, KernelEventKind::ContextSwitch));
        log.record(ev(0, 200, 230, KernelEventKind::Interrupt(InterruptKind::TimerTick)));
        assert_eq!(log.interrupt_time_on_core(0, Nanos(0), Nanos(1_000)), Nanos(30));
    }

    #[test]
    fn interrupt_time_clips_to_window() {
        let mut log = KernelLog::new();
        log.record(ev(0, 100, 200, KernelEventKind::Interrupt(InterruptKind::Disk)));
        assert_eq!(log.interrupt_time_on_core(0, Nanos(150), Nanos(400)), Nanos(50));
        assert_eq!(log.interrupt_time_on_core(0, Nanos(300), Nanos(400)), Nanos::ZERO);
    }

    #[test]
    fn event_len() {
        let e = ev(0, 10, 25, KernelEventKind::ContextSwitch);
        assert_eq!(e.len(), Nanos(15));
        assert!(!e.is_empty());
    }

    #[test]
    fn kind_interrupt_accessor() {
        assert_eq!(
            KernelEventKind::Interrupt(InterruptKind::Usb).interrupt(),
            Some(InterruptKind::Usb)
        );
        assert_eq!(KernelEventKind::ContextSwitch.interrupt(), None);
    }
}
