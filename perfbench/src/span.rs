//! Wall-clock spans around calls into the crates' public APIs.
//!
//! Spans nest: a span's self time is its duration minus the time its
//! direct children covered. The root of a measured run is
//! [`Span::DriverRun`], whose self time is the `driver.other` remainder:
//! run wall time not covered by any named span.

use std::time::Instant;

/// Every span the traced run records, named after the crate it times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    WorkloadsSetup,
    DbAttachTscout,
    DriverRun,
    DbTxn,
    DbPumpWal,
    DbRunGc,
    CoreProcessorPoll,
    CoreProcessorDrainAll,
    ArchiveAppend,
    ArchiveFlushCompact,
    ModelsDataset,
    ModelsRetrain,
    TelemetryObservabilityTick,
    ActionsTick,
    ObsdGetMetrics,
    ObsdGetTable,
    ObsdPostSql,
}

impl Span {
    pub const ALL: [Span; 17] = [
        Span::WorkloadsSetup,
        Span::DbAttachTscout,
        Span::DriverRun,
        Span::DbTxn,
        Span::DbPumpWal,
        Span::DbRunGc,
        Span::CoreProcessorPoll,
        Span::CoreProcessorDrainAll,
        Span::ArchiveAppend,
        Span::ArchiveFlushCompact,
        Span::ModelsDataset,
        Span::ModelsRetrain,
        Span::TelemetryObservabilityTick,
        Span::ActionsTick,
        Span::ObsdGetMetrics,
        Span::ObsdGetTable,
        Span::ObsdPostSql,
    ];

    /// Metric-name prefix (`<name>_ns`, `<name>_calls`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Span::WorkloadsSetup => "workloads.setup",
            Span::DbAttachTscout => "db.attach_tscout",
            Span::DriverRun => "driver.other",
            Span::DbTxn => "db.txn",
            Span::DbPumpWal => "db.pump_wal",
            Span::DbRunGc => "db.run_gc",
            Span::CoreProcessorPoll => "core.processor_poll",
            Span::CoreProcessorDrainAll => "core.processor_drain_all",
            Span::ArchiveAppend => "archive.append",
            Span::ArchiveFlushCompact => "archive.flush_compact",
            Span::ModelsDataset => "models.dataset",
            Span::ModelsRetrain => "models.retrain",
            Span::TelemetryObservabilityTick => "telemetry.observability_tick",
            Span::ActionsTick => "actions.tick",
            Span::ObsdGetMetrics => "obsd.get_metrics",
            Span::ObsdGetTable => "obsd.get_table",
            Span::ObsdPostSql => "obsd.post_sql",
        }
    }

    /// Spans called often enough to report per-call p50/p99.
    pub fn keeps_durations(self) -> bool {
        matches!(
            self,
            Span::DbTxn
                | Span::DbPumpWal
                | Span::CoreProcessorPoll
                | Span::TelemetryObservabilityTick
                | Span::ObsdGetMetrics
                | Span::ObsdGetTable
                | Span::ObsdPostSql
        )
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Accumulated totals of one span.
#[derive(Debug, Clone, Default)]
pub struct SpanStat {
    pub calls: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
    /// Per-call durations (children included), ns; kept only for
    /// [`Span::keeps_durations`] spans.
    pub durations_ns: Vec<u64>,
}

#[derive(Debug)]
struct Frame {
    span: Span,
    start_ns: u64,
    child_ns: u64,
}

/// An in-memory span recorder. Times come from [`Tracer::enter`] /
/// [`Tracer::exit`] (a monotonic clock) or, for tests, from explicit
/// timestamps via [`Tracer::enter_at`] / [`Tracer::exit_at`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    stats: Vec<SpanStat>,
    stack: Vec<Frame>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            stats: vec![SpanStat::default(); Span::ALL.len()],
            stack: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, span: Span) {
        let t = self.now_ns();
        self.enter_at(span, t);
    }

    pub fn exit(&mut self) {
        let t = self.now_ns();
        self.exit_at(t);
    }

    pub fn enter_at(&mut self, span: Span, t_ns: u64) {
        self.stack.push(Frame {
            span,
            start_ns: t_ns,
            child_ns: 0,
        });
    }

    /// Close the innermost open span at `t_ns`.
    pub fn exit_at(&mut self, t_ns: u64) {
        let f = self.stack.pop().expect("exit without a matching enter");
        let dur = t_ns.saturating_sub(f.start_ns);
        let st = &mut self.stats[f.span.index()];
        st.calls += 1;
        st.self_ns += dur.saturating_sub(f.child_ns);
        if f.span.keeps_durations() {
            st.durations_ns.push(dur);
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// Time `f` as one call of `span`.
    pub fn time<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T {
        self.enter(span);
        let r = f();
        self.exit();
        r
    }

    pub fn stat(&self, span: Span) -> &SpanStat {
        &self.stats[span.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_parent_minus_children() {
        let mut t = Tracer::default();
        t.enter_at(Span::DriverRun, 0);
        t.enter_at(Span::DbTxn, 10);
        t.exit_at(40); // 30
        t.enter_at(Span::DbPumpWal, 50);
        t.enter_at(Span::CoreProcessorPoll, 55);
        t.exit_at(65); // 10, inside the pump
        t.exit_at(70); // pump 20 total, 10 self
        t.enter_at(Span::DbTxn, 80);
        t.exit_at(90); // 10
        t.exit_at(100);
        assert_eq!(t.stat(Span::DbTxn).calls, 2);
        assert_eq!(t.stat(Span::DbTxn).self_ns, 40);
        assert_eq!(t.stat(Span::DbTxn).durations_ns, vec![30, 10]);
        assert_eq!(t.stat(Span::DbPumpWal).self_ns, 10);
        assert_eq!(t.stat(Span::CoreProcessorPoll).self_ns, 10);
        // driver.other: 100 ns of run minus 30 + 20 + 10 in children.
        assert_eq!(t.stat(Span::DriverRun).self_ns, 40);
        assert!(t.stat(Span::DriverRun).durations_ns.is_empty());
    }

    #[test]
    fn separate_roots_do_not_share_children() {
        let mut t = Tracer::default();
        t.enter_at(Span::WorkloadsSetup, 0);
        t.exit_at(25);
        t.enter_at(Span::DriverRun, 30);
        t.enter_at(Span::DbRunGc, 31);
        t.exit_at(35);
        t.exit_at(50);
        assert_eq!(t.stat(Span::WorkloadsSetup).self_ns, 25);
        assert_eq!(t.stat(Span::DriverRun).self_ns, 16);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Span::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Span::ALL.len());
        for (i, s) in Span::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }
}
