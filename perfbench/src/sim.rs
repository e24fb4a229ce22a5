//! The three simulated-DBMS workloads: set-up, one measured run through
//! the real driver, and the outcome every run is checked against.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use noisetap::engine::Database;
use tscout::{CollectionMode, TrainingPoint, TsConfig, ALL_SUBSYSTEMS};
use tscout_actions::{ActionConfig, ActionEngine};
use tscout_archive::ArchiveOptions;
use tscout_kernel::{HardwareProfile, Kernel};
use tscout_models::ModelKind;
use tscout_telemetry::DEFAULT_PROFILE_PERIOD_NS;
use tscout_workloads::driver::{run, run_with_lifecycle, ModelLifecycle, RunOptions, RunStats};
use tscout_workloads::{SmallBank, Tpcc, Workload, Ycsb};

use crate::span::{Span, Tracer};

/// Virtual terminals of every simulated workload (not OS threads).
pub const TERMINALS: usize = 4;

/// One simulated workload's fixed shape; the seed supplies the rest.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    pub workload: WorkloadKind,
    /// Sampling rate applied to every subsystem, percent.
    pub rate: u8,
    /// Deploy with the lossless collection ring (`1 << 22` records).
    pub collection_ring: bool,
    /// Retrain cadence of the model lifecycle, virtual ns; `None` runs
    /// without a lifecycle.
    pub retrain_every_ns: Option<f64>,
    /// Virtual duration of the measured run, ns.
    pub duration_ns: f64,
}

#[derive(Debug, Clone, Copy)]
pub enum WorkloadKind {
    Ycsb { rows: u64 },
    Tpcc { warehouses: u64 },
    SmallBank { customers: u64 },
}

impl WorkloadKind {
    fn build(self) -> Box<dyn Workload> {
        match self {
            WorkloadKind::Ycsb { rows } => Box::new(Ycsb::new(rows)),
            WorkloadKind::Tpcc { warehouses } => Box::new(Tpcc::new(warehouses)),
            WorkloadKind::SmallBank { customers } => Box::new(SmallBank::new(customers)),
        }
    }
}

/// YCSB read-only, every marker sampled, lossless ring.
pub const YCSB_COLLECT: SimSpec = SimSpec {
    workload: WorkloadKind::Ycsb { rows: 20_000 },
    rate: 100,
    collection_ring: true,
    retrain_every_ns: None,
    duration_ns: 80e6,
};

/// TPC-C with TScout attached at 0% sampling and the default ring.
pub const TPCC_UNSAMPLED: SimSpec = SimSpec {
    workload: WorkloadKind::Tpcc { warehouses: 2 },
    rate: 0,
    collection_ring: false,
    retrain_every_ns: None,
    duration_ns: 400e6,
};

/// SmallBank at 100% sampling through the model lifecycle.
pub const SMALLBANK_LIFECYCLE: SimSpec = SimSpec {
    workload: WorkloadKind::SmallBank { customers: 10_000 },
    rate: 100,
    collection_ring: true,
    retrain_every_ns: Some(10e6),
    duration_ns: 80e6,
};

/// A database ready to run, with its workload and lifecycle.
pub struct Sim {
    pub db: Database,
    pub workload: Box<dyn Workload>,
    pub lifecycle: Option<ModelLifecycle>,
    pub opts: RunOptions,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("workload", &self.workload.name())
            .field("opts", &self.opts)
            .finish_non_exhaustive()
    }
}

/// Build the database, load the workload, deploy TScout, and open the
/// lifecycle's archive under `archive_dir` (which must not exist yet).
pub fn setup(spec: &SimSpec, seed: u64, archive_dir: &Path, tracer: &mut Tracer) -> Sim {
    let mut kernel = Kernel::with_seed(HardwareProfile::server_2x20(), seed);
    kernel.set_profile_period_ns(DEFAULT_PROFILE_PERIOD_NS);
    let mut db = Database::new(kernel);
    let mut workload = spec.workload.build();
    tracer.time(Span::WorkloadsSetup, || workload.setup(&mut db));
    let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
    cfg.enable_all_subsystems();
    cfg.sampler_seed = seed;
    if spec.collection_ring {
        cfg.ring_capacity = 1 << 22;
    }
    tracer
        .time(Span::DbAttachTscout, || db.attach_tscout(cfg))
        .expect("TScout deploy failed");
    let ts = db.tscout_mut().expect("just attached");
    for s in ALL_SUBSYSTEMS {
        ts.set_sampling_rate(s, spec.rate);
    }
    let lifecycle = spec.retrain_every_ns.map(|every| {
        let telemetry = db.kernel.telemetry.clone();
        ModelLifecycle::new(
            archive_dir,
            ArchiveOptions::default(),
            ModelKind::Forest,
            seed,
            every,
            telemetry.clone(),
        )
        .expect("cannot open the lifecycle archive")
        .with_actions(ActionEngine::new(ActionConfig::default(), telemetry))
    });
    let opts = RunOptions {
        terminals: TERMINALS,
        duration_ns: spec.duration_ns,
        seed,
        obsd: None,
        ..Default::default()
    };
    Sim {
        db,
        workload,
        lifecycle,
        opts,
    }
}

/// The measured run through the real driver.
pub fn run_untraced(sim: &mut Sim) -> (RunStats, f64) {
    let t0 = Instant::now();
    let stats = match sim.lifecycle.as_mut() {
        Some(lc) => run_with_lifecycle(&mut sim.db, sim.workload.as_mut(), &sim.opts, lc),
        None => run(&mut sim.db, sim.workload.as_mut(), &sim.opts),
    };
    (stats, t0.elapsed().as_secs_f64())
}

/// Exact counts read from public stats and counters after a run, keyed
/// by per-layer metric name. They repeat exactly for a fixed seed.
pub type Counts = BTreeMap<&'static str, u64>;

/// What one measured run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub committed: u64,
    pub aborted: u64,
    /// Training points delivered to the sink, in-run plus final drain.
    pub points: u64,
    /// CRC-32 over the delivered training points in delivery order.
    pub points_crc: u32,
    /// Bytes the archive holds on disk after the run.
    pub archive_bytes: u64,
    pub archive_samples: u64,
    pub holdout_mape_pct: Option<f64>,
    pub counts: Counts,
}

impl Outcome {
    /// The run's outputs that must be identical between two runs of one
    /// seed (its counts are compared separately).
    pub fn fingerprint(&self) -> (u64, u64, u32, u64) {
        (
            self.committed,
            self.points,
            self.points_crc,
            self.archive_bytes,
        )
    }
}

pub fn outcome(sim: &Sim, stats: &RunStats) -> Outcome {
    let t = &sim.db.kernel.telemetry;
    let ts = sim.db.tscout().expect("TScout stays attached");
    ts.publish_bpf_telemetry();
    let loss = ts.loss_totals();
    let gauge = |name: &str| t.gauge_value(name, &[]) as u64;
    let mut c = Counts::new();
    c.insert("core.marker_events", ts.stats.marker_events);
    c.insert("core.sampled_events", ts.stats.sampled_events);
    c.insert("core.samples_begun", loss.begun);
    c.insert("core.samples_delivered", loss.delivered);
    c.insert("core.samples_lost", loss.lost);
    c.insert("core.state_machine_errors", ts.stats.state_machine_errors);
    c.insert(
        "core.processor_records",
        t.counter_total("processor_records_total"),
    );
    c.insert(
        "core.processor_decode_errors",
        t.counter_total("processor_decode_errors_total"),
    );
    c.insert("bpf.insns_executed", ts.stats.bpf_insns);
    c.insert("bpf.map_lookups", gauge("tscout_map_lookups"));
    c.insert("bpf.map_updates", gauge("tscout_map_updates"));
    c.insert("bpf.ring_pushes", gauge("tscout_ring_pushes"));
    c.insert(
        "bpf.verify_insns_visited",
        gauge("tscout_verify_insns_visited"),
    );
    c.insert("db.committed", stats.committed);
    c.insert("db.aborted", stats.aborted);
    c.insert("db.wal_flushes", t.counter_total("db_wal_flushes_total"));
    c.insert(
        "db.wal_records_flushed",
        t.counter_total("db_wal_flushed_records_total"),
    );
    c.insert("db.gc_pruned", t.counter_total("db_gc_pruned_total"));
    c.insert("db.stmt_recorded", t.stmt_recorded());
    c.insert(
        "archive.samples_appended",
        t.counter_total("archive_samples_appended_total"),
    );
    c.insert(
        "archive.bytes_written",
        t.counter_total("archive_bytes_written_total"),
    );
    c.insert(
        "archive.segments_sealed",
        t.counter_total("archive_segments_sealed_total"),
    );
    c.insert(
        "archive.segments_compacted",
        t.counter_total("archive_segments_compacted_total"),
    );
    c.insert(
        "archive.samples_retired",
        t.counter_total("archive_samples_retired_total"),
    );
    let (ticks, alerts) = t.with_registry(|r| (r.health().ticks, r.health().fired_total()));
    c.insert("telemetry.ticks", ticks);
    c.insert("telemetry.alerts", alerts);
    c.insert(
        "actions.planned",
        t.counter_total("tscout_action_planned_total"),
    );
    c.insert(
        "actions.actuated",
        t.counter_total("tscout_action_actuated_total"),
    );
    let lc = sim.lifecycle.as_ref();
    let live = lc.and_then(|lc| lc.registry.live());
    c.insert("models.retrains", lc.map_or(0, |lc| lc.retrains));
    c.insert(
        "models.swaps_accepted",
        lc.map_or(0, |lc| lc.swaps_accepted),
    );
    c.insert(
        "models.swaps_rejected",
        lc.map_or(0, |lc| lc.swaps_rejected),
    );
    c.insert(
        "models.points_trained",
        live.as_ref().map_or(0, |l| l.trained_points as u64),
    );
    c.insert(
        "actions.ticks",
        lc.and_then(|lc| lc.actions.as_ref()).map_or(0, |a| a.ticks),
    );
    let archive = lc.map(|lc| lc.archive.stats());
    Outcome {
        committed: stats.committed,
        aborted: stats.aborted,
        points: stats.points.len() as u64,
        points_crc: points_crc(&stats.points),
        archive_bytes: archive.as_ref().map_or(0, |a| a.bytes),
        archive_samples: archive.as_ref().map_or(0, |a| a.samples_stored),
        holdout_mape_pct: live.map(|l| l.holdout_mape_pct),
        counts: c,
    }
}

/// CRC-32 over a canonical byte encoding of the training points.
pub fn points_crc(points: &[TrainingPoint]) -> u32 {
    let mut buf = Vec::with_capacity(points.len() * 128);
    for p in points {
        buf.extend_from_slice(&p.ou.to_le_bytes());
        buf.extend_from_slice(p.ou_name.as_bytes());
        buf.push(0);
        buf.extend_from_slice(p.subsystem.name().as_bytes());
        buf.push(0);
        buf.extend_from_slice(&p.tid.to_le_bytes());
        buf.extend_from_slice(&p.start_ns.to_le_bytes());
        buf.extend_from_slice(&p.elapsed_ns.to_le_bytes());
        for list in [&p.metrics, &p.user_metrics] {
            buf.extend_from_slice(&(list.len() as u32).to_le_bytes());
            for v in list {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        buf.extend_from_slice(&(p.features.len() as u32).to_le_bytes());
        for f in &p.features {
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
    }
    tscout_archive::crc32(&buf)
}

/// Correctness checks on one run; returns the failed checks.
pub fn check(o: &Outcome) -> Vec<String> {
    let mut failed = Vec::new();
    let c = &o.counts;
    let (begun, delivered, lost) = (
        c["core.samples_begun"],
        c["core.samples_delivered"],
        c["core.samples_lost"],
    );
    if begun != delivered + lost {
        failed.push(format!(
            "accounting: begun {begun} != delivered {delivered} + lost {lost}"
        ));
    }
    if o.committed == 0 {
        failed.push("no transaction committed".into());
    }
    failed
}
