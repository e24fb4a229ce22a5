//! The TScout runtime: markers, Collector orchestration, collection modes.
//!
//! [`TScout::deploy`] performs the paper's Setup Phase: it takes the
//! marker metadata (which subsystems to instrument, with which probes),
//! code-generates the Collector BPF programs, loads them through the
//! verifier, and attaches them to the kernel tracepoints the markers
//! compile into.
//!
//! At runtime the DBMS calls [`TScout::ou_begin`] / [`TScout::ou_end`] /
//! [`TScout::ou_features`] at its marker sites. Sampling is decided at
//! `BEGIN` (one bit test — the user-space flag of §5.3, exposed to the
//! DBMS as [`TScout::should_collect`] so it can skip feature
//! aggregation); when a marker triple is sampled, the configured
//! collection mode gathers metrics:
//!
//! * [`CollectionMode::KernelContinuous`] — TScout's design: the marker
//!   fires its tracepoint (one mode switch) and the Collector programs
//!   run in the BPF VM, reading per-CPU perf counters and kernel structs
//!   directly.
//! * [`CollectionMode::UserToggle`] — the user-space baseline that
//!   toggles per-task perf counters around each OU: enable + disable +
//!   read syscalls per sample (§6.2's slowest method).
//! * [`CollectionMode::UserContinuous`] — counters stay enabled (so
//!   every context switch pays PMU save/restore) and each sample costs a
//!   single group-read syscall at each boundary.
//!
//! User-space modes ship finished records through a *serialized* emission
//! path (a shared buffer guarded by one lock), which is what caps their
//! aggregate data-generation rate in Fig. 6; the kernel mode publishes
//! through the per-CPU perf ring buffer instead.

use std::collections::{BTreeMap, HashMap};

use tscout_bpf::maps::MapDef;
use tscout_bpf::vm::HelperWorld;
use tscout_bpf::{LoadError, Loader, MapId};
use tscout_kernel::pmu::ALL_COUNTERS;
use tscout_kernel::task::{Ioac, TcpSock};
use tscout_kernel::tracepoint::TracepointId;
use tscout_kernel::{Kernel, PmuReading, SyscallKind, TaskId};
use tscout_telemetry::{Telemetry, TraceId};

use crate::codegen::{self, encode_ctx, ProbeLayout, CTX_BYTES};
use crate::data::{
    decode_record, encode_record, split_record, RawRecord, TrainingPoint, MAX_PAYLOAD_WORDS,
};
use crate::ou::{OuId, OuRegistry, Subsystem};
use crate::sampling::Sampler;

/// Probe selection per subsystem (re-export of the codegen layout).
pub type ProbeSet = ProbeLayout;

impl ProbeLayout {
    pub fn all() -> Self {
        ProbeLayout {
            cpu: true,
            disk: true,
            net: true,
        }
    }

    pub fn cpu_only() -> Self {
        ProbeLayout {
            cpu: true,
            disk: false,
            net: false,
        }
    }

    pub fn cpu_net() -> Self {
        ProbeLayout {
            cpu: true,
            disk: false,
            net: true,
        }
    }

    pub fn cpu_disk() -> Self {
        ProbeLayout {
            cpu: true,
            disk: true,
            net: false,
        }
    }
}

/// How metrics are gathered for sampled OUs (paper §6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectionMode {
    /// Kernel-level probes via BPF with continuously-enabled per-CPU
    /// counters — the TScout approach.
    KernelContinuous,
    /// User-level probes toggling per-task perf counters per OU.
    UserToggle,
    /// User-level probes with continuously-enabled per-task counters.
    UserContinuous,
}

/// Deploy-time configuration (the Setup Phase inputs).
#[derive(Debug, Clone)]
pub struct TsConfig {
    pub mode: CollectionMode,
    pub subsystems: BTreeMap<Subsystem, ProbeSet>,
    /// Perf ring buffer capacity (records). Bounded: the Collector
    /// overwrites when the Processor falls behind.
    pub ring_capacity: usize,
    pub sampler_seed: u64,
    /// Lineage tracing: assign a `TraceId` to 1 in `trace_every`
    /// *collected* markers and follow it through every pipeline stage
    /// (0 = off). The id travels out of band — record bytes are
    /// bit-identical with tracing on or off.
    pub trace_every: u64,
    /// Run the load-time optimizer on every collector program (on by
    /// default). Optimized programs must re-verify and emit
    /// bit-identical samples; turning this off trades collection
    /// overhead for a byte-for-byte codegen instruction stream.
    pub optimize: bool,
}

impl TsConfig {
    pub fn new(mode: CollectionMode) -> Self {
        TsConfig {
            mode,
            subsystems: BTreeMap::new(),
            ring_capacity: 4096,
            sampler_seed: 0x7511,
            trace_every: 0,
            optimize: true,
        }
    }

    /// Enable collection for a subsystem with the given probe set.
    pub fn enable_subsystem(&mut self, s: Subsystem, probes: ProbeSet) -> &mut Self {
        self.subsystems.insert(s, probes);
        self
    }

    /// Enable all six subsystems with every kernel probe (the maximum-
    /// impact configuration of §6.2).
    pub fn enable_all_subsystems(&mut self) -> &mut Self {
        for s in crate::ou::ALL_SUBSYSTEMS {
            self.subsystems.insert(s, ProbeSet::all());
        }
        self
    }
}

/// Deploy-time errors.
#[derive(Debug)]
pub enum TsError {
    Load(LoadError),
}

impl std::fmt::Display for TsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TsError::Load(e) => write!(f, "failed to load collector program: {e}"),
        }
    }
}

impl std::error::Error for TsError {}

/// Runtime counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct TsStats {
    /// Marker events observed (sampled or not).
    pub marker_events: u64,
    /// BEGIN events that passed the sampling check.
    pub sampled_events: u64,
    /// Records published toward the Processor.
    pub samples_emitted: u64,
    /// Marker-order violations that reset collection state (§5.1).
    pub state_machine_errors: u64,
    /// User-mode samples dropped because the emission path was backlogged.
    pub user_emit_drops: u64,
    /// Total BPF instructions interpreted.
    pub bpf_insns: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Began,
    Ended,
}

#[derive(Debug, Clone)]
struct UserSnapshot {
    start_ns: u64,
    pmu: [PmuReading; 7],
    ioac: Ioac,
    tcp: TcpSock,
}

#[derive(Debug, Clone)]
struct InFlight {
    ou: OuId,
    subsystem: Subsystem,
    collected: bool,
    phase: Phase,
    snap: Option<UserSnapshot>,
    /// User-mode END result: (start, elapsed, metrics).
    done: Option<(u64, u64, Vec<u64>)>,
    /// Lineage trace id when this collection was sampled for tracing.
    trace: Option<TraceId>,
}

#[derive(Debug, Default)]
struct TaskState {
    inflight: Vec<InFlight>,
}

#[derive(Debug, Clone, Copy)]
struct BpfRt {
    depth_map: MapId,
    begin_map: MapId,
    done_map: MapId,
    tp_begin: TracepointId,
    tp_end: TracepointId,
    tp_feat: TracepointId,
}

#[derive(Debug, Clone, Copy)]
struct SubsysRt {
    probes: ProbeSet,
    bpf: Option<BpfRt>,
}

#[derive(Debug, Clone, Copy)]
enum Marker {
    Begin,
    End,
    Features,
}

/// Exact sample accounting totals, read back from telemetry counters.
///
/// After a full ring drain (and with no triples in flight),
/// `begun == delivered + lost` holds exactly, per subsystem and in
/// aggregate — the paper's §5.3 requirement that TScout *knows* how many
/// samples it loses, rather than estimating.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LossTotals {
    /// Samples that passed the sampling check at `BEGIN`.
    pub begun: u64,
    /// Records handed to the Processor by `drain_ring`.
    pub delivered: u64,
    /// Samples lost anywhere between `BEGIN` and delivery (ring
    /// overwrites, emission backlog, marker state resets, BPF errors).
    pub lost: u64,
}

/// The deployed TScout framework instance.
#[derive(Debug)]
pub struct TScout {
    pub config: TsConfig,
    pub registry: OuRegistry,
    pub sampler: Sampler,
    pub stats: TsStats,
    /// Cloned from the kernel at deploy time — metrics land in the same
    /// registry as the kernel's and the DBMS's.
    pub telemetry: Telemetry,
    loader: Loader,
    ring: MapId,
    subsys: BTreeMap<Subsystem, SubsysRt>,
    tasks: HashMap<TaskId, TaskState>,
    enabled: bool,
    /// Most recent marker-side virtual timestamp. Ring evictions are
    /// discovered lazily (at the next push or drain) with no Kernel in
    /// scope, so their traces are closed at this time instead.
    last_now: f64,
}

/// Bridges BPF helper calls to the simulated kernel, charging the
/// per-helper costs to the task that hit the tracepoint.
struct KernelWorld<'a> {
    k: &'a mut Kernel,
    task: TaskId,
}

impl HelperWorld for KernelWorld<'_> {
    fn ktime_ns(&mut self) -> u64 {
        self.k.now(self.task) as u64
    }

    fn current_pid_tgid(&mut self) -> u64 {
        self.task.as_u64()
    }

    fn perf_event_read(&mut self, idx: u64) -> Option<[u64; 3]> {
        let kind = tscout_kernel::CounterKind::from_index(idx as usize)?;
        let ns = self.k.cost.pmu_read_kernel_ns;
        let _f = self
            .k
            .profile_frame(self.task, "helper:perf_event_read", false);
        self.k.charge_overhead(self.task, ns);
        let r = self.k.task(self.task).pmu.read(kind);
        Some([r.value, r.time_enabled, r.time_running])
    }

    fn read_task_io(&mut self) -> [u64; 4] {
        let _f = self
            .k
            .profile_frame(self.task, "helper:read_task_io", false);
        self.k.charge_overhead(self.task, 35.0);
        let io = self.k.task(self.task).ioac;
        [
            io.read_bytes,
            io.write_bytes,
            io.read_syscalls,
            io.write_syscalls,
        ]
    }

    fn read_tcp_sock(&mut self) -> [u64; 4] {
        let _f = self
            .k
            .profile_frame(self.task, "helper:read_tcp_sock", false);
        self.k.charge_overhead(self.task, 35.0);
        let t = self.k.task(self.task).tcp;
        [t.bytes_sent, t.bytes_received, t.segs_out, t.segs_in]
    }
}

impl TScout {
    /// Setup Phase: codegen, verify, load, and attach the Collector.
    pub fn deploy(kernel: &mut Kernel, config: TsConfig) -> Result<TScout, TsError> {
        let mut loader = Loader::new();
        loader.set_optimize(config.optimize);
        // Program executions show up in folded profiles as
        // `bpf:prog:<name>` frames when the kernel's profiler is enabled.
        loader.set_profiler(kernel.profiler.clone());
        let ring = loader.maps.create(MapDef::perf_event_array(
            "tscout_ring",
            config.ring_capacity,
        ));

        let mut subsys = BTreeMap::new();
        for (&s, &probes) in &config.subsystems {
            let bpf = if config.mode == CollectionMode::KernelContinuous {
                let depth_map =
                    loader
                        .maps
                        .create(MapDef::hash(&format!("{s}_depth"), 8, 8, 1 << 10));
                let begin_map = loader.maps.create(MapDef::hash(
                    &format!("{s}_begin"),
                    8,
                    probes.snap_words() * 8,
                    1 << 14,
                ));
                let done_map = loader.maps.create(MapDef::hash(
                    &format!("{s}_done"),
                    8,
                    probes.done_words() * 8,
                    1 << 10,
                ));
                let p_begin = loader
                    .load(
                        &format!("{s}_begin"),
                        codegen::gen_begin(&probes, depth_map, begin_map),
                        CTX_BYTES,
                    )
                    .map_err(TsError::Load)?;
                let p_end = loader
                    .load(
                        &format!("{s}_end"),
                        codegen::gen_end(&probes, depth_map, begin_map, done_map),
                        CTX_BYTES,
                    )
                    .map_err(TsError::Load)?;
                let p_feat = loader
                    .load(
                        &format!("{s}_features"),
                        codegen::gen_features(&probes, done_map, ring),
                        CTX_BYTES,
                    )
                    .map_err(TsError::Load)?;

                let tp_begin = kernel.tracepoints.register("tscout", &format!("{s}_begin"));
                let tp_end = kernel.tracepoints.register("tscout", &format!("{s}_end"));
                let tp_feat = kernel
                    .tracepoints
                    .register("tscout", &format!("{s}_features"));
                kernel.tracepoints.attach(tp_begin, p_begin);
                kernel.tracepoints.attach(tp_end, p_end);
                kernel.tracepoints.attach(tp_feat, p_feat);
                Some(BpfRt {
                    depth_map,
                    begin_map,
                    done_map,
                    tp_begin,
                    tp_end,
                    tp_feat,
                })
            } else {
                None
            };
            subsys.insert(s, SubsysRt { probes, bpf });
        }

        let sampler = Sampler::new(config.sampler_seed);
        let ts = TScout {
            config,
            registry: OuRegistry::new(),
            sampler,
            stats: TsStats::default(),
            telemetry: kernel.telemetry.clone(),
            loader,
            ring,
            subsys,
            tasks: HashMap::new(),
            enabled: true,
            last_now: 0.0,
        };
        if ts.config.trace_every > 0 {
            ts.telemetry.trace_set_every(ts.config.trace_every);
        }
        ts.publish_bpf_telemetry();
        Ok(ts)
    }

    /// Tear down: detach and unload every Collector program (dynamic
    /// feature selection, §5.4 — modify config, then `deploy` again).
    pub fn teardown(mut self, kernel: &mut Kernel) -> TsConfig {
        for rt in self.subsys.values() {
            if let Some(bpf) = rt.bpf {
                for tp in [bpf.tp_begin, bpf.tp_end, bpf.tp_feat] {
                    for prog in kernel.tracepoints.attached_programs(tp).to_vec() {
                        kernel.tracepoints.detach(tp, prog);
                        self.loader.unload(prog);
                    }
                }
            }
        }
        self.config
    }

    /// Register an OU (Setup Phase marker metadata).
    pub fn register_ou(&mut self, name: &str, s: Subsystem, n_features: usize) -> OuId {
        self.registry.register(name, s, n_features)
    }

    /// Per-thread initialization: enables continuous counters when the
    /// mode requires them.
    pub fn register_thread(&mut self, kernel: &mut Kernel, task: TaskId) {
        if matches!(
            self.config.mode,
            CollectionMode::KernelContinuous | CollectionMode::UserContinuous
        ) {
            kernel.perf_enable_all_free(task);
        }
        self.tasks.entry(task).or_default();
    }

    /// Whether context switches for this deployment pay the PMU
    /// save/restore tax (per-task continuous counters; §6.2).
    pub fn pmu_cs_tax(&self) -> bool {
        self.config.mode == CollectionMode::UserContinuous
    }

    /// Adjust a subsystem's sampling rate at runtime (§5.3 / §6.3).
    pub fn set_sampling_rate(&mut self, s: Subsystem, rate: u8) {
        self.sampler.set_rate(s, rate);
        self.telemetry.counter_inc(
            "tscout_sampling_rate_changes_total",
            &[("subsystem", s.name())],
        );
        self.telemetry.gauge_set(
            "tscout_sampling_rate",
            &[("subsystem", s.name())],
            rate as f64,
        );
    }

    /// Globally pause/resume collection without unloading anything.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// The user-space flag (§3.1): true while the innermost in-flight OU
    /// on this thread is being collected, so the DBMS can skip feature
    /// aggregation otherwise.
    pub fn should_collect(&self, task: TaskId) -> bool {
        self.tasks
            .get(&task)
            .and_then(|t| t.inflight.last())
            .map(|f| f.collected)
            .unwrap_or(false)
    }

    // ------------------------------------------------------------------
    // Sample accounting (the telemetry side of §5.3)
    // ------------------------------------------------------------------

    fn ou_label(&self, ou: OuId) -> String {
        self.registry
            .get(ou)
            .map(|d| d.name.clone())
            .unwrap_or_else(|| format!("ou{}", ou.0))
    }

    fn mark_begun(&self, subsystem: Subsystem, ou: OuId) {
        let o = self.ou_label(ou);
        self.telemetry.counter_inc(
            "tscout_samples_begun_total",
            &[("subsystem", subsystem.name())],
        );
        self.telemetry
            .counter_inc("tscout_ou_samples_begun_total", &[("ou", &o)]);
    }

    fn mark_lost(&self, subsystem: Subsystem, ou: OuId, reason: &str) {
        let o = self.ou_label(ou);
        self.telemetry.counter_inc(
            "tscout_samples_lost_total",
            &[("subsystem", subsystem.name()), ("reason", reason)],
        );
        self.telemetry
            .counter_inc("tscout_ou_samples_lost_total", &[("ou", &o)]);
    }

    /// Parse subsystem + OU + emitting thread out of an encoded record's
    /// header (word 0 is the OU id, word 1 the tid, word 2 the subsystem
    /// index) without a full decode.
    fn record_ids(bytes: &[u8]) -> (Option<Subsystem>, Option<OuId>, u64) {
        let word = |i: usize| {
            bytes
                .get(i * 8..i * 8 + 8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        };
        let s = word(2).and_then(|i| Subsystem::from_index(i as usize));
        let ou = word(0).map(|id| OuId(id as u16));
        let tid = word(1).unwrap_or(0);
        (s, ou, tid)
    }

    /// Harvest records the ring buffer overwrote since the last call and
    /// attribute each loss to its subsystem and OU. Called on every path
    /// that pushes to the ring, so the bounded eviction queue never
    /// overflows and the accounting stays exact.
    fn account_ring_evictions(&mut self) {
        let evicted = self.loader.maps.ring_take_evicted(self.ring);
        for bytes in evicted {
            let (s, ou, tid) = Self::record_ids(&bytes);
            let s = s.unwrap_or(Subsystem::ExecutionEngine);
            let ou = ou.unwrap_or(OuId(u16::MAX));
            self.mark_lost(s, ou, "ring_overwrite");
            self.telemetry.trace_ring_evict(ou.0, tid, self.last_now);
        }
    }

    /// Export the BPF substrate's own counters (ring, map ops, verifier)
    /// as gauges. Cheap; called at deploy and on every drain.
    pub fn publish_bpf_telemetry(&self) {
        let t = &self.telemetry;
        let rs = self.loader.maps.ring_stats(self.ring);
        t.gauge_set("tscout_ring_produced", &[], rs.produced as f64);
        t.gauge_set("tscout_ring_dropped", &[], rs.dropped as f64);
        t.gauge_set("tscout_ring_bytes", &[], rs.bytes as f64);
        t.gauge_max("tscout_ring_occupancy_hwm", &[], rs.hwm as f64);
        t.gauge_set("tscout_ring_capacity", &[], rs.capacity as f64);
        let ops = self.loader.maps.op_stats();
        t.gauge_set("tscout_map_lookups", &[], ops.lookups as f64);
        t.gauge_set("tscout_map_updates", &[], ops.updates as f64);
        t.gauge_set("tscout_map_deletes", &[], ops.deletes as f64);
        t.gauge_set("tscout_map_stack_pushes", &[], ops.pushes as f64);
        t.gauge_set("tscout_map_stack_pops", &[], ops.pops as f64);
        t.gauge_set("tscout_ring_pushes", &[], ops.ring_pushes as f64);
        t.gauge_set("tscout_ring_drained", &[], ops.ring_drained as f64);
        let v = self.loader.verify_totals();
        t.gauge_set("tscout_verify_insns", &[], v.insns as f64);
        t.gauge_set("tscout_verify_insns_visited", &[], v.insns_visited as f64);
        t.gauge_set("tscout_verify_states", &[], v.states_explored as f64);
        t.gauge_set("tscout_verify_states_pruned", &[], v.states_pruned as f64);
        t.gauge_set("tscout_verify_peak_depth", &[], v.peak_depth as f64);
        t.gauge_set("tscout_verify_paths", &[], v.paths_completed as f64);
        t.gauge_set("tscout_verify_runs", &[], self.loader.verify_runs() as f64);
        t.gauge_set(
            "tscout_bpf_insns_executed",
            &[],
            self.stats.bpf_insns as f64,
        );
        let o = self.loader.opt_totals();
        t.gauge_set("tscout_opt_insns_before", &[], o.insns_before as f64);
        t.gauge_set("tscout_opt_insns_after", &[], o.insns_after as f64);
        t.gauge_set("tscout_opt_iterations", &[], o.iterations as f64);
        t.gauge_set("tscout_opt_loops_unrolled", &[], o.loops_unrolled as f64);
        t.gauge_set(
            "tscout_opt_fallbacks_total",
            &[],
            self.loader.opt_fallbacks() as f64,
        );
        for (i, pass) in tscout_bpf::PASS_NAMES.iter().enumerate() {
            t.gauge_set(
                "tscout_opt_insns_removed_total",
                &[("pass", pass)],
                o.removed[i] as f64,
            );
            t.gauge_set(
                "tscout_opt_insns_rewritten_total",
                &[("pass", pass)],
                o.rewritten[i] as f64,
            );
        }
    }

    /// Exact begun/delivered/lost totals across all subsystems.
    pub fn loss_totals(&self) -> LossTotals {
        LossTotals {
            begun: self.telemetry.counter_total("tscout_samples_begun_total"),
            delivered: self
                .telemetry
                .counter_total("tscout_samples_delivered_total"),
            lost: self.telemetry.counter_total("tscout_samples_lost_total"),
        }
    }

    // ------------------------------------------------------------------
    // Markers
    // ------------------------------------------------------------------

    /// `BEGIN` marker: decide sampling and start metric collection.
    pub fn ou_begin(&mut self, k: &mut Kernel, task: TaskId, ou: OuId) {
        self.stats.marker_events += 1;
        self.telemetry
            .counter_inc("tscout_marker_events_total", &[("marker", "begin")]);
        // Root frame: marker handling is collection-side work, so its
        // virtual time re-bases under `tscout;...` even though it runs
        // in the middle of a DBMS stack.
        let _root = k.profile_frame(task, "tscout", true);
        let _marker = k.profile_frame(task, "collector:begin", false);
        k.charge_overhead(task, k.cost.sampling_check_ns);
        let Some(def) = self.registry.get(ou) else {
            return;
        };
        let subsystem = def.subsystem;
        let configured = self.subsys.contains_key(&subsystem);
        let collected =
            self.enabled && configured && self.sampler.decide(task.0 as usize, subsystem);

        let mut snap = None;
        let mut trace = None;
        if collected {
            self.stats.sampled_events += 1;
            self.mark_begun(subsystem, ou);
            // Lineage sampling happens at marker fire time. The id lives
            // in a side table keyed by (ou, tid) — never in the record —
            // and the (virtual) cost is charged on the Processor's clock,
            // so sample bytes are identical with tracing on or off.
            self.last_now = k.now(task);
            trace = self.telemetry.trace_begin(
                ou.0,
                subsystem.index() as u8,
                task.as_u64(),
                self.last_now,
            );
            match self.config.mode {
                CollectionMode::KernelContinuous => {
                    let r0 = self.fire(k, task, subsystem, Marker::Begin, ou, 0, &[]);
                    if r0 != 0 {
                        self.mark_lost(subsystem, ou, "begin_error");
                        if let Some(id) = trace {
                            self.telemetry
                                .trace_marker_abort(id, k.now(task), "begin_error");
                        }
                        self.state_machine_reset(k, task);
                        return;
                    }
                }
                CollectionMode::UserToggle => {
                    k.task_mut(task).pmu.reset();
                    k.perf_enable_all(task); // ioctl ENABLE
                    k.syscall(task, SyscallKind::Generic); // io/net stats read
                    snap = Some(self.user_snapshot(k, task, /*read_pmu=*/ false));
                }
                CollectionMode::UserContinuous => {
                    let pmu = k.perf_read_user(task); // one group-read syscall
                    k.syscall(task, SyscallKind::Generic);
                    let mut s = self.user_snapshot(k, task, false);
                    s.pmu = pmu;
                    snap = Some(s);
                }
            }
        }
        self.tasks.entry(task).or_default().inflight.push(InFlight {
            ou,
            subsystem,
            collected,
            phase: Phase::Began,
            snap,
            done: None,
            trace,
        });
    }

    /// `END` marker: stop metric collection and compute deltas.
    pub fn ou_end(&mut self, k: &mut Kernel, task: TaskId, ou: OuId) {
        self.stats.marker_events += 1;
        self.telemetry
            .counter_inc("tscout_marker_events_total", &[("marker", "end")]);
        let _root = k.profile_frame(task, "tscout", true);
        let _marker = k.profile_frame(task, "collector:end", false);
        k.charge_overhead(task, k.cost.sampling_check_ns);
        let ok = matches!(
            self.tasks.get(&task).and_then(|t| t.inflight.last()),
            Some(top) if top.ou == ou && top.phase == Phase::Began
        );
        if !ok {
            self.state_machine_reset(k, task);
            return;
        }
        let (collected, subsystem) = {
            let top = self
                .tasks
                .get_mut(&task)
                .unwrap()
                .inflight
                .last_mut()
                .unwrap();
            top.phase = Phase::Ended;
            (top.collected, top.subsystem)
        };
        if !collected {
            return;
        }
        match self.config.mode {
            CollectionMode::KernelContinuous => {
                let r0 = self.fire(k, task, subsystem, Marker::End, ou, 0, &[]);
                if r0 != 0 {
                    self.state_machine_reset(k, task);
                }
            }
            CollectionMode::UserToggle => {
                // The OU ends *here*; the toggling syscalls below are
                // instrumentation overhead, not OU time.
                let end_ns = k.now(task) as u64;
                k.perf_disable_all(task); // ioctl DISABLE
                let pmu = k.perf_read_user(task); // read syscall
                k.syscall(task, SyscallKind::Generic); // io/net stats
                self.user_finish(k, task, subsystem, pmu, /*delta_pmu=*/ false, end_ns);
            }
            CollectionMode::UserContinuous => {
                let end_ns = k.now(task) as u64;
                let pmu = k.perf_read_user(task);
                k.syscall(task, SyscallKind::Generic);
                self.user_finish(k, task, subsystem, pmu, true, end_ns);
            }
        }
    }

    /// `FEATURES` marker: attach input features (and user-level metrics
    /// such as the memory probe's bytes) and emit the sample.
    pub fn ou_features(
        &mut self,
        k: &mut Kernel,
        task: TaskId,
        ou: OuId,
        features: &[u64],
        user_metrics: &[u64],
    ) {
        let mut payload = Vec::with_capacity(features.len() + user_metrics.len());
        payload.extend_from_slice(features);
        payload.extend_from_slice(user_metrics);
        self.features_common(k, task, ou, 0, &payload);
    }

    /// Vectorized `FEATURES` for fused pipelines (§5.2): one metrics
    /// sample covers several OUs; each group is `(ou, features)`.
    pub fn ou_features_vec(
        &mut self,
        k: &mut Kernel,
        task: TaskId,
        pipeline_ou: OuId,
        groups: &[(OuId, Vec<u64>)],
    ) {
        let mut payload = Vec::new();
        for (ou, feats) in groups {
            payload.push(ou.as_u64());
            payload.push(feats.len() as u64);
            payload.extend_from_slice(feats);
        }
        self.features_common(k, task, pipeline_ou, groups.len() as u64, &payload);
    }

    fn features_common(
        &mut self,
        k: &mut Kernel,
        task: TaskId,
        ou: OuId,
        flags: u64,
        payload: &[u64],
    ) {
        self.stats.marker_events += 1;
        self.telemetry
            .counter_inc("tscout_marker_events_total", &[("marker", "features")]);
        let _root = k.profile_frame(task, "tscout", true);
        let _marker = k.profile_frame(task, "collector:features", false);
        k.charge_overhead(task, k.cost.sampling_check_ns);
        let ok = matches!(
            self.tasks.get(&task).and_then(|t| t.inflight.last()),
            Some(top) if top.ou == ou && top.phase == Phase::Ended
        );
        if !ok {
            self.state_machine_reset(k, task);
            return;
        }
        let top = self.tasks.get_mut(&task).unwrap().inflight.pop().unwrap();
        if !top.collected {
            return;
        }
        match self.config.mode {
            CollectionMode::KernelContinuous => {
                let before = self.stats.samples_emitted;
                let r0 = self.fire(k, task, top.subsystem, Marker::Features, ou, flags, payload);
                self.last_now = k.now(task);
                // The FEATURES program is the one that publishes; a sample
                // that produced no ring record is lost right here.
                if self.stats.samples_emitted == before {
                    self.mark_lost(top.subsystem, ou, "features_error");
                    if let Some(id) = top.trace {
                        self.telemetry
                            .trace_marker_abort(id, self.last_now, "features_error");
                    }
                } else if let Some(id) = top.trace {
                    self.telemetry
                        .trace_publish(id, self.last_now, self.ring_len() as u64);
                }
                self.account_ring_evictions();
                if r0 != 0 {
                    self.state_machine_reset(k, task);
                }
            }
            CollectionMode::UserToggle | CollectionMode::UserContinuous => {
                let Some((start, elapsed, metrics)) = top.done else {
                    self.mark_lost(top.subsystem, ou, "no_end_snapshot");
                    if let Some(id) = top.trace {
                        self.telemetry
                            .trace_marker_abort(id, k.now(task), "no_end_snapshot");
                    }
                    return;
                };
                let mut p = payload.to_vec();
                p.truncate(MAX_PAYLOAD_WORDS);
                let rec = RawRecord {
                    ou: ou.as_u64(),
                    tid: task.as_u64(),
                    subsystem: top.subsystem.index() as u64,
                    flags,
                    start_ns: start,
                    elapsed_ns: elapsed,
                    metrics,
                    payload: p,
                };
                self.emit_user(k, task, &rec, top.trace);
            }
        }
    }

    // ------------------------------------------------------------------
    // Mode internals
    // ------------------------------------------------------------------

    fn user_snapshot(&self, k: &Kernel, task: TaskId, read_pmu: bool) -> UserSnapshot {
        let t = k.task(task);
        let mut pmu = [PmuReading {
            value: 0,
            time_enabled: 0,
            time_running: 0,
        }; 7];
        if read_pmu {
            for c in ALL_COUNTERS {
                pmu[c.index()] = t.pmu.read(c);
            }
        }
        UserSnapshot {
            start_ns: t.clock_ns as u64,
            pmu,
            ioac: t.ioac,
            tcp: t.tcp,
        }
    }

    fn user_finish(
        &mut self,
        k: &mut Kernel,
        task: TaskId,
        subsystem: Subsystem,
        pmu_end: [PmuReading; 7],
        delta_pmu: bool,
        end_ns: u64,
    ) {
        let probes = self.subsys[&subsystem].probes;
        let now = end_ns;
        let cur_io = k.task(task).ioac;
        let cur_tcp = k.task(task).tcp;
        let top = self
            .tasks
            .get_mut(&task)
            .unwrap()
            .inflight
            .last_mut()
            .unwrap();
        let Some(snap) = &top.snap else { return };
        let mut metrics = Vec::with_capacity(probes.metric_words());
        if probes.cpu {
            for c in ALL_COUNTERS {
                let end = pmu_end[c.index()].normalized();
                let begin = if delta_pmu {
                    snap.pmu[c.index()].normalized()
                } else {
                    0.0
                };
                metrics.push((end - begin).max(0.0) as u64);
            }
        }
        if probes.disk {
            metrics.push(cur_io.read_bytes - snap.ioac.read_bytes);
            metrics.push(cur_io.write_bytes - snap.ioac.write_bytes);
            metrics.push(cur_io.read_syscalls - snap.ioac.read_syscalls);
            metrics.push(cur_io.write_syscalls - snap.ioac.write_syscalls);
        }
        if probes.net {
            metrics.push(cur_tcp.bytes_sent - snap.tcp.bytes_sent);
            metrics.push(cur_tcp.bytes_received - snap.tcp.bytes_received);
            metrics.push(cur_tcp.segs_out - snap.tcp.segs_out);
            metrics.push(cur_tcp.segs_in - snap.tcp.segs_in);
        }
        top.done = Some((snap.start_ns, now - snap.start_ns, metrics));
    }

    /// Serialized user-space emission: all threads funnel through one
    /// lock-guarded copy path before the record reaches the Processor.
    /// When the path is backlogged the sample is *dropped* rather than
    /// queued — TScout never applies back pressure to the DBMS (§3) —
    /// which is what caps the user-space methods' aggregate data rate at
    /// roughly `1 / user_emit_lock_ns` (Fig. 6).
    fn emit_user(&mut self, k: &mut Kernel, task: TaskId, rec: &RawRecord, trace: Option<TraceId>) {
        let _frame = k.profile_frame(task, "emit:user", false);
        // The emitting thread pays an asynchronous hand-off (write syscall
        // + record copy into the staging buffer)...
        k.syscall(task, SyscallKind::Generic);
        k.charge_overhead(task, 1_800.0);
        let now = k.now(task);
        self.last_now = now;
        let hold = k.cost.user_emit_lock_ns;
        if k.user_emit_path.free_at() - now > 24.0 * hold {
            // ...but the serialized delivery path drains at 1/hold; past a
            // bounded backlog the staging buffer overflows and the sample
            // is dropped (no back pressure, §3).
            self.stats.user_emit_drops += 1;
            let s =
                Subsystem::from_index(rec.subsystem as usize).unwrap_or(Subsystem::ExecutionEngine);
            self.mark_lost(s, OuId(rec.ou as u16), "emit_backlog");
            if let Some(id) = trace {
                self.telemetry.trace_marker_abort(id, now, "emit_backlog");
            }
            return;
        }
        let bytes = encode_record(rec);
        k.user_emit_path.acquire(now, hold);
        let _ = self.loader.maps.ring_push(self.ring, bytes);
        self.stats.samples_emitted += 1;
        if let Some(id) = trace {
            self.telemetry
                .trace_publish(id, now, self.ring_len() as u64);
        }
        self.account_ring_evictions();
    }

    /// Fire a marker tracepoint and run the attached Collector programs.
    #[allow(clippy::too_many_arguments)]
    fn fire(
        &mut self,
        k: &mut Kernel,
        task: TaskId,
        subsystem: Subsystem,
        which: Marker,
        ou: OuId,
        flags: u64,
        payload: &[u64],
    ) -> u64 {
        let Some(bpf) = self.subsys.get(&subsystem).and_then(|r| r.bpf) else {
            return 0;
        };
        let tp = match which {
            Marker::Begin => bpf.tp_begin,
            Marker::End => bpf.tp_end,
            Marker::Features => bpf.tp_feat,
        };
        let progs = k.fire_tracepoint(task, tp);
        if progs.is_empty() {
            return 0;
        }
        let ctx = encode_ctx(
            ou.as_u64(),
            task.as_u64(),
            subsystem.index() as u64,
            flags,
            payload,
        );
        let mut result = 0;
        for prog in progs {
            // Held across both the VM run (helper charges land inside)
            // and the post-run instruction-cost charge below.
            let _prog_frame = self.loader.profile_scope(task.0 as usize, prog);
            let _vm_frame = k.profile_frame(task, "bpf:vm", false);
            let run = {
                let mut world = KernelWorld { k, task };
                self.loader.run(prog, &ctx, &mut world)
            };
            match run {
                Ok((r0, stats)) => {
                    let ns = stats.insns as f64 * k.cost.bpf_insn_ns
                        + stats.ring_publishes as f64 * k.cost.ringbuf_publish_ns;
                    k.charge_overhead(task, ns);
                    self.stats.bpf_insns += stats.insns;
                    self.stats.samples_emitted += stats.ring_publishes;
                    if r0 != 0 {
                        result = r0;
                    }
                }
                Err(_) => result = u64::MAX,
            }
        }
        result
    }

    /// §5.1: on out-of-order markers, reset collection for the thread,
    /// discard intermediate results, and count the error.
    fn state_machine_reset(&mut self, k: &mut Kernel, task: TaskId) {
        self.stats.state_machine_errors += 1;
        self.telemetry
            .counter_inc("tscout_state_machine_resets_total", &[]);
        // Every collected sample still in flight on this thread dies with
        // the reset — attribute each one before discarding.
        let discarded: Vec<(Subsystem, OuId, Option<TraceId>)> = self
            .tasks
            .get(&task)
            .map(|t| {
                t.inflight
                    .iter()
                    .filter(|f| f.collected)
                    .map(|f| (f.subsystem, f.ou, f.trace))
                    .collect()
            })
            .unwrap_or_default();
        for (s, ou, trace) in discarded {
            self.mark_lost(s, ou, "state_reset");
            if let Some(id) = trace {
                self.telemetry
                    .trace_marker_abort(id, k.now(task), "state_reset");
            }
        }
        if let Some(t) = self.tasks.get_mut(&task) {
            t.inflight.clear();
        }
        let tid = task.as_u64().to_le_bytes();
        for rt in self.subsys.values() {
            if let Some(bpf) = rt.bpf {
                let _ = self.loader.maps.delete(bpf.done_map, &tid);
                let _ = self.loader.maps.delete(bpf.depth_map, &tid);
                for d in 0u64..64 {
                    let bkey = ((task.as_u64() << 8) | d).to_le_bytes();
                    let _ = self.loader.maps.delete(bpf.begin_map, &bkey);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Processor-facing surface
    // ------------------------------------------------------------------

    /// Drain up to `max` raw records from the ring buffer. Every drained
    /// record is counted as *delivered* toward its subsystem and OU; ring
    /// overwrites that happened since the last drain are attributed as
    /// losses first.
    pub fn drain_ring(&mut self, max: usize) -> Vec<Vec<u8>> {
        self.account_ring_evictions();
        let raw = self.loader.maps.ring_drain(self.ring, max);
        for bytes in &raw {
            let (s, ou, _tid) = Self::record_ids(bytes);
            let s = s.unwrap_or(Subsystem::ExecutionEngine);
            let o = ou
                .map(|o| self.ou_label(o))
                .unwrap_or_else(|| "unknown".into());
            self.telemetry
                .counter_inc("tscout_samples_delivered_total", &[("subsystem", s.name())]);
            self.telemetry
                .counter_inc("tscout_ou_samples_delivered_total", &[("ou", &o)]);
        }
        self.publish_bpf_telemetry();
        raw
    }

    /// Current ring occupancy.
    pub fn ring_len(&self) -> usize {
        self.loader.maps.ring_len(self.ring)
    }

    /// Records lost to ring overwrites so far.
    pub fn ring_dropped(&self) -> u64 {
        self.loader.maps.ring_dropped(self.ring)
    }

    /// Ring capacity configured at deploy time.
    pub fn ring_capacity(&self) -> usize {
        self.config.ring_capacity
    }

    /// Convenience: drain everything and decode into training points
    /// (bypasses the Processor's cost accounting; meant for tests and
    /// offline analysis).
    pub fn drain_decoded(&mut self) -> Vec<TrainingPoint> {
        let raw = self.drain_ring(usize::MAX);
        raw.iter()
            .filter_map(|b| decode_record(b))
            .flat_map(|r| split_record(&r, &self.registry))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tscout_kernel::HardwareProfile;

    fn setup(mode: CollectionMode) -> (Kernel, TScout, TaskId, OuId) {
        let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 5);
        k.noise_frac = 0.0;
        let mut cfg = TsConfig::new(mode);
        cfg.enable_subsystem(Subsystem::ExecutionEngine, ProbeSet::all());
        let mut ts = TScout::deploy(&mut k, cfg).unwrap();
        let ou = ts.register_ou("seq_scan", Subsystem::ExecutionEngine, 2);
        ts.set_sampling_rate(Subsystem::ExecutionEngine, 100);
        let task = k.create_task();
        ts.register_thread(&mut k, task);
        (k, ts, task, ou)
    }

    fn one_ou(k: &mut Kernel, ts: &mut TScout, task: TaskId, ou: OuId) {
        ts.ou_begin(k, task, ou);
        k.charge_cpu(task, 100_000.0, 1 << 16);
        ts.ou_end(k, task, ou);
        ts.ou_features(k, task, ou, &[1000, 64], &[4096]);
    }

    #[test]
    fn kernel_mode_end_to_end() {
        let (mut k, mut ts, task, ou) = setup(CollectionMode::KernelContinuous);
        one_ou(&mut k, &mut ts, task, ou);
        assert_eq!(ts.stats.samples_emitted, 1);
        assert_eq!(ts.stats.state_machine_errors, 0);
        assert!(ts.stats.bpf_insns > 100, "collector must actually run BPF");
        let pts = ts.drain_decoded();
        assert_eq!(pts.len(), 1);
        let p = &pts[0];
        assert_eq!(p.ou_name, "seq_scan");
        assert_eq!(p.features, vec![1000.0, 64.0]);
        assert_eq!(p.user_metrics, vec![4096]);
        assert!(p.elapsed_ns > 0);
        assert_eq!(p.metrics.len(), 15);
        // CPU instructions metric should be near the charged 100k.
        let instr = p.metrics[1] as f64;
        assert!(
            (instr - 100_000.0).abs() / 100_000.0 < 0.05,
            "instr {instr}"
        );
    }

    #[test]
    fn user_modes_end_to_end() {
        for mode in [CollectionMode::UserToggle, CollectionMode::UserContinuous] {
            let (mut k, mut ts, task, ou) = setup(mode);
            one_ou(&mut k, &mut ts, task, ou);
            let pts = ts.drain_decoded();
            assert_eq!(pts.len(), 1, "{mode:?}");
            let instr = pts[0].metrics[1] as f64;
            assert!(
                (instr - 100_000.0).abs() / 100_000.0 < 0.25,
                "{mode:?} instr {instr}"
            );
        }
    }

    #[test]
    fn unsampled_ous_cost_almost_nothing() {
        let (mut k, mut ts, task, ou) = setup(CollectionMode::KernelContinuous);
        ts.set_sampling_rate(Subsystem::ExecutionEngine, 0);
        let before = k.now(task);
        ts.ou_begin(&mut k, task, ou);
        ts.ou_end(&mut k, task, ou);
        ts.ou_features(&mut k, task, ou, &[1], &[]);
        let overhead = k.now(task) - before;
        assert!(overhead < 50.0, "sampling-off overhead {overhead} ns");
        assert_eq!(ts.stats.samples_emitted, 0);
    }

    #[test]
    fn kernel_mode_is_cheaper_per_sample_than_user_toggle() {
        let cost = |mode| {
            let (mut k, mut ts, task, ou) = setup(mode);
            let before = k.now(task);
            ts.ou_begin(&mut k, task, ou);
            ts.ou_end(&mut k, task, ou);
            ts.ou_features(&mut k, task, ou, &[1, 2], &[]);
            k.now(task) - before
        };
        let kernel = cost(CollectionMode::KernelContinuous);
        let toggle = cost(CollectionMode::UserToggle);
        assert!(
            toggle > 1.5 * kernel,
            "toggle {toggle} should far exceed kernel {kernel}"
        );
    }

    #[test]
    fn out_of_order_markers_reset_state() {
        let (mut k, mut ts, task, ou) = setup(CollectionMode::KernelContinuous);
        // END without BEGIN.
        ts.ou_end(&mut k, task, ou);
        assert_eq!(ts.stats.state_machine_errors, 1);
        // Recovery: a full triple still works afterwards.
        one_ou(&mut k, &mut ts, task, ou);
        assert_eq!(ts.drain_decoded().len(), 1);
    }

    #[test]
    fn features_for_wrong_ou_resets() {
        let (mut k, mut ts, task, ou) = setup(CollectionMode::KernelContinuous);
        let other = ts.register_ou("filter", Subsystem::ExecutionEngine, 1);
        ts.ou_begin(&mut k, task, ou);
        ts.ou_end(&mut k, task, ou);
        ts.ou_features(&mut k, task, other, &[1], &[]);
        assert_eq!(ts.stats.state_machine_errors, 1);
        assert_eq!(ts.drain_decoded().len(), 0);
    }

    #[test]
    fn nested_ous_both_collected() {
        let (mut k, mut ts, task, outer) = setup(CollectionMode::KernelContinuous);
        let inner = ts.register_ou("hash_join", Subsystem::ExecutionEngine, 1);
        ts.ou_begin(&mut k, task, outer);
        k.charge_cpu(task, 10_000.0, 4096);
        ts.ou_begin(&mut k, task, inner);
        k.charge_cpu(task, 30_000.0, 4096);
        ts.ou_end(&mut k, task, inner);
        ts.ou_features(&mut k, task, inner, &[7], &[]);
        k.charge_cpu(task, 10_000.0, 4096);
        ts.ou_end(&mut k, task, outer);
        ts.ou_features(&mut k, task, outer, &[9, 9], &[]);
        let pts = ts.drain_decoded();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].ou_name, "hash_join");
        assert_eq!(pts[1].ou_name, "seq_scan");
        assert!(
            pts[1].elapsed_ns > pts[0].elapsed_ns,
            "outer OU encloses inner"
        );
    }

    #[test]
    fn fused_pipeline_emits_vectorized_features() {
        let (mut k, mut ts, task, pipe) = setup(CollectionMode::KernelContinuous);
        let idx = ts.register_ou("idx_lookup", Subsystem::ExecutionEngine, 2);
        let filt = ts.register_ou("filter2", Subsystem::ExecutionEngine, 1);
        ts.ou_begin(&mut k, task, pipe);
        k.charge_cpu(task, 90_000.0, 4096);
        ts.ou_end(&mut k, task, pipe);
        ts.ou_features_vec(
            &mut k,
            task,
            pipe,
            &[(idx, vec![100, 3]), (filt, vec![200])],
        );
        let pts = ts.drain_decoded();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].ou_name, "idx_lookup");
        assert_eq!(pts[1].ou_name, "filter2");
        let total: u64 = pts.iter().map(|p| p.elapsed_ns).sum();
        assert!(total > 0);
    }

    #[test]
    fn should_collect_reflects_sampling() {
        let (mut k, mut ts, task, ou) = setup(CollectionMode::KernelContinuous);
        ts.ou_begin(&mut k, task, ou);
        assert!(ts.should_collect(task));
        ts.ou_end(&mut k, task, ou);
        ts.ou_features(&mut k, task, ou, &[1, 2], &[]);
        assert!(!ts.should_collect(task));

        ts.set_sampling_rate(Subsystem::ExecutionEngine, 0);
        ts.ou_begin(&mut k, task, ou);
        assert!(!ts.should_collect(task));
    }

    #[test]
    fn disabled_subsystem_collects_nothing() {
        let (mut k, mut ts, task, _) = setup(CollectionMode::KernelContinuous);
        let wal = ts.register_ou("log_serialize", Subsystem::LogSerializer, 1);
        ts.ou_begin(&mut k, task, wal);
        ts.ou_end(&mut k, task, wal);
        ts.ou_features(&mut k, task, wal, &[5], &[]);
        assert_eq!(ts.stats.samples_emitted, 0);
        assert_eq!(ts.stats.state_machine_errors, 0);
    }

    #[test]
    fn teardown_detaches_everything() {
        let (mut k, ts, task, _ou) = setup(CollectionMode::KernelContinuous);
        let cfg = ts.teardown(&mut k);
        assert_eq!(cfg.subsystems.len(), 1);
        // Firing the tracepoints is now free (NOP again).
        let tp = k
            .tracepoints
            .lookup("tscout", "execution_engine_begin")
            .unwrap();
        let before = k.now(task);
        assert!(k.fire_tracepoint(task, tp).is_empty());
        assert_eq!(k.now(task), before);
    }

    #[test]
    fn loss_accounting_is_exact_under_ring_pressure() {
        let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 5);
        k.noise_frac = 0.0;
        let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
        cfg.ring_capacity = 4;
        cfg.enable_subsystem(Subsystem::ExecutionEngine, ProbeSet::cpu_only());
        let mut ts = TScout::deploy(&mut k, cfg).unwrap();
        let ou = ts.register_ou("scan", Subsystem::ExecutionEngine, 1);
        ts.set_sampling_rate(Subsystem::ExecutionEngine, 100);
        let task = k.create_task();
        ts.register_thread(&mut k, task);
        for i in 0..50 {
            ts.ou_begin(&mut k, task, ou);
            k.charge_cpu(task, 1000.0, 64);
            ts.ou_end(&mut k, task, ou);
            ts.ou_features(&mut k, task, ou, &[i], &[]);
        }
        ts.drain_ring(usize::MAX);
        let lt = ts.loss_totals();
        assert_eq!(lt.begun, 50);
        assert_eq!(lt.delivered, 4);
        assert_eq!(lt.lost, 46);
        assert_eq!(lt.delivered + lt.lost, lt.begun);
        // All losses here are ring overwrites, attributed to the right
        // subsystem and OU.
        assert_eq!(
            ts.telemetry.counter_value(
                "tscout_samples_lost_total",
                &[
                    ("subsystem", "execution_engine"),
                    ("reason", "ring_overwrite")
                ],
            ),
            46
        );
        assert_eq!(
            ts.telemetry
                .counter_value("tscout_ou_samples_lost_total", &[("ou", "scan")]),
            46
        );
    }

    #[test]
    fn state_resets_count_inflight_samples_as_lost() {
        let (mut k, mut ts, task, ou) = setup(CollectionMode::KernelContinuous);
        // BEGIN then a wrong-OU FEATURES: the in-flight sample dies.
        let other = ts.register_ou("other", Subsystem::ExecutionEngine, 1);
        ts.ou_begin(&mut k, task, ou);
        ts.ou_end(&mut k, task, ou);
        ts.ou_features(&mut k, task, other, &[1], &[]);
        ts.drain_ring(usize::MAX);
        let lt = ts.loss_totals();
        assert_eq!(lt.begun, 1);
        assert_eq!(lt.delivered, 0);
        assert_eq!(lt.lost, 1);
        assert_eq!(
            ts.telemetry.counter_value(
                "tscout_samples_lost_total",
                &[("subsystem", "execution_engine"), ("reason", "state_reset")],
            ),
            1
        );
    }

    #[test]
    fn ring_overwrites_under_pressure() {
        let mut k = Kernel::with_seed(HardwareProfile::server_2x20(), 5);
        k.noise_frac = 0.0;
        let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
        cfg.ring_capacity = 4;
        cfg.enable_subsystem(Subsystem::ExecutionEngine, ProbeSet::cpu_only());
        let mut ts = TScout::deploy(&mut k, cfg).unwrap();
        let ou = ts.register_ou("scan", Subsystem::ExecutionEngine, 1);
        ts.set_sampling_rate(Subsystem::ExecutionEngine, 100);
        let task = k.create_task();
        ts.register_thread(&mut k, task);
        for i in 0..10 {
            ts.ou_begin(&mut k, task, ou);
            k.charge_cpu(task, 1000.0, 64);
            ts.ou_end(&mut k, task, ou);
            ts.ou_features(&mut k, task, ou, &[i], &[]);
        }
        assert_eq!(ts.ring_len(), 4);
        assert_eq!(ts.ring_dropped(), 6);
        // The newest samples survive (overwrite-oldest).
        let pts = ts.drain_decoded();
        assert_eq!(pts[0].features, vec![6.0]);
    }
}
