//! The traced run: a benchmark-side copy of the workload driver's loop
//! (`tscout_workloads::driver::run_inner`) that makes the same public
//! calls in the same order and wraps each layer's calls in a span.
//! `ModelLifecycle::step` is split into its public parts. The copy must
//! reproduce the real driver exactly (committed count, delivered-point
//! CRC, archive bytes); the caller checks that before reporting spans.

use rand::rngs::StdRng;
use rand::SeedableRng;

use noisetap::engine::SessionId;
use noisetap::EngineMode;
use tscout::{Processor, Sink, TScout, TrainingPoint};
use tscout_actions::{DbmsActuator, PlannerInputs, SubsystemRate, POLICY_COUNT};
use tscout_archive::Archive;
use tscout_models::registry::SwapDecision;
use tscout_models::{datasets_from_archive, OuData};
use tscout_workloads::driver::{assign_templates, ModelLifecycle, QuerySpan, RunStats, TxnCtx};

use crate::sim::Sim;
use crate::span::{Span, Tracer};

/// The lifecycle state the real driver keeps in private fields.
#[derive(Debug, Default)]
struct LifecycleExtra {
    pending_rebaseline: bool,
    last_exec_predicted_ns: Option<f64>,
}

/// Same actuator as the real driver's.
struct Actuator<'a> {
    ts: &'a mut TScout,
    mode: &'a mut EngineMode,
    archive: &'a mut Archive,
    retrain_requested: bool,
}

impl DbmsActuator for Actuator<'_> {
    fn set_sampling_rate(&mut self, subsystem: &str, rate: u8) {
        if let Some(s) = tscout::ALL_SUBSYSTEMS
            .into_iter()
            .find(|s| s.name() == subsystem)
        {
            self.ts.set_sampling_rate(s, rate);
        }
    }
    fn trigger_retrain(&mut self) {
        self.retrain_requested = true;
    }
    fn schedule_compaction(&mut self) {
        self.archive.request_compaction();
    }
    fn hold_compaction(&mut self, hold: bool) {
        self.archive.set_compaction_hold(hold);
    }
    fn set_pipeline_mode(&mut self, fused: bool) {
        *self.mode = if fused {
            EngineMode::Fused
        } else {
            EngineMode::PerOperator
        };
    }
}

/// One lifecycle turn, `ModelLifecycle::step` with spans around the
/// archive and model calls.
#[allow(clippy::too_many_arguments)]
fn lifecycle_step(
    lc: &mut ModelLifecycle,
    extra: &mut LifecycleExtra,
    kernel: &mut tscout_kernel::Kernel,
    task: tscout_kernel::TaskId,
    points: &[TrainingPoint],
    trace: &[QuerySpan],
    concurrency: usize,
    tracer: &mut Tracer,
) {
    let _root = kernel.profile_frame(task, "tscout", true);
    if !points.is_empty() && lc.registry.live().is_some() {
        let mut feats: Vec<f64> = Vec::new();
        let (mut exec_sum, mut exec_n) = (0.0f64, 0u64);
        for p in points {
            feats.clear();
            feats.extend_from_slice(&p.features);
            feats.push(kernel.hw.clock_ghz);
            feats.push(concurrency as f64);
            if let Some(predicted) = lc.registry.predict_ns(&p.ou_name, &feats) {
                kernel
                    .telemetry
                    .observe_residual(&p.ou_name, predicted, p.elapsed_ns as f64);
                if p.subsystem == tscout::Subsystem::ExecutionEngine {
                    exec_sum += predicted;
                    exec_n += 1;
                }
            }
        }
        if exec_n > 0 {
            extra.last_exec_predicted_ns = Some(exec_sum / exec_n as f64);
        }
    }
    if !points.is_empty() {
        let _frame = kernel.profile_frame(task, "processor:archive", false);
        let start = kernel.now(task);
        let tagged = assign_templates(points, trace);
        kernel.charge_overhead(
            task,
            tagged.len() as f64 * kernel.cost.archive_per_sample_ns,
        );
        tracer.enter(Span::ArchiveAppend);
        for (p, template) in &tagged {
            if lc.archive.append(p.to_sample(*template)).is_ok() {
                lc.archived_samples += 1;
            }
        }
        tracer.exit();
        let appended = kernel.now(task);
        kernel.telemetry.trace_lifecycle_stamp(
            tscout_telemetry::Stage::ArchiveMemtable,
            start,
            appended,
            lc.archive.buffered_samples() as u64,
        );
        let retired_before = kernel
            .telemetry
            .counter_value("archive_samples_retired_total", &[]);
        tracer.enter(Span::ArchiveFlushCompact);
        let _ = lc.archive.flush();
        let _ = lc.archive.maybe_compact();
        tracer.exit();
        let now = kernel.now(task);
        kernel.telemetry.trace_lifecycle_stamp(
            tscout_telemetry::Stage::SegmentSeal,
            appended,
            now,
            0,
        );
        let retired = kernel
            .telemetry
            .counter_value("archive_samples_retired_total", &[])
            .saturating_sub(retired_before);
        if retired > 0 {
            kernel.telemetry.trace_compacted(retired, now);
        }
        kernel
            .telemetry
            .span("archive_ingest", "processor", start, now - start);
    }
    let _frame = kernel.profile_frame(task, "models:retrain", false);
    let start = kernel.now(task);
    let data = tracer.time(Span::ModelsDataset, || {
        datasets_from_archive(&lc.archive, kernel.hw.clock_ghz, concurrency)
    });
    let n_points: usize = data.iter().map(OuData::len).sum();
    kernel.telemetry.trace_lifecycle_stamp(
        tscout_telemetry::Stage::Dataset,
        start,
        kernel.now(task),
        n_points as u64,
    );
    kernel.charge_overhead(task, n_points as f64 * kernel.cost.retrain_per_point_ns);
    let holdout_every = lc.holdout_every;
    match tracer.time(Span::ModelsRetrain, || {
        lc.registry.retrain_split(&data, holdout_every)
    }) {
        SwapDecision::Accepted { .. } => lc.swaps_accepted += 1,
        SwapDecision::Rejected { .. } => lc.swaps_rejected += 1,
        SwapDecision::Skipped => {}
    }
    lc.retrains += 1;
    let now = kernel.now(task);
    let completed = kernel
        .telemetry
        .trace_lifecycle_complete(now, lc.registry.generation());
    if completed > 0 {
        kernel.charge_overhead(
            task,
            completed as f64 * 4.0 * kernel.cost.trace_stage_record_ns,
        );
    }
    kernel
        .telemetry
        .span("retrain", "models", start, now - start);
}

/// Run `sim` like `driver::run` / `driver::run_with_lifecycle`, with the
/// whole run as a [`Span::DriverRun`] root.
pub fn run_traced(sim: &mut Sim, tracer: &mut Tracer) -> RunStats {
    tracer.enter(Span::DriverRun);
    let stats = run_inner(sim, tracer);
    tracer.exit();
    stats
}

#[allow(clippy::too_many_lines)]
fn run_inner(sim: &mut Sim, tracer: &mut Tracer) -> RunStats {
    let Sim {
        db,
        workload,
        lifecycle,
        opts,
    } = sim;
    let mut lifecycle = lifecycle.as_mut();
    let mut extra = LifecycleExtra::default();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let terminals: Vec<SessionId> = (0..opts.terminals).map(|_| db.create_session()).collect();
    let start_ns = terminals
        .iter()
        .map(|s| db.now(*s))
        .fold(0.0f64, f64::max)
        .max(db.kernel.now(db.wal.task));
    for s in &terminals {
        let task = db.session_task(*s);
        db.kernel.advance_to(task, start_ns);
    }
    db.kernel.set_runnable(opts.terminals as u32 + 1);

    let mut processor = Processor::new(&mut db.kernel, Sink::Memory(Vec::new()));
    processor.trace_parks = lifecycle.is_some();
    db.kernel.advance_to(processor.task, start_ns);

    let end_ns = start_ns + opts.duration_ns;
    let mut trace: Vec<QuerySpan> = Vec::new();
    let mut committed = 0u64;
    let mut aborted = 0u64;
    let mut latencies = Vec::new();
    let mut txn_ends = Vec::new();
    let mut next_pump = start_ns + opts.pump_every_ns;
    let mut next_gc = if opts.gc_every_ns > 0.0 {
        start_ns + opts.gc_every_ns
    } else {
        f64::MAX
    };
    let mut all_points: Vec<TrainingPoint> = Vec::new();
    let mut next_retrain = match lifecycle.as_ref() {
        Some(lc) if lc.retrain_every_ns < f64::MAX => start_ns + lc.retrain_every_ns,
        _ => f64::MAX,
    };
    let mut last_stmt_recorded = db.kernel.telemetry.stmt_recorded();

    loop {
        let (&sid, now) = terminals
            .iter()
            .map(|s| (s, db.now(*s)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one terminal");
        if now >= end_ns {
            break;
        }
        if now >= next_pump {
            let pump_start = now;
            tracer.time(Span::DbPumpWal, || db.pump_wal(now));
            let (kernel, ts) = db.collection_parts();
            if let Some(ts) = ts {
                tracer.time(Span::CoreProcessorPoll, || processor.poll(kernel, ts, now));
            }
            if now >= next_retrain {
                if let Some(lc) = lifecycle.as_deref_mut() {
                    let points = processor.take_points();
                    let gen_before = lc.registry.generation();
                    lifecycle_step(
                        lc,
                        &mut extra,
                        kernel,
                        processor.task,
                        &points,
                        &trace,
                        opts.terminals,
                        tracer,
                    );
                    all_points.extend(points);
                    if extra.pending_rebaseline && lc.registry.generation() > gen_before {
                        let _root = kernel.profile_frame(processor.task, "tscout", true);
                        let _frame =
                            kernel.profile_frame(processor.task, "actions:rebaseline", false);
                        let n = kernel.telemetry.drift_rebaseline_all();
                        kernel.charge_overhead(
                            processor.task,
                            kernel.cost.drift_eval_per_ou_ns * n as f64,
                        );
                        extra.pending_rebaseline = false;
                    }
                    next_retrain = now + lc.retrain_every_ns;
                }
            }
            if let Some(lc) = lifecycle.as_deref_mut() {
                db.install_live_model(lc.registry.live(), opts.terminals as f64);
            }
            let pump_end = db.kernel.now(db.wal.task);
            db.kernel.telemetry.span(
                "pump",
                "driver",
                pump_start,
                (pump_end - pump_start).max(0.0),
            );
            {
                let kernel = &mut db.kernel;
                let (n_ous, n_rules) = kernel
                    .telemetry
                    .with_registry(|r| (r.drift().len(), r.health().rules().len()));
                let _root = kernel.profile_frame(processor.task, "tscout", true);
                let _frame = kernel.profile_frame(processor.task, "telemetry:observability", false);
                let stmt_recorded = kernel.telemetry.stmt_recorded();
                let stmt_delta = stmt_recorded.saturating_sub(last_stmt_recorded) as f64;
                last_stmt_recorded = stmt_recorded;
                kernel.charge_overhead(
                    processor.task,
                    kernel.cost.drift_eval_per_ou_ns * n_ous as f64
                        + kernel.cost.health_rule_eval_ns * n_rules as f64
                        + (kernel.cost.stmt_fingerprint_ns + kernel.cost.stmt_record_ns)
                            * stmt_delta,
                );
                let alerts = tracer.time(Span::TelemetryObservabilityTick, || {
                    kernel.telemetry.observability_tick(now)
                });
                if !alerts.is_empty() && kernel.telemetry.flight_recorder_armed() {
                    let folded = kernel.profiler.folded_text();
                    kernel.telemetry.flight_record(now, &alerts, &folded);
                }
            }
            let overhead_ratio = db.kernel.profiler.attribution().tscout_dbms_ratio();
            if let Some(r) = overhead_ratio {
                db.kernel
                    .telemetry
                    .gauge_set("tscout_overhead_ratio", &[], r);
            }
            if let Some(lc) = lifecycle.as_deref_mut() {
                if lc.actions.as_ref().is_some_and(|e| e.cfg.enabled) {
                    let mut engine = lc.actions.take().expect("checked above");
                    let model_generation = lc.registry.generation();
                    let predicted_exec = extra.last_exec_predicted_ns;
                    let (kernel, ts, mode) = db.actuation_parts();
                    if let Some(ts) = ts {
                        let _root = kernel.profile_frame(processor.task, "tscout", true);
                        let _frame = kernel.profile_frame(processor.task, "actions:plan", false);
                        let due = engine.due_followups(now);
                        kernel.charge_overhead(
                            processor.task,
                            kernel.cost.action_plan_ns * POLICY_COUNT as f64
                                + kernel.cost.action_followup_ns * due as f64,
                        );
                        let rates: Vec<SubsystemRate> = processor
                            .subsystem_feedback(ts)
                            .into_iter()
                            .map(|f| SubsystemRate {
                                subsystem: f.subsystem.name().to_string(),
                                current: f.current,
                                recommended: f.recommended,
                                loss_delta: f.loss_delta,
                            })
                            .collect();
                        let inputs = PlannerInputs {
                            now_ns: now,
                            overhead_ratio,
                            rates,
                            predicted_exec_ou_ns: predicted_exec,
                            pipeline_fused: matches!(*mode, EngineMode::Fused),
                            model_generation,
                        };
                        let mut actuator = Actuator {
                            ts,
                            mode,
                            archive: &mut lc.archive,
                            retrain_requested: false,
                        };
                        let report =
                            tracer.time(Span::ActionsTick, || engine.tick(&inputs, &mut actuator));
                        if actuator.retrain_requested {
                            next_retrain = now;
                            extra.pending_rebaseline = true;
                        }
                        for o in &report.observed {
                            kernel
                                .charge_overhead(processor.task, kernel.cost.archive_per_sample_ns);
                            tracer.enter(Span::ArchiveAppend);
                            let _ = lc.archive.append(o.to_sample());
                            tracer.exit();
                            if o.regressed && kernel.telemetry.flight_recorder_armed() {
                                let folded = kernel.profiler.folded_text();
                                kernel.telemetry.flight_record_action(now, o.id, &folded);
                            }
                        }
                    }
                    lc.actions = Some(engine);
                }
            }
            next_pump = now + opts.pump_every_ns;
        }
        if now >= next_gc {
            tracer.time(Span::DbRunGc, || db.run_gc());
            next_gc = now + opts.gc_every_ns;
        }

        let t0 = db.now(sid);
        tracer.enter(Span::DbTxn);
        let ok = {
            let mut ctx = TxnCtx::new(db, sid, &mut rng, &mut trace);
            workload.txn(&mut ctx)
        };
        tracer.exit();
        let t1 = db.now(sid);
        let outcome = if ok { "committed" } else { "aborted" };
        db.kernel
            .telemetry
            .hist_record("workload_txn_ns", &[("outcome", outcome)], t1 - t0);
        db.kernel.telemetry.span("txn", "workload", t0, t1 - t0);
        if ok {
            committed += 1;
            latencies.push(t1 - t0);
            txn_ends.push(t1);
        } else {
            aborted += 1;
        }
    }

    tracer.time(Span::DbPumpWal, || db.pump_wal(end_ns + 1e9));
    let (samples_processed, samples_dropped, points) = {
        let (kernel, ts) = db.collection_parts();
        match ts {
            Some(ts) => {
                tracer.time(Span::CoreProcessorPoll, || {
                    processor.poll(kernel, ts, end_ns)
                });
                let in_run = processor.processed;
                tracer.time(Span::CoreProcessorDrainAll, || {
                    processor.drain_all(kernel, ts)
                });
                let tail = processor.take_points();
                if let Some(lc) = lifecycle.as_deref_mut() {
                    lifecycle_step(
                        lc,
                        &mut extra,
                        kernel,
                        processor.task,
                        &tail,
                        &trace,
                        opts.terminals,
                        tracer,
                    );
                    tracer.enter(Span::ArchiveFlushCompact);
                    let _ = lc.archive.seal();
                    tracer.exit();
                }
                all_points.extend(tail);
                (in_run, ts.ring_dropped(), std::mem::take(&mut all_points))
            }
            None => (0, 0, Vec::new()),
        }
    };
    let alerts = tracer.time(Span::TelemetryObservabilityTick, || {
        db.kernel.telemetry.observability_tick(end_ns + 2e9)
    });
    if !alerts.is_empty() && db.kernel.telemetry.flight_recorder_armed() {
        let folded = db.kernel.profiler.folded_text();
        db.kernel
            .telemetry
            .flight_record(end_ns + 2e9, &alerts, &folded);
    }

    let duration_ns = opts.duration_ns;
    let (archived_samples, retrains) = lifecycle
        .as_ref()
        .map_or((0, 0), |lc| (lc.archived_samples, lc.retrains));
    RunStats {
        committed,
        aborted,
        duration_ns,
        throughput: committed as f64 / (duration_ns / 1e9),
        latencies_ns: latencies,
        txn_ends_ns: txn_ends,
        trace,
        points,
        samples_processed,
        samples_dropped,
        archived_samples,
        retrains,
    }
}
