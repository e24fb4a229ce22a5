//! Microbenchmarks for the hot paths of the reproduction: marker
//! emission (sampled and unsampled), the generated BPF Collector
//! programs, the verifier, the sampler's per-event decision, B+-tree and
//! hash-index operations, record encode/decode, and SQL execution.
//!
//! Formerly Criterion-based; now a plain self-timed harness (the bench
//! target already had `harness = false`) so the workspace builds with no
//! crates.io access. Each case is warmed up, then timed over enough
//! iterations to smooth scheduler noise; results print as
//! `name: ns/iter` lines, one per case, and the full set is written as
//! machine-readable JSON to `BENCH_2.json` at the repo root (schema
//! documented in README.md).

use std::hint::black_box;
use std::time::Instant;

use noisetap::Value;
use tscout::{CollectionMode, ProbeSet, Subsystem, TScout, TsConfig};
use tscout_bpf::maps::MapDef;
use tscout_bpf::vm::{NullWorld, Vm};
use tscout_bpf::MapRegistry;
use tscout_kernel::{HardwareProfile, Kernel};

/// Collected `(case name, mean ns/iter)` results, in run order.
type Results = Vec<(String, f64)>;

/// Time `f`, print mean ns/iter, and record it. Iteration counts are
/// fixed per case (deterministic run time beats adaptive precision for
/// CI use).
fn bench(out: &mut Results, name: &str, iters: u32, mut f: impl FnMut()) {
    for _ in 0..iters / 10 + 1 {
        f(); // warm-up
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let ns = start.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name}: {ns:.1} ns/iter");
    out.push((name.to_string(), ns));
}

fn marker_triple(out: &mut Results) {
    for (name, rate) in [("sampled", 100u8), ("unsampled", 0u8)] {
        let mut kernel = Kernel::new(HardwareProfile::server_2x20());
        let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
        cfg.enable_subsystem(Subsystem::ExecutionEngine, ProbeSet::all());
        cfg.ring_capacity = 1 << 16;
        let mut ts = TScout::deploy(&mut kernel, cfg).unwrap();
        let ou = ts.register_ou("bench_ou", Subsystem::ExecutionEngine, 2);
        ts.set_sampling_rate(Subsystem::ExecutionEngine, rate);
        let task = kernel.create_task();
        ts.register_thread(&mut kernel, task);
        let mut since_drain = 0u32;
        bench(out, &format!("marker_triple/{name}"), 20_000, || {
            ts.ou_begin(&mut kernel, task, ou);
            ts.ou_end(&mut kernel, task, ou);
            ts.ou_features(&mut kernel, task, ou, black_box(&[100, 8]), &[4096]);
            since_drain += 1;
            if since_drain >= 4096 {
                // Keep the ring from growing unboundedly.
                ts.drain_ring(usize::MAX);
                since_drain = 0;
            }
        });
    }
}

fn bpf_vm(out: &mut Results) {
    use tscout::codegen::{encode_ctx, gen_begin, gen_end, ProbeLayout};
    let probes = ProbeLayout {
        cpu: true,
        disk: true,
        net: true,
    };
    let mut maps = MapRegistry::new();
    let depth = maps.create(MapDef::hash("d", 8, 8, 256));
    let begin = maps.create(MapDef::hash("b", 8, probes.snap_words() * 8, 1024));
    let done = maps.create(MapDef::hash("dn", 8, probes.done_words() * 8, 256));
    let _ring = maps.create(MapDef::perf_event_array("r", 1024));
    let b_prog = gen_begin(&probes, depth, begin);
    let e_prog = gen_end(&probes, depth, begin, done);
    let ctx = encode_ctx(1, 42, 0, 0, &[]);
    let mut world = NullWorld::default();

    bench(out, "bpf_begin_end_pair", 20_000, || {
        Vm::run(&b_prog, &ctx, &mut maps, &mut world).unwrap();
        Vm::run(&e_prog, &ctx, &mut maps, &mut world).unwrap();
    });

    bench(out, "bpf_verify_collector", 2_000, || {
        tscout_bpf::verify(black_box(&e_prog), &maps, 296).unwrap();
    });
}

fn sampler(out: &mut Results) {
    let mut s = tscout::Sampler::new(1);
    s.set_rate(Subsystem::ExecutionEngine, 10);
    bench(out, "sampler_decide", 200_000, || {
        black_box(s.decide(black_box(3), Subsystem::ExecutionEngine));
    });
}

fn indexes(out: &mut Results) {
    use noisetap::storage::SlotId;
    let mut btree = noisetap::index::BTreeIndex::new();
    let mut hash = noisetap::index::HashIndex::new();
    for i in 0..100_000i64 {
        btree.insert(vec![Value::Int(i)], SlotId(i as u64));
        hash.insert(vec![Value::Int(i)], SlotId(i as u64));
    }
    let key = vec![Value::Int(54_321)];
    bench(out, "btree_point_lookup_100k", 100_000, || {
        black_box(btree.get(black_box(&key)));
    });
    bench(out, "hash_point_lookup_100k", 100_000, || {
        black_box(hash.get(black_box(&key)));
    });
    let lo = vec![Value::Int(50_000)];
    let hi = vec![Value::Int(50_100)];
    bench(out, "btree_range_100", 20_000, || {
        black_box(btree.range(Some(black_box(&lo)), Some(black_box(&hi))));
    });
}

fn records(out: &mut Results) {
    let rec = tscout::RawRecord {
        ou: 3,
        tid: 7,
        subsystem: 0,
        flags: 0,
        start_ns: 123,
        elapsed_ns: 456,
        metrics: vec![1; 15],
        payload: vec![2; 8],
    };
    let bytes = tscout::encode_record(&rec);
    bench(out, "record_encode", 100_000, || {
        black_box(tscout::encode_record(black_box(&rec)));
    });
    bench(out, "record_decode", 100_000, || {
        black_box(tscout::decode_record(black_box(&bytes)).unwrap());
    });
}

fn sql(out: &mut Results) {
    let mut db = noisetap::Database::new(Kernel::new(HardwareProfile::server_2x20()));
    let sid = db.create_session();
    db.execute(sid, "CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)", &[])
        .unwrap();
    for i in 0..10_000 {
        db.execute(
            sid,
            "INSERT INTO t VALUES ($1, $2)",
            &[Value::Int(i), Value::Float(0.0)],
        )
        .unwrap();
    }
    let q = db.prepare("SELECT v FROM t WHERE id = $1").unwrap();
    let mut i = 0i64;
    bench(out, "db_point_query_prepared", 20_000, || {
        i = (i + 1) % 10_000;
        black_box(
            db.execute_prepared(sid, q, black_box(&[Value::Int(i)]))
                .unwrap(),
        );
    });
    bench(out, "sql_parse_plan", 20_000, || {
        black_box(
            noisetap::sql::parser::parse(black_box(
                "SELECT a, count(*) FROM t WHERE id BETWEEN 1 AND 100 GROUP BY a",
            ))
            .unwrap(),
        );
    });
}

/// Archive append/scan throughput against an in-memory `Vec<Sample>`
/// baseline — the cost of durability + columnar compression. Returns the
/// `BENCH_4.json` document (schema in README.md).
fn archive_store(out: &mut Results) -> String {
    use tscout_archive::{Archive, ArchiveOptions, Sample};
    use tscout_telemetry::Telemetry;

    let mk = |i: u64| Sample {
        ou: (i % 8) as u16,
        ou_name: format!("bench_ou_{}", i % 8),
        subsystem: (i % 4) as u8,
        tid: (i % 16) as u32,
        template: (i % 5) as u32,
        start_ns: 5_000_000_000 + i * 2_100,
        elapsed_ns: 4_000 + (i * 37) % 900,
        metrics: vec![i, i * 2, 64],
        features: vec![(i % 64) as f64, 1.5],
        user_metrics: vec![4096],
    };
    const N: u32 = 20_000;

    // Baseline: decoded samples accumulated in memory (what accuracy
    // experiments did before the archive existed).
    let mut v: Vec<Sample> = Vec::new();
    let mut i = 0u64;
    bench(out, "sample_vec_push", N, || {
        v.push(black_box(mk(i)));
        i += 1;
    });
    let vec_push_ns = out.last().unwrap().1;

    let dir = std::env::temp_dir().join(format!("tscout_bench_arch_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut a = Archive::open(&dir, ArchiveOptions::default(), Telemetry::new()).unwrap();
    let mut i = 0u64;
    bench(out, "archive_append", N, || {
        a.append(black_box(mk(i))).unwrap();
        i += 1;
    });
    let append_ns = out.last().unwrap().1;
    a.seal().unwrap();
    let st = a.stats();

    bench(out, "sample_vec_scan", 50, || {
        let mut acc = 0u64;
        for s in &v {
            acc = acc.wrapping_add(black_box(s.elapsed_ns));
        }
        black_box(acc);
    });
    let vec_scan_ns = out.last().unwrap().1 / v.len().max(1) as f64;
    bench(out, "archive_scan", 50, || {
        let mut acc = 0u64;
        for s in a.scan_all() {
            acc = acc.wrapping_add(black_box(s.elapsed_ns));
        }
        black_box(acc);
    });
    let scan_ns = out.last().unwrap().1 / st.samples_stored.max(1) as f64;

    // In-memory footprint of one decoded sample (struct + heap).
    let probe = mk(0);
    let mem_bytes = std::mem::size_of::<Sample>()
        + probe.ou_name.len()
        + 8 * (probe.metrics.len() + probe.user_metrics.len() + probe.features.len());
    let disk_bytes = st.bytes as f64 / st.samples_stored.max(1) as f64;
    println!(
        "archive: {:.1} bytes/sample on disk vs ~{mem_bytes} in memory ({:.1}x)",
        disk_bytes,
        mem_bytes as f64 / disk_bytes.max(1e-9)
    );
    std::fs::remove_dir_all(&dir).ok();
    format!(
        "{{\n  \"samples_stored\": {},\n  \"vec_push_ns_per_sample\": {vec_push_ns:.1},\n  \
         \"archive_append_ns_per_sample\": {append_ns:.1},\n  \
         \"vec_scan_ns_per_sample\": {vec_scan_ns:.1},\n  \
         \"archive_scan_ns_per_sample\": {scan_ns:.1},\n  \
         \"disk_bytes_per_sample\": {disk_bytes:.1},\n  \
         \"memory_bytes_per_sample\": {mem_bytes},\n  \
         \"segments\": {}, \"blocks\": {}\n}}\n",
        st.samples_stored, st.segments, st.blocks,
    )
}

/// Per-sample and per-evaluation cost of the data-quality layer: sketch
/// inserts, the PSI/KS scoring primitives, and a full drift-registry
/// pump cycle. Returns the `BENCH_5.json` document (schema in
/// README.md). These measured costs are what the virtual cost model's
/// `sketch_per_sample_ns` / `drift_eval_per_ou_ns` constants stand for.
fn sketch_drift(out: &mut Results) -> String {
    use tscout_telemetry::{
        DriftRegistry, Sketch, DEFAULT_MIN_LIVE_SAMPLES, DEFAULT_REFERENCE_SAMPLES,
    };

    let mut sk = Sketch::new();
    let mut i = 0u64;
    bench(out, "sketch_insert", 200_000, || {
        sk.insert(black_box(1_000.0 + (i * 7_919 % 997) as f64));
        i += 1;
    });
    let insert_ns = out.last().unwrap().1;

    // The per-channel scoring primitives, on realistically full sketches.
    let mut reference = Sketch::new();
    let mut live = Sketch::new();
    for j in 0..4_096u64 {
        reference.insert(1_000.0 + (j * 7_919 % 997) as f64);
        live.insert(1_150.0 + (j * 104_729 % 997) as f64);
    }
    bench(out, "sketch_psi", 50_000, || {
        black_box(reference.psi(black_box(&live)));
    });
    let psi_ns = out.last().unwrap().1;
    bench(out, "sketch_ks", 50_000, || {
        black_box(reference.ks_distance(black_box(&live)));
    });
    let ks_ns = out.last().unwrap().1;

    // Full drift-registry path with every OU past its reference freeze.
    const OUS: u64 = 16;
    let window = DEFAULT_MIN_LIVE_SAMPLES;
    let mut dr = DriftRegistry::new();
    let names: Vec<String> = (0..OUS).map(|o| format!("bench_ou_{o}")).collect();
    for (o, name) in names.iter().enumerate() {
        for j in 0..DEFAULT_REFERENCE_SAMPLES {
            let v = 1_000.0 + ((j * 7_919 + o as u64) % 997) as f64;
            dr.observe_sample(name, "execution_engine", v, 3.0);
        }
    }
    let mut i = 0u64;
    bench(out, "drift_observe_sample", 100_000, || {
        let name = &names[(i % OUS) as usize];
        dr.observe_sample(
            name,
            "execution_engine",
            black_box(1_000.0 + (i % 997) as f64),
            3.0,
        );
        i += 1;
    });
    let observe_ns = out.last().unwrap().1;
    dr.evaluate(); // drain whatever the warm-up left in the live windows

    // One pump cycle: fill every OU's live window, score them all.
    // `evaluate()` resets the scored windows, so the refill is part of
    // each iteration; its cost is subtracted using the rate above.
    let mut i = 0u64;
    bench(out, "drift_pump_cycle_16ou", 200, || {
        for name in &names {
            for _ in 0..window {
                dr.observe_sample(name, "execution_engine", 1_000.0 + (i % 997) as f64, 3.0);
                i += 1;
            }
        }
        black_box(dr.evaluate());
    });
    let cycle_ns = out.last().unwrap().1;
    let eval_per_ou_ns = ((cycle_ns - observe_ns * (window * OUS) as f64) / OUS as f64).max(0.0);
    println!("drift_eval: {eval_per_ou_ns:.1} ns/OU (refill cost subtracted)");

    format!(
        "{{\n  \"sketch_insert_ns_per_op\": {insert_ns:.1},\n  \
         \"sketch_psi_ns_per_eval\": {psi_ns:.1},\n  \
         \"sketch_ks_ns_per_eval\": {ks_ns:.1},\n  \
         \"drift_observe_sample_ns\": {observe_ns:.1},\n  \
         \"drift_eval_ns_per_ou\": {eval_per_ou_ns:.1},\n  \
         \"ous\": {OUS}, \"live_window\": {window}\n}}\n"
    )
}

/// Lineage-tracer costs: the wall-clock price of one trace record
/// (begin → publish → consume), and the overhead tracing adds to the
/// full marker path (each marker executes the begin/end BPF Collector
/// pair) at the production 1/64 sampling rate. Returns the
/// `BENCH_6.json` document (schema in README.md). The per-record cost
/// is what the virtual cost model's `trace_begin_ns` /
/// `trace_stage_record_ns` constants stand for.
fn trace_lineage(out: &mut Results) -> String {
    use tscout_telemetry::Telemetry;

    // Raw per-trace record cycle through the registry handle: sampling
    // decision + marker stage, ring-depth stamp, terminal consume.
    let t = Telemetry::new();
    t.trace_set_every(1);
    let mut tid = 0u64;
    bench(out, "trace_record_cycle", 100_000, || {
        let id = t.trace_begin(1, 0, tid, 100.0).unwrap();
        t.trace_publish(id, 200.0, 4);
        t.trace_consume(1, tid, 300.0, 350.0, 400.0, 4, true);
        tid += 1;
    });
    let record_ns = out.last().unwrap().1;

    // The marker hot path (runs the begin/end Collector programs in the
    // BPF VM), untraced vs traced at 1/64 — the production setting. The
    // two arms are timed in alternating rounds and compared min-of-k:
    // run-to-run scheduler noise on this ~10µs path dwarfs the tracer's
    // tens of ns, and the minimum is the robust estimator of the true
    // cost (outliers are only ever additive).
    let time_pair = |trace_every: u64| -> f64 {
        let mut kernel = Kernel::new(HardwareProfile::server_2x20());
        let mut cfg = TsConfig::new(CollectionMode::KernelContinuous);
        cfg.enable_subsystem(Subsystem::ExecutionEngine, ProbeSet::all());
        cfg.ring_capacity = 1 << 16;
        cfg.trace_every = trace_every;
        let mut ts = TScout::deploy(&mut kernel, cfg).unwrap();
        let ou = ts.register_ou("bench_ou", Subsystem::ExecutionEngine, 2);
        ts.set_sampling_rate(Subsystem::ExecutionEngine, 100);
        let task = kernel.create_task();
        ts.register_thread(&mut kernel, task);
        let mut one = |iters: u32| {
            for _ in 0..iters {
                ts.ou_begin(&mut kernel, task, ou);
                ts.ou_end(&mut kernel, task, ou);
                ts.ou_features(&mut kernel, task, ou, black_box(&[100, 8]), &[4096]);
            }
            ts.drain_ring(usize::MAX);
        };
        one(2_000); // warm-up
        const ITERS: u32 = 8_000;
        let start = Instant::now();
        one(ITERS);
        start.elapsed().as_nanos() as f64 / ITERS as f64
    };
    let (mut untraced_ns, mut traced_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        untraced_ns = untraced_ns.min(time_pair(0));
        traced_ns = traced_ns.min(time_pair(64));
    }
    println!("bpf_begin_end_pair/untraced: {untraced_ns:.1} ns/iter (min of 7)");
    println!("bpf_begin_end_pair/traced_64: {traced_ns:.1} ns/iter (min of 7)");
    out.push(("bpf_begin_end_pair/untraced".to_string(), untraced_ns));
    out.push(("bpf_begin_end_pair/traced_64".to_string(), traced_ns));
    let overhead_pct = (traced_ns - untraced_ns) / untraced_ns * 100.0;
    println!("trace overhead at 1/64 on the marker path: {overhead_pct:.2}%");

    format!(
        "{{\n  \"trace_record_cycle_ns\": {record_ns:.1},\n  \
         \"bpf_begin_end_pair_untraced_ns\": {untraced_ns:.1},\n  \
         \"bpf_begin_end_pair_traced_64_ns\": {traced_ns:.1},\n  \
         \"traced_overhead_pct\": {overhead_pct:.2},\n  \
         \"trace_every\": 64\n}}\n"
    )
}

/// Query-observability costs: statement fingerprinting, one
/// `ts_stat_statements` record, and the overhead statement stats add to
/// the prepared point-query hot path. Returns the `BENCH_7.json`
/// document (schema in README.md). The per-call costs are what the
/// virtual cost model's `stmt_fingerprint_ns` / `stmt_record_ns`
/// constants stand for; the end-to-end overhead target is <2%.
fn query_stats(out: &mut Results) -> String {
    use tscout_telemetry::Telemetry;

    let stmt = noisetap::sql::parser::parse(
        "SELECT a, count(*) FROM t WHERE id BETWEEN 1 AND 100 AND v > 3.5 GROUP BY a",
    )
    .unwrap();
    bench(out, "stmt_fingerprint", 100_000, || {
        black_box(noisetap::sql::fingerprint::fingerprint(black_box(&stmt)));
    });
    let fingerprint_ns = out.last().unwrap().1;

    let t = Telemetry::new();
    let fps: Vec<String> = (0..64).map(|i| format!("select v from t{i}")).collect();
    let mut i = 0u64;
    bench(out, "stmt_record", 100_000, || {
        let fp = &fps[(i % 64) as usize];
        t.stmt_record(
            black_box(fp),
            5_000.0 + (i % 97) as f64,
            1,
            &[("idx_lookup", 3_000.0), ("output", 500.0)],
            Some(4_800.0),
        );
        i += 1;
    });
    let record_ns = out.last().unwrap().1;

    // End-to-end: the prepared point-query path with statement stats on
    // vs off. The two arms are timed in alternating rounds and compared
    // min-of-k — run-to-run scheduler noise on this ~µs path dwarfs the
    // fingerprint clone + record, and the minimum is the robust
    // estimator (outliers are only ever additive).
    let time_point_query = |stats_on: bool| -> f64 {
        let mut db = noisetap::Database::new(Kernel::new(HardwareProfile::server_2x20()));
        db.stmt_stats_enabled = stats_on;
        let sid = db.create_session();
        db.execute(sid, "CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)", &[])
            .unwrap();
        for i in 0..10_000 {
            db.execute(
                sid,
                "INSERT INTO t VALUES ($1, $2)",
                &[Value::Int(i), Value::Float(0.0)],
            )
            .unwrap();
        }
        let q = db.prepare("SELECT v FROM t WHERE id = $1").unwrap();
        let mut one = |iters: u32| {
            for i in 0..iters as i64 {
                black_box(
                    db.execute_prepared(sid, q, black_box(&[Value::Int(i % 10_000)]))
                        .unwrap(),
                );
            }
        };
        one(2_000); // warm-up
        const ITERS: u32 = 8_000;
        let start = Instant::now();
        one(ITERS);
        start.elapsed().as_nanos() as f64 / ITERS as f64
    };
    let (mut off_ns, mut on_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        off_ns = off_ns.min(time_point_query(false));
        on_ns = on_ns.min(time_point_query(true));
    }
    println!("db_point_query_prepared/stats_off: {off_ns:.1} ns/iter (min of 7)");
    println!("db_point_query_prepared/stats_on: {on_ns:.1} ns/iter (min of 7)");
    out.push(("db_point_query_prepared/stats_off".to_string(), off_ns));
    out.push(("db_point_query_prepared/stats_on".to_string(), on_ns));
    let overhead_pct = (on_ns - off_ns) / off_ns * 100.0;
    println!("statement-stats overhead on the point-query path: {overhead_pct:.2}% (worst case: bare ~1us statement, nothing to amortize against)");

    // Representative measure: host time to drive a *collected* YCSB run
    // (TScout attached, WAL, pumping — the pipeline a deployment
    // actually runs) for a fixed virtual duration, stats on vs off.
    // This is the denominator PR 6's tracer target used: overhead
    // relative to the full collection path, not a bare statement.
    let time_ycsb = |stats_on: bool| -> f64 {
        use tscout_workloads::driver::{run, RunOptions};
        use tscout_workloads::{Workload, Ycsb};
        let mut db = tscout_bench::new_db(HardwareProfile::server_2x20(), 0x7E57);
        db.stmt_stats_enabled = stats_on;
        let mut w = Ycsb::new(2_000);
        w.setup(&mut db);
        tscout_bench::attach_collect(&mut db);
        let start = Instant::now();
        black_box(run(
            &mut db,
            &mut w,
            &RunOptions {
                terminals: 2,
                duration_ns: 60e6,
                seed: 0x7E57,
                ..Default::default()
            },
        ));
        start.elapsed().as_nanos() as f64
    };
    let (mut e2e_off, mut e2e_on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        e2e_off = e2e_off.min(time_ycsb(false));
        e2e_on = e2e_on.min(time_ycsb(true));
    }
    let e2e_overhead_pct = (e2e_on - e2e_off) / e2e_off * 100.0;
    println!(
        "ycsb_collected_run/stats_off: {:.2} ms (min of 5)",
        e2e_off / 1e6
    );
    println!(
        "ycsb_collected_run/stats_on: {:.2} ms (min of 5)",
        e2e_on / 1e6
    );
    println!(
        "statement-stats overhead on the collected YCSB pipeline: {e2e_overhead_pct:.2}% (target <2%)"
    );

    format!(
        "{{\n  \"stmt_fingerprint_ns\": {fingerprint_ns:.1},\n  \
         \"stmt_record_ns\": {record_ns:.1},\n  \
         \"point_query_stats_off_ns\": {off_ns:.1},\n  \
         \"point_query_stats_on_ns\": {on_ns:.1},\n  \
         \"point_query_overhead_pct\": {overhead_pct:.2},\n  \
         \"ycsb_run_stats_off_ms\": {:.2},\n  \
         \"ycsb_run_stats_on_ms\": {:.2},\n  \
         \"ycsb_run_overhead_pct\": {e2e_overhead_pct:.2},\n  \
         \"overhead_target_pct\": 2.0\n}}\n",
        e2e_off / 1e6,
        e2e_on / 1e6,
    )
}

/// Action-engine costs: one full policy-evaluation tick (all five
/// policies over a quiet system), closing one follow-up, and the
/// end-to-end virtual-clock overhead the engine adds to a collected
/// run. Returns the `BENCH_9.json` document (schema in README.md). The
/// per-tick costs are what the virtual cost model's `action_plan_ns` /
/// `action_followup_ns` constants stand for.
fn action_engine(out: &mut Results) -> String {
    use tscout_actions::{ActionConfig, ActionEngine, DbmsActuator, PlannerInputs, POLICY_COUNT};
    use tscout_telemetry::Telemetry;

    #[derive(Debug, Default)]
    struct NullActuator;
    impl DbmsActuator for NullActuator {
        fn set_sampling_rate(&mut self, _subsystem: &str, _rate: u8) {}
        fn trigger_retrain(&mut self) {}
        fn schedule_compaction(&mut self) {}
        fn hold_compaction(&mut self, _hold: bool) {}
        fn set_pipeline_mode(&mut self, _fused: bool) {}
    }

    // Pure policy evaluation: a healthy, in-budget system where no
    // policy fires — every tick walks all five policies and plans
    // nothing.
    let t = Telemetry::new();
    let mut engine = ActionEngine::new(ActionConfig::default(), t.clone());
    let mut act = NullActuator;
    let mut now = 0.0f64;
    bench(out, "action_policy_eval_tick", 50_000, || {
        now += 2e6;
        let inputs = PlannerInputs {
            now_ns: now,
            overhead_ratio: Some(0.01),
            ..Default::default()
        };
        black_box(engine.tick(black_box(&inputs), &mut act));
    });
    let eval_tick_ns = out.last().unwrap().1;
    let eval_policy_ns = eval_tick_ns / POLICY_COUNT as f64;

    // Follow-up close: drift pinned CRITICAL with a zero observation
    // window and no rate limit, so every tick closes the previous
    // retrain's follow-up and plans the next one. The close cost is the
    // difference against the eval-only tick.
    let t = Telemetry::new();
    t.gauge_set("ts_health_state", &[("subsystem", "data")], 2.0);
    let cfg = ActionConfig {
        observation_window_ns: 0.0,
        min_interval_ns: 0.0,
        hysteresis_ns: 0.0,
        ..Default::default()
    };
    let mut engine = ActionEngine::new(cfg, t.clone());
    let mut now = 0.0f64;
    bench(out, "action_plan_plus_followup_tick", 20_000, || {
        now += 2e6;
        let inputs = PlannerInputs {
            now_ns: now,
            overhead_ratio: Some(0.01),
            ..Default::default()
        };
        black_box(engine.tick(black_box(&inputs), &mut act));
    });
    let followup_tick_ns = out.last().unwrap().1;
    let followup_ns = (followup_tick_ns - eval_tick_ns).max(0.0);
    println!("action_followup_record: {followup_ns:.1} ns (plan+close tick minus eval-only tick)");

    // End-to-end virtual-clock overhead of the engine on a collected
    // run: the driver charges `action_plan_ns` per policy per pump tick
    // plus `action_followup_ns` per closed follow-up, all on the
    // Processor's task. Overhead is that total against the run's
    // virtual duration — the number the `tscout_overhead_ratio` budget
    // policy itself watches.
    use tscout_archive::ArchiveOptions;
    use tscout_models::ModelKind;
    use tscout_workloads::driver::{run_with_lifecycle, ModelLifecycle, RunOptions};
    use tscout_workloads::{Workload, Ycsb};
    const DURATION_NS: f64 = 60e6;
    let dir = std::env::temp_dir().join(format!("tscout_bench_act_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut db = tscout_bench::new_db(HardwareProfile::server_2x20(), 0x9AC7);
    db.stmt_stats_enabled = false;
    let mut w = Ycsb::new(2_000);
    w.setup(&mut db);
    tscout_bench::attach_collect(&mut db);
    let mut lc = ModelLifecycle::new(
        &dir,
        ArchiveOptions::default(),
        ModelKind::Ridge,
        7,
        30e6,
        db.kernel.telemetry.clone(),
    )
    .unwrap();
    lc = lc.with_actions(ActionEngine::new(
        ActionConfig::default(),
        db.kernel.telemetry.clone(),
    ));
    let opts = RunOptions {
        terminals: 2,
        duration_ns: DURATION_NS,
        seed: 0x9AC7,
        ..Default::default()
    };
    run_with_lifecycle(&mut db, &mut w, &opts, &mut lc);
    std::fs::remove_dir_all(&dir).ok();
    let ticks = (DURATION_NS / opts.pump_every_ns).floor();
    let observed = db
        .kernel
        .telemetry
        .counter_total("tscout_action_observed_total");
    let cost = &db.kernel.cost;
    let charged_ns = ticks * POLICY_COUNT as f64 * cost.action_plan_ns
        + observed as f64 * cost.action_followup_ns;
    let overhead_pct = charged_ns / DURATION_NS * 100.0;
    println!(
        "action engine end-to-end: {ticks} ticks, {observed} follow-ups, \
         {charged_ns:.0} ns charged = {overhead_pct:.3}% of the run (budget 1%)"
    );
    assert!(
        overhead_pct < 1.0,
        "action engine overhead {overhead_pct:.3}% breaches the 1% budget"
    );

    format!(
        "{{\n  \"action_policy_eval_tick_ns\": {eval_tick_ns:.1},\n  \
         \"action_policy_eval_ns_per_policy\": {eval_policy_ns:.1},\n  \
         \"action_plan_plus_followup_tick_ns\": {followup_tick_ns:.1},\n  \
         \"action_followup_record_ns\": {followup_ns:.1},\n  \
         \"policies\": {POLICY_COUNT},\n  \
         \"e2e_ticks\": {ticks},\n  \"e2e_followups\": {observed},\n  \
         \"e2e_charged_ns\": {charged_ns:.0},\n  \
         \"e2e_overhead_pct\": {overhead_pct:.3},\n  \
         \"overhead_budget_pct\": 1.0\n}}\n"
    )
}

/// Operator-plane costs: per-request wall-clock latency against a
/// populated registry for each endpoint class, plus the cost of a
/// collected YCSB run with the daemon off versus on-and-scraped at
/// 10 Hz. Returns the `BENCH_10.json` document (schema in README.md).
/// The load-bearing number is the *virtual* overhead: the daemon never
/// touches a virtual clock, so the on/off virtual timelines (and the
/// collected sample counts) must be identical; the wall-clock delta is
/// reported for operators sizing scrape intervals.
fn obsd_plane(out: &mut Results) -> String {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use tscout_archive::ArchiveOptions;
    use tscout_models::ModelKind;
    use tscout_obsd::{client, ObsdConfig, ObsdServer};
    use tscout_telemetry::Telemetry;
    use tscout_workloads::driver::{run_with_lifecycle, ModelLifecycle, RunOptions};
    use tscout_workloads::{Workload, Ycsb};

    // Per-request latency: a standing server over a registry populated
    // with a realistic family/label spread, timed from the client side
    // (connect + request + full response).
    let t = Telemetry::new();
    for i in 0..64 {
        let ou = format!("bench_ou_{i}");
        t.counter_add(
            "tscout_samples_delivered_total",
            &[("subsystem", "ee"), ("ou", &ou)],
            1_000 + i,
        );
        for v in [1e3, 5e3, 2e4, 1e6] {
            t.hist_record(
                "workload_txn_ns",
                &[("outcome", "committed")],
                v * (i + 1) as f64,
            );
        }
    }
    let srv = ObsdServer::start(ObsdConfig::default(), t).expect("bench server");
    let addr = srv.addr().to_string();
    bench(out, "obsd_get_metrics", 2_000, || {
        black_box(client::get(&addr, "/metrics").unwrap());
    });
    let metrics_ns = out.last().unwrap().1;
    bench(out, "obsd_get_table_json", 2_000, || {
        black_box(client::get(&addr, "/api/v1/ou").unwrap());
    });
    let table_ns = out.last().unwrap().1;
    bench(out, "obsd_post_sql", 1_000, || {
        black_box(
            client::post(
                &addr,
                "/api/v1/sql",
                "SELECT count(*) FROM ts_stat_subsystem",
            )
            .unwrap(),
        );
    });
    let sql_ns = out.last().unwrap().1;
    srv.shutdown();

    // On/off delta on a collected run. Same seed both arms; the on arm
    // adds a 10 Hz scraper for the duration of the run.
    const DURATION_NS: f64 = 60e6;
    let run_arm = |server: bool| -> (f64, u64, u64) {
        let dir =
            std::env::temp_dir().join(format!("tscout_bench_obsd_{}_{server}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut db = tscout_bench::new_db(HardwareProfile::server_2x20(), 0x0B5D);
        db.stmt_stats_enabled = false;
        let mut w = Ycsb::new(2_000);
        w.setup(&mut db);
        tscout_bench::attach_collect(&mut db);
        let mut lc = ModelLifecycle::new(
            &dir,
            ArchiveOptions::default(),
            ModelKind::Ridge,
            7,
            30e6,
            db.kernel.telemetry.clone(),
        )
        .unwrap();
        let opts = RunOptions {
            terminals: 2,
            duration_ns: DURATION_NS,
            seed: 0x0B5D,
            ..Default::default()
        };
        let guard = server.then(|| {
            ObsdServer::start(ObsdConfig::default(), db.kernel.telemetry.clone()).unwrap()
        });
        let stop = Arc::new(AtomicBool::new(false));
        let scraper = guard.as_ref().map(|srv| {
            let addr = srv.addr().to_string();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut scrapes = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    if client::get(&addr, "/metrics").is_ok() {
                        scrapes += 1;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
                scrapes
            })
        });
        let wall = Instant::now();
        run_with_lifecycle(&mut db, &mut w, &opts, &mut lc);
        let wall_ns = wall.elapsed().as_nanos() as f64;
        stop.store(true, Ordering::SeqCst);
        let scrapes = scraper.map_or(0, |h| h.join().unwrap());
        drop(guard);
        std::fs::remove_dir_all(&dir).ok();
        let delivered = db
            .kernel
            .telemetry
            .counter_total("tscout_samples_delivered_total");
        (wall_ns, delivered, scrapes)
    };
    let (wall_off, delivered_off, _) = run_arm(false);
    let (wall_on, delivered_on, scrapes) = run_arm(true);
    assert!(scrapes > 0, "the 10 Hz scraper never landed a scrape");
    assert_eq!(
        delivered_off, delivered_on,
        "virtual overhead must be zero: the scraped run collected differently"
    );
    let wall_delta_pct = (wall_on - wall_off) / wall_off * 100.0;
    println!(
        "obsd on/off: {scrapes} scrapes at 10 Hz, {delivered_on} samples both arms \
         (virtual overhead 0), wall delta {wall_delta_pct:+.2}%"
    );

    format!(
        "{{\n  \"obsd_get_metrics_ns\": {metrics_ns:.1},\n  \
         \"obsd_get_table_json_ns\": {table_ns:.1},\n  \
         \"obsd_post_sql_ns\": {sql_ns:.1},\n  \
         \"scrapes_at_10hz\": {scrapes},\n  \
         \"delivered_samples_off\": {delivered_off},\n  \
         \"delivered_samples_on\": {delivered_on},\n  \
         \"virtual_overhead_pct\": 0.0,\n  \
         \"wall_delta_pct\": {wall_delta_pct:.2}\n}}\n"
    )
}

/// Render the results as the `BENCH_2.json` document:
/// `{"<case>": {"ns_per_op": N, "samples_per_sec": N}, ...}`.
fn to_json(results: &Results) -> String {
    let mut s = String::from("{\n");
    for (i, (name, ns)) in results.iter().enumerate() {
        let per_sec = if *ns > 0.0 { 1e9 / ns } else { 0.0 };
        s.push_str(&format!(
            "  \"{name}\": {{\"ns_per_op\": {ns:.1}, \"samples_per_sec\": {per_sec:.1}}}"
        ));
        s.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    s.push_str("}\n");
    s
}

fn main() {
    let mut out = Results::new();
    marker_triple(&mut out);
    bpf_vm(&mut out);
    sampler(&mut out);
    indexes(&mut out);
    records(&mut out);
    sql(&mut out);
    let bench4 = archive_store(&mut out);
    let bench5 = sketch_drift(&mut out);
    let bench6 = trace_lineage(&mut out);
    let bench7 = query_stats(&mut out);
    let bench9 = action_engine(&mut out);
    let bench10 = obsd_plane(&mut out);
    // Machine-readable results at the repo root (next to Cargo.lock).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_2.json");
    std::fs::write(path, to_json(&out)).expect("cannot write BENCH_2.json");
    println!("bench results -> {path}");
    let path4 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_4.json");
    std::fs::write(path4, bench4).expect("cannot write BENCH_4.json");
    println!("archive append/scan results -> {path4}");
    let path5 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_5.json");
    std::fs::write(path5, bench5).expect("cannot write BENCH_5.json");
    println!("sketch/drift cost results -> {path5}");
    let path6 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_6.json");
    std::fs::write(path6, bench6).expect("cannot write BENCH_6.json");
    println!("trace cost results -> {path6}");
    let path7 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_7.json");
    std::fs::write(path7, bench7).expect("cannot write BENCH_7.json");
    println!("query-stats cost results -> {path7}");
    let path9 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_9.json");
    std::fs::write(path9, bench9).expect("cannot write BENCH_9.json");
    println!("action-engine cost results -> {path9}");
    let path10 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_10.json");
    std::fs::write(path10, bench10).expect("cannot write BENCH_10.json");
    println!("operator-plane cost results -> {path10}");
}
