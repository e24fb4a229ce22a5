//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats one workload in rounds (set-up, then a measured run) for
//! `--seconds` of wall time and prints, as its last line, one JSON object
//! with the end-to-end metrics (`--trace 0`) or the per-layer breakdown
//! (`--trace 1`). Every round of one seed must reproduce the same exact
//! counts and delivered-point CRC; any failed check makes the result
//! `correct: false` and the exit code 1. See `perfbench/README.md`.

mod calib;
mod obsd;
mod report;
mod sim;
mod span;
mod stats;
mod traced;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::{Metric, Report};
use sim::{Counts, Outcome, SimSpec};
use span::{Span, Tracer};
use stats::{median, summarize, Summary};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    YcsbCollect,
    TpccUnsampled,
    SmallbankLifecycle,
    ObsdScrape,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::YcsbCollect,
        Workload::TpccUnsampled,
        Workload::SmallbankLifecycle,
        Workload::ObsdScrape,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::YcsbCollect => "ycsb-collect",
            Workload::TpccUnsampled => "tpcc-unsampled",
            Workload::SmallbankLifecycle => "smallbank-lifecycle",
            Workload::ObsdScrape => "obsd-scrape",
        }
    }

    fn reference(self) -> calib::Reference {
        calib::Reference {
            sweep: self == Workload::ObsdScrape,
        }
    }

    fn sim_spec(self) -> Option<&'static SimSpec> {
        match self {
            Workload::YcsbCollect => Some(&sim::YCSB_COLLECT),
            Workload::TpccUnsampled => Some(&sim::TPCC_UNSAMPLED),
            Workload::SmallbankLifecycle => Some(&sim::SMALLBANK_LIFECYCLE),
            Workload::ObsdScrape => None,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The gated end-to-end metrics, reported on every workload.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("peak_rss_mb", "MiB"),
];

/// Exact counts of the traced run, in report order.
const COUNTS: [(&str, &str); 39] = [
    ("core.marker_events", "count"),
    ("core.sampled_events", "count"),
    ("core.samples_begun", "count"),
    ("core.samples_delivered", "count"),
    ("core.samples_lost", "count"),
    ("core.state_machine_errors", "count"),
    ("core.processor_records", "count"),
    ("core.processor_decode_errors", "count"),
    ("core.marker_events_per_txn", "event/txn"),
    ("bpf.insns_executed", "count"),
    ("bpf.insns_per_sample", "insn/sample"),
    ("bpf.map_lookups", "count"),
    ("bpf.map_updates", "count"),
    ("bpf.ring_pushes", "count"),
    ("bpf.verify_insns_visited", "count"),
    ("db.committed", "count"),
    ("db.aborted", "count"),
    ("db.wal_flushes", "count"),
    ("db.wal_records_flushed", "count"),
    ("db.gc_pruned", "count"),
    ("db.stmt_recorded", "count"),
    ("archive.samples_appended", "count"),
    ("archive.bytes_written", "B"),
    ("archive.segments_sealed", "count"),
    ("archive.segments_compacted", "count"),
    ("archive.samples_retired", "count"),
    ("models.retrains", "count"),
    ("models.swaps_accepted", "count"),
    ("models.swaps_rejected", "count"),
    ("models.points_trained", "count"),
    ("telemetry.ticks", "count"),
    ("telemetry.alerts", "count"),
    ("actions.ticks", "count"),
    ("actions.planned", "count"),
    ("actions.actuated", "count"),
    ("obsd.requests", "count"),
    ("obsd.response_bytes", "B"),
    ("obsd.errors", "count"),
    ("obsd.metrics_no_eof", "count"),
];

/// Every per-layer metric name and unit, in report order.
fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for s in Span::ALL {
        if s == Span::DriverRun {
            out.push(("driver.other_ns".to_string(), "ns"));
            continue;
        }
        out.push((format!("{}_ns", s.name()), "ns"));
        out.push((format!("{}_calls", s.name()), "count"));
        if s.keeps_durations() {
            out.push((format!("{}_p50_ns", s.name()), "ns"));
            out.push((format!("{}_p99_ns", s.name()), "ns"));
        }
    }
    out.push(("bench.trace_overhead_pct".to_string(), "%"));
    out.extend(COUNTS.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// One round: set-up, then the measured part.
#[derive(Debug)]
struct Round {
    setup_s: f64,
    /// Wall time of the measured part, s.
    measured_s: f64,
    /// Factor that scales the set-up time to reference host speed, from
    /// the reference-kernel passes before and after it.
    setup_scale: f64,
    /// The same for the measured part.
    measured_scale: f64,
    /// Operations the measured part completed (transactions, requests).
    ops: u64,
    /// The simulation run: the measured run, or for obsd-scrape the run
    /// that populated the served registry.
    sim: Outcome,
    scrape: Option<obsd::ScrapeOutcome>,
    /// The spans of a traced round; `None` for an untraced one.
    tracer: Option<Tracer>,
}

impl Round {
    fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Set-up time scaled to a host at reference speed, s.
    fn ref_setup_s(&self) -> f64 {
        self.setup_s * self.setup_scale
    }

    /// Measured-part time scaled to a host at reference speed, s.
    fn ref_measured_s(&self) -> f64 {
        self.measured_s * self.measured_scale
    }

    /// Counts that must repeat exactly across the rounds of one seed.
    fn exact(&self) -> Counts {
        let mut c = self.sim.counts.clone();
        if let Some(s) = &self.scrape {
            c.insert("obsd.requests", s.requests);
            c.insert("obsd.errors", s.errors);
            c.insert("obsd.metrics_no_eof", s.metrics_no_eof);
        }
        c
    }
}

fn run_round(w: Workload, seed: u64, dir: &Path, traced: bool) -> Round {
    let mut tracer = Tracer::default();
    let k = w.reference();
    let pass0 = k.pass_s();
    let t0 = Instant::now();
    if let Some(spec) = w.sim_spec() {
        let mut s = sim::setup(spec, seed, dir, &mut tracer);
        let setup_s = t0.elapsed().as_secs_f64();
        let pass1 = k.pass_s();
        let (stats, wall_s) = if traced {
            let t = Instant::now();
            let stats = traced::run_traced(&mut s, &mut tracer);
            (stats, t.elapsed().as_secs_f64())
        } else {
            sim::run_untraced(&mut s)
        };
        let pass2 = k.pass_s();
        let out = sim::outcome(&s, &stats);
        Round {
            setup_s,
            measured_s: wall_s,
            setup_scale: k.scale((pass0 + pass1) / 2.0),
            measured_scale: k.scale((pass1 + pass2) / 2.0),
            ops: stats.committed + stats.aborted,
            sim: out,
            scrape: None,
            tracer: traced.then_some(tracer),
        }
    } else {
        let served = obsd::setup(seed, dir, &mut tracer);
        let setup_s = t0.elapsed().as_secs_f64();
        let schedule = obsd::schedule(seed, obsd::REQUESTS_PER_ROUND);
        let pass1 = k.pass_s();
        let scrape = obsd::scrape(&served, &schedule, traced.then_some(&mut tracer));
        let pass2 = k.pass_s();
        let populate = served.populated;
        drop(served.server);
        Round {
            setup_s,
            measured_s: scrape.wall_s,
            setup_scale: k.scale((pass0 + pass1) / 2.0),
            measured_scale: k.scale((pass1 + pass2) / 2.0),
            ops: scrape.requests,
            sim: populate,
            scrape: Some(scrape),
            tracer: traced.then_some(tracer),
        }
    }
}

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Rounds each kind of round must reach before the run may stop.
const MIN_ROUNDS: usize = 3;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let tmp = PathBuf::from(".perfbench-tmp").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&tmp);
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("env {}", report::environment_json());

    // Warm up the reference kernel (its buffers are built on first use).
    args.workload.reference().pass_s();
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let traced = args.trace && rounds.len() % 2 == 1;
        let dir = tmp.join(format!("round-{}", rounds.len()));
        let r = run_round(args.workload, args.seed, &dir, traced);
        let _ = std::fs::remove_dir_all(&dir);
        rounds.push(r);
        let plain = rounds.iter().filter(|r| !r.traced()).count();
        let traced_n = rounds.len() - plain;
        let enough = plain >= MIN_ROUNDS && (!args.trace || traced_n >= MIN_ROUNDS);
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".perfbench-tmp");

    let (report, failures) = summarize_rounds(args.workload, args.trace, &rounds);
    for f in failures.iter().take(20) {
        println!("FAILED {f}");
    }
    if failures.len() > 20 {
        println!("FAILED ... {} more", failures.len() - 20);
    }
    let line = report.to_json();
    let back = Report::parse(&line).expect("the result line must parse back");
    assert_eq!(
        back.metrics.len(),
        report.metrics.len(),
        "duplicate metric names"
    );
    println!("{line}");
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Check every round, print the workload's detail lines, and build the
/// result line.
fn summarize_rounds(w: Workload, trace: bool, rounds: &[Round]) -> (Report, Vec<String>) {
    let mut failures: Vec<String> = Vec::new();
    for (i, r) in rounds.iter().enumerate() {
        failures.extend(
            sim::check(&r.sim)
                .into_iter()
                .map(|f| format!("round {i}: {f}")),
        );
        if let Some(s) = &r.scrape {
            failures.extend(s.failures.iter().map(|f| format!("round {i}: {f}")));
        }
    }
    // Reproduction: every round of the seed, traced or not, must match
    // the first in counts, delivered-point CRC, and archive bytes.
    let first = &rounds[0];
    for (i, r) in rounds.iter().enumerate().skip(1) {
        if r.sim.fingerprint() != first.sim.fingerprint() || r.exact() != first.exact() {
            failures.push(format!(
                "round {i} ({}) does not reproduce round 0: committed {} vs {}, \
                 points {} vs {}, crc {:08x} vs {:08x}, archive bytes {} vs {}",
                if r.traced() { "traced" } else { "untraced" },
                r.sim.committed,
                first.sim.committed,
                r.sim.points,
                first.sim.points,
                r.sim.points_crc,
                first.sim.points_crc,
                r.sim.archive_bytes,
                first.sim.archive_bytes,
            ));
            for (k, v) in r.exact() {
                let v0 = first.exact().get(k).copied().unwrap_or(0);
                if v != v0 {
                    failures.push(format!("round {i}: {k} = {v}, round 0 had {v0}"));
                }
            }
        }
    }
    let c = first.exact();
    match w {
        Workload::YcsbCollect if c["bpf.insns_executed"] == 0 || first.sim.points == 0 => {
            failures.push("ycsb-collect ran no BPF instructions or delivered no sample".into());
        }
        Workload::TpccUnsampled if c["bpf.insns_executed"] != 0 => {
            failures.push("tpcc-unsampled executed BPF instructions at 0% sampling".into());
        }
        _ => {}
    }
    for s in Span::ALL {
        let calls: Vec<u64> = rounds
            .iter()
            .filter_map(|r| r.tracer.as_ref())
            .map(|t| t.stat(s).calls)
            .collect();
        if calls.iter().any(|&n| n != calls[0]) {
            failures.push(format!(
                "{}: call counts differ across traced rounds",
                s.name()
            ));
        }
    }

    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced()).collect();
    let setup_s = median(&plain.iter().map(|r| r.ref_setup_s()).collect::<Vec<_>>()).unwrap_or(0.0);
    let ops_per_s = median(
        &plain
            .iter()
            .map(|r| r.ops as f64 / r.ref_measured_s())
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    let rss = peak_rss_mb();

    println!(
        "rounds {} (untraced {}, traced {})",
        rounds.len(),
        plain.len(),
        rounds.len() - plain.len()
    );
    print_detail(w, &plain, setup_s, rss);

    let attempted: u64 = rounds.iter().map(|r| r.ops).sum::<u64>().max(1);
    let metrics = if trace {
        per_layer_metrics(rounds, &c, &mut failures)
    } else {
        [setup_s, ops_per_s, rss]
            .into_iter()
            .zip(END_TO_END)
            .map(|(value, (name, unit))| Metric {
                name: name.into(),
                value,
                unit: unit.into(),
            })
            .collect()
    };
    // Numbers from a run that failed a check are not reported.
    let correct = failures.is_empty();
    let report = Report {
        correct,
        attempted,
        failed: failures.len() as u64,
        metrics: if correct { metrics } else { Vec::new() },
    };
    (report, failures)
}

/// Every workload-level quantity, by name and unit, ahead of the result
/// line.
fn print_detail(w: Workload, plain: &[&Round], setup_s: f64, rss: f64) {
    let med = |f: &dyn Fn(&Round) -> f64| {
        median(&plain.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let line = |name: &str, value: f64, unit: &str| println!("metric {name} {value} {unit}");
    line("setup_s", setup_s, "s");
    line("wall_setup_s", med(&|r| r.setup_s), "s");
    line(
        "wall_ops_per_s",
        med(&|r| r.ops as f64 / r.measured_s),
        "op/s",
    );
    line("host_speed", med(&|r| r.measured_scale), "x");
    line("peak_rss_mb", rss, "MiB");
    let o = &plain[0].sim;
    let c = &o.counts;
    if w == Workload::ObsdScrape {
        let lat: Vec<f64> = plain
            .iter()
            .flat_map(|r| {
                r.scrape
                    .iter()
                    .flat_map(|s| s.latencies_us.iter().map(|&us| us * r.measured_scale))
            })
            .collect();
        let requests: u64 = plain
            .iter()
            .filter_map(|r| r.scrape.as_ref())
            .map(|s| s.requests)
            .sum();
        let errors: u64 = plain
            .iter()
            .filter_map(|r| r.scrape.as_ref())
            .map(|s| s.errors)
            .sum();
        if let Some(s) = summarize(&lat) {
            line("scrape_us_p50", s.p50, "us");
            if let Some((p, v)) = s.tail {
                println!("metric scrape_us_p99 {v} us (percentile p{p}, n={})", s.n);
            }
        }
        line("scrape_error_frac", ratio(errors, requests), "ratio");
        return;
    }
    line(
        "sim_txn_per_s",
        med(&|r| r.sim.committed as f64 / r.ref_measured_s()),
        "txn/s",
    );
    if w != Workload::TpccUnsampled {
        line(
            "samples_per_s",
            med(&|r| r.sim.points as f64 / r.ref_measured_s()),
            "samples/s",
        );
        line(
            "sample_loss_frac",
            ratio(c["core.samples_lost"], c["core.samples_begun"]),
            "ratio",
        );
    }
    line(
        "txn_abort_frac",
        ratio(o.aborted, o.committed + o.aborted),
        "ratio",
    );
    if w == Workload::SmallbankLifecycle {
        line(
            "archive_bytes_per_sample",
            ratio(o.archive_bytes, o.archive_samples),
            "B",
        );
        if let Some(m) = o.holdout_mape_pct {
            line("model_holdout_mape_pct", m, "%");
        }
    }
    println!(
        "output committed={} points={} points_crc={:08x} archive_bytes={}",
        o.committed, o.points, o.points_crc, o.archive_bytes
    );
}

fn per_layer_metrics(rounds: &[Round], counts: &Counts, failures: &mut Vec<String>) -> Vec<Metric> {
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced()).collect();
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced()).collect();
    let tracers: Vec<&Tracer> = traced.iter().filter_map(|r| r.tracer.as_ref()).collect();
    // Span times, like the end-to-end times, are scaled to a host at
    // reference speed with the pass around the part they fall in.
    let scale = |r: &Round, s: Span| {
        if matches!(s, Span::WorkloadsSetup | Span::DbAttachTscout) {
            r.setup_scale
        } else {
            r.measured_scale
        }
    };
    let mut values: std::collections::BTreeMap<String, f64> = Default::default();
    for s in Span::ALL {
        let prefix = s.name();
        let self_ns: Vec<f64> = traced
            .iter()
            .map(|r| r.tracer.as_ref().unwrap().stat(s).self_ns as f64 * scale(r, s))
            .collect();
        values.insert(format!("{prefix}_ns"), median(&self_ns).unwrap_or(0.0));
        values.insert(format!("{prefix}_calls"), tracers[0].stat(s).calls as f64);
        if s.keeps_durations() {
            let all: Vec<f64> = traced
                .iter()
                .flat_map(|r| {
                    let k = scale(r, s);
                    let t = r.tracer.as_ref().unwrap();
                    t.stat(s).durations_ns.iter().map(move |&d| d as f64 * k)
                })
                .collect();
            let sm = summarize(&all);
            values.insert(format!("{prefix}_p50_ns"), sm.map_or(0.0, |x| x.p50));
            values.insert(
                format!("{prefix}_p99_ns"),
                sm.and_then(|x| x.tail).map_or(0.0, |(_, v)| v),
            );
            if let Some(Summary {
                n,
                tail: Some((p, _)),
                ..
            }) = sm
            {
                println!("span {prefix} n={n} tail=p{p}");
            }
        }
    }
    let wall = |rs: &[&Round]| median(&rs.iter().map(|r| r.ref_measured_s()).collect::<Vec<_>>());
    let overhead = match (wall(&traced), wall(&plain)) {
        (Some(t), Some(p)) if p > 0.0 => (t / p - 1.0) * 100.0,
        _ => 0.0,
    };
    values.insert("bench.trace_overhead_pct".into(), overhead);
    for (name, _) in COUNTS {
        let v = match name {
            "core.marker_events_per_txn" => ratio(
                counts["core.marker_events"],
                counts["db.committed"] + counts["db.aborted"],
            ),
            "bpf.insns_per_sample" => {
                ratio(counts["bpf.insns_executed"], counts["core.samples_begun"])
            }
            "obsd.response_bytes" => median(
                &traced
                    .iter()
                    .filter_map(|r| r.scrape.as_ref())
                    .map(|s| s.response_bytes as f64)
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(0.0),
            _ => match counts.get(name) {
                Some(&v) => v as f64,
                None if name.starts_with("obsd.") => 0.0,
                None => {
                    failures.push(format!("count {name} was not collected"));
                    0.0
                }
            },
        };
        values.insert(name.to_string(), v);
    }
    per_layer_catalog()
        .into_iter()
        .map(|(name, unit)| Metric {
            value: values
                .remove(&name)
                .unwrap_or_else(|| panic!("no value for {name}")),
            name,
            unit: unit.into(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units the command reports are the ones
    /// `BENCHMARK.json` declares.
    #[test]
    fn catalog_matches_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let j = tscout_obsd::json::Json::parse(&text).unwrap();
        let list = |key: &str| -> Vec<(String, String)> {
            j.get(key)
                .and_then(|v| v.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(|v| v.as_str()).unwrap().to_string(),
                        m.get("unit").and_then(|v| v.as_str()).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(list("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer_catalog()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(list("per_layer"), layer);
        let workloads: Vec<String> = j
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    }

    #[test]
    fn args_parse_and_reject() {
        let a: Vec<String> = "--workload obsd-scrape --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let p = parse_args(&a).unwrap();
        assert_eq!(
            (p.workload, p.seed, p.seconds, p.trace),
            (Workload::ObsdScrape, 7, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 1",
            "--workload ycsb-collect",
            "--workload ycsb-collect --seed x",
            "--workload ycsb-collect --seed 1 --trace 2",
            "--workload ycsb-collect --seed 1 --seconds 0",
            "--workload ycsb-collect --seed",
        ] {
            let a: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&a).is_err(), "{bad}");
        }
    }
}
