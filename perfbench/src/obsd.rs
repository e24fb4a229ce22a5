//! The operator-plane workload: a registry populated by a short
//! lifecycle run, served by `tscout-obsd` with one worker, scraped by
//! one closed-loop client (the next request leaves when the previous
//! response has arrived).

use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tscout_obsd::{client, ObsdConfig, ObsdServer};

use crate::sim::{self, SimSpec, WorkloadKind};
use crate::span::{Span, Tracer};

/// The run that fills the served registry.
pub const POPULATE: SimSpec = SimSpec {
    workload: WorkloadKind::SmallBank { customers: 10_000 },
    rate: 100,
    collection_ring: true,
    retrain_every_ns: Some(10e6),
    duration_ns: 100e6,
};

/// Requests one round issues.
pub const REQUESTS_PER_ROUND: usize = 240;

const SQL: &str = "SELECT subsystem, count(*), sum(samples) FROM ts_stat_ou GROUP BY subsystem";

/// One request of the fixed mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    Metrics,
    Ou,
    Alerts,
    Sql,
}

impl Request {
    const MIX: [Request; 4] = [Request::Metrics, Request::Ou, Request::Alerts, Request::Sql];

    fn span(self) -> Span {
        match self {
            Request::Metrics => Span::ObsdGetMetrics,
            Request::Ou | Request::Alerts => Span::ObsdGetTable,
            Request::Sql => Span::ObsdPostSql,
        }
    }

    fn send(self, addr: &str) -> Result<(u16, String), String> {
        match self {
            Request::Metrics => client::get(addr, "/metrics"),
            Request::Ou => client::get(addr, "/api/v1/ou"),
            Request::Alerts => client::get(addr, "/api/v1/alerts"),
            Request::Sql => client::post(addr, "/api/v1/sql", SQL),
        }
    }
}

/// The request sequence for `seed`: the mix in equal parts, each block
/// of four shuffled.
pub fn schedule(seed: u64, n: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut block = Request::MIX;
        block.shuffle(&mut rng);
        out.extend(block);
    }
    out.truncate(n);
    out
}

/// A running server over a populated registry.
#[derive(Debug)]
pub struct Served {
    pub server: ObsdServer,
    /// What the populating run produced.
    pub populated: sim::Outcome,
    /// Keeps the populated database (and its registry) alive.
    _sim: sim::Sim,
}

pub fn setup(seed: u64, archive_dir: &Path, tracer: &mut Tracer) -> Served {
    let mut s = sim::setup(&POPULATE, seed, archive_dir, tracer);
    let (stats, _) = sim::run_untraced(&mut s);
    let populated = sim::outcome(&s, &stats);
    let cfg = ObsdConfig {
        workers: 1,
        ..Default::default()
    };
    let server = ObsdServer::start(cfg, s.db.kernel.telemetry.clone())
        .expect("cannot start the obsd server");
    Served {
        server,
        populated,
        _sim: s,
    }
}

/// What one round of scraping produced.
#[derive(Debug, Clone, Default)]
pub struct ScrapeOutcome {
    pub wall_s: f64,
    pub requests: u64,
    pub errors: u64,
    /// Response body bytes. Not an exact count: `/metrics` includes
    /// wall-clock histograms (the server's request timings, archive
    /// flush timings), whose bucket lines vary from run to run.
    pub response_bytes: u64,
    /// `/metrics` bodies without the OpenMetrics `# EOF` terminator.
    /// The server declares the Prometheus 0.0.4 text format, which has
    /// none, so this is reported rather than failed.
    pub metrics_no_eof: u64,
    /// Per-request latency, µs.
    pub latencies_us: Vec<f64>,
    pub failures: Vec<String>,
}

pub fn scrape(served: &Served, schedule: &[Request], tracer: Option<&mut Tracer>) -> ScrapeOutcome {
    let addr = served.server.addr().to_string();
    let mut out = ScrapeOutcome::default();
    let mut tracer = tracer;
    let t0 = Instant::now();
    if let Some(t) = tracer.as_deref_mut() {
        t.enter(Span::DriverRun);
    }
    for &req in schedule {
        let start = Instant::now();
        if let Some(t) = tracer.as_deref_mut() {
            t.enter(req.span());
        }
        let r = req.send(&addr);
        if let Some(t) = tracer.as_deref_mut() {
            t.exit();
        }
        out.latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
        out.requests += 1;
        match r {
            Ok((200, body)) => {
                out.response_bytes += body.len() as u64;
                if req == Request::Metrics {
                    if !body.trim_end().ends_with("# EOF") {
                        out.metrics_no_eof += 1;
                    }
                    if let Some(e) = exposition_error(&body) {
                        out.errors += 1;
                        out.failures.push(format!("/metrics: {e}"));
                    }
                }
            }
            Ok((status, _)) => {
                out.errors += 1;
                out.failures.push(format!("{req:?}: status {status}"));
            }
            Err(e) => {
                out.errors += 1;
                out.failures.push(format!("{req:?}: {e}"));
            }
        }
    }
    if let Some(t) = tracer {
        t.exit();
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out
}

/// Why `body` is not a complete Prometheus text exposition, if it is
/// not: every sample line must be `name[{labels}] value` and the body
/// must end with a newline (a truncated body fails one or the other).
pub fn exposition_error(body: &str) -> Option<String> {
    if body.is_empty() || !body.ends_with('\n') {
        return Some("body is empty or truncated (no final newline)".into());
    }
    for line in body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let value = match line.rfind('}') {
            Some(i) => line[i + 1..].trim(),
            None => line.split_once(' ').map_or("", |(_, v)| v.trim()),
        };
        let name_ok = line
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
        if !name_ok || value.parse::<f64>().is_err() {
            return Some(format!("malformed sample line `{line}`"));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_balanced() {
        let a = schedule(7, 240);
        assert_eq!(a, schedule(7, 240));
        assert_ne!(a, schedule(8, 240));
        for r in Request::MIX {
            assert_eq!(a.iter().filter(|&&x| x == r).count(), 60);
        }
    }

    #[test]
    fn exposition_check_catches_truncation_and_garbage() {
        let ok = "# TYPE a counter\na_total 1\nh_bucket{le=\"+Inf\",x=\"y z\"} 3\nh_sum 1.5e3\n";
        assert_eq!(exposition_error(ok), None);
        assert!(exposition_error("").is_some());
        assert!(exposition_error("a_total 1\nh_bucket{le=").is_some());
        assert!(exposition_error("a_total\n").is_some());
        assert!(exposition_error("{x=\"1\"} 2\n").is_some());
    }
}
