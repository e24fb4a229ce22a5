//! The result line and the environment fingerprint printed before it.

use tscout_obsd::json::{escape, Json};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// The last line of standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Whole numbers print as integers, the rest in the shortest rendering
/// that reads back to the same f64 (all their digits).
fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a number");
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

impl Report {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(&m.name),
                    number(m.value),
                    escape(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parse a result line back. Metrics come back in name order.
    pub fn parse(line: &str) -> Result<Report, String> {
        let j = Json::parse(line)?;
        let int = |key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .filter(|v| *v >= 0.0 && v.fract() == 0.0)
                .map(|v| v as u64)
                .ok_or_else(|| format!("`{key}` is not a whole number"))
        };
        let correct = match j.get("correct") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("`correct` is not a boolean".into()),
        };
        let Some(Json::Obj(m)) = j.get("metrics") else {
            return Err("`metrics` is not an object".into());
        };
        let metrics = m
            .iter()
            .map(|(name, v)| {
                let value = v.get("value").and_then(Json::as_f64);
                let unit = v.get("unit").and_then(Json::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok(Metric {
                        name: name.clone(),
                        value,
                        unit: unit.to_string(),
                    }),
                    _ => Err(format!("metric `{name}` lacks a value or unit")),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Report {
            correct,
            attempted: int("attempted")?,
            failed: int("failed")?,
            metrics,
        })
    }
}

/// What the numbers were measured on.
pub fn environment_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"kernel\": \"{}\", \"rustc\": \"{}\", \
         \"commit\": \"{}\", \"profile\": \"{profile}\"}}",
        escape(&cpu),
        escape(&kernel),
        escape(&rustc),
        escape(&git_commit().unwrap_or_else(|| "unknown".into())),
    )
}

/// The commit checked out in the working directory, read from `.git`
/// without running git (a source export has no `.git`).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_parses_back_to_the_same_names_units_and_values() {
        let r = Report {
            correct: true,
            attempted: 20_689,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "ops_per_s".into(),
                    value: 6_912.345_678_901_234,
                    unit: "op/s".into(),
                },
                Metric {
                    name: "setup_s".into(),
                    value: 0.812_7,
                    unit: "s".into(),
                },
                Metric {
                    name: "core.marker_events_per_txn".into(),
                    value: 1e-7,
                    unit: "ratio".into(),
                },
                Metric {
                    name: "db.txn_calls".into(),
                    value: 123_456_789.0,
                    unit: "count".into(),
                },
            ],
        };
        let line = r.to_json();
        assert!(!line.contains('\n'));
        let back = Report::parse(&line).unwrap();
        let mut want = r.clone();
        want.metrics.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(back, want);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Report::parse("{}").is_err());
        assert!(Report::parse(
            "{\"correct\": 1, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
        assert!(Report::parse(
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
        assert!(Report::parse(
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 1}}}"
        )
        .is_err());
    }
}
