//! The benchmark's metric tables — names, units, directions and
//! regression bounds — read from `BENCHMARK.json` itself.
//!
//! Every run prints every metric of the mode it ran in (end-to-end
//! untraced, per-layer traced). A per-layer metric whose layer a workload
//! does not execute reads 0 there.

use std::sync::OnceLock;

use crate::json::{self, Value};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// `b` relative to `a` as "how much worse", as a share of `a`
    /// (negative when `b` is better).
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        match self {
            Better::Higher => (a - b) / a,
            Better::Lower => (b - a) / a,
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// The metric tables of `BENCHMARK.json`, in its order. The README's
/// glossary says what each metric means and how each bound was chosen.
#[derive(Debug)]
pub struct Tables {
    /// `run_seconds`: how long one run measures unless `--seconds` says
    /// otherwise.
    pub run_seconds: f64,
    /// Workload names, in suite order.
    pub workloads: Vec<&'static str>,
    /// Defined on every workload and never zero.
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<PerLayer>,
}

/// `BENCHMARK.json` is the one copy of the tables: the acceptance driver
/// reads the file, this program reads the same file compiled in.
pub fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        parse_tables(include_str!("../../../../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    })
}

fn parse_tables(text: &str) -> Result<Tables, String> {
    let doc = json::parse(text)?;
    let rows = |key: &str| doc.get(key).and_then(Value::as_arr).ok_or(format!("no {key} array"));
    let text = |row: &Value, key: &str| -> Result<&'static str, String> {
        let s = row.get(key).and_then(Value::as_str).ok_or(format!("a row lacks {key}"))?;
        Ok(String::leak(s.to_string()))
    };
    let better = |row: &Value| match text(row, "better")? {
        "higher" => Ok(Better::Higher),
        "lower" => Ok(Better::Lower),
        other => Err(format!("better is {other:?}")),
    };
    Ok(Tables {
        run_seconds: doc.get("run_seconds").and_then(Value::as_f64).ok_or("no run_seconds")?,
        workloads: rows("workloads")?.iter().map(|w| text(w, "name")).collect::<Result<_, _>>()?,
        end_to_end: rows("end_to_end")?
            .iter()
            .map(|m| {
                Ok(EndToEnd {
                    name: text(m, "name")?,
                    unit: text(m, "unit")?,
                    better: better(m)?,
                    bound: m.get("bound").and_then(Value::as_f64).ok_or("a row lacks bound")?,
                })
            })
            .collect::<Result<_, String>>()?,
        per_layer: rows("per_layer")?
            .iter()
            .map(|m| {
                Ok(PerLayer { name: text(m, "name")?, unit: text(m, "unit")?, better: better(m)? })
            })
            .collect::<Result<_, String>>()?,
    })
}

/// Whether `name` is a well-formed metric or workload name:
/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<&'static str> {
        let t = tables();
        let mut names: Vec<_> = t.end_to_end.iter().map(|m| m.name).collect();
        names.extend(t.per_layer.iter().map(|m| m.name));
        names
    }

    #[test]
    fn name_validator_accepts_the_tables_and_rejects_malformed_names() {
        for name in names() {
            assert!(valid_name(name), "{name}");
        }
        for bad in ["", "-x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn names_are_used_once_and_bounds_are_in_range() {
        let mut names = names();
        names.extend(&tables().workloads);
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(tables().end_to_end.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn a_malformed_table_is_refused() {
        assert!(parse_tables("{}").is_err());
        let no_bound = r#"{"run_seconds":1,"workloads":[],"per_layer":[],
            "end_to_end":[{"name":"x","unit":"s","better":"lower"}]}"#;
        assert!(parse_tables(no_bound).unwrap_err().contains("bound"));
        let sideways =
            no_bound.replace(r#""better":"lower""#, r#""better":"sideways","bound":0.1"#);
        assert!(parse_tables(&sideways).unwrap_err().contains("sideways"));
    }
}
