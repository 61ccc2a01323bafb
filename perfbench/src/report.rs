//! Metric declarations, output checks and the result line.

use crate::Args;
use bf_obs::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The benchmark's declaration file, compiled in so the binary and the
/// file can never disagree about a metric's name, unit or direction.
const DECLARATIONS: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone)]
pub struct Decl {
    pub name: String,
    pub unit: String,
    pub better: String,
}

impl Decl {
    /// `host` for wall-clock measurements, `exact` for virtual ticks,
    /// counts and fractions that must repeat bit for bit.
    pub fn clock(&self) -> &'static str {
        match self.unit.as_str() {
            "frac" | "count" | "vtick" | "1/req" => "exact",
            _ => "host",
        }
    }
}

/// The declared metrics of one run mode (`end_to_end` or `per_layer`).
pub fn declarations(section: &str) -> Vec<Decl> {
    let json = Json::parse(DECLARATIONS).expect("BENCHMARK.json parses");
    let Some(Json::Array(items)) = json.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| match m.get(k) {
                Some(Json::Str(s)) => s.clone(),
                _ => panic!("BENCHMARK.json {section} entry lacks {k}"),
            };
            Decl {
                name: field("name"),
                unit: field("unit"),
                better: field("better"),
            }
        })
        .collect()
}

/// The `bound` of an end-to-end metric.
#[cfg(test)]
pub fn bound(name: &str) -> f64 {
    let json = Json::parse(DECLARATIONS).expect("BENCHMARK.json parses");
    let Some(Json::Array(items)) = json.get("end_to_end") else {
        panic!("BENCHMARK.json has no end_to_end list");
    };
    items
        .iter()
        .find(|m| matches!(m.get("name"), Some(Json::Str(s)) if s == name))
        .and_then(|m| m.get("bound"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no bound declared for {name}"))
}

/// Everything a run reports.
pub struct Report {
    per_layer: bool,
    workload: String,
    seed: u64,
    decls: Vec<Decl>,
    values: BTreeMap<String, f64>,
    notes: Vec<(String, String)>,
    checks: Vec<(String, bool, String)>,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    pub fn new(args: &Args) -> Self {
        let section = if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        };
        Report {
            per_layer: args.trace,
            workload: args.workload.clone(),
            seed: args.seed,
            decls: declarations(section),
            values: BTreeMap::new(),
            notes: Vec::new(),
            checks: Vec::new(),
            errors: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Record a declared metric of this run mode.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            self.decls.iter().any(|d| d.name == name),
            "metric {name} is not declared for this run mode"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name.to_owned(), value);
    }

    /// A readable line in the report that is not a declared metric
    /// (workload-specific names, sample counts, bases of ratios).
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_owned(), value.to_string()));
    }

    /// Record an output check; a failed check fails the run.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_owned(), ok, detail.into()));
    }

    /// Operations attempted and failed by the measured work.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The workload could not finish.
    pub fn fail(&mut self, error: &str) {
        self.errors.push(error.to_owned());
    }

    fn correct(&self) -> bool {
        self.errors.is_empty() && self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// Print the readable report to stderr and the result line to stdout.
    pub fn finish(mut self) -> ExitCode {
        // A workload reports the layers it runs; the other per-layer
        // metrics read 0 and are listed as such.
        if self.per_layer && self.errors.is_empty() {
            let unset: Vec<String> = self
                .decls
                .iter()
                .filter(|d| !self.values.contains_key(&d.name))
                .map(|d| d.name.clone())
                .collect();
            if !unset.is_empty() {
                self.note("not run by this workload (0)", unset.join(", "));
            }
            for name in unset {
                self.values.insert(name, 0.0);
            }
        }
        eprintln!("\n== perfbench {} (seed {}) ==", self.workload, self.seed);
        for d in &self.decls {
            match self.values.get(&d.name) {
                Some(v) => eprintln!(
                    "  {:<32} {:>16.6} {:<6} ({} is better, {})",
                    d.name,
                    v,
                    d.unit,
                    d.better,
                    d.clock()
                ),
                None => eprintln!("  {:<32} {:>16} {:<6}", d.name, "missing", d.unit),
            }
        }
        for (k, v) in &self.notes {
            eprintln!("  {k:<32} {v}");
        }
        eprintln!("  checks:");
        for (name, ok, detail) in &self.checks {
            eprintln!("    [{}] {name}: {detail}", if *ok { "ok" } else { "FAIL" });
        }
        for e in &self.errors {
            eprintln!("    [FAIL] {e}");
        }
        let missing: Vec<&str> = self
            .decls
            .iter()
            .filter(|d| !self.values.contains_key(&d.name))
            .map(|d| d.name.as_str())
            .collect();
        if !missing.is_empty() {
            eprintln!("perfbench: no value for {}", missing.join(", "));
            return ExitCode::FAILURE;
        }
        let metrics: BTreeMap<String, Json> = self
            .decls
            .iter()
            .map(|d| {
                let entry = Json::object([
                    ("value", Json::Float(self.values[&d.name])),
                    ("unit", Json::Str(d.unit.clone())),
                ]);
                (d.name.clone(), entry)
            })
            .collect();
        let correct = self.correct();
        let line = Json::object([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::Object(metrics)),
        ]);
        println!("{}", line.to_compact_string());
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}
