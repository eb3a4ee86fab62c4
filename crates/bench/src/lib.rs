//! Experiment harness utilities shared by the per-figure/table binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation section (DESIGN.md §5 maps them): `fig6` (row scalability),
//! `fig7` (column scalability), `table3` (eleven UCI datasets × four
//! algorithms), `fig8` (MUDS phase breakdown), and `ablation` (design-choice
//! studies). Absolute numbers differ from the paper (different hardware,
//! Rust instead of Java/Metanome, synthetic stand-in data); the *shapes* —
//! who wins, by what factor, where crossovers fall — are the reproduction
//! target recorded in EXPERIMENTS.md.

use std::time::{Duration, Instant};

use muds_core::json::json_string;
use muds_core::{profile_csv, Algorithm, ProfileResult, ProfilerConfig};
use muds_obs::MetricsSnapshot;
use muds_table::{table_to_csv, CsvOptions, Table};

pub mod report;
pub mod scenarios;

/// Formats a duration as fractional seconds with sensible precision.
pub fn secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 0.01 {
        format!("{:.1}ms", s * 1000.0)
    } else if s < 10.0 {
        format!("{s:.2}s")
    } else {
        format!("{s:.1}s")
    }
}

/// One measured cell of an experiment: algorithm → total runtime + result.
pub struct Measurement {
    pub algorithm: Algorithm,
    pub result: ProfileResult,
    /// End-to-end wall clock (including input parsing, per the paper's
    /// shared-I/O cost model).
    pub elapsed: Duration,
}

/// Runs `algorithms` on the CSV serialization of `table`, so the sequential
/// baseline honestly pays one parse per task while the holistic algorithms
/// parse once — the paper's I/O-sharing comparison.
pub fn measure(
    table: &Table,
    algorithms: &[Algorithm],
    config: &ProfilerConfig,
) -> Vec<Measurement> {
    let csv = table_to_csv(table, &CsvOptions::default());
    algorithms
        .iter()
        .map(|&algorithm| {
            let t0 = Instant::now();
            // lint:allow(panic): the CSV was serialized from an
            // already-validated Table one line up; a parse failure here is
            // a bench-harness bug and should abort the experiment loudly.
            let result = profile_csv(table.name(), &csv, &CsvOptions::default(), algorithm, config)
                .expect("generated CSV is valid");
            let elapsed = t0.elapsed();
            Measurement { algorithm, result, elapsed }
        })
        .collect()
}

/// Asserts that all measurements produced identical FD and UCC sets — every
/// experiment doubles as a correctness check.
pub fn assert_consistent(measurements: &[Measurement]) {
    for pair in measurements.windows(2) {
        let [a, b] = pair else { continue };
        assert_eq!(
            a.result.fds.to_sorted_vec(),
            b.result.fds.to_sorted_vec(),
            "{} and {} disagree on FDs",
            a.algorithm.name(),
            b.algorithm.name()
        );
        assert_eq!(
            a.result.minimal_uccs,
            b.result.minimal_uccs,
            "{} and {} disagree on UCCs",
            a.algorithm.name(),
            b.algorithm.name()
        );
    }
}

/// Prints an aligned text table: header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Configures the global worker pool from an optional `--threads N`
/// argument; call once at the top of every experiment binary. Without the
/// flag, rayon defaults to all cores on first use. Results and counters are
/// thread-count invariant, so `--threads` only changes wall-clock numbers.
pub fn init_threads() {
    let n = arg_usize("--threads", 0);
    if n > 0 {
        if let Err(e) = rayon::ThreadPoolBuilder::new().num_threads(n).build_global() {
            eprintln!("warning: cannot configure {n} worker threads: {e}");
        }
    }
}

/// Parses `--flag value`-style integer arguments from the binary's argv,
/// with a default.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses a `--flag value`-style string argument from the binary's argv.
pub fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

/// True when `--flag` is present in argv.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Collects the metrics snapshots of an experiment run and writes them as
/// one JSON sidecar file next to the printed tables, so the work counters
/// (PLI traffic, walk effort, SPIDER merge steps, …) behind every cell
/// survive the run. Grows via [`MetricsSidecar::record`], written once at
/// binary exit.
pub struct MetricsSidecar {
    path: String,
    /// Scenario key embedded in the envelope — the binary's name, matching
    /// the `scenario` field of `BENCH_*.json` reports.
    scenario: String,
    entries: Vec<String>,
}

impl MetricsSidecar {
    /// Sidecar for the named experiment binary. The default path
    /// `<bin>_metrics.json` (current directory) can be overridden with
    /// `--metrics-out <path>`.
    pub fn for_bin(bin: &str) -> MetricsSidecar {
        let path = arg_str("--metrics-out").unwrap_or_else(|| format!("{bin}_metrics.json"));
        MetricsSidecar { path, scenario: bin.to_string(), entries: Vec::new() }
    }

    /// Records one labelled snapshot, e.g. `("rows=50000", "MUDS", …)`.
    pub fn record(&mut self, label: &str, algorithm: &str, snapshot: &MetricsSnapshot) {
        self.entries.push(format!(
            "{{\"label\":{},\"algorithm\":{},\"metrics\":{}}}",
            json_string(label),
            json_string(algorithm),
            snapshot.to_json()
        ));
    }

    /// Records every measurement of one experiment cell under `label`.
    pub fn record_all(&mut self, label: &str, measurements: &[Measurement]) {
        for m in measurements {
            self.record(label, m.algorithm.name(), &m.result.metrics);
        }
    }

    /// The sidecar content: the same schema-versioned envelope as
    /// `BENCH_*.json` (so tooling can key both by `schema_version` +
    /// `scenario`), with one `entries` element per recorded snapshot.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n\"schema_version\": {},\n\"scenario\": {},\n\"entries\": [\n  {}\n]\n}}\n",
            report::SCHEMA_VERSION,
            json_string(&self.scenario),
            self.entries.join(",\n  ")
        )
    }

    /// Writes the sidecar, reporting the path (or the error) on stderr.
    pub fn write(&self) {
        match std::fs::write(&self.path, self.to_json()) {
            Ok(()) => eprintln!("metrics sidecar: {}", self.path),
            Err(e) => eprintln!("metrics sidecar: cannot write {}: {e}", self.path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muds_datagen::uniprot_like;

    #[test]
    fn measure_runs_all_algorithms_consistently() {
        let t = uniprot_like(300, 6);
        let ms = measure(&t, &Algorithm::ALL, &ProfilerConfig::default());
        assert_eq!(ms.len(), 4);
        assert_consistent(&ms);
    }

    #[test]
    fn sidecar_json_shape() {
        let t = uniprot_like(100, 5);
        let ms = measure(&t, &[Algorithm::Muds], &ProfilerConfig::default());
        let mut sidecar = MetricsSidecar::for_bin("fig6");
        sidecar.record_all("rows=100", &ms);
        let json = sidecar.to_json();
        let doc = muds_core::json::parse_json(&json).expect("sidecar envelope parses");
        assert_eq!(
            doc.get("schema_version").and_then(|v| v.as_u64()),
            Some(report::SCHEMA_VERSION),
            "sidecar shares the BENCH_*.json schema version"
        );
        assert_eq!(doc.get("scenario").and_then(|v| v.as_str()), Some("fig6"));
        assert!(json.contains("\"label\":\"rows=100\""));
        assert!(json.contains("\"algorithm\":\"MUDS\""));
        assert!(json.contains("\"pli.intersects\""));
    }

    #[test]
    fn sidecar_labels_with_control_characters_round_trip() {
        let label = "tab\there\r\u{1}end \"q\" \\";
        let mut sidecar = MetricsSidecar::for_bin("fig\t7");
        sidecar.record(label, "MUDS\n", &MetricsSnapshot::default());
        let json = sidecar.to_json();
        // The lenient parser would also accept raw control characters, so
        // check they were escaped as strict JSON requires.
        assert!(json.contains(r#""label":"tab\there\r\u0001end \"q\" \\""#), "{json}");
        let doc = muds_core::json::parse_json(&json).expect("sidecar parses");
        assert_eq!(doc.get("scenario").and_then(|v| v.as_str()), Some("fig\t7"));
        let entries = doc.get("entries").and_then(|v| v.as_array()).expect("entries array");
        assert_eq!(entries[0].get("label").and_then(|v| v.as_str()), Some(label));
        assert_eq!(entries[0].get("algorithm").and_then(|v| v.as_str()), Some("MUDS\n"));
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(secs(Duration::from_millis(5)), "5.0ms");
        assert_eq!(secs(Duration::from_millis(1500)), "1.50s");
        assert_eq!(secs(Duration::from_secs(75)), "75.0s");
    }
}
