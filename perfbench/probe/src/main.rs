//! In-process half of the repository benchmark (`perfbench/run.py` is the
//! other half). Every subcommand runs as its own child process and prints
//! one JSON object as its last stdout line:
//!
//! - `gen <workload> <seed> <dir>`: writes the workload's seeded CSV inputs.
//! - `trace-cli <csv> <out.json>`: re-enacts `mudsprof profile <csv>
//!   --format json --out <out.json>` call by call, in the CLI's order, and
//!   records a span around every public call it makes.
//! - `layers <csv> <payload.json> <daemon.csv>...`: times single layers that
//!   the CLI path does not isolate.
//! - `check-batch <csv> <payload.json>`: compares a CLI payload with HFUN
//!   computed in-process.
//! - `check-daemon <manifest.json>`: replays the client-tracked deltas on
//!   each daemon dataset and compares the daemon's payload with the
//!   in-process profile of the result.

use std::fmt::Write as _;
use std::time::Instant;

use muds_core::json::{parse_json, JsonValue};
use muds_core::{
    profile, profile_csv, profile_from_json, profile_to_json, Algorithm, Phase, ProfilePayload,
    ProfileResult, ProfilerConfig,
};
use muds_datagen::{ionosphere_like, ncvoter_like};
use muds_lattice::WalkConfig;
use muds_pli::{Pli, PliCache};
use muds_table::{
    fingerprint, table_from_csv_bytes, table_from_csv_file, table_to_csv, CsvOptions, Table,
    TableDelta,
};
use muds_ucc::{ducc, DuccConfig};

type Res<T> = Result<T, String>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") if args.len() == 4 => gen(&args[1], &args[2], &args[3]),
        Some("trace-cli") if args.len() == 3 => trace_cli(&args[1], &args[2]),
        Some("layers") if args.len() >= 3 => layers(&args[1], &args[2], &args[3..]),
        Some("check-batch") if args.len() == 3 => check_batch(&args[1], &args[2]),
        Some("check-daemon") if args.len() == 2 => check_daemon(&args[1]),
        _ => Err("usage: perfbench-probe gen|trace-cli|layers|check-batch|check-daemon ...".into()),
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            std::process::exit(1);
        }
    }
}

// ---------------------------------------------------------------- inputs

/// SplitMix64: a tiny seeded generator, so the benchmark's row orders are
/// a pure function of the seed and independent of any crate's RNG.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The table as CSV with its data rows in a seeded order. The relation,
/// and with it every dependency, is the same for every seed; the bytes,
/// dictionary first-seen orders and PLI cluster orders are not.
fn shuffled_csv(table: &Table, seed: u64) -> String {
    let csv = table_to_csv(table, &CsvOptions::default());
    let mut lines: Vec<&str> = csv.lines().collect();
    let mut rng = SplitMix(seed);
    let rows = &mut lines[1..];
    for i in (1..rows.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        rows.swap(i, j);
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

fn write(path: &std::path::Path, text: &str) -> Res<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir:?}: {e}"))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{path:?}: {e}"))
}

/// Copies of the batch input written per run: three cold ones (each a row
/// order the program has not seen in this run; a workload whose set-up is
/// the daemon's uses only the first, as its warm-up) and one warm one.
const BATCH_COPIES: u64 = 4;

fn gen(workload: &str, seed: &str, dir: &str) -> Res<String> {
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
    let dir = std::path::Path::new(dir);
    // (stem, table) of the batch input and (name, table, pool rows) of each
    // daemon dataset; pool rows are held back for appends. The daemon
    // datasets are listed smallest first: that is the order of the read
    // skew, so the hottest results are the cheapest to recompute.
    let (stem, batch, daemon): (&str, Table, Vec<(&str, Table, usize)>) = match workload {
        "tall_rows" => (
            "ncvoter",
            ncvoter_like(200_000, 10),
            vec![
                ("nc1k", ncvoter_like(1_400, 10), 400),
                ("nc2k", ncvoter_like(2_400, 12), 400),
                ("nc3k", ncvoter_like(3_400, 10), 400),
            ],
        ),
        "wide_lattice" => (
            "ionosphere",
            ionosphere_like(16),
            vec![
                ("ion9", ionosphere_like(9), 50),
                ("ion10", ionosphere_like(10), 50),
                ("ion11", ionosphere_like(11), 50),
            ],
        ),
        other => return Err(format!("unknown workload {other:?}")),
    };
    for copy in 0..BATCH_COPIES {
        let path = dir.join(format!("batch/c{copy}/{stem}.csv"));
        write(&path, &shuffled_csv(&batch, seed.wrapping_mul(31).wrapping_add(copy)))?;
    }
    let mut out =
        format!("{{\"batch\":\"batch/c{{}}/{stem}.csv\",\"copies\":{BATCH_COPIES},\"datasets\":[");
    for (i, (name, table, pool)) in daemon.iter().enumerate() {
        let file = format!("daemon/{name}.csv");
        write(&dir.join(&file), &shuffled_csv(table, seed ^ (0xD00D + i as u64)))?;
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"file\":\"{file}\",\"rows\":{},\"pool\":{pool}}}",
            table.num_rows()
        );
    }
    out.push_str("]}");
    Ok(out)
}

// ----------------------------------------------------------------- spans

/// Spans recorded by the benchmark itself, kept in memory and written out
/// once at the end: name, start, end (ns since the recorder's epoch) and
/// the index of the enclosing span.
struct Spans {
    epoch: Instant,
    spans: Vec<(String, u64, u64, Option<usize>)>,
    open: Vec<usize>,
}

impl Spans {
    fn new() -> Self {
        Spans { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push((name.to_string(), start, start, self.open.last().copied()));
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].2 = self.now();
        out
    }

    /// A span timed by someone else: `duration` from `start`, under `parent`.
    fn record(&mut self, name: &str, start: u64, duration: std::time::Duration, parent: usize) {
        let end = start + duration.as_nanos() as u64;
        self.spans.push((name.to_string(), start, end, Some(parent)));
    }

    fn to_json(&self, run: &str) -> String {
        let mut out = String::from("[");
        for (i, (name, start, end, parent)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":{},\"start\":{start},\"end\":{end},\"parent\":{parent},\"run\":\"{run}\"}}",
                json_str(name)
            );
        }
        out.push(']');
        out
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(d: std::time::Duration) -> f64 {
    d.as_secs_f64()
}

fn metrics_json(pairs: &[(String, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":{v}");
    }
    out.push('}');
    out
}

/// Phase names of the CLI's MUDS run and the layer metric each one's time
/// is reported as.
const CORE_PHASES: [(&str, &str); 7] = [
    ("SPIDER", "core.spider_s"),
    ("DUCC", "core.ducc_s"),
    ("minimize FDs", "core.minimize_fds_s"),
    ("calculate R\\Z", "core.calculate_rz_s"),
    ("generate shadowed fd tasks", "core.generate_shadowed_s"),
    ("minimize shadowed tasks", "core.minimize_shadowed_s"),
    ("completion sweep", "core.completion_sweep_s"),
];

/// `mudsprof profile <csv> --format json --out <out>` with the default
/// algorithm (MUDS) and stats off, one span per public call, in the CLI's
/// order: parse, dedup, re-serialize, `profile_csv` (which parses again and
/// runs MUDS), report, encode, write. The phases `profile_csv` returns are
/// recorded as child spans of its call, laid end to end from its start, so
/// the second parse (`read input`) and the MUDS phases get self times too.
fn trace_cli(csv_path: &str, out_path: &str) -> Res<String> {
    let mut sp = Spans::new();
    let options = CsvOptions::default();
    let mut parse_hwm_mb = 0.0;
    let (result, json) = sp.time("cli.profile", |sp| -> Res<_> {
        let table = sp.time("table.parse", |_| table_from_csv_file(csv_path, &options));
        let table = table.map_err(|e| e.to_string())?;
        parse_hwm_mb = vm_hwm_mb();
        let table = sp.time("table.dedup", |_| {
            if table.has_duplicate_rows() {
                table.dedup_rows()
            } else {
                table
            }
        });
        let config = ProfilerConfig::default();
        let csv = sp.time("table.to_csv", |_| table_to_csv(&table, &options));
        let metrics = muds_obs::Metrics::new();
        let guard = metrics.install();
        let call = sp.spans.len();
        let result = sp.time("core.profile_csv", |_| {
            profile_csv(table.name(), &csv, &options, Algorithm::Muds, &config)
        });
        drop(guard);
        let result = result.map_err(|e| e.to_string())?;
        let mut at = sp.spans[call].1;
        for phase in &result.phases {
            sp.record(&phase.name, at, phase.duration, call);
            at += phase.duration.as_nanos() as u64;
        }
        let names = table.column_names();
        let human = sp.time("cli.report", |_| human_report(&table, &result));
        eprint!("{human}");
        let json = sp.time("core.to_json", |_| profile_to_json(&result, table.name(), &names));
        sp.time("cli.write", |_| std::fs::write(out_path, format!("{json}\n")))
            .map_err(|e| format!("{out_path}: {e}"))?;
        Ok((result, json))
    })?;
    let counters = &result.metrics;
    let phase = |name: &str| {
        result.phases.iter().find(|p| p.name == name).map_or(0.0, |p| secs(p.duration))
    };
    let requests = counters.counter("pli.requests");
    let mut m: Vec<(String, f64)> = vec![("table.parse_rss_mb".into(), parse_hwm_mb)];
    m.extend(CORE_PHASES.iter().map(|(name, metric)| (metric.to_string(), phase(name))));
    m.extend([
        ("core.sweep_oracle_calls".into(), counters.counter("muds.sweep_oracle_calls") as f64),
        ("core.minimize_fd_checks".into(), counters.counter("minimize.fd_checks") as f64),
        ("core.json_kb".into(), json.len() as f64 / 1024.0),
        ("pli.requests".into(), requests as f64),
        ("pli.intersects".into(), counters.counter("pli.intersects") as f64),
        (
            "pli.hit_ratio".into(),
            if requests == 0 { 0.0 } else { counters.counter("pli.hits") as f64 / requests as f64 },
        ),
        ("lattice.trie_node_probes".into(), counters.counter("trie.node_probes") as f64),
        ("lattice.walk_nodes_visited".into(), counters.counter("walk.nodes_visited") as f64),
    ]);
    let run = format!("trace-cli-{}", std::process::id());
    Ok(format!(
        "{{\"spans\":{},\"phases\":{},\"metrics\":{}}}",
        sp.to_json(&run),
        phase_names(&result.phases),
        metrics_json(&m)
    ))
}

/// The phase tree's names as nested JSON: `[{"name":…,"children":[…]}]`,
/// the shape of the `spans` list in `mudsprof profile --metrics json`.
fn phase_names(phases: &[Phase]) -> String {
    let items: Vec<String> = phases
        .iter()
        .map(|p| {
            format!("{{\"name\":{},\"children\":{}}}", json_str(&p.name), phase_names(&p.children))
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// The human report the CLI writes to stderr in `--format json` mode:
/// dependency lists and the phase tree.
fn human_report(table: &Table, result: &ProfileResult) -> String {
    let names = table.column_names();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} rows x {} columns, algorithm {}",
        table.name(),
        table.num_rows(),
        table.num_columns(),
        result.algorithm.name()
    );
    let _ = writeln!(out, "\ninclusion dependencies ({}):", result.inds.len());
    for ind in &result.inds {
        let _ = writeln!(out, "  {} ⊆ {}", names[ind.dependent], names[ind.referenced]);
    }
    let _ = writeln!(out, "\nminimal unique column combinations ({}):", result.minimal_uccs.len());
    for ucc in &result.minimal_uccs {
        let cols: Vec<&str> = ucc.iter().map(|c| names[c]).collect();
        let _ = writeln!(out, "  {{{}}}", cols.join(", "));
    }
    let _ = writeln!(out, "\nminimal functional dependencies ({}):", result.fds.len());
    for fd in result.fds.to_sorted_vec() {
        let lhs: Vec<&str> = fd.lhs.iter().map(|c| names[c]).collect();
        let _ = writeln!(out, "  {{{}}} → {}", lhs.join(", "), names[fd.rhs]);
    }
    let _ = writeln!(out, "\nphases:");
    write_phase_tree(&mut out, &result.phases, 0);
    out
}

fn write_phase_tree(out: &mut String, phases: &[Phase], indent: usize) {
    for phase in phases {
        let _ = writeln!(out, "  {:indent$}{:<28} {:?}", "", phase.name, phase.duration);
        write_phase_tree(out, &phase.children, indent + 2);
    }
}

// ---------------------------------------------------------------- layers

fn load(path: &str) -> Res<Table> {
    let table = table_from_csv_file(path, &CsvOptions::default()).map_err(|e| e.to_string())?;
    Ok(if table.has_duplicate_rows() { table.dedup_rows() } else { table })
}

/// Median seconds of `reps` calls of `f`.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn layers(csv_path: &str, payload_path: &str, daemon: &[String]) -> Res<String> {
    let table = load(csv_path)?;
    let mut m: Vec<(String, f64)> = Vec::new();
    m.push(("table.fingerprint_s".into(), median_secs(3, || fingerprint(&table))));

    // Twenty fresh rows: copies of existing rows with a new first value.
    let rows: Vec<Vec<String>> = (0..20.min(table.num_rows()))
        .map(|r| {
            let mut row: Vec<String> =
                table.row(r).into_iter().map(|v| v.unwrap_or("").to_string()).collect();
            row[0] = format!("perfbench-{r}");
            row
        })
        .collect();
    let delta = TableDelta::Append { rows };
    m.push(("table.apply_delta_s".into(), median_secs(3, || table.apply_delta(&delta))));

    m.push(("pli.build_s".into(), median_secs(3, || PliCache::new(&table))));
    let singles: Vec<Pli> =
        (0..table.num_columns()).map(|c| Pli::from_column(table.column(c))).collect();
    let mut ops = 0u64;
    let start = Instant::now();
    for i in 0..singles.len() {
        for j in i + 1..singles.len() {
            std::hint::black_box(singles[i].intersect(&singles[j]));
            ops += 1;
        }
    }
    let intersect_ns = start.elapsed().as_nanos() as f64 / ops.max(1) as f64;
    m.push(("pli.intersect_ns".into(), intersect_ns));
    m.push(("pli.intersect_ops".into(), ops as f64));

    let config = ProfilerConfig::default();
    let mut cache = PliCache::new(&table);
    let start = Instant::now();
    let uccs = ducc(&mut cache, &DuccConfig { walk: WalkConfig { seed: config.seed } });
    m.push(("ucc.ducc_s".into(), secs(start.elapsed())));
    m.push(("ucc.oracle_calls".into(), uccs.stats.oracle_calls as f64));
    m.push(("pli.cache_mb".into(), cache.estimated_bytes() as f64 / (1 << 20) as f64));
    m.push(("ind.spider_s".into(), median_secs(3, || muds_ind::spider(&table))));

    let payload =
        std::fs::read_to_string(payload_path).map_err(|e| format!("{payload_path}: {e}"))?;
    m.push(("core.from_json_s".into(), median_secs(3, || profile_from_json(&payload))));

    // FD discovery of the daemon's misses and the stats layer, on the
    // workload's daemon datasets.
    let (mut tane_s, mut fun_s, mut stats_s) = (0.0, 0.0, 0.0);
    for path in daemon {
        let t = load(path)?;
        let start = Instant::now();
        std::hint::black_box(muds_fd::tane(&mut PliCache::new(&t)));
        tane_s += secs(start.elapsed());
        let start = Instant::now();
        std::hint::black_box(muds_fd::fun(&mut PliCache::new(&t)));
        fun_s += secs(start.elapsed());
        let r = profile(&t, Algorithm::Muds, &config);
        let uccs: Vec<Vec<usize>> = r.minimal_uccs.iter().map(|u| u.iter().collect()).collect();
        let inds: Vec<(usize, usize)> =
            r.inds.iter().map(|i| (i.dependent, i.referenced)).collect();
        let start = Instant::now();
        std::hint::black_box(muds_stats::compute_stats(&t, &uccs, &inds));
        stats_s += secs(start.elapsed());
    }
    m.push(("fd.tane_s".into(), tane_s));
    m.push(("fd.fun_s".into(), fun_s));
    m.push(("stats.compute_s".into(), stats_s));
    Ok(format!("{{\"metrics\":{}}}", metrics_json(&m)))
}

// ---------------------------------------------------------------- checks

fn same_dependencies(got: &ProfilePayload, want: &ProfilePayload) -> Option<String> {
    if got.columns != want.columns {
        return Some(format!("columns differ: {:?} vs {:?}", got.columns, want.columns));
    }
    if got.inds != want.inds {
        return Some(format!("INDs differ: {} vs {}", got.inds.len(), want.inds.len()));
    }
    if got.uccs != want.uccs {
        return Some(format!("UCCs differ: {} vs {}", got.uccs.len(), want.uccs.len()));
    }
    if got.fds != want.fds {
        return Some(format!("FDs differ: {} vs {}", got.fds.len(), want.fds.len()));
    }
    None
}

fn check_batch(csv_path: &str, payload_path: &str) -> Res<String> {
    let table = load(csv_path)?;
    let hfun = profile(&table, Algorithm::HolisticFun, &ProfilerConfig::default());
    let want = ProfilePayload::from_result(&hfun, table.name(), &table.column_names());
    let text = std::fs::read_to_string(payload_path).map_err(|e| format!("{payload_path}: {e}"))?;
    let verdict = match profile_from_json(&text) {
        Ok(got) => same_dependencies(&got, &want),
        Err(e) => Some(format!("payload does not parse: {e}")),
    };
    Ok(match verdict {
        None => format!("{{\"ok\":true,\"fds\":{}}}", want.fds.len()),
        Some(why) => format!("{{\"ok\":false,\"why\":{}}}", json_str(&why)),
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    muds_core::json::write_json_string(&mut out, s);
    out
}

fn field<'a>(v: &'a JsonValue, key: &str) -> Res<&'a JsonValue> {
    v.get(key).ok_or_else(|| format!("manifest entry lacks {key:?}"))
}

fn str_field<'a>(v: &'a JsonValue, key: &str) -> Res<&'a str> {
    field(v, key)?.as_str().ok_or_else(|| format!("{key:?} is not a string"))
}

/// The daemon's answer for one dataset against the in-process profile of
/// the contents the client tracked: the registered CSV, deduplicated as
/// registration does, with every acknowledged delta applied in order.
fn check_one(entry: &JsonValue) -> Res<Option<String>> {
    let name = str_field(entry, "name")?;
    let options = CsvOptions::default();
    let base = std::fs::read(str_field(entry, "base")?).map_err(|e| e.to_string())?;
    let mut table = table_from_csv_bytes(name, &base, &options).map_err(|e| e.to_string())?;
    if table.has_duplicate_rows() {
        table = table.dedup_rows();
    }
    for delta in field(entry, "deltas")?.as_array().ok_or("deltas is not an array")? {
        let delta = if let Some(file) = delta.get("append").and_then(JsonValue::as_str) {
            let bytes = std::fs::read(file).map_err(|e| format!("{file}: {e}"))?;
            let rows = table_from_csv_bytes(name, &bytes, &options).map_err(|e| e.to_string())?;
            TableDelta::Append {
                rows: (0..rows.num_rows())
                    .map(|r| rows.row(r).into_iter().map(|v| v.unwrap_or("").to_string()).collect())
                    .collect(),
            }
        } else {
            let ids = delta.get("delete").and_then(JsonValue::as_array).ok_or("bad delta")?;
            TableDelta::Delete { rows: ids.iter().filter_map(JsonValue::as_usize).collect() }
        };
        table = table.apply_delta(&delta).map_err(|e| e.to_string())?.table;
    }
    let algorithm = Algorithm::from_name(str_field(entry, "algorithm")?).ok_or("bad algorithm")?;
    let config = ProfilerConfig { stats: true, ..ProfilerConfig::default() };
    let result = profile(&table, algorithm, &config);
    let want = ProfilePayload::from_result(&result, name, &table.column_names());
    let payload_path = str_field(entry, "payload")?;
    let got = std::fs::read_to_string(payload_path).map_err(|e| format!("{payload_path}: {e}"))?;
    // The payload's metrics section holds run timings; everything else —
    // dependency sets and column statistics — must match exactly.
    Ok(match profile_from_json(&got) {
        Ok(got) if got == want => None,
        Ok(got) => Some(format!(
            "{name}: daemon payload differs from the in-process profile ({})",
            same_dependencies(&got, &want).unwrap_or_else(|| "statistics differ".into())
        )),
        Err(e) => Some(format!("{name}: daemon payload does not parse: {e}")),
    })
}

fn check_daemon(manifest: &str) -> Res<String> {
    let text = std::fs::read_to_string(manifest).map_err(|e| format!("{manifest}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| e.to_string())?;
    let entries = doc.get("checks").and_then(JsonValue::as_array).ok_or("no checks")?;
    let mut out = String::from("{\"results\":[");
    for (i, entry) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let verdict = check_one(entry).unwrap_or_else(Some);
        let _ = write!(
            out,
            "{{\"name\":{},\"ok\":{},\"why\":{}}}",
            json_str(str_field(entry, "name").unwrap_or("?")),
            verdict.is_none(),
            json_str(verdict.as_deref().unwrap_or(""))
        );
    }
    out.push_str("]}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation_of_the_rows() {
        let t = ncvoter_like(300, 8);
        let a = shuffled_csv(&t, 7);
        let b = shuffled_csv(&t, 7);
        let c = shuffled_csv(&t, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut la: Vec<&str> = a.lines().collect();
        let mut lc: Vec<&str> = c.lines().collect();
        assert_eq!(la[0], lc[0], "header stays first");
        la.sort_unstable();
        lc.sort_unstable();
        assert_eq!(la, lc);
    }

    #[test]
    fn spans_nest_under_their_caller() {
        let mut sp = Spans::new();
        sp.time("outer", |sp| sp.time("inner", |_| ()));
        assert_eq!(sp.spans[0].3, None);
        assert_eq!(sp.spans[1].3, Some(0));
        assert!(sp.spans[0].1 <= sp.spans[1].1 && sp.spans[1].2 <= sp.spans[0].2);
    }
}
