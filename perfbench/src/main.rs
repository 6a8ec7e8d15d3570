//! The repository benchmark: `.scn` text to judged report.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wildfire_churn --seed 1 --seconds 10 --trace 0 [--out result.json]
//! ```
//!
//! `--trace 0` runs a closed loop of whole batches (parse →
//! `run_batch` → render) for `--seconds` and prints the end-to-end
//! metrics; `--trace 1` replays the batch layer by layer with the
//! counting allocator on and prints the per-layer metrics. Both check
//! the judged answers (see `checks`) outside the timed region. The last
//! line of standard output is the result object; the line before it is
//! the stamped document (provenance, inputs and distributions), also
//! written to `--out` when given. Nothing else is written. METRICS.md
//! documents every metric and workload.

mod alloc;
mod calib;
mod checks;
mod lower;
mod replay;
mod stamp;
mod stats;
mod workloads;

use calib::Calibration;
use checks::Flags;
use lower::Laps;
use pov_scenario::{run_batch, Json, Report, Scenario};
use replay::Probe;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per run at least; `setup_s` is their median in reference
/// seconds (see `calib`). Small set-ups
/// repeat until they have taken a second, up to `SETUP_MAX` times.
const SETUP_REPEATS: usize = 5;
const SETUP_MAX: usize = 1000;
/// Timed batches a run completes even when `--seconds` has passed.
const MIN_BATCHES: usize = 3;
/// Non-joined multiplexed queries checked against their solo twins.
const SOLO_SAMPLE: usize = 8;

const USAGE: &str =
    "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out PATH]\n\
                     workloads: wildfire_churn, tree_scale, mux_serving, overlay_continuous";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut out) = (1, 10.0, false, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => out = Some(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

/// One metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    details: Json,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let text = args.workload.scn_text(args.seed);
    let outcome = if args.trace {
        traced(&text)
    } else {
        end_to_end(&text, args.seconds)
    };
    let mut metrics = Json::obj();
    for &(name, value, unit) in &outcome.metrics {
        assert!(value.is_finite(), "metric {name} is {value}");
        metrics = metrics.with(name, Json::obj().with("value", value).with("unit", unit));
    }
    let result = Json::obj()
        .with("correct", outcome.correct)
        .with("attempted", outcome.attempted)
        .with("failed", outcome.failed)
        .with("metrics", metrics);
    let doc = Json::obj()
        .with("stamp", stamp::stamp())
        .with("workload", args.workload.name())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("scn", text.as_str())
        .with("details", outcome.details)
        .with("result", result.clone());
    println!("{}", one_line(&doc));
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, doc.render()) {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", one_line(&result));
    ExitCode::SUCCESS
}

/// The writer's indented rendering folded onto one line. Strings never
/// hold a raw newline (the writer escapes them), so trimming each line
/// only removes indentation.
fn one_line(j: &Json) -> String {
    j.render().lines().map(str::trim).collect()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of an empty sample");
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn spread(xs: &[f64]) -> Json {
    let mut j = Json::obj()
        .with("count", xs.len())
        .with("median", stats::median(xs));
    if xs.len() >= 2 {
        let [q1, _, q3] = stats::quartiles(xs);
        j = j.with("q1", q1).with("q3", q3);
    }
    if let Some((p, v)) = stats::tail_percentile(xs) {
        j = j.with("tail_percentile", p).with("tail_value", v);
    }
    j
}

/// The simulated outcome of a report, exact for a given input.
struct Simulated {
    /// Share of answers the oracle judged valid.
    valid_fraction: f64,
    /// Multiplicative deviation `max(q(HC)/v, v/q(HU), 1)` of each
    /// answer that has an interval envelope in the report: protocol
    /// COUNT/SUM records and multiplexed COUNT queries.
    deviations: Vec<f64>,
    /// Engine messages per answer (raw shared messages for multiplexed
    /// queries).
    msgs_per_answer: f64,
    /// Ticks from each declared answer's start to its declaration.
    ticks: Vec<f64>,
}

fn simulated(report: &Report) -> Simulated {
    let answers = checks::answer_count(report) as f64;
    let mut valid = 0usize;
    let mut messages = 0u64;
    let mut deviations = Vec::new();
    let mut ticks = Vec::new();
    for r in report.protocols.iter().flat_map(|s| &s.records) {
        valid += usize::from(r.valid);
        messages += r.messages;
        deviations.extend(r.deviation);
        ticks.extend(r.time_cost.map(|t| t as f64));
    }
    if let Some(w) = &report.workload {
        messages += w.stats.raw_messages;
        for r in &w.records {
            valid += usize::from(r.valid);
            ticks.extend(r.declared_at.map(|t| (t - r.arrival) as f64));
            if let (Some(v), "count") = (r.value, r.aggregate) {
                if v > 0.0 {
                    let (lo, hi) = (r.hc as f64, r.hu as f64);
                    deviations.push((lo / v).max(v / hi.max(1e-12)).max(1.0));
                }
            }
        }
    }
    Simulated {
        valid_fraction: valid as f64 / answers,
        deviations,
        msgs_per_answer: messages as f64 / answers,
        ticks,
    }
}

/// The untraced run: set up several times, then a closed loop of whole
/// batches for `seconds`, then the checks on the first batch's report.
fn end_to_end(text: &str, seconds: f64) -> Outcome {
    let threads = stamp::nproc();
    // Set-up runs on one thread; one-thread calibrations bracket it.
    let mut setup_calibration = Calibration::new(1);
    let calibrated_before = setup_calibration.run();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    while setup_s.len() < SETUP_REPEATS
        || (setup_s.len() < SETUP_MAX && setup_s.iter().sum::<f64>() < 1.0)
    {
        drop(prepared.take());
        let mut laps = Laps::default();
        prepared = Some(lower::setup(text, &mut laps));
        setup_s.push(laps.total());
    }
    let setup_scale = 2.0 * calib::REFERENCE_S / (calibrated_before + setup_calibration.run());
    drop(setup_calibration);
    let (scn, prep) = prepared.expect("at least one set-up");

    let batch = || {
        let t0 = Instant::now();
        let scn: Scenario = text.parse().expect("generated scenario text parses");
        let report = run_batch(&scn, threads);
        let rendered = report.to_json().render();
        (t0.elapsed().as_secs_f64(), report, rendered)
    };
    // A warm-up batch, untimed: its report is the one the checks judge
    // and every timed batch must render byte-identically to it. Peak
    // memory is read after it: one batch per process, as `repro
    // scenario` runs it, before repeated batches fragment the heap.
    let (_, report, reference) = batch();
    let peak_rss_mb = stamp::rss_kb("VmHWM") as f64 / 1024.0;
    let per_batch = checks::answer_count(&report) as u64;
    let answers = per_batch as f64;
    let mut calibration = Calibration::new(threads.min(scn.num_runs()));
    let start = Instant::now();
    let (mut batch_s, mut calib_s) = (Vec::new(), Vec::new());
    let mut differing = 0u64;
    while batch_s.len() < MIN_BATCHES || start.elapsed().as_secs_f64() < seconds {
        calib_s.push(calibration.run());
        let (dt, _, rendered) = batch();
        batch_s.push(dt);
        differing += u64::from(rendered != reference);
    }
    let rates: Vec<f64> = batch_s.iter().map(|dt| answers / dt).collect();
    let ref_rates: Vec<f64> = batch_s
        .iter()
        .zip(&calib_s)
        .map(|(dt, c)| answers / (dt * calib::REFERENCE_S / c))
        .collect();

    let mut flags = Flags::new(&report);
    checks::invariants(&scn, &report, &mut flags);
    let cells = lower::cells(&scn, &prep);
    let replayed = Probe::default().replay(&cells[0], &prep);
    checks::replay_matches(&report, &cells[0], &replayed, &mut flags);
    checks::solo_twins(&report, &cells[0], &prep, SOLO_SAMPLE, &mut flags);
    if differing > 0 {
        flags.notes.push(format!(
            "{differing} batches rendered differently from the first"
        ));
    }
    let batches = batch_s.len() as u64;
    let attempted = per_batch * batches;
    let failed = flags.count() * (batches - differing) + per_batch * differing;

    let sim = simulated(&report);
    Outcome {
        correct: failed == 0 && flags.notes.is_empty(),
        attempted,
        failed,
        metrics: vec![
            ("answers_per_ref_s", stats::median(&ref_rates), "1/s"),
            ("setup_s", stats::median(&setup_s) * setup_scale, "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
            ("msgs_per_answer", sim.msgs_per_answer, "msgs/answer"),
            ("answer_ticks_mean", mean(&sim.ticks), "ticks"),
            (
                "pass_rate",
                1.0 - ratio(failed as f64, attempted as f64),
                "ratio",
            ),
        ],
        details: Json::obj()
            .with("threads", threads)
            .with("answers_per_batch", per_batch)
            .with("batch_s", spread(&batch_s))
            .with("answers_per_s", spread(&rates))
            .with("calibration_s", spread(&calib_s))
            .with("answers_per_ref_s", spread(&ref_rates))
            .with("setup_s", spread(&setup_s))
            .with("setup_scale", setup_scale)
            .with("valid_fraction", sim.valid_fraction)
            .with("deviation", spread(&sim.deviations))
            .with("answer_ticks", spread(&sim.ticks))
            .with("check_failures", flags.notes),
    }
}

/// Laps on the public path (parse → run_batch → render); the traced run
/// also spends time in measurement-only passes, which these exclude.
const PATH_LAPS: [&str; 10] = [
    "scenario.parse",
    "topology.build",
    "core.values",
    "topology.diameter",
    "core.window_slice",
    "engine.run",
    "oracle.host_sets",
    "oracle.judge",
    "mux.run",
    "core.judge_workload",
];

/// The traced run: every layer's public function called in turn with
/// allocation counting on, then the checks against an untraced report.
fn traced(text: &str) -> Outcome {
    alloc::enable();
    let mut parse_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let mut laps = Laps::default();
        laps.time("scenario.parse", || text.parse::<Scenario>().is_ok());
        parse_s.push(laps.total());
    }
    let mut probe = Probe {
        full: true,
        ..Probe::default()
    };
    let (scn, prep) = lower::setup(text, &mut probe.laps);
    let cells = lower::cells(&scn, &prep);
    let replayed: Vec<_> = cells.iter().map(|c| probe.replay(c, &prep)).collect();

    // The same batch untraced on one worker, as the overhead baseline
    // and the report the replay must reproduce.
    let t0 = Instant::now();
    let batch: Scenario = text.parse().expect("generated scenario text parses");
    let report = run_batch(&batch, 1);
    let rendered = report.to_json().render();
    let untraced_s = t0.elapsed().as_secs_f64();
    let mut render_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let mut laps = Laps::default();
        let again = laps.time("scenario.render", || report.to_json().render());
        assert_eq!(again, rendered, "rendering is deterministic");
        render_s.push(laps.total());
    }

    let mut flags = Flags::new(&report);
    checks::invariants(&scn, &report, &mut flags);
    for (cell, records) in cells.iter().zip(&replayed) {
        checks::replay_matches(&report, cell, records, &mut flags);
    }
    checks::solo_twins(&report, &cells[0], &prep, SOLO_SAMPLE, &mut flags);
    if probe.mux_oracle_mismatches > 0 {
        flags.notes.push(format!(
            "{} multiplexed verdicts differ from a per-query oracle pass",
            probe.mux_oracle_mismatches
        ));
    }
    let attempted = checks::answer_count(&report) as u64;
    let failed = (flags.count() + probe.mux_oracle_mismatches).min(attempted);
    let sim = simulated(&report);

    let l = &probe.laps;
    let ms = |name: &str| l.of(name) * 1e3;
    let traced_s = PATH_LAPS.iter().map(|n| l.of(n)).sum::<f64>() + stats::median(&render_s);
    let answers = probe.answers as f64;
    let events = probe.engine_events as f64;
    let ov = probe.overlay;
    let mx = probe.mux;
    Outcome {
        correct: failed == 0 && flags.notes.is_empty(),
        attempted,
        failed,
        metrics: vec![
            ("scenario.parse_ms", stats::median(&parse_s) * 1e3, "ms"),
            ("scenario.render_ms", stats::median(&render_s) * 1e3, "ms"),
            ("topology.build_ms", ms("topology.build"), "ms"),
            ("topology.diameter_ms", ms("topology.diameter"), "ms"),
            ("topology.edges", prep.graph.num_edges() as f64, "count"),
            ("engine.run_ms", ms("engine.run"), "ms"),
            ("engine.events", events, "count"),
            ("engine.messages", probe.engine_messages as f64, "count"),
            (
                "engine.ns_per_event",
                ratio(l.of("engine.run") * 1e9, events),
                "ns/event",
            ),
            (
                "engine.allocs_per_event",
                ratio(probe.engine_allocs.0 as f64, events),
                "allocs/event",
            ),
            (
                "engine.alloc_bytes_per_event",
                ratio(probe.engine_allocs.1 as f64, events),
                "B/event",
            ),
            (
                "engine.rss_delta_mb",
                probe.engine_rss_delta_kb as f64 / 1024.0,
                "MB",
            ),
            ("sim.idle_drive_ms", ms("sim.idle_drive"), "ms"),
            ("sim.idle_events", probe.idle_events as f64, "count"),
            (
                "overlay.maintenance_msgs",
                ov.maintenance_msgs as f64,
                "count",
            ),
            (
                "overlay.edges_changed",
                (ov.edges_added + ov.edges_removed) as f64,
                "count",
            ),
            (
                "overlay.false_suspicion_ratio",
                ratio(ov.false_suspicions as f64, ov.suspicions as f64),
                "ratio",
            ),
            ("core.window_slice_ms", ms("core.window_slice"), "ms"),
            ("core.judge_workload_ms", ms("core.judge_workload"), "ms"),
            (
                "oracle.host_sets_us_per_answer",
                ratio(
                    (l.of("oracle.host_sets") + l.of("oracle.mux_host_sets")) * 1e6,
                    answers,
                ),
                "us/answer",
            ),
            (
                "oracle.judge_us_per_answer",
                ratio(
                    (l.of("oracle.judge") + l.of("oracle.mux_judge")) * 1e6,
                    answers,
                ),
                "us/answer",
            ),
            ("mux.run_ms", ms("mux.run"), "ms"),
            ("mux.raw_messages", mx.raw_messages as f64, "count"),
            (
                "mux.share_ratio",
                ratio(mx.payload_items as f64, mx.raw_messages as f64),
                "items/msg",
            ),
            (
                "mux.cache_join_fraction",
                ratio(mx.cache_joins as f64, probe.mux_queries as f64),
                "ratio",
            ),
            (
                "mux.allocs_per_raw_message",
                ratio(probe.mux_allocs as f64, mx.raw_messages as f64),
                "allocs/msg",
            ),
            ("oracle.valid_fraction", sim.valid_fraction, "ratio"),
            ("oracle.deviation_mean", mean(&sim.deviations), "ratio"),
            ("trace.wall_ms", traced_s * 1e3, "ms"),
            ("trace.overhead", traced_s / untraced_s - 1.0, "ratio"),
        ],
        details: Json::obj()
            .with("untraced_s", untraced_s)
            .with("laps_ms", {
                let mut j = Json::obj();
                for name in PATH_LAPS.iter().chain(&["sim.idle_drive"]) {
                    j = j.with(name, ms(name));
                }
                j
            })
            .with("check_failures", flags.notes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args("--workload tree_scale --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::TreeScale, 9, 3.0, true)
        );
        assert!(args("--seed 9").is_err(), "workload is required");
        assert!(args("--workload nope").is_err());
        assert!(args("--workload tree_scale --trace 2").is_err());
        assert!(args("--workload tree_scale --bogus").is_err());
        assert!(args("--workload tree_scale --seconds 0").is_err());
    }

    #[test]
    fn one_line_keeps_strings_and_drops_indentation() {
        let j = Json::obj()
            .with("a", "x  y")
            .with("b", Json::obj().with("c", 1.5));
        let line = one_line(&j);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), j);
    }
}
