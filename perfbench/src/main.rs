//! The repository benchmark: three seeded workloads run against the
//! public APIs of `nimble-core`, `nimble-vm` and `nimble-serve`, every
//! output checked against the models' reference implementations.
//!
//! ```text
//! perfbench --workload <vm_direct|serve_steady|serve_overload>
//!           --seed <n> [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics. A traced
//! run spends half its time untraced and half with VM profiling on, and
//! prints the per-layer metrics instead, writing its spans next to the
//! executable. The last stdout line is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is non-zero on a bad
//! command line, a refused environment, or any output that differs from
//! its reference.

mod inputs;
mod measure;
mod report;
mod schedule;
mod serve;
mod trace;
mod vm_direct;

use measure::CountingAlloc;
use report::{Phase, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use trace::SpanLog;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WORKLOADS: [&str; 3] = ["vm_direct", "serve_steady", "serve_overload"];

/// A checked command line.
#[derive(Debug, PartialEq, Eq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = |it: &mut dyn Iterator<Item = String>| {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        let slot_taken = |set: bool| {
            if set {
                Err(format!("{flag} given twice"))
            } else {
                Ok(())
            }
        };
        match flag.as_str() {
            "--workload" => {
                slot_taken(workload.is_some())?;
                let v = value(&mut it)?;
                let w = WORKLOADS.into_iter().find(|w| *w == v).ok_or_else(|| {
                    format!("unknown workload {v:?}; expected one of {WORKLOADS:?}")
                })?;
                workload = Some(w);
            }
            "--seed" => {
                slot_taken(seed.is_some())?;
                let v = value(&mut it)?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed {v:?} is not a u64"))?,
                );
            }
            "--seconds" => {
                slot_taken(seconds.is_some())?;
                let v = value(&mut it)?;
                match v.parse::<u64>() {
                    Ok(s) if (1..=600).contains(&s) => seconds = Some(s),
                    _ => return Err(format!("--seconds {v:?} is not a whole number in 1..=600")),
                }
            }
            "--trace" => {
                slot_taken(traced.is_some())?;
                traced = Some(match value(&mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} must be 0 or 1")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        traced: traced.unwrap_or(false),
    })
}

/// `NIMBLE_*` variables that would make this run measure a different
/// program than the same command on another commit. A traced run may
/// turn on the library's own tracing; nothing else is allowed.
fn refused_env(vars: impl IntoIterator<Item = (String, String)>, traced: bool) -> Vec<String> {
    let mut bad: Vec<String> = vars
        .into_iter()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("NIMBLE_"))
        .filter(|k| !(traced && matches!(k.as_str(), "NIMBLE_TRACE" | "NIMBLE_TRACE_DETAIL")))
        .collect();
    bad.sort();
    bad
}

/// What a workload hands back for printing.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    setup_s: Vec<f64>,
    end_to_end: BTreeMap<&'static str, f64>,
    samples: usize,
    p99_windows: usize,
    plain_late_p99_ms: f64,
    limit_ms: f64,
    traced: Option<(BTreeMap<&'static str, f64>, SpanLog)>,
}

impl Outcome {
    /// Summarise the untraced phase and the set-up rounds of a workload
    /// with latency limit `limit`.
    fn new(plain: &Phase, setup_s: Vec<f64>, limit: Duration) -> Result<Outcome, String> {
        let mut end_to_end = BTreeMap::new();
        let p99_windows = plain.end_to_end(&mut end_to_end)?;
        end_to_end.insert("setup_s", measure::median(setup_s.iter().copied()));
        let late = measure::sorted(plain.late_ms.iter().copied());
        Ok(Outcome {
            attempted: plain.attempted,
            failed: plain.failed(),
            setup_s,
            end_to_end,
            samples: plain.latency_ms.len(),
            p99_windows,
            plain_late_p99_ms: measure::percentile(&late, 0.99).unwrap_or(0.0),
            limit_ms: measure::ms(limit),
            traced: None,
        })
    }

    /// Add the traced phase and the layer counters read around it.
    fn add_traced(
        &mut self,
        phase: Phase,
        mut layers: BTreeMap<&'static str, f64>,
    ) -> Result<(), String> {
        phase.per_layer(&mut layers);
        let traced_p50 = phase
            .p50_ms()
            .ok_or("too few traced completions for a p50")?;
        let overhead = (traced_p50 / self.end_to_end["latency_p50_ms"] - 1.0) * 100.0;
        layers.insert("obs.trace_overhead_pct", overhead);
        layers.insert(
            "obs.dropped_spans",
            nimble_obs::dropped_spans_total() as f64,
        );
        self.attempted += phase.attempted;
        self.failed += phase.failed();
        self.traced = Some((layers, phase.spans));
        Ok(())
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let seconds = Duration::from_secs(args.seconds);
    match args.workload {
        "vm_direct" => vm_direct::run(args.seed, seconds, args.traced),
        "serve_steady" => serve::run(&serve::STEADY, args.seed, seconds, args.traced),
        "serve_overload" => serve::run(&serve::OVERLOAD, args.seed, seconds, args.traced),
        w => unreachable!("parse_args admits only known workloads, got {w}"),
    }
}

/// `{"value": v, "unit": u}` members for every metric of `catalogue`.
fn json_metrics(
    catalogue: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let v = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        println!("{name:<34} {v:>16.6} {unit}");
        parts.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(parts.join(", "))
}

fn spans_path(args: &Args) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let dir = exe.parent().ok_or("executable has no parent directory")?;
    Ok(dir
        .join("perfbench-spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed)))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let refused = refused_env(std::env::vars(), args.traced);
    if !refused.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {refused:?} set: overrides change the program measured"
        );
        return ExitCode::from(2);
    }
    match measure_and_print(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: outputs differ from the reference or requests failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run and print; `Ok(false)` when any request went wrong.
fn measure_and_print(args: &Args) -> Result<bool, String> {
    let isa = nimble_simd::active().label();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench {} seed={} seconds={} trace={} isa={isa} nproc={nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    let mut outcome = run(args)?;
    outcome
        .end_to_end
        .insert("peak_rss_mib", measure::peak_rss_mib()?);
    println!(
        "setup rounds (s): {:?}; {} latency samples; p99 is the median of {} windows' p99, each with >= {} samples beyond it",
        outcome.setup_s,
        outcome.samples,
        outcome.p99_windows,
        measure::TAIL_SAMPLES,
    );
    // A generator a whole latency limit behind its schedule offered a
    // different load than committed: the run is invalid, not slow.
    let late = outcome.plain_late_p99_ms;
    let validity = if late > outcome.limit_ms {
        eprintln!("perfbench: generator lateness p99 {late:.3} ms exceeds the limit: run INVALID");
        "INVALID"
    } else {
        "valid"
    };
    println!(
        "generator lateness p99 {late:.3} ms (limit {} ms): {validity}",
        outcome.limit_ms
    );
    let metrics = match &outcome.traced {
        None => json_metrics(&END_TO_END, &outcome.end_to_end)?,
        Some((layers, spans)) => {
            let path = spans_path(args)?;
            let header = format!(
                "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"isa\":\"{isa}\",\"nproc\":{nproc}}}",
                args.workload, args.seed, args.seconds
            );
            spans
                .write_jsonl(&path, &header)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            println!(
                "{} spans written to {}",
                spans.spans().len(),
                path.display()
            );
            json_metrics(&PER_LAYER, layers)?
        }
    };
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted, outcome.failed
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(argv(
            "--workload serve_steady --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve_steady",
                seed: 7,
                seconds: 3,
                traced: true
            }
        );
    }

    #[test]
    fn rejects_unknown_missing_and_repeated_flags() {
        for bad in [
            "--workload vm_direct --seed 1 --full",
            "--workload vm_direct",
            "--seed 1",
            "--workload nope --seed 1",
            "--workload vm_direct --seed 1 --seed 2",
            "--workload vm_direct --seed 1 --trace 2",
            "--workload vm_direct --seed 1 --seconds 0",
            "--workload vm_direct --seed",
        ] {
            assert!(parse_args(argv(bad)).is_err(), "{bad} was accepted");
        }
    }

    #[test]
    fn refuses_nimble_overrides() {
        let env = |pairs: &[&str]| {
            pairs
                .iter()
                .map(|k| (k.to_string(), "x".to_string()))
                .collect::<Vec<_>>()
        };
        assert!(refused_env(env(&["HOME", "PATH"]), false).is_empty());
        assert_eq!(
            refused_env(env(&["NIMBLE_SIMD", "NIMBLE_TRACE"]), false),
            ["NIMBLE_SIMD", "NIMBLE_TRACE"]
        );
        assert_eq!(
            refused_env(env(&["NIMBLE_TRACE", "NIMBLE_ARENA"]), true),
            ["NIMBLE_ARENA"]
        );
    }
}
