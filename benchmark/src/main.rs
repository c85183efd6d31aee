//! The repo's benchmark: one fixed instrument for the whole stack.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload and prints, as the last line of stdout, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `--workload all` runs every workload both ways, trials interleaved,
//! and writes the whole ledger entry. README.md has the method.

mod client;
mod host;
mod inputs;
mod ladder;
mod names;
mod spans;
mod stats;
mod trials;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use sketches_serve::Json;

use inputs::{Inputs, Shape, SHAPES};
use stats::median;
use trials::{run_trial, Checks};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 2028,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One workload's result, timed or traced: each metric's value and the
/// number of trials (or ladder passes) its median was taken over.
struct Outcome {
    workload: &'static str,
    trace: bool,
    metrics: Vec<(&'static str, f64, usize)>,
    checks: Checks,
}

/// The benchmark's own directory for what a run leaves behind.
fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| "benchmark".to_string());
    Path::new(&manifest).join("out")
}

/// Where the durable workload keeps its files while a trial lasts.
fn scratch_dir() -> PathBuf {
    out_dir().join(format!("scratch-{}", std::process::id()))
}

/// The timed runs of `shapes`. The workloads take turns running one
/// trial each (A B C D, A B C D, …) until each has measured for
/// `seconds`, so a noisy stretch of the host is shared and no workload
/// owns it. A trial generates its inputs from the seed, brings up fresh
/// state, replays the list and checks the answers; a metric is the median
/// over trials.
fn timed(shapes: &[&'static Shape], seed: u64, seconds: f64, scale: usize) -> Vec<Outcome> {
    struct Run {
        shape: &'static Shape,
        trials: BTreeMap<&'static str, Vec<f64>>,
        spent_s: f64,
        checks: Checks,
    }
    let mut runs: Vec<Run> = shapes
        .iter()
        .map(|shape| Run {
            shape,
            trials: BTreeMap::new(),
            spent_s: 0.0,
            checks: Checks::default(),
        })
        .collect();

    let scratch = scratch_dir();
    for round in 0.. {
        // Every workload runs at least one trial, whatever `seconds` is.
        let mut ran = false;
        for run in runs
            .iter_mut()
            .filter(|r| round == 0 || r.spent_s < seconds)
        {
            ran = true;
            let start = Instant::now();
            let inputs = Inputs::build(run.shape, seed, round, scale);
            let build_s = start.elapsed().as_secs_f64();
            let trial = run_trial(&inputs, &scratch, &mut run.checks);
            run.spent_s += start.elapsed().as_secs_f64();
            // Work moved out of the timed path lands in one of these two.
            let setup_s = build_s + trial.prepare_s;
            for (name, value) in trial.metrics.into_iter().chain([("setup_s", setup_s)]) {
                run.trials.entry(name).or_default().push(value);
            }
        }
        if !ran {
            break;
        }
    }

    runs.into_iter()
        .map(|run| {
            let metrics = run.trials.iter().map(|(n, v)| (*n, median(v), v.len()));
            Outcome::new(run.shape.name, false, metrics.collect(), run.checks)
        })
        .collect()
}

fn traced(shape: &'static Shape, seed: u64, seconds: f64, scale: usize) -> Outcome {
    let inputs = Inputs::build(shape, seed, 0, scale);
    let mut checks = Checks::default();
    let (metrics, spans) = ladder::run(&inputs, seconds, &scratch_dir(), &mut checks);
    let path = out_dir().join(format!("spans-{}.json", shape.name));
    std::fs::write(&path, spans.to_json().render()).expect("writing the span file");
    let metrics = metrics
        .into_iter()
        .map(|(n, (v, passes))| (n, v, passes))
        .collect();
    Outcome::new(shape.name, true, metrics, checks)
}

impl Outcome {
    /// The names a run of this kind reports, in the order they are shown.
    fn table(trace: bool) -> impl Iterator<Item = &'static str> {
        let table = if trace {
            names::PER_LAYER
        } else {
            names::END_TO_END
        };
        table.iter().map(|(name, _)| *name)
    }

    fn new(
        workload: &'static str,
        trace: bool,
        mut metrics: Vec<(&'static str, f64, usize)>,
        checks: Checks,
    ) -> Self {
        metrics.sort_by_key(|(name, _, _)| Self::table(trace).position(|n| n == *name));
        Self {
            workload,
            trace,
            metrics,
            checks,
        }
    }

    /// The names this run should have reported and did not.
    fn missing(&self) -> Vec<&'static str> {
        Self::table(self.trace)
            .filter(|n| !self.metrics.iter().any(|(m, _, _)| m == n))
            .collect()
    }

    /// A run passes when no check failed and, unless it is a smoke run
    /// (whose trials are too short for a p95), no metric is missing.
    fn passed(&self, smoke: bool) -> bool {
        self.checks.failed == 0 && (smoke || self.missing().is_empty())
    }

    fn print_table(&self) {
        println!(
            "\n== {} ({}) ==",
            self.workload,
            if self.trace {
                "per layer"
            } else {
                "end to end"
            }
        );
        println!("{:<44} {:>16} {:<8} {:>3}", "metric", "value", "unit", "n");
        for (name, value, n) in &self.metrics {
            println!(
                "{name:<44} {value:>16.6} {:<8} {n:>3}",
                names::unit_of(name)
            );
        }
        println!(
            "checks: {} attempted, {} failed",
            self.checks.attempted, self.checks.failed
        );
        for note in &self.checks.notes {
            println!("  FAILED: {note}");
        }
    }

    /// The object the contract asks for, with exactly its four keys. The
    /// ledger's copy also says how many trials each median was taken over.
    fn fields(&self, samples: bool) -> Vec<(String, Json)> {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, n)| {
                let mut fields = vec![
                    ("value".to_string(), Json::F64(*value)),
                    (
                        "unit".to_string(),
                        Json::Str(names::unit_of(name).to_string()),
                    ),
                ];
                if samples {
                    fields.push(("samples".to_string(), Json::U64(*n as u64)));
                }
                (name.to_string(), Json::Obj(fields))
            })
            .collect();
        vec![
            ("correct".to_string(), Json::Bool(self.checks.failed == 0)),
            ("attempted".to_string(), Json::U64(self.checks.attempted)),
            ("failed".to_string(), Json::U64(self.checks.failed)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ]
    }
}

/// Renders `json` with containers down to `depth` levels opened one
/// entry per line and everything below compact: at depth 4 the ledger
/// shows one metric per line, which is what makes two entries diffable.
fn pretty(json: &Json, depth: usize) -> String {
    let (open, close, entries): (_, _, Vec<String>) = match json {
        Json::Obj(fields) if depth > 0 && !fields.is_empty() => {
            let entry = |(k, v): &(String, Json)| {
                format!(
                    "{}: {}",
                    Json::Str(k.clone()).render(),
                    pretty(v, depth - 1)
                )
            };
            ('{', '}', fields.iter().map(entry).collect())
        }
        Json::Arr(items) if depth > 0 && !items.is_empty() => (
            '[',
            ']',
            items.iter().map(|v| pretty(v, depth - 1)).collect(),
        ),
        _ => return json.render(),
    };
    format!("{open}\n{}\n{close}", entries.join(",\n"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let shapes: Vec<&'static Shape> = match args.workload.as_str() {
        "all" => SHAPES.iter().collect(),
        name => match inputs::shape(name) {
            Some(shape) => vec![shape],
            None => {
                eprintln!("benchmark: unknown workload {name}");
                return ExitCode::from(2);
            }
        },
    };
    // A smoke run is one trial of every list cut to a tenth: the checks
    // are all on, the numbers mean nothing.
    let (scale, seconds) = if args.smoke {
        (10, 0.0)
    } else {
        (1, args.seconds)
    };
    std::fs::create_dir_all(out_dir()).expect("creating the output directory");

    let all = args.workload == "all";
    let mut outcomes = Vec::new();
    if all || !args.trace {
        outcomes.extend(timed(&shapes, args.seed, seconds, scale));
    }
    if all || args.trace {
        for shape in &shapes {
            outcomes.push(traced(shape, args.seed, seconds, scale));
        }
    }

    for outcome in &outcomes {
        outcome.print_table();
        if !outcome.passed(args.smoke) {
            let missing = outcome.missing();
            eprintln!(
                "benchmark: {} failed; missing {missing:?}",
                outcome.workload
            );
        }
    }
    let ok = outcomes.iter().all(|o| o.passed(args.smoke));

    let runs = outcomes
        .iter()
        .map(|o| {
            let mut fields = vec![
                ("workload".to_string(), Json::Str(o.workload.to_string())),
                ("trace".to_string(), Json::U64(u64::from(o.trace))),
            ];
            fields.extend(o.fields(true));
            Json::Obj(fields)
        })
        .collect();
    let ledger = Json::Obj(vec![
        ("seed".to_string(), Json::U64(args.seed)),
        ("seconds".to_string(), Json::F64(seconds)),
        ("smoke".to_string(), Json::Bool(args.smoke)),
        ("host".to_string(), host::fingerprint(&out_dir())),
        ("runs".to_string(), Json::Arr(runs)),
    ]);
    let file = if all {
        "BENCH.json".to_string()
    } else {
        format!("{}.trace{}.json", args.workload, u8::from(args.trace))
    };
    std::fs::write(out_dir().join(file), pretty(&ledger, 4) + "\n").expect("writing the result");

    println!();
    match outcomes.as_slice() {
        [single] => println!("{}", Json::Obj(single.fields(false)).render()),
        _ => println!("{}", ledger.render()),
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(metrics: Vec<(&'static str, f64, usize)>, failed: u64) -> Outcome {
        let checks = Checks {
            attempted: 10,
            failed,
            notes: Vec::new(),
        };
        Outcome::new("embed_groupby", false, metrics, checks)
    }

    #[test]
    fn a_failed_check_or_a_missing_metric_fails_the_run() {
        let all: Vec<_> = names::END_TO_END
            .iter()
            .map(|(n, _)| (*n, 1.0, 3))
            .collect();
        assert!(outcome(all.clone(), 0).passed(false));
        assert!(!outcome(all.clone(), 1).passed(false));
        assert!(!outcome(all.clone(), 1).passed(true));
        let short = all[..all.len() - 1].to_vec();
        assert!(!outcome(short.clone(), 0).passed(false));
        assert!(outcome(short, 0).passed(true));
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys_in_table_order() {
        let shuffled = vec![("reports_per_s", 2.0, 1), ("setup_s", 0.5, 1)];
        let fields = outcome(shuffled, 0).fields(false);
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let line = Json::Obj(fields).render();
        assert!(line.contains(
            "\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"},\"reports_per_s\":"
        ));
        assert_eq!(
            Json::parse(&line).unwrap().get("correct"),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn the_ledger_has_one_metric_per_line_and_still_parses() {
        let entry = outcome(vec![("setup_s", 0.5, 3), ("reports_per_s", 2.5, 3)], 0).fields(true);
        let ledger = Json::Obj(vec![(
            "runs".to_string(),
            Json::Arr(vec![Json::Obj(entry)]),
        )]);
        let text = pretty(&ledger, 4);
        assert!(text.contains("\n\"setup_s\": {\"value\":0.5,\"unit\":\"s\",\"samples\":3},\n"));
        assert_eq!(Json::parse(&text).unwrap(), ledger);
        assert_eq!(pretty(&Json::Arr(Vec::new()), 4), "[]");
    }
}
