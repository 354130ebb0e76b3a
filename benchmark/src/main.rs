//! The repo benchmark. See `benchmark/README.md` for what is measured and
//! why, and `BENCHMARK.json` for the names.
//!
//! `socialscope_benchmark --workload NAME --seed N --seconds S --trace 0|1`
//! sets the deployment up, checks answers, runs the workload's phases and
//! prints every metric as `name value unit`; the last line of standard
//! output is the result object the driver reads.

mod affinity;
mod checks;
mod deploy;
mod engine;
mod inputs;
mod loadgen;
mod metrics;
mod pipeline;
mod run;
mod serving;
mod stats;
mod trace;
mod traced;
mod untraced;

use inputs::Scale;
use run::{Run, Settings};
use std::path::PathBuf;
use untraced::Workload;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!(
        "usage: run.sh [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--smoke]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 7,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut seconds_given = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                let name = value();
                let found = Workload::ALL.into_iter().find(|w| w.name() == name);
                args.workloads =
                    vec![found.unwrap_or_else(|| usage(&format!("no workload `{name}`")))];
            }
            "--seed" => {
                args.seed = value().parse().unwrap_or_else(|_| usage("--seed takes a whole number"))
            }
            "--seconds" => {
                args.seconds =
                    value().parse().unwrap_or_else(|_| usage("--seconds takes a number"));
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--smoke" => args.smoke = true,
            "--out-dir" => args.out_dir = PathBuf::from(value()),
            "--print-benchmark-json" => {
                print!("{}", metrics::benchmark_json());
                std::process::exit(0);
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds.is_finite() && (1.0..=60.0).contains(&args.seconds)) {
        usage("--seconds must be between 1 and 60");
    }
    if args.smoke && !seconds_given {
        args.seconds = 4.0;
    }
    args
}

/// Print the run for people, write the summary (and trace) files, and end
/// with the result line for the driver.
fn report(workload: Workload, args: &Args, run: &Run) {
    let declared = metrics::declared(args.trace);
    let metrics_json = metrics::metrics_json(&declared, &run.values).unwrap_or_else(|problem| {
        eprintln!("{problem}");
        std::process::exit(1);
    });
    println!("workload {}", workload.name());
    println!("seed {}", args.seed);
    println!("inputs_hash {:016x}", run.inputs_hash);
    println!("nproc {}", serving::nproc());
    if args.smoke {
        println!("smoke run: small site, short phases; these numbers compare with nothing");
    }
    for (name, unit) in &declared {
        println!("{name} {} {unit}", run.values[name]);
    }
    println!("ops_attempted {} count", run.attempted);
    println!("ops_failed {} count", run.failed);
    let result = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}}}",
        run.attempted, run.failed
    );
    let summary = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"traced\": {},\n  \"comparable\": {},\n  \"nproc\": {},\n  \"inputs_hash\": \"{:016x}\",\n  \"result\": {result},\n  \"claim\": null\n}}\n",
        workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        !args.smoke,
        serving::nproc(),
        run.inputs_hash,
    );
    let written = std::fs::create_dir_all(&args.out_dir).and_then(|()| {
        let stem = if args.trace { "traced-" } else { "" };
        std::fs::write(args.out_dir.join(format!("{stem}{}.json", workload.name())), summary)?;
        if args.trace {
            let path = args.out_dir.join(format!("trace-{}.json", workload.name()));
            std::fs::write(path, run.trace.to_json())?;
        }
        Ok(())
    });
    if let Err(error) = written {
        eprintln!("cannot write under {}: {error}", args.out_dir.display());
        std::process::exit(1);
    }
    println!("{result}");
}

fn main() {
    let args = parse_args();
    let settings = Settings {
        seed: args.seed,
        seconds: args.seconds,
        scale: if args.smoke { Scale::SMOKE } else { Scale::FULL },
    };
    for &workload in &args.workloads {
        let run =
            if args.trace { traced::run(settings) } else { untraced::run(workload, settings) };
        report(workload, &args, &run);
    }
}
