//! What a run of one workload produces, and the steps both kinds of run
//! (untraced and traced) begin with.

use crate::deploy::{self, Deployment};
use crate::inputs::Scale;
use crate::metrics::{self, Values};
use crate::serving::{self, Cursor};
use crate::stats::{percentile, Unsupported};
use crate::trace::Trace;
use crate::{checks, pipeline};
use socialscope_exec::Exec;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The settings of a run the command line fixes.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
}

pub struct Run {
    pub values: Values,
    pub attempted: usize,
    pub failed: usize,
    pub inputs_hash: u64,
    /// The spans of a traced run; empty otherwise.
    pub trace: Trace,
}

impl Run {
    /// Set the deployment up [`SETUPS`] times, check its answers, and let the
    /// first slow applies go by: `(deployment, run so far, where the
    /// generated load stands, each set-up's seconds)`.
    pub fn begin(settings: Settings, trace: &mut Trace) -> (Deployment, Run, Cursor, Vec<f64>) {
        let exec = Exec::new(serving::nproc()).expect("nproc is at least one");
        let (dep, setups) =
            deploy::setup_repeatedly(SETUPS, settings.seed, settings.scale, exec, trace);
        must("http answers = engine answers", checks::http_matches(&dep, &dep.engine));
        must("batch answers = single queries = brute-force oracle", checks::batches_match(&dep));
        must("optimised plan = plan, CF excludes visited items", pipeline::check(&dep.pipeline, 4));
        let run = Run {
            values: Values::new(),
            attempted: 0,
            failed: 0,
            inputs_hash: dep.inputs.hash(),
            trace: Trace::off(),
        };
        // The first applies after boot run two to four times slower than
        // the rest (the allocator is still growing the heap the clones
        // need). Users pay that once per boot, so three applies go by
        // before any timed phase.
        let mut cursor = Cursor::default();
        serving::applies(&dep, &mut cursor, 0.0);
        (dep, run, cursor, setups)
    }

    /// The check that closes every run: the applies it sent are visible.
    pub fn end(self, dep: &Deployment, cursor: &Cursor) -> Run {
        must(
            "http answers after the applies = engine clone with the same batches applied",
            checks::http_matches_after_applies(dep, cursor.writes),
        );
        self
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Keep the better of `value` and what earlier rounds measured.
    pub fn best(&mut self, name: &'static str, value: f64) {
        let metric = metrics::END_TO_END.iter().find(|m| m.name == name);
        let higher = metric.expect("an end-to-end metric").better == "higher";
        let kept = self.values.entry(name).or_insert(value);
        *kept = if higher { kept.max(value) } else { kept.min(value) };
    }

    pub fn count(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Stop the run on a failed correctness check, before any number is printed.
fn must(check: &str, outcome: Result<(), String>) {
    if let Err(problem) = outcome {
        eprintln!("correctness check `{check}` failed: {problem}");
        std::process::exit(1);
    }
}

/// A percentile the sample does not support stops the run: the phase was
/// too short for the number to mean anything.
pub fn percentile_or_exit(sorted: &[f64], p: f64, what: &str) -> f64 {
    percentile(sorted, p).unwrap_or_else(|unsupported: Unsupported| {
        eprintln!("{what}: {unsupported}; lengthen the phase");
        std::process::exit(1);
    })
}
