#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Shared plumbing for the reproduction binaries (one per paper
//! table/figure) and the criterion benchmarks.
//!
//! Every binary accepts the environment variable `UDI_SCALE` — a fraction
//! in `(0, 1]` applied to the paper's Table 1 source counts — so the whole
//! suite can be smoke-tested quickly (`UDI_SCALE=0.1`) or run at full scale
//! (default). `UDI_SEED` overrides the corpus seed. Binaries also accept
//! `--trace out.jsonl` (parsed by [`BenchObs::from_args`]) to record a
//! structured trace of the run; see `OBSERVABILITY.md`.

use std::sync::Arc;

use udi_datagen::Domain;
use udi_obs::{FanoutSink, JsonLinesSink, MemorySink, Recorder, Sink, TraceSummary};

/// The corpus scale factor from `UDI_SCALE` (default 1.0 = paper scale).
pub fn scale() -> f64 {
    std::env::var("UDI_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0 && *s <= 1.0)
        .unwrap_or(1.0)
}

/// The corpus seed from `UDI_SEED` (default 2008, the venue year).
pub fn seed() -> u64 {
    std::env::var("UDI_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2008)
}

/// Scaled source count for a domain (at least 10 sources).
pub fn sources_for(domain: Domain) -> usize {
    let n = (domain.default_source_count() as f64 * scale()).round() as usize;
    n.max(10)
}

/// Print a header banner for an experiment binary.
pub fn banner(title: &str) {
    println!("{}", "=".repeat(72));
    println!("{title}");
    println!(
        "(scale={}, seed={}; set UDI_SCALE/UDI_SEED to override)",
        scale(),
        seed()
    );
    println!("{}", "=".repeat(72));
}

/// What a bench binary's command line asks for (see [`command`]).
#[derive(Debug, PartialEq, Eq)]
enum Command {
    /// Run with the arguments given.
    Run,
    /// `--help`: print the flag list and exit 0.
    Help,
    /// An argument the binary does not know, or a flag missing its value:
    /// exit 2.
    Bad(String),
}

/// Classify `args` (program name first) against a binary's bare
/// `switches` and its `valued` flags, each given as `--flag VALUE` or
/// `--flag=VALUE`.
fn command(args: &[String], switches: &[&str], valued: &[&str]) -> Command {
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if arg == "--help" {
            return Command::Help;
        }
        if switches.contains(&arg.as_str()) {
            continue;
        }
        let name = arg.split_once('=').map_or(arg.as_str(), |(name, _)| name);
        if !valued.contains(&name) {
            return Command::Bad(format!("unknown argument `{arg}`"));
        }
        if name == arg && rest.next().is_none() {
            return Command::Bad(format!("`{arg}` needs a value"));
        }
    }
    Command::Run
}

/// The process arguments of a bench binary that writes a committed
/// artefact, checked before it does any work: `--help` prints `usage` and
/// exits 0, and an argument that is not in `switches` or `valued` (or a
/// valued flag with no value) prints why, then `usage`, and exits 2. A
/// mistyped flag therefore never becomes a full run that overwrites
/// `results/`.
pub fn args_or_exit(usage: &str, switches: &[&str], valued: &[&str]) -> Vec<String> {
    let args: Vec<String> = std::env::args().collect();
    match command(&args, switches, valued) {
        Command::Run => args,
        Command::Help => {
            println!("{usage}");
            std::process::exit(0)
        }
        Command::Bad(why) => {
            eprintln!("{why}\n\n{usage}");
            std::process::exit(2)
        }
    }
}

/// The value of the first `--flag VALUE` or `--flag=VALUE` in `args`.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    let eq = format!("{flag}=");
    for (i, a) in args.iter().enumerate() {
        if a == flag {
            return args.get(i + 1).cloned();
        }
        if let Some(v) = a.strip_prefix(&eq) {
            return Some(v.to_owned());
        }
    }
    None
}

/// Tracing support for one bench-binary run, driven by the `--trace
/// out.jsonl` command-line flag.
///
/// With the flag, every event is written to the JSON-lines file *and*
/// buffered in memory so [`finish`](BenchObs::finish) can print a per-span
/// summary table at exit. Without it, [`sink`](BenchObs::sink) is `None`
/// and nothing is recorded — the system under test runs with its default
/// (counters-only) instrumentation.
pub struct BenchObs {
    path: Option<String>,
    memory: Option<Arc<MemorySink>>,
    fanout: Option<Arc<dyn Sink>>,
}

impl BenchObs {
    /// Parse `--trace PATH` (or `--trace=PATH`) from the process arguments.
    ///
    /// Exits with an error message if the flag is present but the file
    /// cannot be created — a bench run that silently drops its trace is
    /// worse than one that fails fast.
    pub fn from_args() -> BenchObs {
        let args: Vec<String> = std::env::args().collect();
        let mut path = None;
        for (i, a) in args.iter().enumerate() {
            if a == "--trace" {
                path = args.get(i + 1).cloned();
                if path.is_none() {
                    eprintln!("--trace requires a file path");
                    std::process::exit(2);
                }
            } else if let Some(p) = a.strip_prefix("--trace=") {
                path = Some(p.to_owned());
            }
        }
        BenchObs::to_path(path)
    }

    fn to_path(path: Option<String>) -> BenchObs {
        let Some(path) = path else {
            return BenchObs {
                path: None,
                memory: None,
                fanout: None,
            };
        };
        let jsonl = match JsonLinesSink::create(&path) {
            Ok(s) => Arc::new(s),
            Err(e) => {
                eprintln!("cannot create trace file {path}: {e}");
                std::process::exit(2);
            }
        };
        let memory = Arc::new(MemorySink::new());
        let fanout: Arc<dyn Sink> = Arc::new(FanoutSink::new(vec![jsonl, memory.clone()]));
        BenchObs {
            path: Some(path),
            memory: Some(memory),
            fanout: Some(fanout),
        }
    }

    /// The sink to hand to `UdiSystem::setup_observed` /
    /// `prepare_observed`; `None` when `--trace` was not given.
    pub fn sink(&self) -> Option<Arc<dyn Sink>> {
        self.fanout.clone()
    }

    /// Whether `--trace` was given.
    pub fn is_enabled(&self) -> bool {
        self.fanout.is_some()
    }

    /// A recorder for binary-local spans (e.g. wrapping data generation),
    /// interleaved with the engine's events in the same trace. Disabled
    /// when tracing is off.
    pub fn recorder(&self) -> Recorder {
        match &self.fanout {
            Some(s) => Recorder::new(s.clone()),
            None => Recorder::disabled(),
        }
    }

    /// Flush the trace file and print the per-span/per-counter summary
    /// table. A no-op without `--trace`.
    pub fn finish(self) {
        let (Some(path), Some(memory), Some(fanout)) = (self.path, self.memory, self.fanout) else {
            return;
        };
        fanout.flush();
        let summary = TraceSummary::from_events(&memory.events());
        println!();
        println!("trace written to {path}");
        print!("{summary}");
    }
}

/// [`udi_eval::harness::prepare`], routed through this run's trace sink
/// when `--trace` is active so the setup pipeline's spans and counters
/// land in the trace file.
pub fn prepare_traced(
    obs: &BenchObs,
    domain: Domain,
    n_sources: Option<usize>,
    seed: u64,
) -> Result<udi_eval::harness::DomainEval, udi_core::UdiError> {
    match obs.sink() {
        Some(sink) => udi_eval::harness::prepare_observed(domain, n_sources, seed, sink),
        None => udi_eval::harness::prepare(domain, n_sources, seed),
    }
}

/// The Example 2.1 ambiguity stress inventory: `phone` and `address` are
/// genuinely shared between home- and office- concepts, so probability
/// assignment (max-entropy, Algorithm 2) actually matters. Used by the
/// `exp_ambiguity` and `exp_ablation` extension experiments.
pub fn ambiguous_people_concepts() -> Vec<udi_datagen::ConceptSpec> {
    use udi_datagen::{ConceptSpec, PoolId, ValueKind};
    vec![
        ConceptSpec {
            key: "name",
            variants: &["name", "full name"],
            popularity: 1.0,
            value: ValueKind::PersonName,
        },
        ConceptSpec {
            key: "home phone",
            variants: &["hphone", "phone"],
            popularity: 0.9,
            value: ValueKind::Phone,
        },
        ConceptSpec {
            key: "office phone",
            variants: &["ophone", "phone"],
            popularity: 0.85,
            value: ValueKind::Phone,
        },
        ConceptSpec {
            key: "home address",
            variants: &["haddr", "address"],
            popularity: 0.85,
            value: ValueKind::StreetAddress,
        },
        ConceptSpec {
            key: "office address",
            variants: &["oaddr", "address"],
            popularity: 0.8,
            value: ValueKind::StreetAddress,
        },
        ConceptSpec {
            key: "email",
            variants: &["email", "e-mail"],
            popularity: 0.7,
            value: ValueKind::Email,
        },
        ConceptSpec {
            key: "organization",
            variants: &["organization", "company"],
            popularity: 0.8,
            value: ValueKind::FromPool(PoolId::Companies),
        },
    ]
}

/// Format a metrics triple the way the paper's tables do.
pub fn fmt_prf(m: udi_eval::Metrics) -> String {
    format!(
        "{:>9.3} {:>9.3} {:>9.3}",
        m.precision,
        m.recall,
        m.f_measure()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_counts_have_floor() {
        std::env::remove_var("UDI_SCALE");
        assert_eq!(sources_for(Domain::Car), 817);
        assert!(sources_for(Domain::People) >= 10);
    }

    #[test]
    fn command_line_flags_are_checked() {
        let run = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
            command(&args, &["--smoke"], &["--out", "--trace"])
        };
        assert_eq!(run("bin"), Command::Run);
        assert_eq!(
            run("bin --smoke --out x.json --trace=t.jsonl"),
            Command::Run
        );
        assert_eq!(run("bin --smoke --help"), Command::Help);
        assert!(matches!(run("bin --no-such-flag"), Command::Bad(_)));
        assert!(matches!(run("bin --smoke=1"), Command::Bad(_)));
        assert!(matches!(run("bin results.json"), Command::Bad(_)));
        assert!(matches!(run("bin --smoke --out"), Command::Bad(_)));

        let args: Vec<String> = ["bin", "--trace", "t.jsonl", "--out=o.json"]
            .map(str::to_owned)
            .to_vec();
        assert_eq!(arg_value(&args, "--trace").as_deref(), Some("t.jsonl"));
        assert_eq!(arg_value(&args, "--out").as_deref(), Some("o.json"));
        assert_eq!(arg_value(&args, "--baseline"), None);
    }

    #[test]
    fn fmt_prf_is_fixed_width() {
        let s = fmt_prf(udi_eval::Metrics {
            precision: 1.0,
            recall: 0.5,
        });
        assert_eq!(s.split_whitespace().count(), 3);
    }
}
