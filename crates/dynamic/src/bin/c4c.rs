//! `c4c` — the C4 command-line analyzer for CCL programs.
//!
//! ```text
//! c4c <file.ccl> [--no-filter] [--max-k N]
//!     [--dynamic RUNS] [--seed S]
//!     [--mc] [--max-sessions N] [--depth N] [--max-execs N]
//!     [--mc-workers N] [--no-dpor]
//!     [--ablate commutativity|absorption|constraints|control-flow|asymmetric|freshness]
//! ```
//!
//! Analyzes the program and prints either a serializability proof note or
//! the found violations with validated counter-examples. `--dynamic` adds
//! the randomized cross-check, `--mc` the exhaustive bounded model
//! checker (see `c4-mc`). Exits 0 when no violation is found, 1 when any
//! analysis finds one, and 2 on input errors.

use std::process::ExitCode;
use std::time::Instant;

use c4::{filter, AnalysisFeatures, Checker};
use c4_mc::McConfig;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut path: Option<String> = None;
    let mut features = AnalysisFeatures::default();
    let mut use_filters = true;
    let mut dynamic_runs: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut mc = false;
    let mut mc_config = McConfig::default();
    fn num<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, what: &str) -> T {
        args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage(what))
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--no-filter" => use_filters = false,
            "--dynamic" => dynamic_runs = Some(num(&mut args, "--dynamic needs a run count")),
            "--seed" => seed = Some(num(&mut args, "--seed needs a u64")),
            "--mc" => mc = true,
            "--max-sessions" => {
                mc_config.sessions = num(&mut args, "--max-sessions needs a number");
                if mc_config.sessions == 0 {
                    usage("--max-sessions needs at least one session");
                }
            }
            "--depth" => mc_config.depth = Some(num(&mut args, "--depth needs a number")),
            "--max-execs" => mc_config.max_execs = num(&mut args, "--max-execs needs a number"),
            "--mc-workers" => mc_config.workers = num(&mut args, "--mc-workers needs a number"),
            "--no-dpor" => mc_config.dpor = false,
            "--max-k" => features.max_k = num(&mut args, "--max-k needs a number"),
            "--ablate" => match args.next().as_deref() {
                Some("commutativity") => features.commutativity = false,
                Some("absorption") => features.absorption = false,
                Some("constraints") => features.constraints = false,
                Some("control-flow") => features.control_flow = false,
                Some("asymmetric") => features.asymmetric = false,
                Some("freshness") => features.freshness = false,
                _ => usage("--ablate needs a feature name"),
            },
            "--help" | "-h" => usage(""),
            other if path.is_none() => path = Some(other.to_owned()),
            other => usage(&format!("unexpected argument `{other}`")),
        }
    }
    let Some(path) = path else { usage("missing input file") };
    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let program = match c4_lang::parse(&source) {
        Ok(p) => p,
        Err(e) => return diagnose(&path, &source, e.line, &e.message),
    };
    let history = match c4_lang::abstract_history(&program) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("{path}: error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{}: {} transactions, {} abstract events",
        path,
        history.txs.len(),
        history.event_count()
    );
    let analyzed = if use_filters {
        let base = filter::drop_display(&history);
        filter::atomic_set_views(&base)
    } else {
        vec![history.clone()]
    };
    let mut total = 0usize;
    let mut all_generalized = true;
    for view in analyzed {
        let result = Checker::new(view, features.clone()).run();
        all_generalized &= result.generalized;
        for v in &result.violations {
            total += 1;
            let names: Vec<_> = v.txs.iter().map(|&i| history.txs[i].name.as_str()).collect();
            println!("\nviolation #{total} over {{{}}} (labels {:?}):", names.join(", "), v.labels);
            match &v.counterexample {
                Some(ce) => println!("{ce}"),
                None => println!("(no validated counter-example)"),
            }
        }
    }
    if let Some(runs) = dynamic_runs {
        let config = c4_dynamic::ExploreConfig {
            runs,
            seed: seed.unwrap_or(c4_dynamic::ExploreConfig::default().seed),
            ..Default::default()
        };
        let report = c4_dynamic::explore(&program, &config);
        println!(
            "\ndynamic cross-check (seed {}): {} cyclic runs out of {}, {} distinct violation(s)",
            report.seed,
            report.cyclic_runs,
            report.runs,
            report.violations.len()
        );
        for v in &report.violations {
            println!("  {{{}}}", v.iter().cloned().collect::<Vec<_>>().join(","));
        }
    }
    let mut mc_violations = 0usize;
    if mc {
        let start = Instant::now();
        let report = c4_mc::model_check(&program, &mc_config);
        let elapsed = start.elapsed();
        mc_violations = report.violations.len();
        let pruned = if mc_config.dpor {
            format!(" ({} sleep-set subtree prunes; --no-dpor shows the naive count)", report.pruned)
        } else {
            String::new()
        };
        println!(
            "\nmodel checking: {} executions over {} profile(s), {} trace classes{pruned} in {:.1?}",
            report.executions, report.profiles, report.classes, elapsed
        );
        if report.capped {
            println!("  capped at --max-execs {} (result incomplete)", mc_config.max_execs);
        }
        if report.truncated {
            println!("  scripts truncated by --depth (result bounded)");
        }
        if report.exec_errors > 0 {
            println!("  {} execution(s) failed at runtime", report.exec_errors);
        }
        if report.violations.is_empty() {
            println!(
                "  no violation in any {} schedule of the bounded workloads{}",
                if mc_config.dpor { "causally-consistent" } else { "enumerated" },
                if report.complete() { "" } else { " explored" },
            );
        }
        for w in &report.witnesses {
            println!(
                "  violation {{{}}} — witness schedule:",
                w.violation.iter().cloned().collect::<Vec<_>>().join(",")
            );
            for a in &w.trace {
                println!("    {a}");
            }
        }
    }
    if total == 0 && mc_violations == 0 {
        if all_generalized {
            println!("serializable: no violation exists for any number of sessions");
            ExitCode::SUCCESS
        } else {
            println!(
                "no violation up to k = {} sessions (generalization incomplete)",
                features.max_k
            );
            ExitCode::SUCCESS
        }
    } else {
        println!(
            "\n{total} static violation(s), {mc_violations} model-checked; coverage: {}",
            if all_generalized { "all cycle shapes subsumed (any session count)" } else { "bounded" }
        );
        ExitCode::from(1)
    }
}

/// Prints a source-located diagnostic with an excerpt of the offending
/// line, in the conventional `path:line: error: message` shape.
fn diagnose(path: &str, source: &str, line: u32, message: &str) -> ExitCode {
    eprintln!("{path}:{line}: error: {message}");
    if let Some(text) = source.lines().nth(line.saturating_sub(1) as usize) {
        eprintln!("  {line} | {text}");
    }
    ExitCode::from(2)
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: c4c <file.ccl> [--no-filter] [--max-k N] [--ablate <feature>]\n\
         \x20       [--dynamic RUNS] [--seed S]\n\
         \x20       [--mc] [--max-sessions N] [--depth N] [--max-execs N] [--mc-workers N] [--no-dpor]\n\
         features: commutativity absorption constraints control-flow asymmetric freshness"
    );
    std::process::exit(2)
}
