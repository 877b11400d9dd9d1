//! `udi` — command-line front end for the pay-as-you-go data integration
//! system.
//!
//! ```text
//! udi demo [movie|car|people|course|bib] [--sources N] [--seed S]
//!     Generate a synthetic domain corpus, self-configure, and open a
//!     query shell.
//!
//! udi csv <dir>
//!     Load every *.csv file under <dir> as a data source (first row =
//!     header), self-configure over them, and open a query shell.
//! ```
//!
//! ```text
//! udi load <snapshot.json>
//!     Reload a system saved with `\save` and open the query shell.
//! ```
//!
//! Inside the shell, type select–project SQL
//! (`SELECT title, year FROM t WHERE year >= 1990`) or a meta command:
//! `\schema` (exposed mediated schema), `\pmed` (the probabilistic
//! mediated schema), `\sources`, `\explain <sql>` (per-source binding
//! breakdown), `\save <file>` (persist the configured system as JSON),
//! `\quit`.

use std::io::{BufRead, Write as _};

use udi::core::{UdiConfig, UdiSystem};
use udi::datagen::{generate, Domain, GenConfig};
use udi::query::parse_query;
use udi::store::{Catalog, Table};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("demo") => cmd_demo(&args[1..]),
        Some("csv") => cmd_csv(&args[1..]),
        Some("load") => cmd_load(&args[1..]),
        _ => {
            eprintln!(
                "usage: udi demo [domain] [--sources N] [--seed S] | udi csv <dir> | udi load <snapshot.json>"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

type AnyError = Box<dyn std::error::Error>;

fn cmd_demo(args: &[String]) -> Result<(), AnyError> {
    let mut domain = Domain::Movie;
    let mut n_sources: Option<usize> = None;
    let mut seed = 2008u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "movie" => domain = Domain::Movie,
            "car" => domain = Domain::Car,
            "people" => domain = Domain::People,
            "course" => domain = Domain::Course,
            "bib" => domain = Domain::Bib,
            "--sources" => {
                i += 1;
                n_sources = Some(args.get(i).ok_or("--sources needs a value")?.parse()?);
            }
            "--seed" => {
                i += 1;
                seed = args.get(i).ok_or("--seed needs a value")?.parse()?;
            }
            other => return Err(format!("unknown argument `{other}`").into()),
        }
        i += 1;
    }
    let n = n_sources.unwrap_or_else(|| domain.default_source_count());
    println!("Generating {n} {} sources (seed {seed})…", domain.name());
    let corpus = generate(
        domain,
        &GenConfig {
            n_sources: Some(n),
            seed,
            ..GenConfig::default()
        },
    );
    configure_and_shell(corpus.catalog)
}

fn cmd_csv(args: &[String]) -> Result<(), AnyError> {
    let dir = args.first().ok_or("udi csv <dir>")?;
    let mut catalog = Catalog::new();
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .csv files under {dir}").into());
    }
    for p in &paths {
        let name = p
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let text = std::fs::read_to_string(p)?;
        let table = Table::from_csv(name, &text)?;
        println!(
            "  loaded {} ({} rows, {} columns)",
            p.display(),
            table.row_count(),
            table.arity()
        );
        catalog.add_source(table).unwrap();
    }
    configure_and_shell(catalog)
}

fn cmd_load(args: &[String]) -> Result<(), AnyError> {
    let path = args.first().ok_or("udi load <snapshot.json>")?;
    let json = std::fs::read_to_string(path)?;
    let udi = UdiSystem::from_json(&json)?;
    println!(
        "loaded snapshot: {} sources, {} possible mediated schemas",
        udi.catalog().source_count(),
        udi.pmed().len()
    );
    shell(udi)
}

fn configure_and_shell(catalog: Catalog) -> Result<(), AnyError> {
    println!("Self-configuring over {} sources…", catalog.source_count());
    let udi = UdiSystem::setup(catalog, UdiConfig::default())?;
    let r = udi.report();
    println!(
        "done in {:.1?}: {} possible mediated schemas, {} mappings, {} consolidated",
        r.timings.map(|t| t.total()).unwrap_or_default(),
        r.n_schemas,
        r.n_mappings,
        r.n_consolidated_mappings
    );
    shell(udi)
}

fn shell(udi: UdiSystem) -> Result<(), AnyError> {
    print_schema(&udi);

    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        print!("udi> ");
        std::io::stdout().flush()?;
        line.clear();
        if stdin.lock().read_line(&mut line)? == 0 {
            break;
        }
        let input = line.trim();
        match input {
            "" => continue,
            "\\quit" | "\\q" | "exit" => break,
            "\\schema" => print_schema(&udi),
            "\\pmed" => {
                for (m, p) in udi.pmed().schemas() {
                    println!("Pr={p:.3}  {}", m.display(udi.schema_set().vocab()));
                }
            }
            cmd if cmd.starts_with("\\explain") => {
                let sql = cmd.trim_start_matches("\\explain").trim();
                match parse_query(sql) {
                    Err(e) => println!("{e}"),
                    Ok(q) => print!("{}", udi.explain(&q)),
                }
            }
            cmd if cmd.starts_with("\\save") => match cmd.split_whitespace().nth(1) {
                None => println!("usage: \\save <file>"),
                Some(path) => match std::fs::write(path, udi.to_json()) {
                    Ok(()) => println!("saved to {path}"),
                    Err(e) => println!("write failed: {e}"),
                },
            },
            "\\sources" => {
                for (sid, t) in udi.catalog().iter_sources() {
                    println!(
                        "{sid}: {} [{}] ({} rows)",
                        t.name(),
                        t.attributes().join(", "),
                        t.row_count()
                    );
                }
            }
            sql => {
                // Aggregate queries (GROUP BY / COUNT / ...) are a distinct
                // grammar; try the SP parser first, then the aggregate one.
                let ranked = match parse_query(sql) {
                    Ok(q) => udi.answer(&q).combined(),
                    Err(sp_err) => match udi::query::parse_aggregate_query(sql) {
                        Ok(q) => udi.answer_aggregate(&q).combined(),
                        Err(_) => {
                            println!("{sp_err}");
                            continue;
                        }
                    },
                };
                println!("{} distinct answers", ranked.len());
                for t in ranked.iter().take(20) {
                    let row: Vec<String> = t.values.iter().map(ToString::to_string).collect();
                    println!("  p={:.3}  ({})", t.probability, row.join(", "));
                }
                if ranked.len() > 20 {
                    println!("  … {} more", ranked.len() - 20);
                }
            }
        }
    }
    Ok(())
}

fn print_schema(udi: &UdiSystem) {
    println!("Exposed mediated schema (query with any member name):");
    for (rep, members) in udi.exposed_schema() {
        if members.len() > 1 {
            println!("  {rep:<18} = {{{}}}", members.join(", "));
        } else {
            println!("  {rep}");
        }
    }
}
