//! CLI for `sketches-lint`: `check` (the CI gate) and `rules` (policy docs).

use std::path::PathBuf;
use std::process::ExitCode;

use sketches_lint::{check_workspace, find_root, to_github, to_json, Rule};

const USAGE: &str = "\
sketches-lint — determinism & concurrency-safety analyzer for the sketches workspace

USAGE:
    sketches-lint check [--json|--github] [--root <dir>]   lint the workspace (exit 1 on findings)
    sketches-lint rules                                    print the five rule classes

OUTPUT:
    (default)   human-readable findings, one per line
    --json      versioned machine interface (schema_version, sorted findings)
    --github    GitHub Actions workflow annotations (::error file=..,line=..::)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check_cmd(&args[1..]),
        Some("rules") => {
            for r in Rule::ALL {
                println!("{r}: {}", r.summary());
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn check_cmd(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut github = false;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--github" => github = true,
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument `{other}`");
                eprint!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cannot read current dir: {e}");
                    return ExitCode::from(2);
                }
            };
            match find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("no workspace root found above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };
    let findings = match check_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("workspace scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        print!("{}", to_json(&findings));
    } else if github {
        print!("{}", to_github(&findings));
        if findings.is_empty() {
            println!("sketches-lint: workspace clean (L1, L2, L6, L7, L9)");
        } else {
            println!("sketches-lint: {} finding(s)", findings.len());
        }
    } else if findings.is_empty() {
        println!("sketches-lint: workspace clean (L1, L2, L6, L7, L9)");
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!("sketches-lint: {} finding(s)", findings.len());
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
