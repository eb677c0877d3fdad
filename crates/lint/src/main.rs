//! The `vf-lint` command-line auditor. See DESIGN.md §11.

use std::path::PathBuf;
use std::process::ExitCode;

use vf_lint::{rules, workspace};

const USAGE: &str = "\
vf-lint — workspace invariant auditor (the rules clippy cannot check)

USAGE:
    cargo run -p vf-lint -- [OPTIONS]

OPTIONS:
    --deny             Exit nonzero if any violation is found (tier-1 mode)
    --json             Write the audit report to <root>/results/LINT_report.json
    --root <PATH>      Workspace root (default: discovered from cwd)
    --list-rules       Print the rule catalog and exit
    -h, --help         Show this help
";

fn main() -> ExitCode {
    let mut deny = false;
    let mut json = false;
    let mut list_rules = false;
    let mut root: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--list-rules" => list_rules = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --root requires a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    if list_rules {
        for rule in rules::RULE_IDS {
            println!("{rule}");
        }
        return ExitCode::SUCCESS;
    }

    let root = match root.map(Ok).unwrap_or_else(discover_root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let outcome = match workspace::audit(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        let report_path = root.join("results").join("LINT_report.json");
        let written = std::fs::create_dir_all(root.join("results"))
            .and_then(|()| std::fs::write(&report_path, vf_lint::report::render(&outcome)));
        match written {
            Ok(()) => println!("vf-lint: wrote {}", report_path.display()),
            Err(e) => {
                eprintln!("error: writing {}: {e}", report_path.display());
                return ExitCode::from(2);
            }
        }
    }

    for d in &outcome.diagnostics {
        eprintln!("{d}");
    }
    let errors = outcome.diagnostics.len();
    println!(
        "vf-lint: {} source file(s), {} manifest(s) audited; {} violation(s), {} clippy waiver(s); \
         {} public item(s), {} uncalled",
        outcome.files_scanned,
        outcome.manifests_scanned,
        errors,
        outcome.waived,
        outcome.pub_items,
        outcome.uncalled_pub.len()
    );

    if errors > 0 && deny {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn discover_root() -> std::io::Result<PathBuf> {
    workspace::find_root(&std::env::current_dir()?)
}
