//! `vf-bench`: every experiment of the reproduction — the paper's tables
//! and figures, the ablations, the benches and the two gates — as rows of
//! one table (DESIGN.md §4).
//!
//! ```sh
//! vf-bench <name> [--smoke]   # one experiment
//! vf-bench all                # every experiment, each in its own process
//! vf-bench list               # each name with its tags
//! ```
//!
//! Each experiment asserts its own claims, prints its rows and writes its
//! JSON under `results/`.

mod ablate_bootstrap;
mod ablate_capacity_dip;
mod ablate_conv_repro;
mod ablate_hierarchical;
mod ablate_noise_scale;
mod ablate_schedulers;
mod bench_gate;
mod chaos_bench;
mod fig02_rte_finetune;
mod fig04_design_space;
mod fig06_memory_timeline;
mod fig07_bert_curves;
mod fig08_resnet_curves;
mod fig09_update_throughput;
mod fig10_bs_exploration;
mod fig11_bs_throughput;
mod fig12_three_jobs;
mod fig13_twenty_jobs;
mod fig14_jct_cdf;
mod fig15_memory_overhead;
mod fig16_throughput_vn;
mod kernel_bench;
mod lint_gate;
mod monitor_bench;
mod obs_scale_bench;
mod overlap_bench;
mod recovery_drill;
mod store_bench;
mod tab01_resnet_repro;
mod tab02_bert_repro;
mod trace_profile;
mod trace_report;

use std::ops::Range;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;
use vf_bench::report::{Context, Error, Mode, Result};
use vf_core::{Trainer, TrainerConfig};
use vf_data::synthetic::ClusterTask;
use vf_data::Dataset;
use vf_device::DeviceId;
use vf_models::trainable::Architecture;
use vf_models::Mlp;
use vf_tensor::Tensor;

/// Tag: the full run regenerates the committed `results/` bytes, and tier 1
/// holds it to them.
const IDENTICAL: &str = "identical";
/// Tag: it takes `--smoke`, a shrunk run that writes only its
/// `<id>_smoke.json`.
const SMOKE: &str = "smoke";
/// Tag: it checks the tree and the history rather than reproducing a
/// claim, so it runs after every other experiment.
const GATE: &str = "gate";

/// One row of [`EXPERIMENTS`].
struct Experiment {
    name: &'static str,
    run: fn(Mode) -> Result,
    tags: &'static [&'static str],
}

/// `row!(module, TAGS…)`: the experiment a module's `run` implements,
/// named after the module.
macro_rules! row {
    ($module:ident $(, $tag:ident)*) => {
        Experiment {
            name: stringify!($module),
            run: $module::run,
            tags: &[$($tag),*],
        }
    };
}

/// Every experiment, in paper order.
const EXPERIMENTS: &[Experiment] = &[
    row!(fig02_rte_finetune, IDENTICAL),
    row!(fig04_design_space, IDENTICAL),
    row!(fig06_memory_timeline, IDENTICAL),
    row!(tab01_resnet_repro, IDENTICAL),
    row!(tab02_bert_repro, IDENTICAL),
    row!(fig07_bert_curves, IDENTICAL),
    row!(fig08_resnet_curves, IDENTICAL),
    row!(fig09_update_throughput, IDENTICAL),
    row!(fig10_bs_exploration, IDENTICAL),
    row!(fig11_bs_throughput, IDENTICAL),
    row!(fig12_three_jobs, IDENTICAL),
    row!(fig13_twenty_jobs, IDENTICAL),
    row!(fig14_jct_cdf, IDENTICAL),
    row!(fig15_memory_overhead, IDENTICAL),
    row!(fig16_throughput_vn, IDENTICAL),
    row!(ablate_bootstrap, IDENTICAL),
    row!(ablate_hierarchical, IDENTICAL),
    row!(ablate_capacity_dip, IDENTICAL),
    row!(ablate_noise_scale, IDENTICAL),
    row!(ablate_schedulers, IDENTICAL),
    row!(ablate_conv_repro, IDENTICAL),
    row!(kernel_bench),
    row!(chaos_bench, SMOKE),
    row!(overlap_bench, SMOKE),
    row!(trace_report, SMOKE),
    row!(trace_profile, SMOKE),
    row!(store_bench, SMOKE),
    row!(recovery_drill, SMOKE),
    row!(monitor_bench, SMOKE),
    row!(obs_scale_bench, SMOKE),
    // Last: audit the tree just run, then diff the fresh history records
    // (the audit's among them) against the committed baseline.
    row!(lint_gate, GATE),
    row!(bench_gate, GATE),
];

const USAGE: &str = "\
usage: vf-bench <experiment> [--smoke]   run one experiment
       vf-bench all                      run every experiment, each in its own process
       vf-bench list                     print each experiment's name and tags";

/// What the command line asks for.
enum Request {
    Run(&'static Experiment, Mode),
    All,
    List,
}

/// An argument error, followed by the usage.
fn usage_error(why: String) -> Error {
    format!("{why}\n{USAGE}").into()
}

fn parse(args: &[String]) -> Result<Request> {
    let (command, flags) = args
        .split_first()
        .ok_or_else(|| usage_error("no experiment named".to_string()))?;
    let mut smoke = false;
    for flag in flags {
        match flag.as_str() {
            "--smoke" if !smoke => smoke = true,
            _ => return Err(usage_error(format!("unknown argument {flag:?}"))),
        }
    }
    match command.as_str() {
        "all" | "list" if smoke => Err(usage_error(format!("`{command}` takes no --smoke"))),
        "all" => Ok(Request::All),
        "list" => Ok(Request::List),
        name => {
            let experiment = EXPERIMENTS
                .iter()
                .find(|e| e.name == name)
                .ok_or_else(|| usage_error(format!("unknown experiment {name:?}")))?;
            match (smoke, experiment.tags.contains(&SMOKE)) {
                (false, _) => Ok(Request::Run(experiment, Mode::Full)),
                (true, true) => Ok(Request::Run(experiment, Mode::Smoke)),
                (true, false) => Err(usage_error(format!("{name} has no smoke mode"))),
            }
        }
    }
}

/// Runs every experiment, each in a process of its own: the kernel pool's
/// thread count is fixed at first use, and some experiments set it.
fn run_all() -> Result {
    let exe = std::env::current_exe().context("current exe path")?;
    println!(
        "== VirtualFlow reproduction: running all {} experiments ==\n",
        EXPERIMENTS.len()
    );
    let mut failures = Vec::new();
    for experiment in EXPERIMENTS {
        let name = experiment.name;
        let start = Instant::now();
        let status = Command::new(&exe).arg(name).stdout(Stdio::null()).status();
        let elapsed = start.elapsed().as_secs_f64();
        match status {
            Ok(s) if s.success() => println!("  ok   {name:<28} ({elapsed:.1}s)"),
            Ok(s) => {
                println!("  FAIL {name:<28} (exit {s})");
                failures.push(name);
            }
            Err(e) => {
                println!("  FAIL {name:<28} (could not run: {e})");
                failures.push(name);
            }
        }
    }
    println!();
    if failures.is_empty() {
        println!(
            "all {} experiments reproduced their claims; outputs in results/",
            EXPERIMENTS.len()
        );
        Ok(())
    } else {
        Err(format!("{} experiment(s) failed: {failures:?}", failures.len()).into())
    }
}

fn main() -> Result {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args)? {
        Request::Run(experiment, mode) => (experiment.run)(mode),
        Request::All => run_all(),
        Request::List => {
            for experiment in EXPERIMENTS {
                println!(
                    "{}",
                    [&[experiment.name], experiment.tags].concat().join(" ")
                );
            }
            Ok(())
        }
    }
}

/// The training job the fault, overlap, trace and monitor experiments
/// drive: a batch-normed MLP 16-8-4 on the easy cluster task, 8 VNs of a
/// 64-example global batch at learning rate 0.1, all seeded by `seed`.
fn chaos_job(seed: u64) -> Result<(Arc<dyn Architecture>, Arc<Dataset>, TrainerConfig)> {
    let dataset = Arc::new(ClusterTask::easy(seed).generate().context("dataset")?);
    let arch: Arc<dyn Architecture> = Arc::new(Mlp::new(16, vec![8], 4).with_batch_norm());
    let config = TrainerConfig::simple(8, 64, 0.1, seed);
    Ok((arch, dataset, config))
}

/// The parameters [`chaos_job`] at `seed` reaches after `steps` steps on
/// devices 0..4 with no fault: the trajectory every fault scenario must
/// reproduce bit for bit.
fn fault_free_params(seed: u64, steps: u64) -> Result<Vec<Tensor>> {
    let (arch, dataset, config) = chaos_job(seed)?;
    let mut trainer =
        Trainer::new(arch, dataset, config, &devices(0..4)).context("reference trainer")?;
    trainer.run_steps(steps as usize).context("reference run")?;
    Ok(trainer.params().to_vec())
}

/// Devices `range.start..range.end`.
fn devices(range: Range<u32>) -> Vec<DeviceId> {
    range.map(DeviceId).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(args: &[&str]) -> Result<Request> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn tagged(tag: &str) -> Vec<&'static str> {
        let mut names: Vec<_> = EXPERIMENTS
            .iter()
            .filter(|e| e.tags.contains(&tag))
            .map(|e| e.name)
            .collect();
        names.sort_unstable();
        names
    }

    #[test]
    fn names_are_unique_and_the_gates_run_last() {
        let mut names: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names[names.len() - 2..], ["lint_gate", "bench_gate"]);
        assert_eq!(tagged(GATE), ["bench_gate", "lint_gate"]);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
        assert_eq!(EXPERIMENTS.len(), 32);
    }

    #[test]
    fn unknown_names_and_flags_print_the_usage() {
        for args in [
            &[][..],
            &["fig99_nothing"],
            &["fig02_rte_finetune", "--fast"],
            &["chaos_bench", "--smoke", "--smoke"],
            &["all", "--smoke"],
        ] {
            let Err(e) = parse_str(args) else {
                panic!("{args:?} parsed");
            };
            assert!(format!("{e:?}").ends_with(USAGE), "{args:?}: {e:?}");
        }
    }

    #[test]
    fn smoke_is_refused_where_there_is_no_smoke_mode() {
        let e = parse_str(&["kernel_bench", "--smoke"]).err().unwrap();
        assert!(format!("{e:?}").starts_with("kernel_bench has no smoke mode"));
        assert!(matches!(
            parse_str(&["chaos_bench", "--smoke"]),
            Ok(Request::Run(e, Mode::Smoke)) if e.name == "chaos_bench"
        ));
        assert!(matches!(
            parse_str(&["kernel_bench"]),
            Ok(Request::Run(e, Mode::Full)) if e.name == "kernel_bench"
        ));
        assert!(matches!(parse_str(&["all"]), Ok(Request::All)));
        assert!(matches!(parse_str(&["list"]), Ok(Request::List)));
    }

    /// Tier 1's byte-identity and smoke stages are these sets: a tag that
    /// moves changes what tier 1 checks, so it moves here too.
    #[test]
    fn the_tags_match_the_stages_tier1_ran() {
        let mut identical = vec![
            "fig12_three_jobs",
            "fig13_twenty_jobs",
            "fig14_jct_cdf",
            "ablate_schedulers",
            "ablate_capacity_dip",
            "ablate_conv_repro",
            "tab01_resnet_repro",
            "tab02_bert_repro",
            "fig02_rte_finetune",
            "fig07_bert_curves",
            "fig08_resnet_curves",
            "ablate_noise_scale",
            "fig04_design_space",
            "fig09_update_throughput",
            "fig11_bs_throughput",
            "fig16_throughput_vn",
            "ablate_hierarchical",
            "fig06_memory_timeline",
            "fig10_bs_exploration",
            "fig15_memory_overhead",
            "ablate_bootstrap",
        ];
        identical.sort_unstable();
        assert_eq!(tagged(IDENTICAL), identical);
        let mut smoke = vec![
            "chaos_bench",
            "overlap_bench",
            "trace_report",
            "trace_profile",
            "store_bench",
            "recovery_drill",
            "monitor_bench",
            "obs_scale_bench",
        ];
        smoke.sort_unstable();
        assert_eq!(tagged(SMOKE), smoke);
    }
}
