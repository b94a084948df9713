//! The `campaign` subcommand.

use crate::search::{self, CampaignConfig, Evaluator};
use platoon_core::experiments::common::EXPERIMENT_BASE_SEED;
use platoon_sim::cli::{self, Args, Command, Exit, Flag};

/// The `campaign` subcommand.
pub const COMMAND: Command = Command {
    name: "campaign",
    summary: "adversarial stealth-vs-damage parameter search, written to CAMPAIGN_<label>.json",
    operands: &[],
    flags: &[
        cli::QUICK,
        cli::WORKERS,
        cli::OUT,
        Flag::value(
            "--seed",
            "N",
            "campaign seed (default: the experiment base seed); same seed, same document",
        ),
        Flag::value(
            "--server",
            "ADDR",
            "evaluate cells on a running server, whose cache dedupes repeats",
        ),
        Flag::value(
            "--attacks",
            "LIST",
            "comma-separated attacks to search instead of the effort default",
        ),
    ],
    run: cli_main,
};

fn cli_main(args: &mut Args) -> Result<(), Exit> {
    let workers = args.workers()?;
    let seed = args.parse("--seed")?.unwrap_or(EXPERIMENT_BASE_SEED);
    let mut config = CampaignConfig::new(args.quick(), seed);
    if let Some(list) = args.value("--attacks") {
        config.attacks = list
            .split(',')
            .map(str::trim)
            .filter(|a| !a.is_empty())
            .map(str::to_string)
            .collect();
        if let Some(a) = config
            .attacks
            .iter()
            .find(|a| platoon_attacks::params::param_space(a).is_none())
        {
            return Err(Exit::Usage(format!("no parameter space for attack {a:?}")));
        }
    }

    let mut evaluator = match args.value("--server") {
        Some(addr) => {
            let evaluator = Evaluator::connect(addr).map_err(Exit::Failed)?;
            eprintln!("evaluating on platoon-server at {addr}");
            evaluator
        }
        None => Evaluator::local(workers),
    };
    eprintln!(
        "running {} campaign (seed {seed}, {} attack(s))...",
        args.label(),
        config.attacks.len()
    );
    let report = search::run_campaign(&config, &mut evaluator).map_err(Exit::Failed)?;
    println!("{}", search::render(&report).render());
    eprintln!("{} unique cells evaluated", report.total_cells);

    args.write(
        &format!("CAMPAIGN_{}.json", args.label()),
        search::to_canonical_json(&report),
    )
}
