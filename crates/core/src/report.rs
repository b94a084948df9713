//! The full report: every table and figure of the reproduction as text
//! (the EXPERIMENTS.md source of truth).

use crate::experiments::{ablations, figures, table2, table3, table4};
use crate::{risk, surveys};
use platoon_sim::cli::{self, Args, Command, Exit};

/// The `report` subcommand: prints [`full_report`] to stdout.
pub const COMMAND: Command = Command {
    name: "report",
    summary: "every table and figure of the reproduction, printed to stdout",
    operands: &[],
    flags: &[cli::QUICK],
    run: cli_main,
};

fn cli_main(args: &mut Args) -> Result<(), Exit> {
    eprintln!(
        "regenerating all tables and figures ({} effort)...",
        args.label()
    );
    print!("{}", full_report(args.quick()));
    Ok(())
}

/// Generates the full textual report (all tables + figures).
pub fn full_report(quick: bool) -> String {
    let mut out = String::new();
    out.push_str(&surveys::render_table1().render());
    out.push('\n');
    out.push_str(&surveys::render_coverage_matrix().render());
    out.push('\n');
    out.push_str(&table2::render(&table2::run(quick)).render());
    out.push('\n');
    out.push_str(&table3::render(&table3::run(quick)).render());
    out.push('\n');
    out.push_str(&table4::render(&table4::run(quick)).render());
    out.push('\n');
    out.push_str(&risk::render_risk_table().render());
    out.push('\n');
    for fig in figures::all_figures(quick) {
        out.push_str(&fig.render());
        out.push('\n');
    }
    for table in ablations::all_ablations(quick) {
        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_contains_all_sections() {
        // The taxonomy/risk parts render instantly; the sim-backed parts are
        // exercised by the per-experiment tests.
        let t1 = crate::surveys::render_table1().render();
        let risk = crate::risk::render_risk_table().render();
        assert!(t1.contains("Table I"));
        assert!(risk.contains("Risk assessment"));
    }
}
