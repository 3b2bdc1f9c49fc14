//! The committed modeled outputs: one registry of named text reports.
//!
//! Every modeled output the repo pins is a text file under
//! `bench/figures/small/`, named after its entry in [`REGISTRY`]: the
//! paper's Figures 2, 3 and 5, the three ablations, the regression gate
//! ([`crate::gate`]) and the two conformance matrices ([`crate::matrix`]).
//! Each entry renders an [`Output`]: the text (exactly what the `figures`
//! binary prints) and the failures of the claims the output carries — the
//! figures' shape checks, the gate's internal claims, or every matrix cell
//! conforming. Everything runs on the sim fabric at fixed seeds (the calm
//! sim at [`GATE_SEED`]; the matrices perturb two seeds of their own), so
//! the text is a pure function of the code: identical run to run and
//! between debug and release builds.
//!
//! The tier-1 test `crates/bench/tests/golden.rs` renders every entry
//! in-process, requires [`Output::ok`], and requires the text to equal the
//! committed file byte for byte; [`first_difference`] names the first line
//! that moved. A change that moves a number regenerates the file in the
//! same PR (`bench/README.md`, "Committed outputs"), and the diff of that
//! file is the review artifact.

use crate::gate::{self, GATE_SEED};
use crate::table::Table;
use crate::{ablation, fig2, fig3, fig5, matrix, Scale};
use dsm_runtime::SimConfig;

/// One rendered output.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// The report, exactly as committed under `bench/figures/small/`.
    pub text: String,
    /// The claims the report carries that do not hold, one line each
    /// (empty when they all hold).
    pub failures: Vec<String>,
}

impl Output {
    /// Whether every claim holds.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// How a registry entry renders its output, at a scale.
pub type Render = fn(Scale) -> Output;

/// Every committed output, by name. `--full` (paper scale) applies to the
/// figures and ablations; the gate and the matrices have one size.
pub const REGISTRY: [(&str, Render); 9] = [
    ("fig2", fig2_output),
    ("fig3", fig3_output),
    ("fig5", fig5_output),
    ("ablation_notify", ablation_notify),
    ("ablation_alpha", ablation_alpha),
    ("ablation_related", ablation_related),
    ("gate", |_| gate::report()),
    ("sim_matrix", |_| {
        matrix::report(&matrix::sweep_seeds(2), false)
    }),
    ("sim_matrix_lossy", |_| {
        matrix::report(&matrix::sweep_seeds(2), true)
    }),
];

/// Render the output called `name`, or `None` for an unknown name.
pub fn render(name: &str, scale: Scale) -> Option<Output> {
    REGISTRY
        .iter()
        .find(|(entry, _)| *entry == name)
        .map(|(_, output)| output(scale))
}

/// Compare a rendered text with its committed file: `None` when they are
/// byte-identical, otherwise the number of the first line that differs with
/// both versions of it (a missing line, the final newline included, shows
/// as `(none)`).
pub fn first_difference(rendered: &str, committed: &str) -> Option<String> {
    if rendered == committed {
        return None;
    }
    let show = |line: Option<&str>| line.map_or("(none)".to_string(), |l| format!("{l:?}"));
    let (mut rendered, mut committed) = (rendered.split('\n'), committed.split('\n'));
    let mut number = 1;
    loop {
        match (rendered.next(), committed.next()) {
            (Some(r), Some(c)) if r == c => number += 1,
            (r, c) => {
                return Some(format!(
                    "line {number}:\n  committed: {}\n  rendered:  {}",
                    show(c),
                    show(r)
                ))
            }
        }
    }
}

fn calm() -> SimConfig {
    SimConfig::calm(GATE_SEED)
}

fn fig2_output(scale: Scale) -> Output {
    let points = fig2::collect(scale, &calm());
    checked_table(
        "Figure 2 — execution time vs. number of processors (HM = adaptive migration, \
         NoHM = disabled)",
        &fig2::render(&points),
        "HM wins on ASP/SOR, neutral on Nbody/TSP",
        fig2::shape_holds(&points),
    )
}

fn fig3_output(scale: Scale) -> Output {
    let points = fig3::collect(scale, &calm());
    checked_table(
        "Figure 3 — improvement of AT over FT2 against problem size (8 nodes)",
        &fig3::render(&points),
        "AT never worse than FT2",
        fig3::shape_holds(&points),
    )
}

/// A figure of one table and one shape check: the table, the verdict and
/// the table again as CSV.
fn checked_table(title: &str, table: &Table, check: &str, holds: bool) -> Output {
    Output {
        text: format!(
            "{title}\n\n{}\nshape check ({check}): {holds}\n\nCSV:\n{}\n",
            table.render(),
            table.to_csv()
        ),
        failures: if holds {
            Vec::new()
        } else {
            vec![format!("shape check failed: {check}")]
        },
    }
}

fn fig5_output(scale: Scale) -> Output {
    let points = fig5::collect(scale, &calm());
    let checks = fig5::shape_holds(&points);
    let mut text = format!(
        "Figure 5(a) — normalized execution time vs. repetition of the single-writer pattern\n\n\
         {}\nFigure 5(b) — normalized message breakdown (obj / mig / diff / redir)\n\n{}\n\
         shape checks (paper §5.2 observations):\n",
        fig5::render_times(&points).render(),
        fig5::render_messages(&points).render()
    );
    for (name, ok) in &checks {
        text += &format!("  [{}] {name}\n", if *ok { "ok" } else { "FAIL" });
    }
    text += &format!(
        "\nCSV (messages):\n{}\n",
        fig5::render_messages(&points).to_csv()
    );
    Output {
        text,
        failures: checks
            .into_iter()
            .filter(|(_, ok)| !ok)
            .map(|(name, _)| format!("shape check failed: {name}"))
            .collect(),
    }
}

fn ablation_text(title: &str, points: &[ablation::AblationPoint]) -> Output {
    Output {
        text: format!("{title}\n\n{}\n", ablation::render(points).render()),
        failures: Vec::new(),
    }
}

fn ablation_notify(scale: Scale) -> Output {
    ablation_text(
        "Ablation A1 — notification mechanism comparison (synthetic, r = 8)",
        &ablation::notification_comparison(scale, &calm()),
    )
}

fn ablation_alpha(scale: Scale) -> Output {
    ablation_text(
        "Ablation A2 — home access coefficient / feedback coefficient sensitivity \
         (synthetic, r = 2)",
        &ablation::coefficient_sensitivity(scale, &calm()),
    )
}

fn ablation_related(scale: Scale) -> Output {
    ablation_text(
        "Ablation A3 — migration policy comparison on SOR (8 nodes)",
        &ablation::related_work_comparison(scale, &calm()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_difference_names_the_line_and_a_missing_or_extra_trailing_line() {
        let committed = "title\n\na  1\nb  2\n";
        assert_eq!(first_difference(committed, committed), None);
        assert_eq!(
            first_difference("title\n\na  1\nb  3\n", committed).unwrap(),
            "line 4:\n  committed: \"b  2\"\n  rendered:  \"b  3\""
        );
        // A line the rendering lost, or gained, at the end.
        assert_eq!(
            first_difference("title\n\na  1\n", committed).unwrap(),
            "line 4:\n  committed: \"b  2\"\n  rendered:  \"\""
        );
        assert_eq!(
            first_difference("title\n\na  1\nb  2\nc  3\n", committed).unwrap(),
            "line 5:\n  committed: \"\"\n  rendered:  \"c  3\""
        );
        // The final newline alone.
        assert_eq!(
            first_difference("title\n\na  1\nb  2", committed).unwrap(),
            "line 5:\n  committed: \"\"\n  rendered:  (none)"
        );
        assert_eq!(
            first_difference("title\n\na  1\nb  2\n\n", committed).unwrap(),
            "line 6:\n  committed: (none)\n  rendered:  \"\""
        );
    }
}
