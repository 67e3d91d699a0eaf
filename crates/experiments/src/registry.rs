//! The experiment registry behind the `repro` binary.
//!
//! One table lists every runnable artifact — the paper's tables and
//! figures and the beyond-the-paper studies — and the binary's dispatch,
//! its usage text, the crate-doc id table and the README id list all
//! enumerate it. The fault-injection scenarios have their own front
//! door, `scenario_runner`, and their own pinned report, `SCENARIOS.md`.

use crate::common::ExpEnv;
use crate::{
    fig10, fig11, fig2, fig4, fig5, fig6, fig7, fig8, fig9, fleet, gateway, knee, model, sec583,
    sharded, table1, table2, table4,
};

/// One runnable artifact.
#[derive(Debug)]
pub struct Entry {
    /// The id `repro` dispatches on.
    pub id: &'static str,
    /// What it reproduces (the crate-doc table's second column).
    pub title: &'static str,
    /// Runs it and returns the rendered artifact.
    pub run: fn(&ExpEnv) -> String,
}

/// Every entry, in report order (`repro all` runs exactly these).
pub static ENTRIES: [Entry; 18] = [
    Entry {
        id: "table1",
        title: "static vs runtime bandwidth gaps",
        run: |e| table1::run(e.seed).render(),
    },
    Entry { id: "table2", title: "monitoring-cost savings", run: |_| table2::run().render() },
    Entry {
        id: "fig2",
        title: "single/uniform/heterogeneous connection bandwidths",
        run: |e| fig2::run(e.seed).render(),
    },
    Entry {
        id: "table4",
        title: "Tetrium/Kimchi gains from runtime bandwidth",
        run: |e| table4::run(e).render(),
    },
    Entry { id: "fig4", title: "ML quantization variants", run: |e| fig4::run(e).render() },
    Entry {
        id: "fig5",
        title: "parallel-transfer approaches on TeraSort",
        run: |e| fig5::run(e).render(),
    },
    Entry {
        id: "fig6",
        title: "WordCount intermediate-size sweep",
        run: |e| fig6::run(e).render(),
    },
    Entry {
        id: "fig7",
        title: "end-to-end TPC-DS with/without WANify",
        run: |e| fig7::run(e).render(),
    },
    Entry {
        id: "fig8",
        title: "ablation + prediction-error injection",
        run: |e| fig8::run(e).render(),
    },
    Entry { id: "fig9", title: "AIMD tracking of dynamics", run: |e| fig9::run(e).render() },
    Entry { id: "fig10", title: "skewed-input handling", run: |e| fig10::run(e).render() },
    Entry {
        id: "fig11",
        title: "prediction accuracy across cluster shapes",
        run: |e| fig11::run(e).render(),
    },
    Entry {
        id: "sec583",
        title: "heterogeneous-VM benefits",
        run: |e| sec583::run(e.effort, e.seed).render(),
    },
    Entry {
        id: "model",
        title: "prediction-model training quality",
        run: |e| model::run(e.effort, e.seed).render(),
    },
    Entry {
        id: "fleet",
        title: "beyond the paper: belief provenances under multi-tenant contention",
        run: |e| fleet::run(e).render(),
    },
    Entry {
        id: "sharded",
        title: "beyond the paper: shard-count sweep of the sharded multi-sim fleet",
        run: |e| sharded::run(e.effort, e.seed).render(),
    },
    Entry {
        id: "gateway",
        title: "beyond the paper: serving-gateway goodput across an offered-load sweep",
        run: |e| gateway::run(e.effort, e.seed).render(),
    },
    Entry {
        id: "knee",
        title: "beyond the paper: closed-loop throughput knee against the tenant count",
        run: |e| knee::run(e.effort, e.seed).render(),
    },
];

/// Every valid experiment id, in [`ENTRIES`] order.
pub fn experiment_ids() -> Vec<String> {
    ENTRIES.iter().map(|e| e.id.to_string()).collect()
}

/// Whether `id` is runnable.
pub fn is_known(id: &str) -> bool {
    experiment_ids().iter().any(|known| known == id)
}

/// Runs one experiment and returns its rendered output, or `None` for an
/// unknown id.
///
/// Artifacts run on `env` — the 8-DC paper environment, or its effort
/// and seed where they build their own testbed.
pub fn run(id: &str, env: &ExpEnv) -> Option<String> {
    ENTRIES.iter().find(|e| e.id == id).map(|entry| (entry.run)(env))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Effort;

    #[test]
    fn registry_lists_paper_and_scenario_ids() {
        let ids = experiment_ids();
        assert!(ids.iter().any(|i| i == "fig5"));
        assert!(ids.iter().any(|i| i == "sharded"));
        assert!(ids.iter().any(|i| i == "gateway"));
    }

    #[test]
    fn every_listed_id_is_known() {
        for id in experiment_ids() {
            assert!(is_known(&id), "{id} listed but not runnable");
        }
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let env = ExpEnv::new(8, Effort::Quick, 1);
        assert!(!is_known("fig99"));
        assert!(!is_known(""));
        assert!(run("fig99", &env).is_none());
    }

    #[test]
    fn every_entry_renders_and_the_docs_list_exactly_the_registry() {
        let env = ExpEnv::new(8, Effort::Quick, 42);
        for (i, entry) in ENTRIES.iter().enumerate() {
            assert!(ENTRIES[..i].iter().all(|e| e.id != entry.id), "duplicate id {}", entry.id);
            let out = run(entry.id, &env).expect("a listed id runs");
            assert!(out.lines().count() >= 2, "{} rendered {out:?}", entry.id);
        }

        // The crate-doc table: one `| `id` | title |` line per entry, in order.
        let want: Vec<String> =
            ENTRIES.iter().map(|e| format!("//! | `{}` | {} |", e.id, e.title)).collect();
        let doc: Vec<&str> =
            include_str!("lib.rs").lines().filter(|l| l.starts_with("//! | `")).collect();
        assert_eq!(doc, want, "crates/experiments/src/lib.rs id table");

        // The README id list: the first backticked run of its `Ids:` sentence.
        let readme = include_str!("../../../README.md");
        let listed = readme.split("\nIds: `").nth(1).expect("README has an id list");
        let listed: Vec<&str> =
            listed.split('`').next().expect("closing backtick").split_whitespace().collect();
        let ids: Vec<&str> = ENTRIES.iter().map(|e| e.id).collect();
        assert_eq!(listed, ids, "README.md id list");
    }
}
