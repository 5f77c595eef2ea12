//! The Perm-browser (paper Figure 4) as a terminal client.
//!
//! Shows the five panels of the demo GUI for every query: (1) the input,
//! (2) the rewritten SQL, (3) the original algebra tree, (4) the rewritten
//! algebra tree and (5) the results. Session commands switch contribution
//! semantics and rewrite strategies, mirroring the browser's checkboxes.
//!
//! Run interactively:  `cargo run --example perm_browser`
//! Run the demo tour:  `cargo run --example perm_browser -- --demo`

use std::io::{self, BufRead, Write};

use perm_core::fixtures::{add_figure4_tables, forum_db, Q1, SEC24_PROVENANCE_AGG};
use perm_core::{
    BrowserPanels, ContributionSemantics, CopyMode, Session, StrategyMode, UnionStrategy,
};

const HELP: &str = "\
commands:
  \\help                       this help
  \\semantics <influence|copy|copy-complete|lineage>
                              default contribution semantics
  \\strategy <heuristic|cost|padded|joinback>
                              union rewrite strategy selection
  \\tables                     list catalog relations
  \\demo                       run the scripted demo tour
  \\quit                       exit
anything else is executed as SQL / SQL-PLE.";

fn main() {
    let mut db = forum_db();
    add_figure4_tables(&db);

    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--demo") {
        demo_tour(&db);
        return;
    }

    println!("Perm browser — the Figure 1 forum database is loaded.");
    println!("{HELP}\n");
    let stdin = io::stdin();
    loop {
        print!("perm> ");
        io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let input = line.trim();
        if input.is_empty() {
            continue;
        }
        if let Some(cmd) = input.strip_prefix('\\') {
            if !handle_command(cmd, &mut db) {
                break;
            }
            continue;
        }
        run_query(&db, input);
    }
}

/// Returns false on \quit.
fn handle_command(cmd: &str, db: &mut Session) -> bool {
    let mut parts = cmd.split_whitespace();
    match parts.next().unwrap_or("") {
        "help" => println!("{HELP}"),
        "quit" | "q" => return false,
        "demo" => demo_tour(db),
        "tables" => {
            for name in db.snapshot().relation_names() {
                println!("  {name}");
            }
        }
        "semantics" => {
            let sem = match parts.next() {
                Some("influence") => ContributionSemantics::Influence,
                Some("copy") => ContributionSemantics::Copy(CopyMode::Partial),
                Some("copy-complete") => ContributionSemantics::Copy(CopyMode::Complete),
                Some("lineage") => ContributionSemantics::Lineage,
                other => {
                    println!("unknown semantics {other:?}; see \\help");
                    return true;
                }
            };
            db.set_options(db.options().with_default_semantics(sem));
            println!("default contribution semantics set");
        }
        "strategy" => {
            let mode = match parts.next() {
                Some("heuristic") => StrategyMode::Heuristic,
                Some("cost") => StrategyMode::CostBased,
                Some("padded") => StrategyMode::Fixed(UnionStrategy::PaddedUnion),
                Some("joinback") => StrategyMode::Fixed(UnionStrategy::JoinBack),
                other => {
                    println!("unknown strategy {other:?}; see \\help");
                    return true;
                }
            };
            db.set_options(db.options().with_union_strategy(mode));
            println!("union rewrite strategy set");
        }
        other => println!("unknown command \\{other}; see \\help"),
    }
    true
}

fn run_query(db: &Session, sql: &str) {
    // Non-query statements (DDL/DML/EXPLAIN) execute directly; queries
    // get the full five-panel treatment.
    let is_query = sql.trim_start().to_ascii_lowercase().starts_with("select")
        || sql.trim_start().starts_with('(');
    if !is_query {
        match db.execute(sql) {
            Ok(perm_core::StatementResult::Explain(tree)) => println!("{tree}"),
            Ok(r) => println!("{r:?}"),
            Err(e) => println!("{e}"),
        }
        return;
    }
    match BrowserPanels::capture(db, sql) {
        Ok(p) => println!("{}", p.render()),
        Err(e) => println!("{e}"),
    }
}

/// The scripted version of the paper's demonstration (§3): query
/// execution, rewrite analysis, complex queries.
fn demo_tour(db: &Session) {
    let queries = [
        ("q1 of Figure 1", Q1.to_string()),
        (
            "the provenance of q1 (Figure 2)",
            format!("SELECT PROVENANCE * FROM ({Q1}) q1 ORDER BY mid"),
        ),
        (
            "provenance of the aggregation (paper §2.4, first listing)",
            SEC24_PROVENANCE_AGG.to_string(),
        ),
        (
            "BASERELATION stops the rewrite at the view (paper §2.4)",
            "SELECT PROVENANCE text FROM v1 BASERELATION WHERE mid > 3".to_string(),
        ),
        (
            "the Figure 4 marker-5 sample",
            "SELECT PROVENANCE s.i FROM s JOIN r ON s.i = r.i".to_string(),
        ),
    ];
    for (title, sql) in queries {
        println!("════════════════════════════════════════════════════════");
        println!("— {title}\n");
        run_query(db, &sql);
    }
}
