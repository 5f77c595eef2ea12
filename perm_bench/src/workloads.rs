//! The named workloads: which statements run, over how much data, and why.
//!
//! Every read workload is a fixed list of `(q, q+)` pairs, `q+` being
//! `SELECT PROVENANCE` of `q`. Names are stable: later issues cite them.
//! Scales were chosen so that a 15 s window completes well over 200 passes
//! on a 2-core sandbox and each workload's time sits in the layer its
//! `why` names (measured shares are in the README).

use crate::data::ForumData;
use crate::oracle::{self, PairExpect};

/// One `(q, q+)` pair with its oracle values.
#[derive(Debug, Clone)]
pub struct Pair {
    pub name: &'static str,
    pub q: String,
    pub prov: String,
    pub expect: PairExpect,
    /// Extra rows a timed execution may return while the `mixed_rw` writer
    /// has rows in flight (0 on read-only workloads: counts are exact).
    pub slack: u64,
}

impl Pair {
    /// `q+` is `q` with the SQL-PLE keyword after its first `SELECT` (for a
    /// set operation that is the leftmost branch, as in the paper).
    fn new(name: &'static str, q: &str, expect: PairExpect) -> Pair {
        Pair {
            name,
            q: q.to_string(),
            prov: q.replacen("SELECT ", "SELECT PROVENANCE ", 1),
            expect,
            slack: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One client thread on an in-memory server.
    ReadOnly,
    /// A reader and a writer thread on a durable server.
    MixedRw,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Messages in the forum (companion tables scale with it).
    pub scale: usize,
    /// Scale under `--smoke`.
    pub smoke_scale: usize,
    /// Hash indexes on the join columns.
    pub indexes: bool,
    pub kind: Kind,
    pub pairs: fn(&ForumData) -> Vec<Pair>,
}

const SPJ: &str = "SELECT m.text, u.name FROM messages m JOIN users u ON m.uid = u.uid \
                   WHERE m.mid % 4 = 0";
const AGGREGATION: &str = "SELECT a.mid, count(*) FROM messages m \
                           JOIN approved a ON m.mid = a.mid GROUP BY a.mid";
const SET_OPERATION: &str = "SELECT mid, text FROM messages UNION SELECT mid, text FROM imports";
const NESTED: &str = "SELECT text FROM messages WHERE mid IN (SELECT mid FROM approved)";

fn spj(d: &ForumData) -> Pair {
    Pair::new("spj", SPJ, oracle::spj(d))
}

fn aggregation(d: &ForumData) -> Pair {
    Pair::new("agg", AGGREGATION, oracle::aggregation(d))
}

/// The demo: the four query classes of the overhead study, the paper's q1
/// (it *is* the set-operation class) and q3, and the §2.4 BASERELATION
/// listing.
fn interactive_pairs(d: &ForumData) -> Vec<Pair> {
    let min_mid = 3;
    let plain = format!("SELECT text FROM v1 WHERE mid > {min_mid}");
    vec![
        spj(d),
        aggregation(d),
        Pair::new("setop_q1", SET_OPERATION, oracle::union_where(d, |_| true)),
        Pair::new("nested", NESTED, oracle::nested(d)),
        Pair::new(
            "q3",
            "SELECT count(*), text FROM v1 JOIN approved a ON (v1.mId = a.mId) \
             GROUP BY v1.mId, text",
            oracle::q3(d),
        ),
        Pair {
            prov: format!("SELECT PROVENANCE text FROM v1 BASERELATION WHERE mid > {min_mid}"),
            ..Pair::new("baserelation", &plain, oracle::baserelation(d, min_mid))
        },
    ]
}

fn scan_filter_pairs(d: &ForumData) -> Vec<Pair> {
    vec![
        Pair::new(
            "filter_arith",
            "SELECT mid, text FROM messages WHERE mid % 4 = 0 AND uid >= 10",
            oracle::filter_arith(d),
        ),
        Pair::new(
            "project_exprs",
            "SELECT mid * 2 + 1, upper(text), length(text) - 5 FROM messages",
            oracle::project_exprs(d),
        ),
        Pair::new(
            "filter_like",
            "SELECT mid FROM messages WHERE text LIKE 'message body 1%'",
            oracle::filter_like(d),
        ),
        Pair::new(
            "filter_in_list",
            "SELECT mid, uid FROM messages WHERE uid IN (1, 2, 3, 5, 8, 13, 21, 34)",
            oracle::filter_in_list(d),
        ),
        Pair::new(
            "sort_expr",
            "SELECT mid, uid FROM messages WHERE mid % 2 = 0 \
             ORDER BY uid * 1000000 + mid LIMIT 50",
            oracle::sort_expr(d),
        ),
    ]
}

/// Join predicates are rescaled with the data so that the joins stay wide
/// at every scale: half the users pass.
fn prov_join_pairs(d: &ForumData) -> Vec<Pair> {
    let half = (d.users.len() / 2) as i64;
    let join3 = format!(
        "SELECT a.mid, m.text, u.name FROM approved a \
         JOIN messages m ON a.mid = m.mid JOIN users u ON m.uid = u.uid \
         WHERE u.uid < {half}"
    );
    let join4 = format!(
        "SELECT ua.name, m.text FROM approved a JOIN users ua ON a.uid = ua.uid \
         JOIN messages m ON a.mid = m.mid JOIN users um ON m.uid = um.uid \
         WHERE um.uid < {half}"
    );
    vec![
        spj(d),
        Pair::new("join3_wide", &join3, oracle::join3(d, half)),
        Pair::new("join4", &join4, oracle::join4(d, half)),
    ]
}

fn prov_agg_setop_pairs(d: &ForumData) -> Vec<Pair> {
    vec![
        aggregation(d),
        Pair::new("setop", SET_OPERATION, oracle::union_where(d, |_| true)),
        Pair::new("nested", NESTED, oracle::nested(d)),
        Pair::new(
            "setop_view",
            "SELECT mid, text FROM v1 WHERE mid % 3 = 0",
            oracle::union_where(d, |mid| mid % 3 == 0),
        ),
    ]
}

/// Most inserted messages alive at once: the writer deletes the message it
/// inserted `WRITER_LAG` cycles ago, so cardinalities stay constant.
pub const WRITER_LAG: u64 = 8;

/// The reader's pairs run over the tables being written. Inserted message
/// ids are `≡ 1 (mod 4)`, so `spj` never sees them and stays exact; each
/// live inserted message adds one group and one witness to `agg`.
fn mixed_rw_pairs(d: &ForumData) -> Vec<Pair> {
    vec![
        spj(d),
        Pair {
            slack: WRITER_LAG + 1,
            ..aggregation(d)
        },
    ]
}

const MIXED_RW_WHY: &str = "same storage, used differently: durable server, fsync per commit, \
    a reader on SPJ+AGG pairs while a paced writer sends 500 DML statements/s; a read-side gain \
    that taxes writers shows here";

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "interactive_small",
        why: "the demo itself: 50 messages, so parse+bind+rewrite+optimize+plan outweigh execution; front-end changes show here, executor changes should not",
        scale: 50,
        smoke_scale: 50,
        indexes: false,
        kind: Kind::ReadOnly,
        pairs: interactive_pairs,
    },
    Workload {
        name: "scan_filter",
        why: "single-table scan, kernels and morsel exchange over 16000 rows; no hash join or aggregate runs, so it is the control for join/aggregate and shared-subplan work",
        scale: 16_000,
        smoke_scale: 400,
        indexes: false,
        kind: Kind::ReadOnly,
        pairs: scan_filter_pairs,
    },
    Workload {
        name: "prov_join",
        why: "SPJ, 3-way and 4-way provenance joins over indexed tables: hash-join build/probe and wide-tuple concat dominate, front end under 5%",
        scale: 8_000,
        smoke_scale: 200,
        indexes: true,
        kind: Kind::ReadOnly,
        pairs: prov_join_pairs,
    },
    Workload {
        name: "prov_agg_setop",
        why: "aggregation join-back, padded-union and sublink rewrites evaluate a subtree twice; HashAggregate and set operations dominate, joins are a minority",
        scale: 4_000,
        smoke_scale: 200,
        indexes: false,
        kind: Kind::ReadOnly,
        pairs: prov_agg_setop_pairs,
    },
    Workload {
        name: "mixed_rw",
        why: MIXED_RW_WHY,
        scale: 1_000,
        smoke_scale: 100,
        indexes: true,
        kind: Kind::MixedRw,
        pairs: mixed_rw_pairs,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
