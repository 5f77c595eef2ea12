//! The output oracle: expected results computed in plain Rust from the
//! generated rows, with no engine code involved.
//!
//! For every benchmark statement the oracle knows the row count and an
//! order-independent checksum over *all* columns of every row (the sum of
//! per-row FNV-1a hashes). The engine's result is reduced the same way
//! ([`Expect::of_result`]) and compared. The provenance layout follows
//! the paper: the original columns, then one block of
//! `prov_<schema>_<relation>_<attribute>` columns per base-relation
//! access in FROM order, NULL-padded where a relation did not contribute.
//!
//! The paper's contract between a pair — `q+` projected onto `q`'s columns
//! and de-duplicated equals distinct `q` — is checked on the engine's own
//! two results by [`contract_holds`].

use std::collections::HashMap;

use perm_core::{QueryResult, Value};

use crate::data::{Approved, ForumData, Import, Message, User};

/// Incremental hash of one row. `q+` rows extend `q` rows, so the oracle
/// clones the state after the original columns and keeps feeding.
#[derive(Debug, Clone, Copy)]
pub struct RowHash(u64);

impl RowHash {
    pub fn new() -> RowHash {
        RowHash(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, tag: u8, payload: &[u8]) {
        for b in std::iter::once(&tag).chain(payload) {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn null(&mut self) {
        self.bytes(0, &[]);
    }

    pub fn int(&mut self, v: i64) {
        self.bytes(1, &v.to_le_bytes());
    }

    pub fn text(&mut self, v: &str) {
        // The length keeps ("ab", "c") and ("a", "bc") apart.
        self.bytes(2, &(v.len() as u64).to_le_bytes());
        self.bytes(2, v.as_bytes());
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.null(),
            Value::Int(i) => self.int(*i),
            Value::Text(s) => self.text(s),
            // No benchmark statement produces these; hashing them under
            // their own tags makes an unexpected one a checksum mismatch.
            Value::Bool(b) => self.bytes(3, &[u8::from(*b)]),
            Value::Float(f) => self.bytes(4, &f.to_bits().to_le_bytes()),
        }
    }

    fn messages(&mut self, m: &Message) {
        self.int(m.mid);
        self.text(&m.text);
        self.int(m.uid);
    }

    fn users(&mut self, u: &User) {
        self.int(u.uid);
        self.text(&u.name);
    }

    fn imports(&mut self, i: &Import) {
        self.int(i.mid);
        self.text(&i.text);
        self.text(i.origin);
    }

    fn approved(&mut self, a: &Approved) {
        self.int(a.uid);
        self.int(a.mid);
    }

    fn nulls(&mut self, n: usize) {
        for _ in 0..n {
            self.null();
        }
    }
}

impl Default for RowHash {
    fn default() -> RowHash {
        RowHash::new()
    }
}

/// Row count plus order-independent checksum of a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Expect {
    pub rows: u64,
    pub checksum: u64,
}

impl Expect {
    fn add(&mut self, row: RowHash) {
        self.rows += 1;
        self.checksum = self.checksum.wrapping_add(row.0);
    }

    /// Reduce an engine result the way the oracle reduces its own rows.
    pub fn of_result(result: &QueryResult) -> Expect {
        let mut e = Expect::default();
        for row in &result.rows {
            let mut h = RowHash::new();
            for v in row.values() {
                h.value(v);
            }
            e.add(h);
        }
        e
    }
}

/// Expected results of one `(q, q+)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairExpect {
    pub q: Expect,
    pub prov: Expect,
}

impl PairExpect {
    /// One original row that has exactly one witness row.
    fn add_both(&mut self, q_row: RowHash, prov_row: RowHash) {
        self.q.add(q_row);
        self.prov.add(prov_row);
    }
}

/// The paper's contract, checked on the engine's two results: `q+`
/// projected onto `q`'s columns and de-duplicated equals distinct `q`.
pub fn contract_holds(q: &QueryResult, prov: &QueryResult) -> bool {
    let width = q.columns.len();
    let distinct = |r: &QueryResult| {
        let mut hashes: Vec<u64> = r
            .rows
            .iter()
            .map(|row| {
                let mut h = RowHash::new();
                for v in &row.values()[..width.min(row.len())] {
                    h.value(v);
                }
                h.0
            })
            .collect();
        hashes.sort_unstable();
        hashes.dedup();
        hashes
    };
    prov.columns.len() > width && distinct(q) == distinct(prov)
}

/// `uid` and `mid` are dense (`users[u].uid == u`, `messages[m].mid == m`),
/// which the generator guarantees and the lookups below rely on.
fn user_of<'a>(d: &'a ForumData, m: &Message) -> &'a User {
    &d.users[m.uid as usize]
}

fn message_of<'a>(d: &'a ForumData, a: &Approved) -> &'a Message {
    &d.messages[a.mid as usize]
}

/// Approvals per message id, in table order.
fn approvals_by_mid(d: &ForumData) -> HashMap<i64, Vec<&Approved>> {
    let mut by_mid: HashMap<i64, Vec<&Approved>> = HashMap::new();
    for a in &d.approved {
        by_mid.entry(a.mid).or_default().push(a);
    }
    by_mid
}

/// A single-table select over `messages`: `keep` is the WHERE clause,
/// `project` feeds the select list. Each kept row is its own witness.
fn over_messages(
    d: &ForumData,
    keep: impl Fn(&Message) -> bool,
    project: impl Fn(&mut RowHash, &Message),
) -> PairExpect {
    let mut e = PairExpect::default();
    for m in d.messages.iter().filter(|m| keep(m)) {
        let mut q = RowHash::new();
        project(&mut q, m);
        let mut p = q;
        p.messages(m);
        e.add_both(q, p);
    }
    e
}

/// `SELECT mid, text FROM messages WHERE mid % 4 = 0 AND uid >= 10`
pub fn filter_arith(d: &ForumData) -> PairExpect {
    over_messages(
        d,
        |m| m.mid % 4 == 0 && m.uid >= 10,
        |h, m| {
            h.int(m.mid);
            h.text(&m.text);
        },
    )
}

/// `SELECT mid * 2 + 1, upper(text), length(text) - 5 FROM messages`
pub fn project_exprs(d: &ForumData) -> PairExpect {
    over_messages(
        d,
        |_| true,
        |h, m| {
            h.int(m.mid * 2 + 1);
            h.text(&m.text.to_uppercase());
            h.int(m.text.chars().count() as i64 - 5);
        },
    )
}

/// `SELECT mid FROM messages WHERE text LIKE 'message body 1%'`
pub fn filter_like(d: &ForumData) -> PairExpect {
    over_messages(
        d,
        |m| m.text.starts_with("message body 1"),
        |h, m| h.int(m.mid),
    )
}

/// `SELECT mid, uid FROM messages WHERE uid IN (1, 2, 3, 5, 8, 13, 21, 34)`
pub fn filter_in_list(d: &ForumData) -> PairExpect {
    over_messages(
        d,
        |m| [1, 2, 3, 5, 8, 13, 21, 34].contains(&m.uid),
        |h, m| {
            h.int(m.mid);
            h.int(m.uid);
        },
    )
}

/// `SELECT mid, uid FROM messages WHERE mid % 2 = 0
///  ORDER BY uid * 1000000 + mid LIMIT 50` — the sort key is unique, so
/// the 50 rows are determined.
pub fn sort_expr(d: &ForumData) -> PairExpect {
    let mut kept: Vec<&Message> = d.messages.iter().filter(|m| m.mid % 2 == 0).collect();
    kept.sort_by_key(|m| m.uid * 1_000_000 + m.mid);
    let mut e = PairExpect::default();
    for m in kept.into_iter().take(50) {
        let mut q = RowHash::new();
        q.int(m.mid);
        q.int(m.uid);
        let mut p = q;
        p.messages(m);
        e.add_both(q, p);
    }
    e
}

/// `SELECT m.text, u.name FROM messages m JOIN users u ON m.uid = u.uid
///  WHERE m.mid % 4 = 0`
pub fn spj(d: &ForumData) -> PairExpect {
    let mut e = PairExpect::default();
    for m in d.messages.iter().filter(|m| m.mid % 4 == 0) {
        let u = user_of(d, m);
        let mut q = RowHash::new();
        q.text(&m.text);
        q.text(&u.name);
        let mut p = q;
        p.messages(m);
        p.users(u);
        e.add_both(q, p);
    }
    e
}

/// `SELECT a.mid, m.text, u.name FROM approved a
///  JOIN messages m ON a.mid = m.mid JOIN users u ON m.uid = u.uid
///  WHERE u.uid < {max_uid}`
pub fn join3(d: &ForumData, max_uid: i64) -> PairExpect {
    let mut e = PairExpect::default();
    for a in &d.approved {
        let m = message_of(d, a);
        let u = user_of(d, m);
        if u.uid >= max_uid {
            continue;
        }
        let mut q = RowHash::new();
        q.int(a.mid);
        q.text(&m.text);
        q.text(&u.name);
        let mut p = q;
        p.approved(a);
        p.messages(m);
        p.users(u);
        e.add_both(q, p);
    }
    e
}

/// `SELECT ua.name, m.text FROM approved a JOIN users ua ON a.uid = ua.uid
///  JOIN messages m ON a.mid = m.mid JOIN users um ON m.uid = um.uid
///  WHERE um.uid < {max_uid}`
pub fn join4(d: &ForumData, max_uid: i64) -> PairExpect {
    let mut e = PairExpect::default();
    for a in &d.approved {
        let ua = &d.users[a.uid as usize];
        let m = message_of(d, a);
        let um = user_of(d, m);
        if um.uid >= max_uid {
            continue;
        }
        let mut q = RowHash::new();
        q.text(&ua.name);
        q.text(&m.text);
        let mut p = q;
        p.approved(a);
        p.users(ua);
        p.messages(m);
        p.users(um);
        e.add_both(q, p);
    }
    e
}

/// `SELECT a.mid, count(*) FROM messages m JOIN approved a ON m.mid = a.mid
///  GROUP BY a.mid` — every join row of a group is a witness of it.
pub fn aggregation(d: &ForumData) -> PairExpect {
    let mut e = PairExpect::default();
    for (mid, group) in approvals_by_mid(d) {
        let mut q = RowHash::new();
        q.int(mid);
        q.int(group.len() as i64);
        e.q.add(q);
        for a in group {
            let mut p = q;
            p.messages(message_of(d, a));
            p.approved(a);
            e.prov.add(p);
        }
    }
    e
}

/// `SELECT mid, text FROM messages UNION SELECT mid, text FROM imports`,
/// optionally under `WHERE keep(mid)` (the `v1` pair). The two branches
/// share no id, so every result row has one witness, from one side.
pub fn union_where(d: &ForumData, keep: impl Fn(i64) -> bool) -> PairExpect {
    let mut e = PairExpect::default();
    for m in d.messages.iter().filter(|m| keep(m.mid)) {
        let mut q = RowHash::new();
        q.int(m.mid);
        q.text(&m.text);
        let mut p = q;
        p.messages(m);
        p.nulls(3);
        e.add_both(q, p);
    }
    for i in d.imports.iter().filter(|i| keep(i.mid)) {
        let mut q = RowHash::new();
        q.int(i.mid);
        q.text(&i.text);
        let mut p = q;
        p.nulls(3);
        p.imports(i);
        e.add_both(q, p);
    }
    e
}

/// `SELECT text FROM messages WHERE mid IN (SELECT mid FROM approved)` —
/// the witnesses of a message are its approvals.
pub fn nested(d: &ForumData) -> PairExpect {
    let by_mid = approvals_by_mid(d);
    let mut e = PairExpect::default();
    for m in &d.messages {
        let Some(group) = by_mid.get(&m.mid) else {
            continue;
        };
        let mut q = RowHash::new();
        q.text(&m.text);
        e.q.add(q);
        for a in group {
            let mut p = q;
            p.messages(m);
            p.approved(a);
            e.prov.add(p);
        }
    }
    e
}

/// The paper's q3: `SELECT count(*), text FROM v1 JOIN approved a
/// ON (v1.mId = a.mId) GROUP BY v1.mId, text`. Only messages are ever
/// approved, so the `imports` block of every witness is NULL.
pub fn q3(d: &ForumData) -> PairExpect {
    let mut e = PairExpect::default();
    for (_, group) in approvals_by_mid(d) {
        let m = message_of(d, group[0]);
        let mut q = RowHash::new();
        q.int(group.len() as i64);
        q.text(&m.text);
        e.q.add(q);
        for a in group {
            let mut p = q;
            p.messages(m);
            p.nulls(3);
            p.approved(a);
            e.prov.add(p);
        }
    }
    e
}

/// The paper's §2.4 BASERELATION listing: `SELECT text FROM v1
/// [BASERELATION] WHERE mid > {min_mid}` — the view is the base relation,
/// so the witness of a row is the `v1` tuple `(mid, text)` itself.
pub fn baserelation(d: &ForumData, min_mid: i64) -> PairExpect {
    let mut e = PairExpect::default();
    let v1 = d
        .messages
        .iter()
        .map(|m| (m.mid, &m.text))
        .chain(d.imports.iter().map(|i| (i.mid, &i.text)));
    for (mid, text) in v1.filter(|(mid, _)| *mid > min_mid) {
        let mut q = RowHash::new();
        q.text(text);
        let mut p = q;
        p.int(mid);
        p.text(text);
        e.add_both(q, p);
    }
    e
}
