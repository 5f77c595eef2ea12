//! Seeded input generation and the loader.
//!
//! The benchmark owns its row generator so that the oracle
//! ([`crate::oracle`]) sees the rows themselves, not a database that was
//! loaded from them: the engine receives only the generated inputs.
//!
//! The schema is the paper's Figure 1 forum (`messages`, `users`,
//! `imports`, `approved` and the view `v1`), scaled by the number of
//! messages.

use perm_core::{PermError, Result, Session, Tuple, Value};

/// splitmix64: the whole generator state is one `u64`, so the same seed
/// gives the same rows on every host and toolchain.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` the generator uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `n` values cycling through `0..modulus`, in seeded order: every value
    /// occurs equally often whatever the seed.
    fn balanced(&mut self, n: usize, modulus: usize) -> Vec<usize> {
        let mut values: Vec<usize> = (0..n).map(|i| i % modulus).collect();
        self.shuffle(&mut values);
        values
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    pub mid: i64,
    pub text: String,
    pub uid: i64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct User {
    pub uid: i64,
    pub name: String,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Import {
    pub mid: i64,
    pub text: String,
    pub origin: &'static str,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Approved {
    pub uid: i64,
    pub mid: i64,
}

/// The generated rows of one forum database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForumData {
    pub users: Vec<User>,
    pub messages: Vec<Message>,
    pub imports: Vec<Import>,
    pub approved: Vec<Approved>,
}

const ORIGINS: [&str; 4] = ["superForum", "HiBoard", "spamHub", "oldSite"];

/// Approvals a message receives, by its position in a seeded order: as in
/// Figure 1 some messages are never approved and some several times, two
/// on average.
const APPROVALS: [usize; 4] = [0, 1, 3, 4];

impl ForumData {
    /// `scale` messages with ids `0..scale`, `scale / 10` users (at least
    /// 3), `scale / 2` imports with ids from `scale` up (so `v1`'s two
    /// branches never overlap) and `2 * scale` approvals.
    ///
    /// The seed decides *which* rows relate, not *how many*: authors,
    /// origins and approving users are balanced, and the approvals per
    /// message follow a fixed pattern over a seeded order of the messages.
    /// Result sizes therefore barely move with the seed, and run-to-run
    /// differences measure the engine and the host, not the draw.
    pub fn generate(scale: usize, seed: u64) -> ForumData {
        let mut rng = SplitMix64::new(seed);
        let n_users = (scale / 10).max(3);
        let users = (0..n_users)
            .map(|u| User {
                uid: u as i64,
                name: format!("user{u}"),
            })
            .collect();
        let authors = rng.balanced(scale, n_users);
        let messages = (0..scale)
            .map(|m| Message {
                mid: m as i64,
                text: format!("message body {m}"),
                uid: authors[m] as i64,
            })
            .collect();
        let origins = rng.balanced(scale / 2, ORIGINS.len());
        let imports = (0..scale / 2)
            .map(|m| Import {
                mid: (scale + m) as i64,
                text: format!("imported body {m}"),
                origin: ORIGINS[origins[m]],
            })
            .collect();
        let mut order: Vec<usize> = (0..scale).collect();
        rng.shuffle(&mut order);
        let mut approved_mids: Vec<usize> = order
            .iter()
            .enumerate()
            .flat_map(|(position, mid)| std::iter::repeat_n(*mid, APPROVALS[position % 4]))
            .collect();
        rng.shuffle(&mut approved_mids);
        let approvers = rng.balanced(approved_mids.len(), n_users);
        let approved = approved_mids
            .iter()
            .zip(approvers)
            .map(|(mid, uid)| Approved {
                uid: uid as i64,
                mid: *mid as i64,
            })
            .collect();
        ForumData {
            users,
            messages,
            imports,
            approved,
        }
    }

    pub fn total_rows(&self) -> usize {
        self.users.len() + self.messages.len() + self.imports.len() + self.approved.len()
    }
}

/// Create the forum schema in `session`'s server and bulk-load `data`.
///
/// Rows go in through [`Session::catalog_write`], which bypasses the
/// statement log: on a durable server the caller checkpoints afterwards.
/// With `indexes`, the join columns get the hash indexes the planner's
/// index-aware strategies use (`users.uid`, `messages.mid`,
/// `approved.mid`).
pub fn forum_into(session: &Session, data: &ForumData, indexes: bool) -> Result<()> {
    session.run_script(
        "CREATE TABLE messages (mId int NOT NULL, text text, uId int);
         CREATE TABLE users (uId int NOT NULL, name text);
         CREATE TABLE imports (mId int NOT NULL, text text, origin text);
         CREATE TABLE approved (uId int NOT NULL, mId int NOT NULL);",
    )?;
    {
        let mut cat = session.catalog_write();
        let users = cat.table_mut("users")?;
        for u in &data.users {
            users.push_raw(Tuple::new(vec![Value::Int(u.uid), Value::text(&*u.name)]));
        }
        let messages = cat.table_mut("messages")?;
        for m in &data.messages {
            messages.push_raw(Tuple::new(vec![
                Value::Int(m.mid),
                Value::text(&*m.text),
                Value::Int(m.uid),
            ]));
        }
        let imports = cat.table_mut("imports")?;
        for i in &data.imports {
            imports.push_raw(Tuple::new(vec![
                Value::Int(i.mid),
                Value::text(&*i.text),
                Value::text(i.origin),
            ]));
        }
        let approved = cat.table_mut("approved")?;
        for a in &data.approved {
            approved.push_raw(Tuple::new(vec![Value::Int(a.uid), Value::Int(a.mid)]));
        }
    }
    if indexes {
        session.create_index("users", "uid")?;
        session.create_index("messages", "mid")?;
        session.create_index("approved", "mid")?;
    }
    session
        .execute(
            "CREATE VIEW v1 AS SELECT mId, text FROM messages \
             UNION SELECT mId, text FROM imports",
        )
        .map(|_| ())
        .map_err(|e: PermError| e.with_context("creating view v1"))
}
