//! Gathered outputs are row blocks: a provenance join's rows come out of
//! one allocation, not one per row, and the nodes that keep only some of
//! a block's rows — `LIMIT`, DISTINCT, `INTERSECT`, a `HAVING` filter,
//! `CREATE TABLE AS` — keep them on their own storage, so a kept row does
//! not keep the rest alive.
//!
//! A counting global allocator measures the first; the tests take one
//! lock so that no other test allocates while one counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use perm_core::{PermServer, Session, Tuple, Value};

/// Counts every allocation, on every thread.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards to the system allocator unchanged; the counter is an
// atomic increment, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One test at a time, so the counter sees one statement.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Approved messages joined to their messages and authors: every one of
/// the `APPROVED` rows matches one message and one user.
const JOIN3: &str = "SELECT PROVENANCE a.mid, m.text, u.name FROM approved a \
     JOIN messages m ON a.mid = m.mid JOIN users u ON m.uid = u.uid";

const APPROVED: i64 = 2400;

/// `users(uid, name)` (40), `messages(mid, uid, text)` (3 000) and
/// `approved(mid, uid)` (the first `APPROVED` messages).
fn forum() -> Session {
    let session = PermServer::new().session();
    session
        .run_script(
            "CREATE TABLE users (uid int, name text);
             CREATE TABLE messages (mid int, uid int, text text);
             CREATE TABLE approved (mid int, uid int);",
        )
        .unwrap();
    let mut w = session.catalog_write();
    let users = w.table_mut("users").unwrap();
    for uid in 0..40 {
        users.push_raw(Tuple::new(vec![
            Value::Int(uid),
            Value::text(format!("user {uid}")),
        ]));
    }
    let messages = w.table_mut("messages").unwrap();
    for mid in 0..3000 {
        messages.push_raw(Tuple::new(vec![
            Value::Int(mid),
            Value::Int(mid % 40),
            Value::text(format!("message body {mid}")),
        ]));
    }
    let approved = w.table_mut("approved").unwrap();
    for mid in 0..APPROVED {
        approved.push_raw(Tuple::new(vec![Value::Int(mid), Value::Int(mid % 7)]));
    }
    drop(w);
    session
}

/// Whether `row` owns its storage: detaching it shares it.
fn owns_storage(row: &Tuple) -> bool {
    std::ptr::eq(row.values(), row.detach().values())
}

#[test]
fn a_provenance_join_gathers_its_rows_in_one_block() {
    let _serial = serial();
    let session = forum();
    let prepared = session.prepare(JOIN3).unwrap();
    // Warm up whatever a first execution sets up once.
    prepared.execute().unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = prepared.execute().unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let rows = result.rows.len();
    assert!(rows >= 2000, "{rows} rows");
    assert_eq!(
        result.rows[0].len(),
        3 + 2 + 3 + 2,
        "q's and provenance columns"
    );
    assert!(
        allocations < rows / 4,
        "{allocations} allocations for {rows} rows"
    );
}

#[test]
fn limit_distinct_intersect_and_having_rows_own_their_storage() {
    let _serial = serial();
    let session = forum();
    // Without PROVENANCE the projection is fused into the join, so the
    // `LIMIT` and the DISTINCT read the join's gathered rows.
    let join = JOIN3.replacen("SELECT PROVENANCE", "SELECT", 1);
    let limited = session.query(&format!("{join} LIMIT 3")).unwrap().rows;
    assert_eq!(limited.len(), 3);
    assert!(limited.iter().all(owns_storage));
    let distinct = join.replacen("SELECT", "SELECT DISTINCT", 1);
    let distinct = session.query(&distinct).unwrap().rows;
    assert_eq!(distinct.len(), APPROVED as usize);
    assert!(distinct.iter().all(owns_storage));
    let intersect = format!("{join} INTERSECT {join}");
    let intersect = session.query(&intersect).unwrap().rows;
    assert_eq!(intersect.len(), APPROVED as usize);
    assert!(intersect.iter().all(owns_storage));
    // HAVING: a filter over the aggregate's block of groups.
    let having = "SELECT uid, count(*) FROM approved GROUP BY uid HAVING count(*) > 342";
    let having = session.query(having).unwrap().rows;
    assert_eq!(having.len(), 6, "uids 0..=5 have 343 approvals");
    assert!(having.iter().all(owns_storage));
}

#[test]
fn a_table_created_from_a_join_stores_rows_that_own_their_storage() {
    let _serial = serial();
    let session = forum();
    let join = JOIN3.replacen("SELECT PROVENANCE", "SELECT", 1);
    session
        .execute(&format!("CREATE TABLE kept AS {join}"))
        .unwrap();
    assert_eq!(
        session.snapshot().table("kept").unwrap().row_count(),
        APPROVED as usize
    );
    session.execute("DELETE FROM kept WHERE mid <> 7").unwrap();
    let snapshot = session.snapshot();
    let rows = snapshot.table("kept").unwrap().rows();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get(0), &Value::Int(7));
    assert!(rows.iter().all(owns_storage));
}
