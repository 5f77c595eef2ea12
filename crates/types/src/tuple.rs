//! Runtime tuples, stored in row blocks.
//!
//! A [`Tuple`] is a 16-byte view — a pointer to its first value, its width
//! and its offset — into a refcounted **row block**: one header followed by
//! `n × width` values in one allocation. [`Tuple::new`], `collect`,
//! [`Tuple::concat`] and [`Tuple::nulls`] build one-row blocks; a
//! [`RowBlock`] fills `n` rows of one width, so an operator that gathers
//! a whole output (a join's rows, an aggregate's groups) makes one
//! allocation for it instead of one per row.
//!
//! A block lives until its last row is dropped: one row of a gathered
//! output keeps every row's values alive. A node that passes on only part
//! of its input (`LIMIT`, DISTINCT, `INTERSECT` / `EXCEPT`, a filter over
//! a blocking input) or stores rows (`CREATE TABLE AS`) keeps a row
//! through [`Tuple::detach`] — a refcount bump when the row owns its
//! block, one copy otherwise — so a row's [`Tuple::size_bytes`] still
//! bounds the memory it keeps alive.

use std::alloc::{self, Layout};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::{align_of, size_of};
use std::ptr::{self, NonNull};
use std::sync::atomic::{self, AtomicUsize, Ordering};

use crate::value::Value;

/// What precedes a block's values.
struct Header {
    /// Rows that point into the block, plus those a [`RowBlock`] has yet
    /// to hand out.
    refs: AtomicUsize,
    /// Values written, dropped with the block. Published by the builder
    /// before the block can be freed.
    init: AtomicUsize,
    /// Values allocated.
    cap: usize,
}

/// Byte offset of a block's first value.
const VALUES_AT: usize = size_of::<Header>().next_multiple_of(align_of::<Value>());

/// Alignment of a block.
const BLOCK_ALIGN: usize = if align_of::<Header>() > align_of::<Value>() {
    align_of::<Header>()
} else {
    align_of::<Value>()
};

fn block_layout(cap: usize) -> Layout {
    size_of::<Value>()
        .checked_mul(cap)
        .and_then(|bytes| bytes.checked_add(VALUES_AT))
        .and_then(|size| Layout::from_size_align(size, BLOCK_ALIGN).ok())
        .expect("row block too large")
}

/// Allocate a block for `cap` values, none written, counting `refs`.
fn alloc_block(cap: usize, refs: usize) -> NonNull<Header> {
    // Row offsets and widths are `u32`.
    assert!(u32::try_from(cap).is_ok(), "row block too large");
    let layout = block_layout(cap);
    // SAFETY: the layout is never zero-sized (it holds the header).
    let raw = unsafe { alloc::alloc(layout) };
    let Some(header) = NonNull::new(raw.cast::<Header>()) else {
        alloc::handle_alloc_error(layout)
    };
    // SAFETY: freshly allocated, sized and aligned for a header.
    unsafe {
        header.as_ptr().write(Header {
            refs: AtomicUsize::new(refs),
            init: AtomicUsize::new(0),
            cap,
        });
    }
    header
}

/// The first value slot of the block at `header`.
fn values_of(header: NonNull<Header>) -> NonNull<Value> {
    // SAFETY: `VALUES_AT` is inside the block's allocation (at its end
    // for a block of no values).
    unsafe { header.cast::<u8>().add(VALUES_AT).cast::<Value>() }
}

/// One more reference to a block, counted in `refs`. A new reference is
/// made from an existing one, so no ordering is needed (as
/// `Arc::clone`).
fn retain(refs: &AtomicUsize) {
    if refs.fetch_add(1, Ordering::Relaxed) > isize::MAX as usize {
        std::process::abort();
    }
}

/// Drop `refs` references to the block at `header`; the last one drops
/// the written values and frees the block.
///
/// # Safety
///
/// SAFETY: the caller must own those references, and gives them up.
unsafe fn release(header: NonNull<Header>, refs: usize) {
    // SAFETY: the caller's reference keeps the header alive.
    let h = unsafe { header.as_ref() };
    if h.refs.fetch_sub(refs, Ordering::Release) != refs {
        return;
    }
    // Every other holder's accesses happen before the free.
    atomic::fence(Ordering::Acquire);
    let (init, cap) = (h.init.load(Ordering::Relaxed), h.cap);
    // SAFETY: no reference is left; the first `init` values were written
    // and are dropped exactly once, then the block is deallocated with
    // the layout it was allocated with.
    unsafe {
        ptr::drop_in_place(ptr::slice_from_raw_parts_mut(
            values_of(header).as_ptr(),
            init,
        ));
        alloc::dealloc(header.as_ptr().cast::<u8>(), block_layout(cap));
    }
}

/// A row of values: a view into a refcounted row block (module docs).
///
/// Equality and hashing inherit [`Value`]'s grouping semantics
/// (NULL == NULL), which is what hash-based grouping, duplicate elimination
/// and NULL-safe provenance join-backs require.
///
/// Cloning a tuple — which the executor does in scans, `LIMIT`/`DISTINCT`,
/// join build sides and sort buffers — is a single refcount bump on its
/// block, never a per-value copy. Tuples are immutable once built, so
/// sharing is always safe. [`Tuple::values`] is a pointer-and-length read.
pub struct Tuple {
    /// The row's first value.
    row: NonNull<Value>,
    len: u32,
    /// Values before the row in its block.
    offset: u32,
}

const _: () = assert!(size_of::<Tuple>() == 16);

// SAFETY: `row` points at immutable `Value`s (themselves `Send + Sync`)
// kept alive by the block's atomic refcount, which any thread may bump or
// drop; `len` and `offset` are plain integers.
unsafe impl Send for Tuple {}
// SAFETY: as above; `&Tuple` only reads the values and bumps the count.
unsafe impl Sync for Tuple {}

/// The empty tuple's block, a static, so `Tuple::empty()` in hot loops
/// (global aggregates, VALUES evaluation) never allocates. Its count
/// starts at one that no row owns, so it is never freed.
static EMPTY: Header = Header {
    refs: AtomicUsize::new(1),
    init: AtomicUsize::new(0),
    cap: 0,
};

impl Tuple {
    pub fn new(mut values: Vec<Value>) -> Tuple {
        let n = values.len();
        if n == 0 {
            return Tuple::empty();
        }
        let header = alloc_block(n, 1);
        let row = values_of(header);
        // SAFETY: the block has room for `n` values; they move in one
        // copy and the vector forgets them.
        unsafe {
            ptr::copy_nonoverlapping(values.as_ptr(), row.as_ptr(), n);
            values.set_len(0);
            header.as_ref().init.store(n, Ordering::Relaxed);
        }
        Tuple {
            row,
            len: n as u32,
            offset: 0,
        }
    }

    /// The empty tuple (used by aggregates without GROUP BY).
    pub fn empty() -> Tuple {
        retain(&EMPTY.refs);
        Tuple {
            row: values_of(NonNull::from(&EMPTY)),
            len: 0,
            offset: 0,
        }
    }

    fn header(&self) -> NonNull<Header> {
        // SAFETY: the row sits `offset` values past its block's first
        // value, which sits `VALUES_AT` bytes past the header.
        unsafe {
            self.row
                .sub(self.offset as usize)
                .cast::<u8>()
                .sub(VALUES_AT)
                .cast::<Header>()
        }
    }

    pub fn values(&self) -> &[Value] {
        // SAFETY: the row's `len` values are written and live as long as
        // this reference to its block.
        unsafe { std::slice::from_raw_parts(self.row.as_ptr(), self.len as usize) }
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn get(&self, i: usize) -> &Value {
        &self.values()[i]
    }

    /// This row, kept on its own: the same storage when the row owns its
    /// block (a refcount bump), else a one-row copy, so keeping it does
    /// not keep the rest of a gathered output alive.
    pub fn detach(&self) -> Tuple {
        // SAFETY: this row keeps its header alive.
        let cap = unsafe { self.header().as_ref() }.cap;
        if cap == self.len() {
            self.clone()
        } else {
            self.iter().cloned().collect()
        }
    }

    /// Concatenate two tuples (join output): one block, filled in place —
    /// no intermediate vector.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let values = self.iter().chain(other.iter()).cloned();
        RowBlock::new(1, self.len() + other.len()).push(values)
    }

    /// Project onto the given positions. Allocates once (the iterator's
    /// length is known up front).
    pub fn project(&self, indexes: &[usize]) -> Tuple {
        indexes.iter().map(|&i| self.get(i).clone()).collect()
    }

    /// A tuple of `n` NULLs — the padding Perm's set-operation and outer-join
    /// rewrites attach for non-contributing provenance attributes.
    pub fn nulls(n: usize) -> Tuple {
        std::iter::repeat_n(Value::Null, n).collect()
    }

    /// Recover an owned value vector. The values themselves share their
    /// payloads, so this is an allocation plus refcount bumps, never a
    /// deep copy.
    pub fn into_values(self) -> Vec<Value> {
        self.values().to_vec()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.values().iter()
    }

    /// Approximate heap footprint of this row in bytes (see
    /// [`Value::size_bytes`]): its values plus two words of overhead,
    /// charged to every holder. This is what buffering operators grow
    /// their memory reservations by per stored row; a row kept through
    /// [`Tuple::detach`] keeps no more than this alive.
    pub fn size_bytes(&self) -> usize {
        2 * size_of::<usize>() + self.iter().map(Value::size_bytes).sum::<usize>()
    }
}

impl Clone for Tuple {
    fn clone(&self) -> Tuple {
        // SAFETY: this row keeps its header alive.
        retain(&unsafe { self.header().as_ref() }.refs);
        Tuple {
            row: self.row,
            len: self.len,
            offset: self.offset,
        }
    }
}

impl Drop for Tuple {
    fn drop(&mut self) {
        // SAFETY: this row owns one of its block's references.
        unsafe { release(self.header(), 1) }
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Tuple) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Tuple {}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tuple")
            .field("values", &self.values())
            .finish()
    }
}

impl Default for Tuple {
    fn default() -> Tuple {
        Tuple::empty()
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Tuple {
        Tuple::new(values)
    }
}

impl FromIterator<Value> for Tuple {
    /// Collect values into a tuple. An iterator that knows its exact
    /// length (e.g. a mapped slice iterator) fills a one-row block in one
    /// allocation — the executor's hot row-building paths rely on this;
    /// any other is collected first.
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Tuple {
        let mut iter = iter.into_iter();
        let n = match iter.size_hint() {
            (n, Some(m)) if n == m && n > 0 => n,
            _ => return Tuple::new(iter.collect()),
        };
        let row = RowBlock::new(1, n).push(iter.by_ref());
        match iter.next() {
            None => row,
            // The iterator was longer than it said.
            Some(more) => {
                let mut values = row.into_values();
                values.push(more);
                values.extend(iter);
                Tuple::new(values)
            }
        }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Builds up to `rows` tuples of `width` values in one row block (module
/// docs): [`RowBlock::push`] fills the next row and returns it. The
/// block is freed when the builder and every row it handed out are
/// dropped; a fill that panics or stops partway drops each value it wrote
/// exactly once.
pub struct RowBlock {
    /// Dangling for a builder of no rows, which never allocates.
    header: NonNull<Header>,
    width: usize,
    /// Rows the block has room for. The ones not yet handed out are
    /// counted in the block's `refs` for the builder.
    rows: usize,
    handed: usize,
    /// Values written so far.
    init: usize,
}

// SAFETY: `header` points at a block whose refcount is atomic; the
// builder writes values only through `&mut self`, into slots no handed-out
// row covers, and the counters are plain integers it alone owns.
unsafe impl Send for RowBlock {}
// SAFETY: `&RowBlock` exposes nothing.
unsafe impl Sync for RowBlock {}

impl RowBlock {
    /// A builder for `rows` rows of `width` values, allocated at once.
    pub fn new(rows: usize, width: usize) -> RowBlock {
        let header = match rows {
            0 => NonNull::dangling(),
            _ => alloc_block(rows.checked_mul(width).expect("row block too large"), rows),
        };
        RowBlock {
            header,
            width,
            rows,
            handed: 0,
            init: 0,
        }
    }

    /// Fill the next row with the first `width` values of `values` and
    /// return it. Panics if every row was handed out or `values` runs out
    /// first (what it wrote stays in the block, dropped with it).
    pub fn push(&mut self, values: impl IntoIterator<Item = Value>) -> Tuple {
        let start = self.init;
        assert!(
            self.handed < self.rows && start + self.width <= self.rows * self.width,
            "row block is full"
        );
        // SAFETY: `start + width` values fit in the block.
        let row = unsafe { values_of(self.header).add(start) };
        let mut values = values.into_iter();
        for i in 0..self.width {
            let v = values.next().expect("fewer values than the block's width");
            // SAFETY: slot `start + i` is in the block and not yet written.
            unsafe { row.add(i).write(v) };
            self.init += 1;
        }
        // The row's reference passes to the caller; the block may be
        // freed once the last row is out, so publish what it holds first.
        // SAFETY: the builder still holds this row's reference.
        unsafe { self.header.as_ref() }
            .init
            .store(self.init, Ordering::Relaxed);
        self.handed += 1;
        Tuple {
            row,
            len: self.width as u32,
            offset: start as u32,
        }
    }
}

impl Drop for RowBlock {
    fn drop(&mut self) {
        let unused = self.rows - self.handed;
        if unused == 0 {
            return;
        }
        // SAFETY: the builder holds the `unused` rows' references.
        unsafe {
            self.header
                .as_ref()
                .init
                .store(self.init, Ordering::Relaxed);
            release(self.header, unused);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    #[test]
    fn concat_and_project() {
        let a = Tuple::new(vec![Value::Int(1), Value::text("x")]);
        let b = Tuple::new(vec![Value::Bool(true)]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 3);
        assert_eq!(
            c.project(&[2, 0]).values(),
            &[Value::Bool(true), Value::Int(1)]
        );
    }

    #[test]
    fn nulls_padding() {
        let t = Tuple::nulls(3);
        assert_eq!(t.len(), 3);
        assert!(t.iter().all(Value::is_null));
    }

    #[test]
    fn grouping_equality_includes_nulls() {
        let a = Tuple::new(vec![Value::Null, Value::Int(1)]);
        let b = Tuple::new(vec![Value::Null, Value::Int(1)]);
        assert_eq!(a, b);
    }

    #[test]
    fn display() {
        let t = Tuple::new(vec![Value::Int(1), Value::Null, Value::text("hi")]);
        assert_eq!(t.to_string(), "(1, null, hi)");
    }

    #[test]
    fn clone_shares_storage() {
        let a = Tuple::new(vec![Value::Int(1), Value::text("payload")]);
        let b = a.clone();
        assert!(std::ptr::eq(a.values(), b.values()), "clone is a share");
        assert_eq!(a, b);
    }

    #[test]
    fn into_values_round_trips() {
        let a = Tuple::new(vec![Value::Int(7), Value::text("x")]);
        let kept = a.clone();
        assert_eq!(a.into_values(), vec![Value::Int(7), Value::text("x")]);
        assert_eq!(kept.get(0), &Value::Int(7));
    }

    #[test]
    fn size_accounting_charges_text_payloads() {
        let narrow = Tuple::new(vec![Value::Int(1), Value::Null]);
        let wide = Tuple::new(vec![Value::Int(1), Value::text("0123456789")]);
        assert!(narrow.size_bytes() > 0);
        assert!(
            wide.size_bytes() >= narrow.size_bytes() + 10,
            "text payload must be charged: {} vs {}",
            wide.size_bytes(),
            narrow.size_bytes()
        );
        // Clones share storage but each holder is charged in full.
        assert_eq!(wide.clone().size_bytes(), wide.size_bytes());
    }

    #[test]
    fn collects_from_iterator() {
        let t: Tuple = (0..3).map(Value::Int).collect();
        assert_eq!(t.values(), &[Value::Int(0), Value::Int(1), Value::Int(2)]);
        let odd: Tuple = (0..5).filter(|i| i % 2 == 1).map(Value::Int).collect();
        assert_eq!(odd.values(), &[Value::Int(1), Value::Int(3)]);
    }

    /// An iterator whose exact size hint is one short.
    struct Longer(std::vec::IntoIter<Value>);

    impl Iterator for Longer {
        type Item = Value;
        fn next(&mut self) -> Option<Value> {
            self.0.next()
        }
        fn size_hint(&self) -> (usize, Option<usize>) {
            let n = self.0.len().saturating_sub(1);
            (n, Some(n))
        }
    }

    #[test]
    fn an_iterator_longer_than_its_hint_is_collected_whole() {
        let values = vec![Value::Int(1), Value::text("x"), Value::Int(3)];
        let t: Tuple = Longer(values.clone().into_iter()).collect();
        assert_eq!(t.values(), values.as_slice());
    }

    /// `n` rows of `width` values from one block, each value a clone of
    /// `payload` (or its row and column number).
    fn block(n: usize, width: usize, payload: &Arc<str>) -> Vec<Tuple> {
        let mut b = RowBlock::new(n, width);
        (0..n)
            .map(|r| {
                b.push((0..width).map(|c| match c {
                    0 => Value::Int((r * width) as i64),
                    _ => Value::Text(Arc::clone(payload)),
                }))
            })
            .collect()
    }

    #[test]
    fn block_rows_are_the_values_pushed() {
        let s: Arc<str> = Arc::from("payload");
        let rows = block(4, 3, &s);
        for (r, t) in rows.iter().enumerate() {
            assert_eq!(t.len(), 3);
            assert_eq!(t.get(0), &Value::Int(3 * r as i64));
            assert_eq!(t.get(2), &Value::Text(Arc::clone(&s)));
        }
        assert_eq!(Arc::strong_count(&s), 1 + 4 * 2);
        drop(rows);
        assert_eq!(Arc::strong_count(&s), 1, "every value dropped once");
    }

    #[test]
    fn block_rows_are_cloned_and_dropped_across_threads() {
        let s: Arc<str> = Arc::from("shared");
        let rows = block(6, 2, &s);
        let (mut even, mut odd) = (Vec::new(), Vec::new());
        for (i, t) in rows.iter().enumerate() {
            [&mut even, &mut odd][i % 2].push(t.clone());
        }
        let handles = [even, odd].map(|mine| {
            std::thread::spawn(move || {
                let copies: Vec<Tuple> = mine.to_vec();
                let n = copies.iter().map(Tuple::len).sum::<usize>();
                drop(mine);
                (n, copies)
            })
        });
        // The originals go first, while the threads still hold copies.
        drop(rows);
        let mut kept = Vec::new();
        for h in handles {
            let (n, copies) = h.join().unwrap();
            assert_eq!(n, 6);
            kept.extend(copies);
        }
        assert_eq!(Arc::strong_count(&s), 1 + 6);
        // Dropped out of order, the last one frees the block.
        kept.swap(0, 5);
        kept.reverse();
        drop(kept);
        assert_eq!(Arc::strong_count(&s), 1);
    }

    #[test]
    fn zero_width_rows_and_empty_blocks() {
        let mut b = RowBlock::new(3, 0);
        let rows: Vec<Tuple> = (0..3).map(|_| b.push(std::iter::empty())).collect();
        drop(b);
        assert!(rows.iter().all(|t| t.is_empty() && *t == Tuple::empty()));
        assert_eq!(rows[1].to_string(), "()");
        drop(rows);
        // No rows: nothing is allocated, nothing handed out.
        drop(RowBlock::new(0, 5));
        // Room for rows that never come.
        drop(RowBlock::new(4, 2));
        assert!(Tuple::new(Vec::new()).is_empty());
        assert!(Tuple::nulls(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "row block is full")]
    fn a_full_block_refuses_another_row() {
        let mut b = RowBlock::new(1, 1);
        let _row = b.push([Value::Int(1)]);
        b.push([Value::Int(2)]);
    }

    #[test]
    fn a_fill_that_stops_or_panics_drops_each_written_value_once() {
        let s: Arc<str> = Arc::from("counted");
        let text = || Value::Text(Arc::clone(&s));
        // Stops partway: two of five rows, then the builder is dropped.
        let mut b = RowBlock::new(5, 2);
        let kept = [b.push([text(), text()]), b.push([text(), text()])];
        drop(b);
        assert_eq!(Arc::strong_count(&s), 1 + 4);
        drop(kept);
        assert_eq!(Arc::strong_count(&s), 1);

        // Panics inside a row's values: one written, then the panic.
        let mut b = RowBlock::new(3, 3);
        let first = b.push([text(), text(), text()]);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            b.push((0..3).map(|i| if i < 1 { text() } else { panic!("fill") }));
        }));
        assert!(panicked.is_err());
        assert_eq!(Arc::strong_count(&s), 1 + 3 + 1);
        drop(b);
        assert_eq!(Arc::strong_count(&s), 1 + 3 + 1, "the row keeps the block");
        drop(first);
        assert_eq!(Arc::strong_count(&s), 1);

        // Runs out of values: the short row is not handed out.
        let mut b = RowBlock::new(1, 2);
        let short = catch_unwind(AssertUnwindSafe(|| b.push([text()])));
        assert!(short.is_err());
        drop(b);
        assert_eq!(Arc::strong_count(&s), 1);
    }

    #[test]
    fn a_block_row_is_indistinguishable_from_a_new_tuple() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |t: &Tuple| {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        };
        let s: Arc<str> = Arc::from("text");
        let rows = block(3, 3, &s);
        let row = &rows[1];
        let new = Tuple::new(row.values().to_vec());
        assert_eq!(row, &new);
        assert_eq!(hash(row), hash(&new));
        assert_eq!(format!("{row:?}"), format!("{new:?}"));
        assert_eq!(row.to_string(), new.to_string());
        assert_eq!(row.size_bytes(), new.size_bytes());
        assert_ne!(row, &rows[0]);
    }

    #[test]
    fn detach_shares_an_owned_row_and_copies_a_block_row() {
        let s: Arc<str> = Arc::from("x");
        let owned = Tuple::new(vec![Value::Int(1), Value::Text(Arc::clone(&s))]);
        assert!(std::ptr::eq(owned.values(), owned.detach().values()));
        let rows = block(3, 2, &s);
        let detached = rows[1].detach();
        assert_eq!(detached, rows[1]);
        assert!(!std::ptr::eq(detached.values(), rows[1].values()));
        assert!(std::ptr::eq(detached.values(), detached.detach().values()));
        // One row of one block owns it, and so does a concatenation.
        let one = block(1, 2, &s).pop().unwrap();
        assert!(std::ptr::eq(one.values(), one.detach().values()));
        let joined = owned.concat(&one);
        assert!(std::ptr::eq(joined.values(), joined.detach().values()));
        drop(rows);
        assert_eq!(detached.get(1), &Value::Text(Arc::clone(&s)));
    }
}
