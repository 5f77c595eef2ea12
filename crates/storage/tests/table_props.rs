//! Property tests on the storage substrate: index/scan agreement,
//! insert validation, and statistics and indexes that writes maintain in
//! place, under random data.

use proptest::prelude::*;

use std::time::{Duration, Instant};

use perm_storage::{Catalog, Table, TableStats};
use perm_types::{Column, DataType, Schema, Tuple, Value};

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("v", DataType::Text),
    ])
}

/// A `k` column of unknown type, so `Int(2)` and `Float(2.0)` are both
/// stored as given (equal keys, different representations), and a text
/// payload.
fn mixed_schema() -> Schema {
    Schema::new(vec![
        Column::new("k", DataType::Unknown),
        Column::new("v", DataType::Text),
    ])
}

/// A key drawn from a small domain, so duplicates, collisions between
/// `Int(n)` and `Float(n)`, and removals of the current min/max are common.
fn key((kind, n): (u8, i64)) -> Value {
    match kind {
        0 => Value::Int(n),
        1 => Value::Float(n as f64),
        _ => Value::Null,
    }
}

fn row(k: Value, v: i64) -> Tuple {
    Tuple::new(vec![k, Value::text(format!("v{v}"))])
}

/// `v + 1` for a number, NULL for NULL.
fn shifted(v: &Value) -> Value {
    match v {
        Value::Int(n) => Value::Int(n + 1),
        Value::Float(f) => Value::Float(f + 1.0),
        _ => Value::Null,
    }
}

/// Every index of `t` lists the same ids in the same order as a freshly
/// built one.
fn assert_indexes_rebuilt(t: &Table) {
    let fresh = rebuilt(t);
    for c in t.index_columns() {
        let (got, want) = (t.index_on(c).unwrap(), fresh.index_on(c).unwrap());
        assert_eq!(got.distinct_keys(), want.distinct_keys());
        for r in t.rows() {
            assert_eq!(got.lookup(r.get(c)), want.lookup(r.get(c)));
        }
    }
}

/// The same rows, loaded into a fresh table with freshly built indexes.
fn rebuilt(t: &Table) -> Table {
    let mut fresh = Table::new("fresh", t.schema().clone());
    for r in t.rows() {
        fresh.push_raw(r.clone());
    }
    for c in t.index_columns() {
        fresh.create_index(c).unwrap();
    }
    fresh
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Statistics maintained through any interleaving of insert, NULL
    /// insert, update, delete and truncate equal a fresh computation, at
    /// random points (which is also when the cache is first filled, so
    /// writes run both before and after the statistics exist).
    #[test]
    fn maintained_stats_equal_a_fresh_compute(ops in prop::collection::vec(
        (0u8..22, (0u8..3, -3i64..4), 0usize..64, 0u8..4), 0..80,
    )) {
        let mut t = Table::new("t", mixed_schema());
        for (op, k, at, check) in ops {
            let n = t.row_count();
            match op {
                0..=5 => t.insert(row(key(k), at as i64 % 3)).unwrap(),
                6 => t.insert(row(Value::Null, 0)).unwrap(),
                7..=10 if n > 0 => {
                    let old = t.rows()[at % n].get(1).clone();
                    t.update_rows(vec![(at % n, Tuple::new(vec![key(k), old]))]).unwrap();
                }
                11 if n > 0 => {
                    let k = t.rows()[at % n].get(0).clone();
                    t.update_rows(vec![(at % n, Tuple::new(vec![k, Value::Null]))]).unwrap();
                }
                12..=14 if n > 0 => {
                    t.delete_rows(&[at % n]);
                }
                15..=17 => {
                    // Every row holding the current min or max of `k`.
                    let stats = TableStats::compute(t.schema(), t.rows());
                    let extreme = if op == 15 { &stats.columns[0].max } else { &stats.columns[0].min };
                    let doomed: Vec<usize> = (0..n)
                        .filter(|&i| Some(t.rows()[i].get(0)) == extreme.as_ref())
                        .collect();
                    t.delete_rows(&doomed);
                }
                18 => t.truncate(),
                19 => {
                    // One statement shifting every key up, so rows in
                    // storage order may each drop the current min.
                    let updates = (0..n)
                        .map(|i| {
                            let r = &t.rows()[i];
                            (i, Tuple::new(vec![shifted(r.get(0)), r.get(1).clone()]))
                        })
                        .collect();
                    t.update_rows(updates).unwrap();
                }
                20 => {
                    t.delete_rows(&(0..n).collect::<Vec<_>>());
                }
                _ => {}
            }
            if check == 0 {
                prop_assert_eq!(t.stats(), &TableStats::compute(t.schema(), t.rows()));
            }
        }
        prop_assert_eq!(t.stats(), &TableStats::compute(t.schema(), t.rows()));
    }

    /// After random updates (and inserts between them), every index
    /// equals a freshly built one: the same keys, the same row-id lists in
    /// the same order.
    #[test]
    fn updated_indexes_equal_rebuilt_ones(
        rows in prop::collection::vec(((0u8..3, -3i64..4), 0i64..3), 0..40),
        ops in prop::collection::vec(
            (0u8..5, prop::collection::vec((0usize..64, (0u8..3, -3i64..4)), 1..4)),
            0..30,
        ),
    ) {
        let mut t = Table::new("t", mixed_schema());
        t.create_index(0).unwrap();
        t.create_index(1).unwrap();
        for (k, v) in rows {
            t.insert(row(key(k), v)).unwrap();
        }
        for (op, targets) in ops {
            let n = t.row_count();
            if op == 0 || n == 0 {
                t.insert(row(key(targets[0].1), 0)).unwrap();
                continue;
            }
            if op == 4 {
                // Every row in one statement, onto two keys.
                let updates = (0..n).map(|i| (i, row(Value::Int(i as i64 % 2), 0))).collect();
                t.update_rows(updates).unwrap();
                continue;
            }
            let updates = targets
                .into_iter()
                .map(|(at, k)| {
                    let v = (at % 3) as i64;
                    (at % n, if op == 1 { row(t.rows()[at % n].get(0).clone(), v) } else { row(key(k), v) })
                })
                .collect();
            t.update_rows(updates).unwrap();
        }
        assert_indexes_rebuilt(&t);
    }

    /// After random deletes (and inserts between them), every index
    /// equals a freshly built one: removed ids gone, the rest renumbered,
    /// each list still ascending.
    #[test]
    fn deleted_indexes_equal_rebuilt_ones(
        rows in prop::collection::vec(((0u8..3, -3i64..4), 0i64..3), 0..40),
        ops in prop::collection::vec(
            (0u8..4, prop::collection::vec((0usize..64, (0u8..3, -3i64..4)), 1..6)),
            0..30,
        ),
    ) {
        let mut t = Table::new("t", mixed_schema());
        t.create_index(0).unwrap();
        t.create_index(1).unwrap();
        for (k, v) in rows {
            t.insert(row(key(k), v)).unwrap();
        }
        for (op, targets) in ops {
            let n = t.row_count();
            match op {
                _ if n == 0 => t.insert(row(key(targets[0].1), 0)).unwrap(),
                0 => t.insert(row(key(targets[0].1), targets[0].0 as i64 % 3)).unwrap(),
                // Every row holding one key, as `DELETE ... WHERE k = c`.
                1 => {
                    let k = key(targets[0].1);
                    let doomed: Vec<usize> = (0..n).filter(|&i| t.rows()[i].get(0) == &k).collect();
                    t.delete_rows(&doomed);
                }
                // Scattered positions, repeats included.
                _ => {
                    let doomed: Vec<usize> = targets.iter().map(|(at, _)| at % n).collect();
                    t.delete_rows(&doomed);
                }
            }
            assert_indexes_rebuilt(&t);
        }
    }

    /// An index point-lookup returns exactly the rows a scan finds,
    /// regardless of whether the index was built before or after loading.
    #[test]
    fn index_agrees_with_scan(
        rows in prop::collection::vec((-10i64..10, "[a-c]{0,2}"), 0..60),
        probe in -12i64..12,
        build_first in any::<bool>(),
    ) {
        let mut t = Table::new("t", schema());
        if build_first {
            t.create_index(0).unwrap();
        }
        for (k, v) in &rows {
            t.insert(Tuple::new(vec![Value::Int(*k), Value::text(v.as_str())]))
                .unwrap();
        }
        if !build_first {
            t.create_index(0).unwrap();
        }
        let key = Value::Int(probe);
        let via_index: Vec<&Tuple> = t
            .index_lookup(0, &key)
            .unwrap()
            .iter()
            .map(|&r| &t.rows()[r])
            .collect();
        let via_scan: Vec<&Tuple> = t.rows().iter().filter(|r| r.get(0) == &key).collect();
        prop_assert_eq!(via_index, via_scan);
    }

    /// Statistics are exact for row counts, null counts and distincts.
    #[test]
    fn stats_are_exact(rows in prop::collection::vec(
        proptest::option::of(-5i64..5), 0..50,
    )) {
        let mut t = Table::new("t", Schema::new(vec![Column::new("k", DataType::Int)]));
        for k in &rows {
            let v = k.map(Value::Int).unwrap_or(Value::Null);
            t.insert(Tuple::new(vec![v])).unwrap();
        }
        let stats = t.stats();
        prop_assert_eq!(stats.row_count, rows.len());
        let nulls = rows.iter().filter(|k| k.is_none()).count();
        prop_assert_eq!(stats.columns[0].null_count, nulls);
        let mut distinct: Vec<i64> = rows.iter().flatten().copied().collect();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(stats.columns[0].n_distinct, distinct.len());
        if let Some(&min) = distinct.first() {
            prop_assert_eq!(stats.columns[0].min.clone(), Some(Value::Int(min)));
            prop_assert_eq!(
                stats.columns[0].max.clone(),
                Some(Value::Int(*distinct.last().unwrap()))
            );
        }
    }

    /// Catalog create/drop round-trips never corrupt other relations.
    #[test]
    fn catalog_is_isolated_per_relation(names in prop::collection::vec("[a-e]{1,3}", 1..8)) {
        let mut cat = Catalog::new();
        let mut live: Vec<String> = Vec::new();
        for n in &names {
            if cat.get(n).is_none() {
                cat.create_table(Table::new(n.clone(), schema())).unwrap();
                live.push(n.to_ascii_lowercase());
            } else {
                // Duplicate create must fail and change nothing.
                prop_assert!(cat.create_table(Table::new(n.clone(), schema())).is_err());
            }
        }
        live.sort();
        live.dedup();
        prop_assert_eq!(cat.len(), live.len());
        for n in &live {
            prop_assert!(cat.table(n).is_ok());
        }
        // Drop them all; catalog ends empty.
        for n in &live {
            prop_assert!(cat.drop_table(n, false).unwrap());
        }
        prop_assert!(cat.is_empty());
    }
}

/// Bulk DML against cached statistics stays linear and exact.
/// `UPDATE t SET id = id + N, flag = 1 - flag` and then `DELETE FROM t`
/// each drop the current min of `id` at every row, in storage order, and
/// the update moves every row between the two keys of the indexed `flag`.
/// Each statement rescans a column's distinct values at most once, so
/// both take about a second unoptimized; a rescan per removed extreme
/// (O(n²) key visits) takes about ten minutes.
#[test]
fn bulk_dml_against_cached_statistics_stays_linear() {
    const N: usize = 100_000;
    let mut t = Table::new(
        "t",
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("flag", DataType::Int),
        ]),
    );
    t.create_index(1).unwrap();
    for i in 0..N as i64 {
        t.push_raw(Tuple::new(vec![Value::Int(i), Value::Int(i % 2)]));
    }
    assert_eq!(
        t.stats().row_count,
        N,
        "statistics cached before the writes"
    );

    let updates = t
        .rows()
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let (Value::Int(id), Value::Int(flag)) = (r.get(0), r.get(1)) else {
                unreachable!("integer rows")
            };
            (
                i,
                Tuple::new(vec![Value::Int(id + N as i64), Value::Int(1 - flag)]),
            )
        })
        .collect();
    let start = Instant::now();
    t.update_rows(updates).unwrap();
    let mut spent = start.elapsed();
    assert_eq!(t.stats(), &TableStats::compute(t.schema(), t.rows()));
    assert_eq!(t.stats().columns[0].min, Some(Value::Int(N as i64)));
    assert_indexes_rebuilt(&t);

    let start = Instant::now();
    assert_eq!(t.delete_rows(&(0..N).collect::<Vec<_>>()), N);
    spent += start.elapsed();
    assert_eq!(t.stats(), &TableStats::compute(t.schema(), t.rows()));
    assert_eq!(t.stats().columns[0].min, None);
    assert!(
        spent < Duration::from_secs(10),
        "bulk UPDATE + DELETE took {spent:?}"
    );
}
