//! The catalog: named tables and views.

use std::collections::BTreeMap;
use std::sync::Arc;

use perm_sql::Query;
use perm_types::{PermError, Result, Schema};

use crate::table::Table;
use crate::view::View;

/// A catalog entry.
#[derive(Debug, Clone)]
pub enum Relation {
    Table(Table),
    View(View),
}

impl Relation {
    pub fn name(&self) -> &str {
        match self {
            Relation::Table(t) => t.name(),
            Relation::View(v) => v.name(),
        }
    }

    pub fn is_view(&self) -> bool {
        matches!(self, Relation::View(_))
    }
}

/// The database catalog. Names are case-insensitive (folded to lower case,
/// like PostgreSQL's unquoted identifiers) and shared between tables and
/// views, so a view cannot shadow a table.
///
/// Each relation sits behind its own [`Arc`]: cloning a catalog copies a
/// map of pointers, and [`Catalog::table_mut`] copies only the table it
/// hands out, and only if another catalog still shares it.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    relations: BTreeMap<String, Arc<Relation>>,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    /// Register a new table.
    pub fn create_table(&mut self, table: Table) -> Result<()> {
        let key = Self::key(table.name());
        if self.relations.contains_key(&key) {
            return Err(PermError::Catalog(format!(
                "relation '{}' already exists",
                table.name()
            )));
        }
        self.relations.insert(key, Arc::new(Relation::Table(table)));
        Ok(())
    }

    /// Register a new view.
    pub fn create_view(&mut self, name: impl Into<String>, definition: Query) -> Result<()> {
        let name = name.into();
        let view = View::new(name, definition);
        self.install_view(view)
    }

    /// Register a new view that remembers its defining SQL text, which is
    /// what lets durable checkpoints persist it.
    pub fn create_view_with_sql(
        &mut self,
        name: impl Into<String>,
        definition: Query,
        sql: impl Into<String>,
    ) -> Result<()> {
        let view = View::with_sql(name, definition, sql);
        self.install_view(view)
    }

    fn install_view(&mut self, view: View) -> Result<()> {
        let key = Self::key(view.name());
        if self.relations.contains_key(&key) {
            return Err(PermError::Catalog(format!(
                "relation '{}' already exists",
                view.name()
            )));
        }
        self.relations.insert(key, Arc::new(Relation::View(view)));
        Ok(())
    }

    /// Drop a table. `if_exists` suppresses the unknown-name error.
    /// Dropping a view through `DROP TABLE` is an error, as in PostgreSQL.
    pub fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<bool> {
        self.drop_kind(name, if_exists, false)
    }

    /// Drop a view.
    pub fn drop_view(&mut self, name: &str, if_exists: bool) -> Result<bool> {
        self.drop_kind(name, if_exists, true)
    }

    fn drop_kind(&mut self, name: &str, if_exists: bool, want_view: bool) -> Result<bool> {
        let key = Self::key(name);
        match self.relations.get(&key) {
            None if if_exists => Ok(false),
            None => Err(PermError::Catalog(format!(
                "relation '{name}' does not exist"
            ))),
            Some(rel) if rel.is_view() != want_view => Err(PermError::Catalog(format!(
                "'{name}' is a {}, not a {}",
                if rel.is_view() { "view" } else { "table" },
                if want_view { "view" } else { "table" },
            ))),
            Some(_) => {
                self.relations.remove(&key);
                Ok(true)
            }
        }
    }

    /// Look up any relation.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.relations.get(&Self::key(name)).map(Arc::as_ref)
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.table_by_key(&Self::key(name))
    }

    /// The internal lookup key for `name` (its case-folded form). Pair
    /// with [`Catalog::table_by_key`] when the same relation is resolved
    /// many times — e.g. the streaming executor re-resolves its scan
    /// table on every pull — to avoid re-folding the name per call.
    pub fn key_of(name: &str) -> String {
        Self::key(name)
    }

    /// Table lookup by a pre-computed [`Catalog::key_of`] key
    /// (allocation-free).
    pub fn table_by_key(&self, key: &str) -> Result<&Table> {
        match self.relations.get(key).map(Arc::as_ref) {
            Some(Relation::Table(t)) => Ok(t),
            Some(Relation::View(_)) => Err(PermError::Catalog(format!(
                "'{key}' is a view, not a table"
            ))),
            None => Err(PermError::Catalog(format!(
                "relation '{key}' does not exist"
            ))),
        }
    }

    /// Mutable table access (INSERT, materialization, index creation).
    /// Copies the table first if another catalog (a snapshot) shares it.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        match self.relations.get_mut(&Self::key(name)).map(Arc::make_mut) {
            Some(Relation::Table(t)) => Ok(t),
            Some(Relation::View(_)) => Err(PermError::Catalog(format!(
                "'{name}' is a view, not a table"
            ))),
            None => Err(PermError::Catalog(format!(
                "relation '{name}' does not exist"
            ))),
        }
    }

    /// Look up a view.
    pub fn view(&self, name: &str) -> Result<&View> {
        match self.get(name) {
            Some(Relation::View(v)) => Ok(v),
            Some(Relation::Table(_)) => Err(PermError::Catalog(format!(
                "'{name}' is a table, not a view"
            ))),
            None => Err(PermError::Catalog(format!(
                "relation '{name}' does not exist"
            ))),
        }
    }

    /// The schema of a table (views have no stored schema; they are
    /// unfolded and re-analyzed per use).
    pub fn table_schema(&self, name: &str) -> Result<&Schema> {
        Ok(self.table(name)?.schema())
    }

    /// Names of all relations, sorted.
    pub fn relation_names(&self) -> Vec<&str> {
        self.relations.values().map(|r| r.name()).collect()
    }

    /// Every relation, in sorted key order (deterministic — checkpoints
    /// of equal catalogs are byte-identical).
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values().map(Arc::as_ref)
    }

    pub fn len(&self) -> usize {
        self.relations.len()
    }

    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_sql::parse_statement;
    use perm_types::{Column, DataType};

    fn table(name: &str) -> Table {
        Table::new(name, Schema::new(vec![Column::new("x", DataType::Int)]))
    }

    fn some_query() -> Query {
        match parse_statement("SELECT 1").unwrap() {
            perm_sql::Statement::Query(q) => q,
            _ => unreachable!(),
        }
    }

    #[test]
    fn create_and_lookup_case_insensitive() {
        let mut c = Catalog::new();
        c.create_table(table("Messages")).unwrap();
        assert!(c.table("messages").is_ok());
        assert!(c.table("MESSAGES").is_ok());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn duplicate_names_rejected_across_kinds() {
        let mut c = Catalog::new();
        c.create_table(table("t")).unwrap();
        assert!(c.create_table(table("T")).is_err());
        assert!(c.create_view("t", some_query()).is_err());
    }

    #[test]
    fn table_vs_view_kind_errors() {
        let mut c = Catalog::new();
        c.create_table(table("t")).unwrap();
        c.create_view("v", some_query()).unwrap();
        assert!(c.table("v").is_err());
        assert!(c.view("t").is_err());
        assert!(c.table_mut("v").is_err());
    }

    #[test]
    fn drop_semantics() {
        let mut c = Catalog::new();
        c.create_table(table("t")).unwrap();
        c.create_view("v", some_query()).unwrap();
        // Wrong kind.
        assert!(c.drop_table("v", false).is_err());
        assert!(c.drop_view("t", false).is_err());
        // Right kind.
        assert!(c.drop_table("t", false).unwrap());
        assert!(c.drop_view("v", false).unwrap());
        // Missing.
        assert!(c.drop_table("t", false).is_err());
        assert!(!c.drop_table("t", true).unwrap());
    }

    #[test]
    fn relation_names_sorted() {
        let mut c = Catalog::new();
        c.create_table(table("zeta")).unwrap();
        c.create_table(table("alpha")).unwrap();
        assert_eq!(c.relation_names(), vec!["alpha", "zeta"]);
    }

    #[test]
    fn table_schema_access() {
        let mut c = Catalog::new();
        c.create_table(table("t")).unwrap();
        assert_eq!(c.table_schema("t").unwrap().len(), 1);
        assert!(c.table_schema("nope").is_err());
    }
}
