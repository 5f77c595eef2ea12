//! The pipeline's cardinality estimator under its historical name; the
//! path stays because the benchmark (`perm_bench/`) imports it.

pub use perm_exec::CatalogStats as CatalogCardinalities;
