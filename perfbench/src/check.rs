//! Result checking against a reference the configuration under test did
//! not produce: each query run once by the in-process executor at DOP 1
//! with elasticity `off`.
//!
//! Every result is compared by row count and by
//! [`accordion_cluster::matrix::result_checksum`], which is
//! order-insensitive and quantizes floats to seven significant digits. The
//! query server sends CSV text; its rows are parsed back into typed values
//! with the reference's schema first, so the same checksum, with the same
//! quantization, applies to them too.

use std::sync::Arc;

use accordion_cluster::matrix::result_checksum;
use accordion_cluster::QueryExecutor;
use accordion_core::ResultSet;
use accordion_data::page::PageBuilder;
use accordion_data::schema::Schema;
use accordion_data::types::{parse_date32, DataType, Value};
use accordion_exec::QueryResult;
use accordion_plan::fragment::StageTree;
use accordion_plan::optimizer::{Optimizer, OptimizerConfig};
use accordion_storage::catalog::Catalog;

use crate::seq::Kind;
use crate::workload::exec_options;

/// What one query must return.
#[derive(Debug, Clone)]
pub struct Expected {
    pub rows: usize,
    pub checksum: u64,
    pub schema: Schema,
}

/// The expected result of every query, indexed by [`Kind::index`].
#[derive(Debug, Clone)]
pub struct Reference(Vec<Expected>);

impl Reference {
    /// Runs each query once at DOP 1, elasticity `off`, on a private
    /// executor.
    pub fn compute(catalog: &Catalog) -> Result<Reference, String> {
        let executor = QueryExecutor::new(exec_options(1));
        let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(1));
        let mut expected = Vec::new();
        for kind in Kind::ALL {
            let fail =
                |e: accordion_common::AccordionError| format!("reference {}: {e}", kind.name());
            let logical = accordion_sql::plan_select(catalog, kind.sql()).map_err(fail)?;
            let tree =
                StageTree::build(optimizer.optimize(&logical).map_err(fail)?).map_err(fail)?;
            let result = executor.execute_tree(catalog, &tree).map_err(fail)?;
            expected.push(Expected {
                rows: result.row_count(),
                checksum: result_checksum(&result),
                schema: result.schema.clone(),
            });
        }
        Ok(Reference(expected))
    }

    pub fn get(&self, kind: Kind) -> &Expected {
        &self.0[kind.index()]
    }
}

/// Checks an in-process or coordinator result.
pub fn check_result(expected: &Expected, result: &QueryResult) -> Result<(), String> {
    if result.row_count() != expected.rows {
        return Err(format!(
            "{} rows, expected {}",
            result.row_count(),
            expected.rows
        ));
    }
    let checksum = result_checksum(result);
    if checksum != expected.checksum {
        return Err(format!(
            "checksum {checksum:016x}, expected {:016x}",
            expected.checksum
        ));
    }
    Ok(())
}

/// Checks a result set received as CSV text from the query server.
pub fn check_rows(expected: &Expected, rows: &ResultSet) -> Result<(), String> {
    let fields = expected.schema.fields();
    if rows.columns.len() != fields.len() {
        return Err(format!(
            "{} columns, expected {}",
            rows.columns.len(),
            fields.len()
        ));
    }
    let mut builder = PageBuilder::new(Arc::new(expected.schema.clone()), rows.rows.len().max(1));
    for row in &rows.rows {
        let values = row
            .iter()
            .zip(fields)
            .map(|(text, field)| parse_value(text, &field.data_type))
            .collect::<Result<Vec<Value>, String>>()?;
        builder.push_row(values);
    }
    let page = Arc::new(builder.finish());
    let result = QueryResult::new(expected.schema.clone(), vec![page], Default::default());
    check_result(expected, &result)
}

/// Parses one CSV field as the server printed it (`Value`'s `Display`).
fn parse_value(text: &str, ty: &DataType) -> Result<Value, String> {
    if text == "NULL" {
        return Ok(Value::Null);
    }
    let bad = || format!("cannot read {text:?} as {ty:?}");
    Ok(match ty {
        DataType::Int64 => Value::Int64(text.parse().map_err(|_| bad())?),
        DataType::Float64 => Value::Float64(text.parse().map_err(|_| bad())?),
        DataType::Bool => Value::Bool(text.parse().map_err(|_| bad())?),
        DataType::Date32 => Value::Date32(parse_date32(text).ok_or_else(bad)?),
        DataType::Utf8 => Value::Utf8(text.to_string()),
    })
}
