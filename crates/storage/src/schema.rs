//! Table schemas: columns, primary keys, secondary index definitions.

use crate::error::{Result, StorageError};
use crate::value::{DataType, Row, SharedRow, Value};

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub ty: DataType,
    pub nullable: bool,
}

impl Column {
    pub fn new(name: &str, ty: DataType) -> Column {
        Column { name: name.to_string(), ty, nullable: false }
    }

    pub fn nullable(name: &str, ty: DataType) -> Column {
        Column { name: name.to_string(), ty, nullable: true }
    }

    /// Whether `value` may be stored in this column (after coercion).
    fn check(&self, value: &Value) -> Result<()> {
        if value.is_null() && !self.nullable {
            return Err(StorageError::TypeMismatch {
                column: self.name.clone(),
                expected: format!("{} NOT NULL", self.ty),
                got: "NULL".to_string(),
            });
        }
        if !value.conforms_to(self.ty) {
            return Err(StorageError::TypeMismatch {
                column: self.name.clone(),
                expected: self.ty.to_string(),
                got: value.data_type().map(|t| t.to_string()).unwrap_or_else(|| "NULL".to_string()),
            });
        }
        Ok(())
    }
}

/// A table schema: ordered columns plus the primary-key column positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<Column>,
    /// Indices into `columns` forming the primary key (possibly composite).
    pub primary_key: Vec<usize>,
}

impl TableSchema {
    /// Build and validate a schema. Primary key columns are identified by
    /// name and must exist and be non-nullable.
    pub fn new(name: &str, columns: Vec<Column>, primary_key: &[&str]) -> Result<TableSchema> {
        if columns.is_empty() {
            return Err(StorageError::InvalidSchema(format!("table {name} has no columns")));
        }
        let mut seen = bp_util::hash::MixSet::default();
        for c in &columns {
            if !seen.insert(c.name.to_ascii_lowercase()) {
                return Err(StorageError::InvalidSchema(format!(
                    "duplicate column {} in table {name}",
                    c.name
                )));
            }
        }
        let mut pk = Vec::with_capacity(primary_key.len());
        for key_col in primary_key {
            let idx = columns
                .iter()
                .position(|c| c.name.eq_ignore_ascii_case(key_col))
                .ok_or_else(|| StorageError::NoSuchColumn((*key_col).to_string()))?;
            if columns[idx].nullable {
                return Err(StorageError::InvalidSchema(format!(
                    "primary key column {key_col} must be NOT NULL"
                )));
            }
            if pk.contains(&idx) {
                return Err(StorageError::InvalidSchema(format!(
                    "duplicate primary key column {key_col}"
                )));
            }
            pk.push(idx);
        }
        Ok(TableSchema { name: name.to_string(), columns, primary_key: pk })
    }

    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| StorageError::NoSuchColumn(name.to_string()))
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    pub fn has_primary_key(&self) -> bool {
        !self.primary_key.is_empty()
    }

    /// Extract the primary-key values from a row.
    pub fn pk_of(&self, row: &[Value]) -> Vec<Value> {
        self.primary_key.iter().map(|&i| row[i].clone()).collect()
    }

    /// `pk_of(row) == key`, compared in place: no key is built or cloned.
    pub fn pk_matches(&self, row: &[Value], key: &[Value]) -> bool {
        self.primary_key.len() == key.len()
            && self.primary_key.iter().zip(key).all(|(&i, k)| row[i] == *k)
    }

    /// Validate a row against the schema and coerce its values into storage
    /// form: the row as it will be stored, built in the one allocation it is
    /// shared from.
    pub fn check_row(&self, row: Row) -> Result<SharedRow> {
        if row.len() != self.columns.len() {
            return Err(StorageError::ArityMismatch { expected: self.columns.len(), got: row.len() });
        }
        for (value, col) in row.iter().zip(&self.columns) {
            col.check(value)?;
        }
        // An iterator of known length: the values move straight into the
        // `Arc`'s allocation.
        Ok(row.into_iter().zip(&self.columns).map(|(value, col)| value.coerce(col.ty)).collect())
    }

    /// [`TableSchema::check_row`] for the `(column, value)` pairs an update
    /// sets: each is validated and coerced where it stands.
    pub(crate) fn check_sets(&self, sets: &mut [(usize, Value)]) -> Result<()> {
        for (pos, value) in sets {
            let col = self.columns.get(*pos).ok_or_else(|| StorageError::NoSuchColumn(format!("#{pos}")))?;
            col.check(value)?;
            *value = std::mem::replace(value, Value::Null).coerce(col.ty);
        }
        Ok(())
    }

    /// Approximate row byte size for the cost model.
    pub fn row_bytes(&self, row: &[Value]) -> usize {
        row.iter().map(Value::byte_size).sum::<usize>() + 8
    }
}

/// A secondary-index definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    pub name: String,
    pub table: String,
    /// Column positions forming the key.
    pub key_columns: Vec<usize>,
    pub unique: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new(
            "accounts",
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Str),
                Column::nullable("balance", DataType::Float),
            ],
            &["id"],
        )
        .unwrap()
    }

    #[test]
    fn build_and_lookup() {
        let s = schema();
        assert_eq!(s.primary_key, vec![0]);
        assert_eq!(s.column_index("NAME").unwrap(), 1);
        assert!(s.column_index("nope").is_err());
    }

    #[test]
    fn pk_extraction() {
        let s = schema();
        let row = vec![Value::Int(7), Value::Str("x".into()), Value::Null];
        assert_eq!(s.pk_of(&row), vec![Value::Int(7)]);
        assert!(s.pk_matches(&row, &[Value::Int(7)]));
        for other in [vec![], vec![Value::Int(8)], vec![Value::Float(7.0)], vec![Value::Int(7); 2]] {
            assert!(!s.pk_matches(&row, &other) && s.pk_of(&row) != other, "{other:?}");
        }
    }

    #[test]
    fn check_row_valid_and_coerces() {
        let s = schema();
        let row = s
            .check_row(vec![Value::Int(1), Value::Str("a".into()), Value::Int(5)])
            .unwrap();
        assert_eq!(row[2], Value::Float(5.0));
    }

    #[test]
    fn check_row_rejects_null_in_not_null() {
        let s = schema();
        let err = s
            .check_row(vec![Value::Int(1), Value::Null, Value::Null])
            .unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn check_row_rejects_wrong_type() {
        let s = schema();
        let err = s
            .check_row(vec![Value::Str("x".into()), Value::Str("a".into()), Value::Null])
            .unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn check_row_rejects_arity() {
        let s = schema();
        let err = s.check_row(vec![Value::Int(1)]).unwrap_err();
        assert_eq!(err, StorageError::ArityMismatch { expected: 3, got: 1 });
    }

    #[test]
    fn rejects_nullable_pk() {
        let e = TableSchema::new(
            "t",
            vec![Column::nullable("id", DataType::Int)],
            &["id"],
        )
        .unwrap_err();
        assert!(matches!(e, StorageError::InvalidSchema(_)));
    }

    #[test]
    fn rejects_duplicate_columns() {
        let e = TableSchema::new(
            "t",
            vec![Column::new("a", DataType::Int), Column::new("A", DataType::Int)],
            &[],
        )
        .unwrap_err();
        assert!(matches!(e, StorageError::InvalidSchema(_)));
    }

    #[test]
    fn composite_pk() {
        let s = TableSchema::new(
            "order_line",
            vec![
                Column::new("o_id", DataType::Int),
                Column::new("number", DataType::Int),
                Column::new("qty", DataType::Int),
            ],
            &["o_id", "number"],
        )
        .unwrap();
        assert_eq!(s.primary_key, vec![0, 1]);
    }
}
