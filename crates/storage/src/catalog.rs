//! The catalog: table schemas, index definitions and routing metadata.
//!
//! Like the paper's prototype, the back-end is schema-agnostic (it stores
//! opaque rows addressed by RIDs) while the workload code is schema-aware.
//! The catalog is the bridge: it records column names/types, the primary-key
//! columns, the secondary indexes, and — for DORA — which columns are the
//! table's *routing fields* (Section 4.1.1).
//!
//! Metadata is immutable once published and shared: [`Catalog::table`] and
//! [`Catalog::index`] hand out an `Arc` (a reference-count bump, no
//! allocation), and a table's metadata carries that of its secondary
//! indexes, so the per-row write path looks the catalog up once. Creating an index
//! publishes a new [`TableMeta`] for its table; holders of the old one keep
//! a consistent, older view.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use dora_common::prelude::*;

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (unique within the table).
    pub name: String,
    /// Column type.
    pub ty: ValueType,
}

impl ColumnDef {
    /// Shorthand constructor.
    pub fn new(name: &str, ty: ValueType) -> Self {
        Self {
            name: name.to_string(),
            ty,
        }
    }
}

/// Definition of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    /// Table name (unique within the database).
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<ColumnDef>,
    /// Indices (into `columns`) of the primary-key columns.
    pub primary_key: Vec<usize>,
    /// Indices (into `columns`) of the routing fields used by DORA's routing
    /// rules. The paper notes the primary-key (or a prefix of it) works well
    /// in practice; workloads typically set this to the leading PK column
    /// (e.g. the Warehouse id).
    pub routing_fields: Vec<usize>,
}

impl TableSchema {
    /// Creates a schema. `routing_fields` defaults to the first primary-key
    /// column, which is the paper's recommended choice.
    pub fn new(name: &str, columns: Vec<ColumnDef>, primary_key: Vec<usize>) -> Self {
        let routing_fields = primary_key.first().map(|c| vec![*c]).unwrap_or_default();
        Self {
            name: name.to_string(),
            columns,
            primary_key,
            routing_fields,
        }
    }

    /// Extracts the primary key of a row. Allocation-free for keys of up to
    /// [`Key::INLINE_LEN`] columns.
    pub(crate) fn primary_key_of(&self, row: &Row) -> Key {
        Key::from_values(self.primary_key.iter().map(|&i| row[i].clone()))
    }

    /// Extracts the routing-field values of a row (the key DORA's routing
    /// rule consumes). Allocation-free for keys of up to [`Key::INLINE_LEN`]
    /// columns.
    pub(crate) fn routing_key_of(&self, row: &Row) -> Key {
        Key::from_values(self.routing_fields.iter().map(|&i| row[i].clone()))
    }

    /// Validates that a row matches the schema (arity and column types).
    pub(crate) fn validate(&self, row: &Row) -> DbResult<()> {
        if row.len() != self.columns.len() {
            return Err(DbError::InvalidOperation(format!(
                "row has {} values but {} has {} columns",
                row.len(),
                self.name,
                self.columns.len()
            )));
        }
        for (value, column) in row.iter().zip(self.columns.iter()) {
            if value.value_type() != column.ty {
                return Err(DbError::TypeMismatch {
                    expected: column.ty,
                    found: value.value_type(),
                });
            }
        }
        Ok(())
    }
}

/// Definition of a secondary index.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSpec {
    /// Index name (unique within the database).
    pub name: String,
    /// Table the index is built over.
    pub table: TableId,
    /// Indices (into the table's columns) forming the index key.
    pub key_columns: Vec<usize>,
    /// Whether the key is unique.
    pub unique: bool,
}

impl IndexSpec {
    /// Extracts this index's key from a row. Allocation-free for keys of up
    /// to [`Key::INLINE_LEN`] columns.
    pub(crate) fn key_of(&self, row: &Row) -> Key {
        Key::from_values(self.key_columns.iter().map(|&c| row[c].clone()))
    }
}

/// Catalog metadata for one table.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// The table's id.
    pub id: TableId,
    /// The schema as provided at creation time.
    pub schema: TableSchema,
    /// Secondary indexes defined over the table, in creation order.
    pub secondary_indexes: Vec<Arc<IndexMeta>>,
}

/// Catalog metadata for one index.
#[derive(Debug, Clone)]
pub struct IndexMeta {
    /// The index's id.
    pub id: IndexId,
    /// The definition as provided at creation time.
    pub spec: IndexSpec,
}

/// The database catalog.
#[derive(Debug, Default)]
pub struct Catalog {
    inner: RwLock<CatalogInner>,
}

#[derive(Debug, Default)]
struct CatalogInner {
    tables: Vec<Arc<TableMeta>>,
    indexes: Vec<Arc<IndexMeta>>,
    table_names: HashMap<String, TableId>,
    index_names: HashMap<String, IndexId>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registers a table, returning its id.
    pub(crate) fn add_table(&self, schema: TableSchema) -> DbResult<TableId> {
        let mut inner = self.inner.write();
        if inner.table_names.contains_key(&schema.name) {
            return Err(DbError::InvalidOperation(format!(
                "table {} already exists",
                schema.name
            )));
        }
        let id = TableId(inner.tables.len() as u32);
        inner.table_names.insert(schema.name.clone(), id);
        inner.tables.push(Arc::new(TableMeta {
            id,
            schema,
            secondary_indexes: Vec::new(),
        }));
        Ok(id)
    }

    /// Registers a secondary index, returning its id.
    pub(crate) fn add_index(&self, spec: IndexSpec) -> DbResult<IndexId> {
        let mut inner = self.inner.write();
        if inner.index_names.contains_key(&spec.name) {
            return Err(DbError::InvalidOperation(format!(
                "index {} already exists",
                spec.name
            )));
        }
        let table_idx = spec.table.0 as usize;
        if table_idx >= inner.tables.len() {
            return Err(DbError::NoSuchObject(format!("{}", spec.table)));
        }
        let id = IndexId(inner.indexes.len() as u32);
        inner.index_names.insert(spec.name.clone(), id);
        let index = Arc::new(IndexMeta { id, spec });
        inner.indexes.push(Arc::clone(&index));
        let mut table = TableMeta::clone(&inner.tables[table_idx]);
        table.secondary_indexes.push(index);
        inner.tables[table_idx] = Arc::new(table);
        Ok(id)
    }

    /// Table metadata by id.
    pub fn table(&self, id: TableId) -> DbResult<Arc<TableMeta>> {
        self.inner
            .read()
            .tables
            .get(id.0 as usize)
            .cloned()
            .ok_or_else(|| DbError::NoSuchObject(format!("{id}")))
    }

    /// Table id by name.
    pub(crate) fn table_id(&self, name: &str) -> DbResult<TableId> {
        self.inner
            .read()
            .table_names
            .get(name)
            .copied()
            .ok_or_else(|| DbError::NoSuchObject(name.to_string()))
    }

    /// Index metadata by id.
    pub fn index(&self, id: IndexId) -> DbResult<Arc<IndexMeta>> {
        self.inner
            .read()
            .indexes
            .get(id.0 as usize)
            .cloned()
            .ok_or_else(|| DbError::NoSuchObject(format!("{id}")))
    }

    /// Index id by name.
    pub(crate) fn index_id(&self, name: &str) -> DbResult<IndexId> {
        self.inner
            .read()
            .index_names
            .get(name)
            .copied()
            .ok_or_else(|| DbError::NoSuchObject(name.to_string()))
    }

    /// Number of tables.
    pub(crate) fn table_count(&self) -> usize {
        self.inner.read().tables.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schema() -> TableSchema {
        TableSchema::new(
            "customer",
            vec![
                ColumnDef::new("c_w_id", ValueType::Int),
                ColumnDef::new("c_d_id", ValueType::Int),
                ColumnDef::new("c_id", ValueType::Int),
                ColumnDef::new("c_last", ValueType::Text),
                ColumnDef::new("c_balance", ValueType::Float),
            ],
            vec![0, 1, 2],
        )
    }

    #[test]
    fn schema_key_extraction() {
        let schema = sample_schema();
        let row: Row = vec![
            Value::Int(1),
            Value::Int(2),
            Value::Int(42),
            Value::Text("SMITH".into()),
            Value::Float(10.0),
        ];
        assert_eq!(schema.primary_key_of(&row), Key::int3(1, 2, 42));
        // Default routing field is the first PK column (warehouse id).
        assert_eq!(schema.routing_key_of(&row), Key::int(1));
    }

    #[test]
    fn schema_validation_checks_arity_and_types() {
        let schema = sample_schema();
        let bad_arity: Row = vec![Value::Int(1)];
        assert!(schema.validate(&bad_arity).is_err());
        let bad_type: Row = vec![
            Value::Int(1),
            Value::Int(2),
            Value::Text("oops".into()),
            Value::Text("SMITH".into()),
            Value::Float(10.0),
        ];
        assert!(matches!(
            schema.validate(&bad_type),
            Err(DbError::TypeMismatch { .. })
        ));
        let good: Row = vec![
            Value::Int(1),
            Value::Int(2),
            Value::Int(3),
            Value::Text("SMITH".into()),
            Value::Float(0.0),
        ];
        assert!(schema.validate(&good).is_ok());
    }

    #[test]
    fn catalog_registers_tables_and_indexes() {
        let catalog = Catalog::new();
        let table = catalog.add_table(sample_schema()).unwrap();
        let index = catalog
            .add_index(IndexSpec {
                name: "customer_by_name".into(),
                table,
                key_columns: vec![0, 1, 3],
                unique: false,
            })
            .unwrap();
        assert_eq!(catalog.table_id("customer").unwrap(), table);
        assert_eq!(catalog.index_id("customer_by_name").unwrap(), index);
        let meta = catalog.table(table).unwrap();
        assert_eq!(meta.schema.name, "customer");
        assert_eq!(meta.secondary_indexes.len(), 1);
        assert!(Arc::ptr_eq(
            &meta.secondary_indexes[0],
            &catalog.index(index).unwrap()
        ));
        // Lookups share the published metadata instead of copying it.
        assert!(Arc::ptr_eq(&meta, &catalog.table(table).unwrap()));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let catalog = Catalog::new();
        catalog.add_table(sample_schema()).unwrap();
        assert!(catalog.add_table(sample_schema()).is_err());
        assert!(catalog.table_id("missing").is_err());
    }

    #[test]
    fn index_on_missing_table_is_rejected() {
        let catalog = Catalog::new();
        let result = catalog.add_index(IndexSpec {
            name: "orphan".into(),
            table: TableId(9),
            key_columns: vec![0],
            unique: true,
        });
        assert!(result.is_err());
    }

    #[test]
    fn routing_fields_can_be_overridden() {
        let mut schema = sample_schema();
        schema.routing_fields = vec![0, 1];
        let row: Row = vec![
            Value::Int(7),
            Value::Int(3),
            Value::Int(1),
            Value::Text("X".into()),
            Value::Float(0.0),
        ];
        assert_eq!(schema.routing_key_of(&row), Key::int2(7, 3));
    }
}
