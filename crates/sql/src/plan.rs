//! Statement binding: everything about a statement that does not depend on
//! its parameters is worked out once, against the catalog, into a [`Plan`]
//! the executor ([`crate::exec`]) replays.
//!
//! Binding resolves table names to handles, column references to positions
//! ([`Expr::Slot`]) in the row the expression will see, INSERT/UPDATE target
//! columns to positions, the output header, and — per table — the access
//! path as a template whose key expressions are evaluated against the
//! parameters at execution.
//!
//! Access-path selection mirrors what a simple OLTP engine does: full
//! primary-key equality → point lookup; otherwise the longest equality
//! prefix over the PK or a secondary index (ties go to the PK, then to the
//! older index) → prefix scan; otherwise the first range constraint on the
//! leading PK or index column → range scan; otherwise a full table scan. The
//! residual predicate is always re-applied to fetched rows, so paths are
//! purely an optimization.
//!
//! A plan is stamped with [`Database::schema_version`] and bound again when
//! the stamp has moved on (see [`crate::connection::Prepared`]).

use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

use bp_storage::{Database, Table, TableSchema};

use crate::ast::*;
use crate::error::{Result, SqlError};

/// A bound DML statement or query.
pub(crate) struct Plan {
    /// [`Database::schema_version`] the plan was bound under.
    pub version: u64,
    pub kind: PlanKind,
}

pub(crate) enum PlanKind {
    Insert(InsertPlan),
    Select(SelectPlan),
    /// UPDATE and DELETE.
    Write(WritePlan),
}

pub(crate) struct InsertPlan {
    pub table: Arc<Table>,
    /// Schema position of each provided column.
    pub positions: Vec<usize>,
    /// One list of value expressions per row, each as long as `positions`.
    pub rows: Vec<Vec<Expr>>,
}

pub(crate) struct WritePlan {
    pub access: TableAccess,
    pub filter: Option<Expr>,
    /// `(column position, new value)` pairs of an UPDATE; `None` deletes.
    pub sets: Option<Vec<(usize, Expr)>>,
}

/// One table of a statement and how its candidate rows are fetched.
pub(crate) struct TableAccess {
    pub table: Arc<Table>,
    pub path: AccessPath,
}

/// The key expressions are literals and parameters only.
pub(crate) enum AccessPath {
    PkPoint(Vec<Expr>),
    PkPrefix(Vec<Expr>),
    IndexPrefix { index: String, key: Vec<Expr> },
    /// Bounds on the leading primary-key column.
    PkRange(Bound<Expr>, Bound<Expr>),
    /// Bounds on the leading column of `index`.
    IndexRange { index: String, lo: Bound<Expr>, hi: Bound<Expr> },
    Scan,
}

/// An aggregate call with its argument bound to the joined tuple.
#[derive(PartialEq)]
pub(crate) struct AggCall {
    pub func: AggFunc,
    /// `None` is `COUNT(*)`.
    pub arg: Option<Expr>,
    pub distinct: bool,
}

pub(crate) enum SortKey {
    /// An output column, by position.
    Output(usize),
    /// An expression over the row the select list is evaluated against.
    Row(Expr),
}

/// A query. Tuples are flat: the rows of the FROM table and each joined
/// table side by side, `width` values in all. Select-list, GROUP BY and
/// ORDER BY expressions of a grouped query see the group's first tuple
/// followed by one value per entry of `aggs`.
pub(crate) struct SelectPlan {
    /// The FROM table, then each joined table; empty without FROM.
    pub tables: Vec<TableAccess>,
    /// Per joined table, its hash-join keys as `(slot in the tuple so far,
    /// column of the joined table)`; empty means a cross product.
    pub joins: Vec<Vec<(usize, usize)>>,
    /// Every ON condition, then WHERE, over the joined tuple.
    pub filter: Vec<Expr>,
    pub for_update: bool,
    pub width: usize,
    pub grouped: bool,
    pub group_by: Vec<Expr>,
    pub aggs: Vec<AggCall>,
    /// `None` is `*`: the whole tuple.
    pub items: Vec<Option<Expr>>,
    pub columns: Arc<[String]>,
    pub order_by: Vec<(SortKey, bool)>,
    pub limit: Option<Expr>,
}

/// Bind a DML statement or query against the current catalog.
pub(crate) fn bind(db: &Database, stmt: &Statement) -> Result<Plan> {
    // Stamp first: DDL racing with this bind leaves the plan stale, never
    // wrongly current.
    let version = db.schema_version();
    let kind = match stmt {
        Statement::Insert(ins) => PlanKind::Insert(bind_insert(db, ins)?),
        Statement::Select(sel) => PlanKind::Select(bind_select(db, sel)?),
        Statement::Update(u) => {
            PlanKind::Write(bind_write(db, &u.table, u.where_clause.as_ref(), Some(&u.sets))?)
        }
        Statement::Delete(d) => {
            PlanKind::Write(bind_write(db, &d.table, d.where_clause.as_ref(), None)?)
        }
        other => return Err(SqlError::Unsupported(format!("no plan for {other:?}"))),
    };
    Ok(Plan { version, kind })
}

// ---- Name resolution ----

/// A table visible to expressions, and where its columns sit in the tuple.
struct Binding<'a> {
    /// Alias or table name, lower-cased.
    name: String,
    schema: &'a TableSchema,
    offset: usize,
}

fn resolve(scope: &[Binding<'_>], table: Option<&str>, name: &str) -> Option<usize> {
    match table {
        Some(t) => {
            let b = scope.iter().find(|b| b.name.eq_ignore_ascii_case(t))?;
            Some(b.offset + b.schema.column_index(name).ok()?)
        }
        None => scope
            .iter()
            .find_map(|b| b.schema.column_index(name).ok().map(|i| b.offset + i)),
    }
}

/// Resolve column references to slots. A reference that resolves to nothing
/// is left as it is and fails if a row ever reaches it.
///
/// With `lift` — for the output of a grouped query — each aggregate call is
/// moved into the list and replaced by the slot, `width` and up, where its
/// result will follow the group's representative tuple.
fn bind_expr(e: &Expr, scope: &[Binding<'_>], mut lift: Option<(usize, &mut Vec<AggCall>)>) -> Expr {
    e.rewrite(&mut |node| match (node, &mut lift) {
        (Expr::Column { table, name }, _) => resolve(scope, table.as_deref(), name).map(Expr::Slot),
        (Expr::Agg { func, arg, distinct }, Some((width, aggs))) => {
            let arg = arg.as_deref().map(|a| bind_expr(a, scope, None));
            let call = AggCall { func: *func, arg, distinct: *distinct };
            let at = aggs.iter().position(|a| *a == call).unwrap_or_else(|| {
                aggs.push(call);
                aggs.len() - 1
            });
            Some(Expr::Slot(*width + at))
        }
        _ => None,
    })
}

// ---- Access-path planning ----

/// Equality and range constraints `column OP constant` on one table, taken
/// from a conjunction. Later conjuncts replace earlier ones on a column.
#[derive(Default)]
struct Predicates<'e> {
    eq: HashMap<usize, &'e Expr>,
    ranges: HashMap<usize, (Bound<&'e Expr>, Bound<&'e Expr>)>,
}

fn analyze<'e>(clause: Option<&'e Expr>, binding: &str, schema: &TableSchema) -> Predicates<'e> {
    let mut info = Predicates::default();
    let Some(clause) = clause else { return info };
    for conjunct in clause.conjuncts() {
        let Expr::Binary { op, left, right } = conjunct else { continue };
        // col OP const  or  const OP col
        let (col, value, op) = match (column_of(left, binding, schema), column_of(right, binding, schema)) {
            (Some(c), None) if is_const(right) => (c, &**right, *op),
            (None, Some(c)) if is_const(left) => (c, &**left, flip(*op)),
            _ => continue,
        };
        let range = || (Bound::Unbounded, Bound::Unbounded);
        match op {
            BinOp::Eq => {
                info.eq.insert(col, value);
            }
            BinOp::Lt => info.ranges.entry(col).or_insert_with(range).1 = Bound::Excluded(value),
            BinOp::LtEq => info.ranges.entry(col).or_insert_with(range).1 = Bound::Included(value),
            BinOp::Gt => info.ranges.entry(col).or_insert_with(range).0 = Bound::Excluded(value),
            BinOp::GtEq => info.ranges.entry(col).or_insert_with(range).0 = Bound::Included(value),
            _ => {}
        }
    }
    info
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other,
    }
}

/// If `e` is a column of this binding, return its position.
fn column_of(e: &Expr, binding: &str, schema: &TableSchema) -> Option<usize> {
    match e {
        Expr::Column { table, name } => {
            if let Some(t) = table {
                if !t.eq_ignore_ascii_case(binding) {
                    return None;
                }
            }
            schema.column_index(name).ok()
        }
        _ => None,
    }
}

/// Constant in the planning sense: literals and parameters only.
fn is_const(e: &Expr) -> bool {
    match e {
        Expr::Lit(_) | Expr::Param(_) => true,
        Expr::Neg(inner) => is_const(inner),
        _ => false,
    }
}

fn choose_path(table: &Table, info: &Predicates<'_>) -> AccessPath {
    let pk = &table.schema.primary_key;
    let indexes = table.index_defs();
    let key = |cols: &[usize]| cols.iter().map(|c| Expr::clone(info.eq[c])).collect::<Vec<Expr>>();
    let eq_prefix = |cols: &[usize]| cols.iter().take_while(|c| info.eq.contains_key(c)).count();

    // 1. Full PK equality -> point lookup.
    if !pk.is_empty() && eq_prefix(pk) == pk.len() {
        return AccessPath::PkPoint(key(pk));
    }
    // 2. Longest equality prefix over the PK or a secondary index.
    let mut best = eq_prefix(pk);
    let mut path = (best > 0).then(|| AccessPath::PkPrefix(key(&pk[..best])));
    for def in &indexes {
        let n = eq_prefix(&def.key_columns);
        if n > best {
            best = n;
            path = Some(AccessPath::IndexPrefix {
                index: def.name.clone(),
                key: key(&def.key_columns[..n]),
            });
        }
    }
    if let Some(path) = path {
        return path;
    }
    // 3. Range on the first PK or index column.
    if let Some((lo, hi)) = pk.first().and_then(|c| info.ranges.get(c)) {
        return AccessPath::PkRange(lo.cloned(), hi.cloned());
    }
    for def in &indexes {
        if let Some((lo, hi)) = info.ranges.get(&def.key_columns[0]) {
            return AccessPath::IndexRange { index: def.name.clone(), lo: lo.cloned(), hi: hi.cloned() };
        }
    }
    // 4. Full scan.
    AccessPath::Scan
}

// ---- Statements ----

fn bind_insert(db: &Database, ins: &Insert) -> Result<InsertPlan> {
    let table = db.table(&ins.table)?;
    let positions: Vec<usize> = if ins.columns.is_empty() {
        (0..table.schema.arity()).collect()
    } else {
        ins.columns
            .iter()
            .map(|c| table.schema.column_index(c).map_err(SqlError::from))
            .collect::<Result<_>>()?
    };
    if let Some(bad) = ins.rows.iter().find(|r| r.len() != positions.len()) {
        return Err(SqlError::Eval(format!(
            "INSERT has {} values for {} columns",
            bad.len(),
            positions.len()
        )));
    }
    Ok(InsertPlan { table, positions, rows: ins.rows.clone() })
}

fn bind_write(
    db: &Database,
    name: &str,
    where_clause: Option<&Expr>,
    sets: Option<&Vec<(String, Expr)>>,
) -> Result<WritePlan> {
    let table = db.table(name)?;
    let schema = &table.schema;
    let scope = [Binding { name: name.to_ascii_lowercase(), schema, offset: 0 }];
    let path = choose_path(&table, &analyze(where_clause, name, schema));
    let sets = sets
        .map(|sets| {
            sets.iter()
                .map(|(c, e)| Ok((schema.column_index(c)?, bind_expr(e, &scope, None))))
                .collect::<Result<Vec<_>>>()
        })
        .transpose()?;
    let filter = where_clause.map(|w| bind_expr(w, &scope, None));
    Ok(WritePlan { access: TableAccess { table, path }, filter, sets })
}

fn bind_select(db: &Database, sel: &Select) -> Result<SelectPlan> {
    let refs: Vec<&TableRef> = sel.from.iter().chain(sel.joins.iter().map(|j| &j.table)).collect();
    let handles = refs.iter().map(|r| db.table(&r.name)).collect::<std::result::Result<Vec<_>, _>>()?;
    let mut scope = Vec::with_capacity(refs.len());
    let mut width = 0;
    for (r, t) in refs.iter().zip(&handles) {
        scope.push(Binding { name: r.binding().to_ascii_lowercase(), schema: &t.schema, offset: width });
        width += t.schema.arity();
    }
    let where_clause = sel.where_clause.as_ref();

    // Each table is fetched by its own single-table constraints: the FROM
    // table's from WHERE, a joined table's from its ON condition and WHERE.
    let mut tables = Vec::with_capacity(handles.len());
    let mut joins = Vec::with_capacity(sel.joins.len());
    for (i, (b, t)) in scope.iter().zip(&handles).enumerate() {
        let mut info = Predicates::default();
        if let Some(join) = i.checked_sub(1).map(|j| &sel.joins[j]) {
            info = analyze(Some(&join.on), &b.name, b.schema);
            joins.push(equi_conditions(join, where_clause, &scope[..i], b));
        }
        let extra = analyze(where_clause, &b.name, b.schema);
        info.eq.extend(extra.eq);
        info.ranges.extend(extra.ranges);
        tables.push(TableAccess { table: t.clone(), path: choose_path(t, &info) });
    }
    let filter = sel.joins.iter().map(|j| &j.on).chain(where_clause).map(|e| bind_expr(e, &scope, None)).collect();

    let grouped = !sel.group_by.is_empty()
        || sel.items.iter().any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.has_aggregate()));
    let mut aggs = Vec::new();
    let mut output = |e: &Expr| bind_expr(e, &scope, grouped.then_some((width, &mut aggs)));
    let mut columns = Vec::new();
    let mut items = Vec::with_capacity(sel.items.len());
    for (i, item) in sel.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard if sel.from.is_none() => {
                return Err(SqlError::Unsupported("* without FROM".into()))
            }
            SelectItem::Wildcard if grouped => {
                return Err(SqlError::Unsupported("* with GROUP BY".into()))
            }
            SelectItem::Wildcard => {
                columns.extend(scope.iter().flat_map(|b| b.schema.columns.iter().map(|c| c.name.clone())));
                items.push(None);
            }
            SelectItem::Expr { expr, alias } => {
                columns.push(alias.clone().unwrap_or_else(|| match expr {
                    Expr::Column { name, .. } => name.clone(),
                    _ => format!("col{}", i + 1),
                }));
                items.push(Some(output(expr)));
            }
        }
    }
    // ORDER BY prefers output columns (aliases; qualification is dropped for
    // the lookup) and otherwise sorts by an expression of its own.
    let order_by = sel
        .order_by
        .iter()
        .map(|ob| {
            let by_name = match &ob.expr {
                Expr::Column { name, .. } => columns.iter().position(|c| c.eq_ignore_ascii_case(name)),
                _ => None,
            };
            (by_name.map_or_else(|| SortKey::Row(output(&ob.expr)), SortKey::Output), ob.desc)
        })
        .collect();

    Ok(SelectPlan {
        joins,
        filter,
        for_update: sel.for_update && tables.len() == 1,
        tables,
        width,
        grouped,
        group_by: sel.group_by.iter().map(|g| bind_expr(g, &scope, None)).collect(),
        aggs,
        items,
        columns: columns.into(),
        order_by,
        limit: sel.limit.clone(),
    })
}

/// Equi-join conditions `(slot in the joined tuple so far, right column)`
/// between the already-joined bindings and the incoming right table, from
/// the ON condition and WHERE.
fn equi_conditions(
    join: &Join,
    where_clause: Option<&Expr>,
    left: &[Binding<'_>],
    right: &Binding<'_>,
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut sources: Vec<&Expr> = join.on.conjuncts();
    if let Some(w) = where_clause {
        sources.extend(w.conjuncts());
    }
    for e in sources {
        let Expr::Binary { op: BinOp::Eq, left: l, right: r } = e else { continue };
        for (a, b) in [(l, r), (r, l)] {
            let Some(rc) = column_of(a, &right.name, right.schema) else { continue };
            // `a` is a column of the right table; the other side must bind
            // to some table on the left — and not, by qualification, to the
            // right table itself.
            let on_right = matches!(&**b, Expr::Column { table: Some(t), .. } if t.eq_ignore_ascii_case(&right.name));
            if !on_right {
                if let Some((lb, lc)) = left.iter().find_map(|lb| Some((lb, column_of(b, &lb.name, lb.schema)?))) {
                    out.push((lb.offset + lc, rc));
                }
            }
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_storage::{Column, DataType};

    #[test]
    fn column_resolution() {
        let t = TableSchema::new(
            "t",
            vec![Column::new("a", DataType::Int), Column::new("b", DataType::Str)],
            &["a"],
        )
        .unwrap();
        let u = TableSchema::new("u", vec![Column::new("b", DataType::Int)], &[]).unwrap();
        let scope = [
            Binding { name: "t".into(), schema: &t, offset: 0 },
            Binding { name: "x".into(), schema: &u, offset: 2 },
        ];
        assert_eq!(resolve(&scope, None, "a"), Some(0));
        assert_eq!(resolve(&scope, None, "B"), Some(1), "unqualified: first table that has it");
        assert_eq!(resolve(&scope, Some("X"), "b"), Some(2));
        assert_eq!(resolve(&scope, Some("z"), "a"), None);
        assert_eq!(resolve(&scope, Some("x"), "a"), None);
        assert_eq!(resolve(&scope, None, "nope"), None);
        // Unresolved references survive binding untouched.
        let e = Expr::bin(BinOp::Eq, Expr::col("a"), Expr::col("nope"));
        assert_eq!(bind_expr(&e, &scope, None), Expr::bin(BinOp::Eq, Expr::Slot(0), Expr::col("nope")));
    }
}
