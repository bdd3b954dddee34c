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
//! primary-key equality → point lookup; otherwise, over the PK or a
//! secondary index, the longest run of leading key columns the statement
//! pins to constants, together with whatever bounds it puts on the column
//! after them (more pinned columns win, then having a bound, then the PK,
//! then the older index) → range; otherwise a full table scan. The residual
//! predicate is always re-applied to fetched rows, so paths are purely an
//! optimization.
//!
//! A join is also split into conjuncts: each one over a single table's
//! columns is bound to that table's row and filters it as it is fetched
//! ([`SelectPlan::pushed`]); the rest is the residual over the joined tuple.
//!
//! A query of one table also learns how much of its path it needs: whether
//! the path's key order is the order ORDER BY asks for ([`SelectPlan::sorted`]),
//! and whether the fetch may end with the LIMIT-th row that passes the
//! predicate ([`SelectPlan::limit_stops`]).
//!
//! A plan is stamped with [`Database::schema_version`] and bound again when
//! the stamp has moved on (see [`crate::connection::Prepared`]).

use std::ops::Bound;
use std::sync::Arc;

use bp_storage::{DataType, Database, Table, TableSchema};
use bp_util::hash::MixMap;

use crate::ast::*;
use crate::error::{Result, SqlError};

/// A bound DML statement or query.
pub(crate) struct Plan {
    /// [`Database::schema_version`] the plan was bound under.
    pub version: u64,
    pub kind: PlanKind,
}

impl Plan {
    /// This plan with every table fetched by a full scan: what the
    /// statement means, whatever path it was given. The reference that
    /// planned statements are tested against.
    pub(crate) fn scanning(mut self) -> Plan {
        match &mut self.kind {
            PlanKind::Insert(_) => {}
            PlanKind::Select(sel) => {
                sel.tables.iter_mut().for_each(|t| t.path = AccessPath::Scan);
                // Cross products, and every conjunct over the whole tuple.
                sel.joins.iter_mut().for_each(Vec::clear);
                let mut offset = 0;
                for (access, pushed) in sel.tables.iter().zip(&mut sel.pushed) {
                    sel.filter.extend(pushed.drain(..).map(|e| move_slots(&e, |s| s + offset)));
                    offset += access.table.schema.arity();
                }
                // And read to the end, then sorted, then cut.
                (sel.sorted, sel.limit_stops) = (false, false);
            }
            PlanKind::Write(w) => w.access.path = AccessPath::Scan,
        }
        self
    }
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

/// A literal or parameter to look up in a key column of type `ty`.
#[derive(Debug, PartialEq)]
pub(crate) struct KeyExpr {
    pub expr: Expr,
    pub ty: DataType,
}

#[derive(Debug, PartialEq)]
pub(crate) enum AccessPath {
    /// Equality on every primary-key column.
    Point(Vec<KeyExpr>),
    /// Rows whose key in `index` (`None`: the primary key) starts with
    /// `prefix` and has its next column within `lo` and `hi`.
    Range { index: Option<String>, prefix: Vec<KeyExpr>, lo: Bound<KeyExpr>, hi: Bound<KeyExpr> },
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
    /// Per table of a join, the conjuncts of ON and WHERE over its columns
    /// alone, bound to its own row: its rows are filtered by them as they
    /// are fetched, before any is joined. Empty without a join.
    pub pushed: Vec<Vec<Expr>>,
    /// What is left to check over the joined tuple: every ON condition,
    /// then WHERE — of a join, each of their conjuncts not pushed.
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
    /// The one table's path yields rows in the order `order_by` asks for:
    /// every key is a plain ascending column, and together they are the
    /// path's key columns right after the ones it pins. Rows that tie keep
    /// index order, which is what a stable sort of them gives. Holds while
    /// the execution pins every column the plan does (an unusable probe
    /// cuts the prefix short, and the order with it).
    pub sorted: bool,
    /// The fetch may end with the `limit`-th row that passes the predicate:
    /// one table, no groups, and either no order asked for or `sorted`.
    pub limit_stops: bool,
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

/// The one table whose columns `e` reads, if it reads some and nothing
/// else: no other table's column, none left unresolved, no aggregate.
fn own_table(e: &Expr, scope: &[Binding<'_>]) -> Option<usize> {
    let mut table = None;
    let other = e.any(&mut |node| match node {
        Expr::Slot(s) => {
            let t = binding_of(scope, *s);
            *table.get_or_insert(t) != t
        }
        Expr::Column { .. } | Expr::Agg { .. } => true,
        _ => false,
    });
    table.filter(|_| !other)
}

/// `e` with each slot `s` renumbered `to(s)`.
fn move_slots(e: &Expr, to: impl Fn(usize) -> usize) -> Expr {
    e.rewrite(&mut |node| match node {
        Expr::Slot(s) => Some(Expr::Slot(to(*s))),
        _ => None,
    })
}

// ---- Access-path planning ----

/// Equality and range constraints `column OP constant` on one table, taken
/// from a conjunction. Later conjuncts replace earlier ones on a column.
#[derive(Default)]
struct Predicates<'e> {
    eq: MixMap<usize, &'e Expr>,
    ranges: MixMap<usize, (Bound<&'e Expr>, Bound<&'e Expr>)>,
}

fn analyze<'e>(clause: Option<&'e Expr>, scope: &[Binding<'_>], i: usize) -> Predicates<'e> {
    let mut info = Predicates::default();
    let Some(clause) = clause else { return info };
    for conjunct in clause.conjuncts() {
        if let Expr::Between { expr, low, high, negated: false } = conjunct {
            if let (Some(col), true, true) = (column_of(expr, scope, i), is_const(low), is_const(high)) {
                info.ranges.insert(col, (Bound::Included(&**low), Bound::Included(&**high)));
            }
            continue;
        }
        let Expr::Binary { op, left, right } = conjunct else { continue };
        // col OP const  or  const OP col
        let (col, value, op) = match (column_of(left, scope, i), column_of(right, scope, i)) {
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

/// If `e` is a column of `scope[i]` — which an unqualified name is only if
/// no table before it has the column — its position there.
fn column_of(e: &Expr, scope: &[Binding<'_>], i: usize) -> Option<usize> {
    let Expr::Column { table, name } = e else { return None };
    let slot = resolve(scope, table.as_deref(), name)?;
    (binding_of(scope, slot) == i).then(|| slot - scope[i].offset)
}

/// Which of `scope` a slot of its tuple belongs to.
fn binding_of(scope: &[Binding<'_>], slot: usize) -> usize {
    scope.iter().rposition(|b| b.offset <= slot).expect("a slot of the tuple")
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
    let schema = &table.schema;
    let pk = &schema.primary_key;
    let indexes = table.index_defs();
    let key = |col: &usize, expr: &Expr| KeyExpr { expr: expr.clone(), ty: schema.columns[*col].ty };
    let eq_prefix = |cols: &[usize]| cols.iter().take_while(|c| info.eq.contains_key(c)).count();

    if !pk.is_empty() && eq_prefix(pk) == pk.len() {
        return AccessPath::Point(pk.iter().map(|c| key(c, info.eq[c])).collect());
    }
    // Per candidate key: how many leading columns are pinned, and whether
    // the one after them is bounded. The first of the best wins.
    let secondary = indexes.iter().map(|def| (Some(&def.name), &def.key_columns));
    let candidates = std::iter::once((None, pk)).chain(secondary);
    let (mut best, mut best_score) = (None, (0, false));
    for (index, cols) in candidates {
        let n = eq_prefix(cols);
        let bounds = cols.get(n).and_then(|c| Some((c, info.ranges.get(c)?)));
        if (n, bounds.is_some()) > best_score {
            best_score = (n, bounds.is_some());
            best = Some((index, &cols[..n], bounds));
        }
    }
    let Some((index, pinned, bounds)) = best else { return AccessPath::Scan };
    let (lo, hi) = match bounds {
        Some((c, (lo, hi))) => (lo.map(|e| key(c, e)), hi.map(|e| key(c, e))),
        None => (Bound::Unbounded, Bound::Unbounded),
    };
    AccessPath::Range {
        index: index.cloned(),
        prefix: pinned.iter().map(|c| key(c, info.eq[c])).collect(),
        lo,
        hi,
    }
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
    let path = choose_path(&table, &analyze(where_clause, &scope, 0));
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
    // table's from WHERE, a joined table's from its ON condition and WHERE —
    // and from the constants its equi-join partners are pinned to
    // (`a.k = ? AND a.k = b.k` pins `b.k` too).
    let mut infos: Vec<Predicates<'_>> = Vec::with_capacity(handles.len());
    let mut joins = Vec::with_capacity(sel.joins.len());
    for i in 0..scope.len() {
        let mut info = Predicates::default();
        if let Some(join) = i.checked_sub(1).map(|j| &sel.joins[j]) {
            info = analyze(Some(&join.on), &scope, i);
            joins.push(equi_conditions(join, where_clause, &scope, i));
        }
        let extra = analyze(where_clause, &scope, i);
        info.eq.extend(extra.eq);
        info.ranges.extend(extra.ranges);
        for &(slot, col) in joins.last().into_iter().flatten() {
            let partner = binding_of(&scope, slot);
            if let Some(pinned) = infos[partner].eq.get(&(slot - scope[partner].offset)) {
                info.eq.entry(col).or_insert(*pinned);
            }
        }
        infos.push(info);
    }
    let tables: Vec<TableAccess> = handles
        .iter()
        .zip(&infos)
        .map(|(t, info)| TableAccess { table: t.clone(), path: choose_path(t, info) })
        .collect();

    // Every ON condition, then WHERE. A join takes them conjunct by
    // conjunct: one over a single table's columns is bound to that table's
    // own row and filters it as it is fetched.
    let conditions = sel.joins.iter().map(|j| &j.on).chain(where_clause);
    let (filter, pushed) = if tables.len() < 2 {
        (conditions.map(|e| bind_expr(e, &scope, None)).collect(), Vec::new())
    } else {
        let (mut filter, mut pushed) = (Vec::new(), vec![Vec::new(); tables.len()]);
        for conjunct in conditions.flat_map(|e| e.conjuncts()) {
            let bound = bind_expr(conjunct, &scope, None);
            match own_table(&bound, &scope) {
                Some(t) => pushed[t].push(move_slots(&bound, |s| s - scope[t].offset)),
                None => filter.push(bound),
            }
        }
        (filter, pushed)
    };

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
    let order_by: Vec<(SortKey, bool)> = sel
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

    let streams = tables.len() == 1 && !grouped;
    let sorted = streams && in_path_order(&tables[0], &items, &order_by);
    Ok(SelectPlan {
        joins,
        pushed,
        filter,
        for_update: sel.for_update && tables.len() == 1,
        tables,
        width,
        grouped,
        group_by: sel.group_by.iter().map(|g| bind_expr(g, &scope, None)).collect(),
        aggs,
        items,
        columns: columns.into(),
        sorted,
        limit_stops: streams && sel.limit.is_some() && (order_by.is_empty() || sorted),
        order_by,
        limit: sel.limit.clone(),
    })
}

/// Whether `order_by` — of an ungrouped query of this one table — asks for
/// the order its range path has: ascending, by the key columns that follow
/// the pinned ones. A descending key is left to the sort: no statement that
/// asks for one has an index in that order.
fn in_path_order(access: &TableAccess, items: &[Option<Expr>], order_by: &[(SortKey, bool)]) -> bool {
    let AccessPath::Range { index, prefix, .. } = &access.path else { return false };
    let table = &access.table;
    let indexes = table.index_defs();
    let key_columns = match index {
        None => &table.schema.primary_key,
        Some(name) => match indexes.iter().find(|def| def.name == *name) {
            Some(def) => &def.key_columns,
            None => return false,
        },
    };
    // The table column an ORDER BY key is, if it is nothing more.
    let column = |key: &SortKey| match key {
        SortKey::Row(Expr::Slot(c)) => Some(*c),
        SortKey::Row(_) => None,
        SortKey::Output(i) => output_column(items, table.schema.arity(), *i),
    };
    let next = key_columns.get(prefix.len()..).unwrap_or(&[]);
    !order_by.is_empty()
        && order_by.len() <= next.len()
        && order_by.iter().zip(next).all(|((key, desc), col)| !desc && column(key) == Some(*col))
}

/// The column of a one-table query's tuple that output column `i` is a copy
/// of, if it is one: `*` spans the whole tuple, `width` columns.
fn output_column(items: &[Option<Expr>], width: usize, i: usize) -> Option<usize> {
    let mut first = 0;
    for item in items {
        let spans = if item.is_none() { width } else { 1 };
        if i < first + spans {
            return match item {
                None => Some(i - first),
                Some(Expr::Slot(c)) => Some(*c),
                Some(_) => None,
            };
        }
        first += spans;
    }
    None
}

/// Equi-join conditions `(slot in the joined tuple so far, column of
/// scope[i])` between the tables before `scope[i]` and it, from its ON
/// condition and WHERE.
fn equi_conditions(join: &Join, where_clause: Option<&Expr>, scope: &[Binding<'_>], i: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut sources: Vec<&Expr> = join.on.conjuncts();
    if let Some(w) = where_clause {
        sources.extend(w.conjuncts());
    }
    for e in sources {
        let Expr::Binary { op: BinOp::Eq, left: l, right: r } = e else { continue };
        for (a, b) in [(l, r), (r, l)] {
            let Some(col) = column_of(a, scope, i) else { continue };
            // `a` is a column of this table; the other side must be one of
            // a table before it.
            let Expr::Column { table, name } = &**b else { break };
            let Some(slot) = resolve(scope, table.as_deref(), name).filter(|s| *s < scope[i].offset) else { break };
            // A hash matches as `=` does within one type only (`=` finds
            // `1 = 1.0`): a mixed pair is left to the filter.
            let partner = &scope[binding_of(scope, slot)];
            if partner.schema.columns[slot - partner.offset].ty == scope[i].schema.columns[col].ty {
                out.push((slot, col));
            }
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::Connection;
    use bp_storage::{Column, Personality, Value};

    /// The tables the named statements run against, cut down to their keys.
    fn catalog() -> Arc<Database> {
        let db = Database::new(Personality::test());
        Connection::open(&db)
            .execute_batch(
                "CREATE TABLE order_line (ol_w_id INT, ol_d_id INT, ol_o_id INT, ol_number INT, ol_i_id INT,
                     PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number));
                 CREATE TABLE stock (s_w_id INT, s_i_id INT, s_quantity INT, PRIMARY KEY (s_w_id, s_i_id));
                 CREATE TABLE new_order (no_w_id INT, no_d_id INT, no_o_id INT,
                     PRIMARY KEY (no_w_id, no_d_id, no_o_id));
                 CREATE TABLE orders (o_w_id INT, o_d_id INT, o_id INT, o_c_id INT, o_entry_d FLOAT,
                     PRIMARY KEY (o_w_id, o_d_id, o_id));
                 CREATE INDEX idx_orders_customer ON orders (o_w_id, o_d_id, o_c_id);
                 CREATE INDEX idx_orders_entry ON orders (o_w_id, o_entry_d);
                 CREATE TABLE usertable (ycsb_key INT PRIMARY KEY, field0 VARCHAR(100));
                 CREATE TABLE special_facility (s_id INT, sf_type INT, is_active INT, PRIMARY KEY (s_id, sf_type));
                 CREATE TABLE call_forwarding (s_id INT, sf_type INT, start_time INT, end_time INT,
                     numberx VARCHAR(15), PRIMARY KEY (s_id, sf_type, start_time));",
            )
            .unwrap();
        db
    }

    /// The path of each table of `sql`, in FROM order: `point(..)`, `scan`,
    /// or `range(key: pinned..; bounds)` with parameters as `?n` from 1 —
    /// followed, for a query, by ` sorted` when the path's order answers
    /// ORDER BY and ` limit` when the fetch ends at LIMIT, and for a table of
    /// a join by ` where ..`, the conjuncts pushed down to it.
    fn paths(db: &Database, sql: &str) -> Vec<String> {
        fn term(e: &Expr, schema: &TableSchema) -> String {
            match e {
                Expr::Param(i) => format!("?{}", i + 1),
                Expr::Lit(v) => v.to_string(),
                Expr::Slot(c) => schema.columns[*c].name.clone(),
                Expr::Between { expr, low, high, negated: false } => {
                    format!("{} BETWEEN {} AND {}", term(expr, schema), term(low, schema), term(high, schema))
                }
                Expr::Binary { op, left, right } => {
                    let op = match op {
                        BinOp::Eq => "=",
                        BinOp::NotEq => "<>",
                        BinOp::Lt => "<",
                        BinOp::LtEq => "<=",
                        BinOp::Gt => ">",
                        BinOp::GtEq => ">=",
                        other => return format!("{other:?}({}, {})", term(left, schema), term(right, schema)),
                    };
                    format!("{} {op} {}", term(left, schema), term(right, schema))
                }
                other => format!("{other:?}"),
            }
        }
        fn key(k: &KeyExpr) -> String {
            match &k.expr {
                Expr::Param(i) => format!("?{}", i + 1),
                Expr::Lit(v) => v.to_string(),
                other => format!("{other:?}"),
            }
        }
        fn keys(ks: &[KeyExpr]) -> String {
            ks.iter().map(key).collect::<Vec<_>>().join(", ")
        }
        let describe = |access: &TableAccess| match &access.path {
            AccessPath::Point(k) => format!("point({})", keys(k)),
            AccessPath::Scan => "scan".to_string(),
            AccessPath::Range { index, prefix, lo, hi } => {
                let mut out = format!("range({}: {}", index.as_deref().unwrap_or("pk"), keys(prefix));
                for (bound, inc, exc) in [(lo, ">=", ">"), (hi, "<=", "<")] {
                    match bound {
                        Bound::Included(k) => out += &format!("; {inc} {}", key(k)),
                        Bound::Excluded(k) => out += &format!("; {exc} {}", key(k)),
                        Bound::Unbounded => {}
                    }
                }
                out + ")"
            }
        };
        match bind(db, &crate::parser::parse(sql).unwrap()).unwrap().kind {
            PlanKind::Select(sel) => {
                let facts = [(sel.sorted, " sorted"), (sel.limit_stops, " limit")];
                let facts: String = facts.iter().filter(|(holds, _)| *holds).map(|(_, fact)| *fact).collect();
                let pushed = |(i, access): (usize, &TableAccess)| match sel.pushed.get(i) {
                    Some(own) if !own.is_empty() => {
                        let own: Vec<String> = own.iter().map(|e| term(e, &access.table.schema)).collect();
                        format!(" where {}", own.join(" AND "))
                    }
                    _ => String::new(),
                };
                sel.tables.iter().enumerate().map(|t| describe(t.1) + &facts + &pushed(t)).collect()
            }
            PlanKind::Write(w) => vec![describe(&w.access)],
            PlanKind::Insert(_) => Vec::new(),
        }
    }

    #[test]
    fn paths_of_the_statements_that_scan() {
        let db = catalog();
        let path = |sql: &str| paths(&db, sql).join(" | ");
        // tpcc StockLevel: the district's last twenty orders, not all of
        // them, and of the warehouse's stock only what is low.
        assert_eq!(
            path(
                "SELECT COUNT(DISTINCT ol.ol_i_id) AS low FROM order_line ol JOIN stock s \
                 ON ol.ol_i_id = s.s_i_id WHERE ol.ol_w_id = ? AND ol.ol_d_id = ? \
                 AND ol.ol_o_id >= ? AND s.s_w_id = ? AND s.s_quantity < ?"
            ),
            "range(pk: ?1, ?2; >= ?3) where ol_w_id = ?1 AND ol_d_id = ?2 AND ol_o_id >= ?3 \
             | range(pk: ?4) where s_w_id = ?4 AND s_quantity < ?5"
        );
        // tpcc Delivery: the oldest new order is the first of the range.
        assert_eq!(
            path("SELECT no_o_id FROM new_order WHERE no_w_id = ? AND no_d_id = ? ORDER BY no_o_id LIMIT 1"),
            "range(pk: ?1, ?2) sorted limit"
        );
        assert_eq!(
            path("DELETE FROM new_order WHERE no_w_id = ? AND no_d_id = ? AND no_o_id = ?"),
            "point(?1, ?2, ?3)"
        );
        // tpcc OrderStatus: the customer's orders by index, the order's lines by PK prefix.
        assert_eq!(
            path("SELECT o_id FROM orders WHERE o_w_id = ? AND o_d_id = ? AND o_c_id = ? ORDER BY o_id DESC LIMIT 1"),
            "range(idx_orders_customer: ?1, ?2, ?3)"
        );
        assert_eq!(
            path("SELECT * FROM order_line WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?"),
            "range(pk: ?1, ?2, ?3)"
        );
        // ycsb Scan.
        assert_eq!(
            path("SELECT * FROM usertable WHERE ycsb_key >= ? AND ycsb_key < ? LIMIT 100"),
            "range(pk: ; >= ?1; < ?2) limit"
        );
        assert_eq!(path("SELECT * FROM usertable WHERE ycsb_key = ?"), "point(?1)");
        assert_eq!(path("SELECT * FROM usertable WHERE field0 = 'x'"), "scan");
    }

    #[test]
    fn between_and_reversed_comparisons_bound_a_range() {
        let db = catalog();
        assert_eq!(paths(&db, "SELECT * FROM usertable WHERE ycsb_key BETWEEN 3 AND ?"), ["range(pk: ; >= 3; <= ?1)"]);
        assert_eq!(paths(&db, "SELECT * FROM usertable WHERE ycsb_key NOT BETWEEN 3 AND 5"), ["scan"]);
        assert_eq!(paths(&db, "SELECT * FROM usertable WHERE ycsb_key BETWEEN field0 AND 5"), ["scan"]);
        assert_eq!(
            paths(&db, "UPDATE new_order SET no_o_id = 0 WHERE ? > no_d_id AND no_w_id = 1 AND -2 <= no_d_id"),
            ["range(pk: 1; >= Neg(Lit(Int(2))); < ?1)"]
        );
    }

    #[test]
    fn more_pinned_columns_win_then_a_bound_then_the_primary_key() {
        let db = catalog();
        let orders = |predicate: &str| paths(&db, &format!("SELECT * FROM orders WHERE {predicate}")).join("");
        assert_eq!(orders("o_w_id = 1"), "range(pk: 1)", "a tie goes to the primary key");
        assert_eq!(orders("o_w_id = 1 AND o_entry_d > 2.5"), "range(idx_orders_entry: 1; > 2.5)", "a bound breaks it");
        assert_eq!(
            orders("o_w_id = 1 AND o_d_id = 2 AND o_entry_d > 2.5"),
            "range(pk: 1, 2)",
            "but does not beat a longer prefix"
        );
        assert_eq!(
            orders("o_w_id = 1 AND o_d_id = 2 AND o_entry_d > 2.5 AND o_c_id <= 7"),
            "range(idx_orders_customer: 1, 2; <= 7)"
        );
        assert_eq!(orders("o_d_id = 2 AND o_id = 3"), "scan", "no leading column, no path");
        assert_eq!(orders("o_w_id > 1 AND o_id = 3"), "range(pk: ; > 1)");
    }

    #[test]
    fn constants_cross_equi_joins() {
        let db = catalog();
        // tatp GetNewDestination: `cf.s_id` is only pinned through `sf.s_id`.
        assert_eq!(
            paths(
                &db,
                "SELECT cf.numberx FROM special_facility sf JOIN call_forwarding cf \
                 ON sf.s_id = cf.s_id WHERE sf.s_id = ? AND sf.sf_type = ? AND sf.is_active = 1 \
                 AND cf.sf_type = ? AND cf.start_time <= ? AND cf.end_time > ?"
            ),
            [
                "point(?1, ?2) where s_id = ?1 AND sf_type = ?2 AND is_active = 1",
                "range(pk: ?1, ?3; <= ?4) where sf_type = ?3 AND start_time <= ?4 AND end_time > ?5"
            ]
        );
        // Through a chain of joins, and from WHERE as well as ON; a constant
        // of the joined table's own is kept.
        assert_eq!(
            paths(
                &db,
                "SELECT * FROM new_order n JOIN orders o ON o.o_w_id = n.no_w_id AND o.o_id = n.no_o_id \
                 JOIN order_line ol ON ol.ol_w_id = o.o_w_id \
                 WHERE n.no_w_id = 4 AND n.no_d_id = 5 AND o.o_d_id = n.no_d_id AND o.o_d_id = 6 \
                 AND ol.ol_d_id = o.o_d_id"
            ),
            ["range(pk: 4, 5) where no_w_id = 4 AND no_d_id = 5", "range(pk: 4, 6) where o_d_id = 6", "range(pk: 4, 6)"]
        );
    }

    #[test]
    fn one_table_conjuncts_go_below_the_join_and_the_rest_stay_over_it() {
        let db = catalog();
        let sql = "SELECT * FROM new_order n JOIN orders o ON o.o_w_id = n.no_w_id AND o.o_entry_d = n.no_o_id \
                   WHERE n.no_w_id = ? AND n.no_d_id = 3 AND o.o_w_id = ? AND o.o_d_id BETWEEN ? AND ? \
                   AND o.o_d_id < ? AND o.o_c_id + 1 > n.no_d_id AND o.o_c_id <> 7 AND nope = 1 \
                   AND MAX(o.o_id) > 1 AND ? = 2";
        assert_eq!(
            paths(&db, sql),
            [
                "range(pk: ?1, 3) where no_w_id = ?1 AND no_d_id = 3",
                "range(pk: ?2; >= ?3; < ?5) where o_w_id = ?2 AND o_d_id BETWEEN ?3 AND ?4 AND o_d_id < ?5 \
                 AND o_c_id <> 7"
            ]
        );
        let PlanKind::Select(sel) = bind(&db, &crate::parser::parse(sql).unwrap()).unwrap().kind else { panic!() };
        // Over two tables, a column that resolves to none, an aggregate, no
        // column at all.
        assert_eq!(sel.filter.len(), 6, "{:?}", sel.filter);
        // An INT and a FLOAT column are no hash key: `=` finds `1 = 1.0`.
        assert_eq!(sel.joins, [[(0, 0)]]);
        let scanning = Plan { version: 0, kind: PlanKind::Select(sel) }.scanning();
        let PlanKind::Select(sel) = scanning.kind else { panic!() };
        assert_eq!((sel.filter.len(), sel.pushed.concat().len(), sel.joins.concat().len()), (12, 0, 0));
    }

    #[test]
    fn scanning_plans_fetch_the_same_rows() {
        let db = catalog();
        let mut c = Connection::open(&db);
        for k in 0..20i64 {
            c.execute("INSERT INTO usertable VALUES (?, 'v')", &[Value::Int(k)]).unwrap();
        }
        let sql = "SELECT ycsb_key FROM usertable WHERE ycsb_key >= ? AND ycsb_key < ?";
        let window = [Value::Int(5), Value::Int(9)];
        let read = |c: &mut Connection, p: &crate::connection::Prepared| {
            let before = db.metrics().snapshot().rows_read;
            let rows = c.query_prepared(p, &window).unwrap().rows;
            (rows, db.metrics().snapshot().rows_read - before)
        };
        let (planned, scanning) = (c.prepare(sql).unwrap(), c.prepare_scanning(sql).unwrap());
        let (rows, read_planned) = read(&mut c, &planned);
        assert_eq!((rows.len(), read_planned), (4, 4));
        assert_eq!(read(&mut c, &scanning), (rows, 20));
    }

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
