//! Statement execution: a row-at-a-time executor that replays a bound
//! [`Plan`] over the storage engine.
//!
//! What is left to do per execution is what depends on the parameters or the
//! data: evaluating the access path's key expressions, fetching the
//! candidate rows (a joined table's filtered by its own conjuncts as they
//! come), re-applying the residual predicate, and projecting, grouping and
//! sorting what survives. Everything else was decided when the
//! statement was bound ([`crate::plan`]).
//!
//! A row goes from its index entry to the result in one pass, and a stage
//! the plan has nothing for costs nothing: a fetched row is the table's own
//! ([`SharedRow`]), without a join it is the tuple, and under `SELECT *` it
//! is the output row. The pass ends where the answer does: the visitor that
//! takes the rows says when it has the LIMIT-th, and a path whose key order
//! is the order asked for is neither keyed nor sorted again.

use std::ops::{Bound, ControlFlow};
use std::sync::Arc;

use bp_storage::{Column, RangeCursor, RowId, Session, SharedRow, Table, TableSchema, Value};
use bp_util::hash::MixMap;

use crate::ast::*;
use crate::error::{Result, SqlError};
use crate::expr::{eval, eval_filter, EvalScope};
use crate::plan::{
    AccessPath, AggCall, InsertPlan, KeyExpr, Plan, PlanKind, SelectPlan, SortKey, TableAccess, WritePlan,
};

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementResult {
    Rows(ResultSet),
    Affected(u64),
    Ddl,
    TxnControl,
}

impl StatementResult {
    pub fn rows(self) -> ResultSet {
        match self {
            StatementResult::Rows(rs) => rs,
            other => panic!("expected rows, got {other:?}"),
        }
    }

    pub fn affected(&self) -> u64 {
        match self {
            StatementResult::Affected(n) => *n,
            StatementResult::Rows(rs) => rs.rows.len() as u64,
            _ => 0,
        }
    }
}

/// A materialized query result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    /// Output column names, shared with the statement's plan.
    pub columns: Arc<[String]>,
    /// Immutable, and under `SELECT *` of one table the rows the table
    /// stores: they show what was read, whatever is written afterwards.
    pub rows: Vec<SharedRow>,
}

impl ResultSet {
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn col_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Value at (row, column-name).
    pub fn get(&self, row: usize, col: &str) -> Option<&Value> {
        let c = self.col_index(col)?;
        self.rows.get(row)?.get(c)
    }

    pub fn get_int(&self, row: usize, col: &str) -> Option<i64> {
        self.get(row, col)?.as_int()
    }

    pub fn get_f64(&self, row: usize, col: &str) -> Option<f64> {
        self.get(row, col)?.as_float()
    }

    pub fn get_str(&self, row: usize, col: &str) -> Option<&str> {
        self.get(row, col)?.as_str()
    }
}

/// Execute a DDL or transaction-control statement. These are interpreted as
/// they stand: nothing about them is worth binding.
pub(crate) fn execute_unplanned(session: &mut Session, stmt: &Statement) -> Result<StatementResult> {
    match stmt {
        Statement::CreateTable(ct) => {
            let schema = build_schema(ct)?;
            session.database().create_table(schema)?;
            Ok(StatementResult::Ddl)
        }
        Statement::CreateIndex(ci) => {
            let cols: Vec<&str> = ci.columns.iter().map(String::as_str).collect();
            session
                .database()
                .create_index(&ci.table, &ci.name, &cols, ci.unique)?;
            Ok(StatementResult::Ddl)
        }
        Statement::DropTable { name, if_exists } => {
            match session.database().drop_table(name) {
                Ok(()) => Ok(StatementResult::Ddl),
                Err(bp_storage::StorageError::NoSuchTable(_)) if *if_exists => Ok(StatementResult::Ddl),
                Err(e) => Err(e.into()),
            }
        }
        Statement::Begin => {
            session.begin()?;
            Ok(StatementResult::TxnControl)
        }
        Statement::Commit => {
            session.commit()?;
            Ok(StatementResult::TxnControl)
        }
        Statement::Rollback => {
            session.rollback()?;
            Ok(StatementResult::TxnControl)
        }
        dml => Err(SqlError::Unsupported(format!("{dml:?} needs a plan"))),
    }
}

/// Execute a bound statement on a session with its parameters.
///
/// Requires an active transaction; `autocommit` wrapping is the connection
/// layer's job.
pub(crate) fn execute(session: &mut Session, plan: &Plan, params: &[Value]) -> Result<StatementResult> {
    match &plan.kind {
        PlanKind::Insert(ins) => exec_insert(session, ins, params),
        PlanKind::Select(sel) => Ok(StatementResult::Rows(exec_select(session, sel, params)?)),
        PlanKind::Write(w) => exec_write(session, w, params),
    }
}

fn build_schema(ct: &CreateTable) -> Result<TableSchema> {
    let mut columns = Vec::with_capacity(ct.columns.len());
    let mut pk: Vec<String> = ct.primary_key.clone();
    for c in &ct.columns {
        if c.primary_key {
            pk.push(c.name.clone());
        }
        let not_null = c.not_null || c.primary_key || ct.primary_key.iter().any(|p| p.eq_ignore_ascii_case(&c.name));
        columns.push(Column { name: c.name.clone(), ty: c.ty, nullable: !not_null });
    }
    let pk_refs: Vec<&str> = pk.iter().map(String::as_str).collect();
    TableSchema::new(&ct.name, columns, &pk_refs).map_err(Into::into)
}

fn exec_insert(session: &mut Session, ins: &InsertPlan, params: &[Value]) -> Result<StatementResult> {
    let scope = EvalScope::empty(params);
    for value_row in &ins.rows {
        let mut row = vec![Value::Null; ins.table.schema.arity()];
        for (expr, &pos) in value_row.iter().zip(&ins.positions) {
            row[pos] = eval(expr, &scope)?;
        }
        session.insert(&ins.table, row)?;
    }
    Ok(StatementResult::Affected(ins.rows.len() as u64))
}

// ---- Fetching candidates ----

/// What a key expression comes to for one execution.
enum Probe {
    /// The residual predicate compares the key column with NULL, which no
    /// row satisfies: there is nothing to fetch.
    Null,
    /// The value to look up, in its key column's type.
    Key(Value),
    /// No value of the column's type stands for this one (`2.5` or `'x'`
    /// against an INT column), or it does not evaluate: the path ends
    /// before this column and the residual predicate decides — or fails,
    /// once a row reaches it.
    Unusable,
}

fn probe(key: &KeyExpr, params: &[Value]) -> Probe {
    match eval(&key.expr, &EvalScope::empty(params)) {
        Ok(Value::Null) => Probe::Null,
        Ok(v) => v.into_key(key.ty).map_or(Probe::Unusable, Probe::Key),
        Err(_) => Probe::Unusable,
    }
}

/// An access path with its key expressions evaluated for one execution.
enum Probed<'a> {
    /// The predicate compares a key column with NULL: no row passes it.
    Nothing,
    /// The primary key of the one row.
    Point(Vec<Value>),
    /// `whole`: every column the plan pins took its probe, so the cursor
    /// yields rows in the order the plan counted on.
    Range { cursor: RangeCursor<'a>, whole: bool },
    Scan,
}

fn probe_path<'a>(access: &'a TableAccess, params: &[Value]) -> Probed<'a> {
    let (index, pinned, lo, hi) = match &access.path {
        AccessPath::Point(key) => (None, key, &Bound::Unbounded, &Bound::Unbounded),
        AccessPath::Range { index, prefix, lo, hi } => (index.as_deref(), prefix, lo, hi),
        AccessPath::Scan => return Probed::Scan,
    };
    let mut prefix = Vec::with_capacity(pinned.len());
    for key in pinned {
        match probe(key, params) {
            Probe::Null => return Probed::Nothing,
            Probe::Key(v) => prefix.push(v),
            Probe::Unusable => break,
        }
    }
    let whole = prefix.len() == pinned.len();
    if whole && matches!(access.path, AccessPath::Point(_)) {
        return Probed::Point(prefix);
    }
    // Bounds are on the column after the whole prefix, or do not apply.
    let bound = |expr: &Bound<KeyExpr>| {
        let (Bound::Included(key) | Bound::Excluded(key)) = expr else { return Some(Bound::Unbounded) };
        match probe(key, params) {
            Probe::Null => None,
            Probe::Key(v) => Some(expr.as_ref().map(|_| v)),
            Probe::Unusable => Some(Bound::Unbounded),
        }
    };
    let (lo, hi) = match whole.then(|| bound(lo).zip(bound(hi))) {
        Some(Some(bounds)) => bounds,
        Some(None) => return Probed::Nothing,
        None => (Bound::Unbounded, Bound::Unbounded),
    };
    let cursor = access.table.range(index, &prefix, lo.as_ref(), hi.as_ref());
    Probed::Range { cursor, whole }
}

/// Hand `visit` each candidate `(rowid, row)` of `table` along its probed
/// path, locked as `for_update` says, until there are no more or the
/// visitor breaks. The visitor gets the session back, to write the row it
/// was shown. `in_key_order`: the caller takes the first rows it is shown
/// for the first in key order (see [`Session::read_rows`]).
fn fetch(
    session: &mut Session,
    table: &Arc<Table>,
    probed: Probed<'_>,
    for_update: bool,
    in_key_order: bool,
    mut visit: impl FnMut(&mut Session, RowId, SharedRow) -> Result<ControlFlow<()>>,
) -> Result<()> {
    match probed {
        Probed::Nothing => {}
        Probed::Point(key) => {
            // The one row: there is nothing to stop short of.
            if let Some((rid, row)) = session.read_pk_shared(table, &key, for_update)? {
                let _ = visit(session, rid, row)?;
            }
        }
        Probed::Range { cursor, .. } => session.read_rows(table, cursor, for_update, in_key_order, visit)?,
        Probed::Scan => {
            for (rid, mut row) in session.scan(table)? {
                if for_update {
                    // Re-lock each row exclusively.
                    let Some(locked) = session.get_row(table, rid, true)? else { continue };
                    row = locked;
                }
                if visit(session, rid, row)?.is_break() {
                    break;
                }
            }
        }
    }
    Ok(())
}

/// All of one table's candidates that pass `filter`, the conjuncts of a
/// join over its columns alone: a join needs both its sides whole.
fn fetch_all(
    session: &mut Session,
    access: &TableAccess,
    filter: &[Expr],
    params: &[Value],
    for_update: bool,
) -> Result<Vec<SharedRow>> {
    let mut rows = Vec::new();
    fetch(session, &access.table, probe_path(access, params), for_update, false, |_, _, row| {
        if passes(filter, &row, params)? {
            rows.push(row);
        }
        Ok(ControlFlow::Continue(()))
    })?;
    Ok(rows)
}

/// Whether `row` passes every one of `filter`, tried in order.
fn passes(filter: &[Expr], row: &[Value], params: &[Value]) -> Result<bool> {
    let scope = EvalScope::new(row, params);
    for f in filter {
        if !eval_filter(f, &scope)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// A new row of `n` values, filled in place: built in the one allocation it
/// is shared from, whatever evaluating its values may fail with.
fn build_row(n: usize, fill: impl FnOnce(&mut [Value]) -> Result<()>) -> Result<SharedRow> {
    let mut row: SharedRow = std::iter::repeat_n(Value::Null, n).collect();
    fill(Arc::get_mut(&mut row).expect("a new row has one owner"))?;
    Ok(row)
}

// ---- SELECT ----

/// The output side of a SELECT: rows in the order they were produced, and
/// beside each, when they are to be sorted, the key it sorts by.
struct Output<'a> {
    sel: &'a SelectPlan,
    params: &'a [Value],
    /// `SELECT *` alone: the tuple is the output row.
    star_only: bool,
    /// ORDER BY is not answered by the order the rows come in.
    sorts: bool,
    /// The row count that ends the fetch.
    stop_at: Option<usize>,
    rows: Vec<SharedRow>,
    keys: Vec<Vec<Value>>,
}

impl Output<'_> {
    /// Project one tuple — a fetched or joined row, or a group's row — and
    /// say whether more are wanted.
    fn push(&mut self, t: SharedRow) -> Result<ControlFlow<()>> {
        let sel = self.sel;
        let scope = EvalScope::new(&t, self.params);
        let projected = if self.star_only {
            None
        } else {
            Some(build_row(sel.columns.len(), |out| {
                let mut at = 0;
                for item in &sel.items {
                    match item {
                        None => {
                            out[at..at + sel.width].clone_from_slice(&t[..sel.width]);
                            at += sel.width;
                        }
                        Some(expr) => {
                            out[at] = eval(expr, &scope)?;
                            at += 1;
                        }
                    }
                }
                Ok(())
            })?)
        };
        // An ORDER BY expression may need the row the output was computed
        // from.
        if self.sorts {
            let shown = projected.as_ref().unwrap_or(&t);
            let key = sel.order_by.iter().map(|(key, _)| match key {
                SortKey::Output(i) => Ok(shown[*i].clone()),
                SortKey::Row(expr) => eval(expr, &scope),
            });
            self.keys.push(key.collect::<Result<Vec<Value>>>()?);
        }
        self.rows.push(projected.unwrap_or(t));
        Ok(if self.stop_at == Some(self.rows.len()) { ControlFlow::Break(()) } else { ControlFlow::Continue(()) })
    }
}

fn exec_select(session: &mut Session, sel: &SelectPlan, params: &[Value]) -> Result<ResultSet> {
    let limit = match &sel.limit {
        None => None,
        Some(expr) => {
            let n = eval(expr, &EvalScope::empty(params))?.as_int();
            Some(n.ok_or_else(|| SqlError::Eval("LIMIT must be an integer".into()))?.max(0) as usize)
        }
    };
    // One table: its rows are the tuples, as they are fetched.
    let probed = match sel.tables.as_slice() {
        [only] => Some(probe_path(only, params)),
        _ => None,
    };
    // The plan may count on the path's order for ORDER BY — unless this
    // execution could not pin what the plan pins, and reads a wider range in
    // another order. Without a sort to come, the LIMIT-th row that passes
    // the predicate is the last one wanted.
    let cut_short = matches!(probed, Some(Probed::Range { whole: false, .. }));
    let in_order = sel.sorted && !cut_short;
    let sorts = !sel.order_by.is_empty() && !in_order;
    let stop_at = limit.filter(|_| sel.limit_stops && !sorts);
    let star_only = matches!(sel.items.as_slice(), [None]);
    let mut out = Output { sel, params, star_only, sorts, stop_at, rows: Vec::new(), keys: Vec::new() };
    let mut groups = sel.grouped.then(|| Groups::new(sel, params));

    // Every tuple of the FROM clause passes here once: what is left of ON
    // and WHERE is applied, and what survives goes to its group or straight
    // to the output.
    let mut tuple = |t: SharedRow| -> Result<ControlFlow<()>> {
        if !passes(&sel.filter, &t, params)? {
            return Ok(ControlFlow::Continue(()));
        }
        match &mut groups {
            Some(groups) => groups.add(t).map(ControlFlow::Continue),
            None => out.push(t),
        }
    };
    match (sel.tables.as_slice(), probed) {
        // Nothing is wanted: nothing is read.
        _ if stop_at == Some(0) => {}
        // Without FROM: one empty tuple.
        ([], _) => tuple(Arc::from([])).map(drop)?,
        ([only], Some(probed)) => {
            fetch(session, &only.table, probed, sel.for_update, in_order, |_, _, row| tuple(row))?
        }
        // Fetch the driving table, then join each further table on, each
        // filtered by its own conjuncts as it is fetched.
        ([first, rest @ ..], _) => {
            let mut tuples = fetch_all(session, first, &sel.pushed[0], params, sel.for_update)?;
            for ((access, pushed), equi) in rest.iter().zip(&sel.pushed[1..]).zip(&sel.joins) {
                tuples = join(&tuples, &fetch_all(session, access, pushed, params, false)?, equi);
            }
            tuples.into_iter().try_for_each(|t| tuple(t).map(drop))?;
        }
    }
    if let Some(groups) = groups {
        groups.finish().try_for_each(|row| out.push(row?).map(drop))?;
    }
    let Output { mut rows, keys, .. } = out;

    if sorts {
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| {
            let by_key = keys[a].iter().zip(&keys[b]).zip(&sel.order_by);
            by_key
                .map(|((va, vb), (_, desc))| if *desc { vb.cmp(va) } else { va.cmp(vb) })
                .find(|ord| ord.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rows = order.into_iter().map(|i| Arc::clone(&rows[i])).collect();
    }
    if let Some(n) = limit {
        rows.truncate(n);
    }

    Ok(ResultSet { columns: sel.columns.clone(), rows })
}

/// Join each tuple with the matching rows of the next table: a hash join on
/// the `(tuple slot, right column)` pairs, or the cross product without any
/// (comma joins; only sensible for small inputs). Either way a tuple's
/// partners follow it in the order `right` has them. Kept out of line: a
/// join is rare, and every statement runs through its caller.
#[inline(never)]
fn join(left: &[SharedRow], right: &[SharedRow], equi: &[(usize, usize)]) -> Vec<SharedRow> {
    let concat = |l: &SharedRow, r: &SharedRow| l.iter().chain(r.iter()).cloned().collect::<SharedRow>();
    if equi.is_empty() {
        return left.iter().flat_map(|l| right.iter().map(move |r| concat(l, r))).collect();
    }
    // Every right row's key side by side, and the rows that share one
    // chained: `first` row under a key, then `next` of each. A key with a
    // NULL in it equals nothing.
    let width = equi.len();
    let keys: Vec<JoinKey<'_>> = right.iter().flat_map(|r| equi.iter().map(|(_, rc)| JoinKey(&r[*rc]))).collect();
    let mut first: MixMap<&[JoinKey<'_>], usize> = MixMap::with_capacity_and_hasher(right.len(), Default::default());
    let mut next = vec![usize::MAX; right.len()];
    for (i, key) in keys.chunks_exact(width).enumerate().rev() {
        if key.iter().all(|k| !k.0.is_null()) {
            next[i] = first.insert(key, i).unwrap_or(usize::MAX);
        }
    }
    let (mut probe, mut out) = (Vec::with_capacity(width), Vec::new());
    for l in left {
        probe.clear();
        probe.extend(equi.iter().map(|(slot, _)| JoinKey(&l[*slot])));
        let mut at = first.get(probe.as_slice()).copied().unwrap_or(usize::MAX);
        while let Some(r) = right.get(at) {
            out.push(concat(l, r));
            at = next[at];
        }
    }
    out
}

/// A join key's value, equal to another as `=` finds them (`Value::cmp`),
/// not as `Value`'s `==` does: a NaN equals itself, `-0.0` does not equal
/// `0.0`. Keys are paired within one type only, where `Value`'s hash agrees
/// with this.
struct JoinKey<'a>(&'a Value);

impl PartialEq for JoinKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.cmp(other.0).is_eq()
    }
}

impl Eq for JoinKey<'_> {}

impl std::hash::Hash for JoinKey<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state)
    }
}

// ---- Aggregation ----

#[derive(Debug, Clone)]
struct Accumulator {
    count: u64,
    sum: f64,
    /// The sum of the integers; `None` once it no longer fits one.
    sum_i: Option<i64>,
    int_only: bool,
    min: Option<Value>,
    max: Option<Value>,
    distinct: Option<std::collections::BTreeSet<Value>>,
}

impl Accumulator {
    fn new(distinct: bool) -> Accumulator {
        Accumulator {
            count: 0,
            sum: 0.0,
            sum_i: Some(0),
            int_only: true,
            min: None,
            max: None,
            distinct: if distinct { Some(Default::default()) } else { None },
        }
    }

    fn add(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        if let Some(set) = &mut self.distinct {
            if !set.insert(v.clone()) {
                return;
            }
        }
        self.count += 1;
        match v {
            Value::Int(i) => {
                self.sum += *i as f64;
                self.sum_i = self.sum_i.and_then(|sum| sum.checked_add(*i));
            }
            Value::Float(f) => {
                self.sum += f;
                self.int_only = false;
            }
            _ => self.int_only = false,
        }
        if self.min.as_ref().is_none_or(|m| v < m) {
            self.min = Some(v.clone());
        }
        if self.max.as_ref().is_none_or(|m| v > m) {
            self.max = Some(v.clone());
        }
    }

    fn result(&self, func: AggFunc) -> Result<Value> {
        Ok(match func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.int_only {
                    // As `a + b` over the same integers would have failed.
                    Value::Int(self.sum_i.ok_or_else(|| SqlError::Eval("integer overflow".into()))?)
                } else {
                    Value::Float(self.sum)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        })
    }
}

/// The groups of a grouped SELECT, in the order their first tuples came.
struct Groups<'a> {
    sel: &'a SelectPlan,
    params: &'a [Value],
    /// A group's first tuple and one accumulator per aggregate call.
    groups: Vec<(SharedRow, Vec<Accumulator>)>,
    index: MixMap<Vec<Value>, usize>,
}

impl<'a> Groups<'a> {
    fn new(sel: &'a SelectPlan, params: &'a [Value]) -> Groups<'a> {
        Groups { sel, params, groups: Vec::new(), index: MixMap::default() }
    }

    fn accumulators(&self) -> Vec<Accumulator> {
        self.sel.aggs.iter().map(|a: &AggCall| Accumulator::new(a.distinct)).collect()
    }

    fn add(&mut self, t: SharedRow) -> Result<()> {
        let scope = EvalScope::new(&t, self.params);
        let key = self.sel.group_by.iter().map(|g| eval(g, &scope)).collect::<Result<Vec<_>>>()?;
        let next = self.groups.len();
        let gi = *self.index.entry(key).or_insert(next);
        if gi == next {
            self.groups.push((Arc::clone(&t), self.accumulators()));
        }
        for (acc, call) in self.groups[gi].1.iter_mut().zip(&self.sel.aggs) {
            match &call.arg {
                None => acc.add(&Value::Int(1)), // COUNT(*)
                Some(arg) => acc.add(&eval(arg, &scope)?),
            }
        }
        Ok(())
    }

    /// One row per group: the group's first tuple followed by the result of
    /// each of the plan's aggregate calls — the row the select list of a
    /// grouped query was bound against.
    fn finish(mut self) -> impl Iterator<Item = Result<SharedRow>> + 'a {
        // A global aggregate over an empty input still yields one row.
        if self.groups.is_empty() && self.sel.group_by.is_empty() {
            let nulls = std::iter::repeat_n(Value::Null, self.sel.width).collect();
            self.groups.push((nulls, self.accumulators()));
        }
        let aggs = &self.sel.aggs;
        self.groups.into_iter().map(move |(first, accs)| {
            build_row(first.len() + aggs.len(), |row| {
                let (tuple, results) = row.split_at_mut(first.len());
                tuple.clone_from_slice(&first);
                for (result, (acc, call)) in results.iter_mut().zip(accs.iter().zip(aggs)) {
                    *result = acc.result(call.func)?;
                }
                Ok(())
            })
        })
    }
}

// ---- UPDATE / DELETE ----

fn exec_write(session: &mut Session, w: &WritePlan, params: &[Value]) -> Result<StatementResult> {
    let table = &w.access.table;
    let write = |session: &mut Session, rid: RowId, row: SharedRow| -> Result<()> {
        match &w.sets {
            Some(sets) => {
                // Every new value sees the row as it was read (`SET a = b,
                // b = a` swaps). Then the statement lets go of the row, so
                // one that only the table holds is written in place.
                let scope = EvalScope::new(&row, params);
                let mut values = Vec::with_capacity(sets.len());
                for (pos, e) in sets {
                    values.push((*pos, eval(e, &scope)?));
                }
                drop(row);
                Ok(session.update_columns(table, rid, values)?)
            }
            None => Ok(session.delete(table, rid)?),
        }
    };
    let probed = probe_path(&w.access, params);
    // A range is read to its end before its first row is written: it is
    // read a chunk at a time, and an UPDATE that moves a row ahead in the
    // index it is read by would meet the row again.
    let read_first = matches!(probed, Probed::Range { .. });
    let mut matched = Vec::new();
    let mut count = 0u64;
    fetch(session, table, probed, true, false, |session, rid, row| {
        if let Some(filter) = &w.filter {
            if !eval_filter(filter, &EvalScope::new(&row, params))? {
                return Ok(ControlFlow::Continue(()));
            }
        }
        if read_first {
            matched.push((rid, row));
        } else {
            write(session, rid, row)?;
        }
        count += 1;
        Ok(ControlFlow::Continue(()))
    })?;
    for (rid, row) in matched {
        write(session, rid, row)?;
    }
    Ok(StatementResult::Affected(count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::Connection;
    use bp_storage::{Database, Personality};

    fn conn() -> Connection {
        let db = Database::new(Personality::test());
        let mut c = Connection::open(&db);
        c.execute_batch(
            "CREATE TABLE item (i_id INT PRIMARY KEY, i_name VARCHAR(24), i_price FLOAT, i_cat INT);
             CREATE INDEX item_cat ON item (i_cat);
             CREATE TABLE sale (s_id INT PRIMARY KEY, s_item INT, s_qty INT);
             CREATE INDEX sale_item ON sale (s_item);",
        )
        .unwrap();
        for i in 0..50i64 {
            c.execute(
                "INSERT INTO item VALUES (?, ?, ?, ?)",
                &[
                    Value::Int(i),
                    Value::Str(format!("item{i}")),
                    Value::Float(i as f64 * 1.5),
                    Value::Int(i % 5),
                ],
            )
            .unwrap();
        }
        for s in 0..100i64 {
            c.execute(
                "INSERT INTO sale VALUES (?, ?, ?)",
                &[Value::Int(s), Value::Int(s % 50), Value::Int(1 + s % 3)],
            )
            .unwrap();
        }
        c
    }

    #[test]
    fn point_lookup_by_pk() {
        let mut c = conn();
        let rs = c.query("SELECT i_name FROM item WHERE i_id = 7", &[]).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.get_str(0, "i_name"), Some("item7"));
    }

    #[test]
    fn secondary_index_lookup() {
        let mut c = conn();
        let rs = c.query("SELECT i_id FROM item WHERE i_cat = 2", &[]).unwrap();
        assert_eq!(rs.len(), 10);
    }

    #[test]
    fn range_scan_on_pk() {
        let mut c = conn();
        let rs = c
            .query("SELECT i_id FROM item WHERE i_id >= 10 AND i_id < 20", &[])
            .unwrap();
        assert_eq!(rs.len(), 10);
    }

    #[test]
    fn full_scan_with_residual_filter() {
        let mut c = conn();
        let rs = c
            .query("SELECT i_id FROM item WHERE i_name LIKE 'item1%'", &[])
            .unwrap();
        // item1, item10..19
        assert_eq!(rs.len(), 11);
    }

    #[test]
    fn order_by_and_limit() {
        let mut c = conn();
        let rs = c
            .query("SELECT i_id FROM item ORDER BY i_id DESC LIMIT 3", &[])
            .unwrap();
        let ids: Vec<i64> = (0..3).map(|r| rs.get_int(r, "i_id").unwrap()).collect();
        assert_eq!(ids, vec![49, 48, 47]);
    }

    #[test]
    fn order_by_two_keys() {
        let mut c = conn();
        let rs = c
            .query("SELECT i_cat, i_id FROM item ORDER BY i_cat, i_id DESC LIMIT 2", &[])
            .unwrap();
        assert_eq!(rs.get_int(0, "i_cat"), Some(0));
        assert_eq!(rs.get_int(0, "i_id"), Some(45));
        assert_eq!(rs.get_int(1, "i_id"), Some(40));
    }

    #[test]
    fn global_aggregates() {
        let mut c = conn();
        let rs = c
            .query(
                "SELECT COUNT(*) AS n, SUM(i_cat) AS s, AVG(i_price) AS a, MIN(i_id) AS lo, MAX(i_id) AS hi FROM item",
                &[],
            )
            .unwrap();
        assert_eq!(rs.get_int(0, "n"), Some(50));
        assert_eq!(rs.get_int(0, "s"), Some(100)); // 10 * (0+1+2+3+4)
        assert_eq!(rs.get_int(0, "lo"), Some(0));
        assert_eq!(rs.get_int(0, "hi"), Some(49));
        let avg = rs.get_f64(0, "a").unwrap();
        assert!((avg - 36.75).abs() < 1e-9, "{avg}");
    }

    #[test]
    fn aggregate_on_empty_input_yields_row() {
        let mut c = conn();
        let rs = c
            .query("SELECT COUNT(*) AS n, SUM(i_id) AS s FROM item WHERE i_id > 1000", &[])
            .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.get_int(0, "n"), Some(0));
        assert_eq!(rs.get(0, "s"), Some(&Value::Null));
    }

    #[test]
    fn group_by_with_order() {
        let mut c = conn();
        let rs = c
            .query(
                "SELECT i_cat, COUNT(*) AS n FROM item GROUP BY i_cat ORDER BY i_cat",
                &[],
            )
            .unwrap();
        assert_eq!(rs.len(), 5);
        for r in 0..5 {
            assert_eq!(rs.get_int(r, "i_cat"), Some(r as i64));
            assert_eq!(rs.get_int(r, "n"), Some(10));
        }
    }

    #[test]
    fn aggregate_arithmetic() {
        let mut c = conn();
        let rs = c
            .query("SELECT SUM(s_qty) / COUNT(*) AS avg_qty FROM sale", &[])
            .unwrap();
        assert_eq!(rs.get_int(0, "avg_qty"), Some(1)); // (1+2+3)*33ish / 100 -> int div
    }

    #[test]
    fn sum_overflows_as_addition_does() {
        let db = Database::new(Personality::test());
        let mut c = Connection::open(&db);
        c.execute_batch("CREATE TABLE big (id INT PRIMARY KEY, n INT, f FLOAT);").unwrap();
        for id in 0..2 {
            c.execute("INSERT INTO big VALUES (?, ?, 0.5)", &[Value::Int(id), Value::Int(i64::MAX)]).unwrap();
        }
        let added = c.query("SELECT n + n AS s FROM big WHERE id = 0", &[]).unwrap_err();
        let summed = c.query("SELECT SUM(n) AS s FROM big", &[]).unwrap_err();
        assert_eq!(summed.to_string(), added.to_string());
        assert!(summed.to_string().contains("integer overflow"), "{summed}");
        // Only the integer sum is lost: what does not ask for it is answered.
        let rs = c.query("SELECT COUNT(n) AS k, AVG(n) AS a, MAX(n) AS m, SUM(f) AS f FROM big", &[]).unwrap();
        assert_eq!(rs.get_int(0, "k"), Some(2));
        assert_eq!(rs.get_f64(0, "a"), Some(i64::MAX as f64));
        assert_eq!(rs.get_int(0, "m"), Some(i64::MAX));
        assert_eq!(rs.get_f64(0, "f"), Some(1.0));
    }

    #[test]
    fn count_distinct() {
        let mut c = conn();
        let rs = c.query("SELECT COUNT(DISTINCT i_cat) AS n FROM item", &[]).unwrap();
        assert_eq!(rs.get_int(0, "n"), Some(5));
    }

    #[test]
    fn join_with_index() {
        let mut c = conn();
        let rs = c
            .query(
                "SELECT s.s_id, i.i_name FROM sale s JOIN item i ON s.s_item = i.i_id WHERE i.i_cat = 1 ORDER BY s.s_id",
                &[],
            )
            .unwrap();
        // 10 items in cat 1, each sold twice.
        assert_eq!(rs.len(), 20);
        assert!(rs.get_str(0, "i_name").unwrap().starts_with("item"));
    }

    #[test]
    fn join_aggregate() {
        let mut c = conn();
        let rs = c
            .query(
                "SELECT i.i_cat, SUM(s.s_qty) AS total FROM sale s JOIN item i ON s.s_item = i.i_id GROUP BY i.i_cat ORDER BY i_cat",
                &[],
            )
            .unwrap();
        assert_eq!(rs.len(), 5);
        let grand: i64 = (0..5).map(|r| rs.get_int(r, "total").unwrap()).sum();
        let check = c.query("SELECT SUM(s_qty) AS t FROM sale", &[]).unwrap();
        assert_eq!(grand, check.get_int(0, "t").unwrap());
    }

    #[test]
    fn comma_join_with_where() {
        let mut c = conn();
        let rs = c
            .query(
                "SELECT COUNT(*) AS n FROM sale s, item i WHERE s.s_item = i.i_id AND i.i_cat = 0",
                &[],
            )
            .unwrap();
        assert_eq!(rs.get_int(0, "n"), Some(20));
    }

    #[test]
    fn update_with_expression() {
        let mut c = conn();
        let n = c
            .execute("UPDATE item SET i_price = i_price * 2 WHERE i_cat = 0", &[])
            .unwrap()
            .affected();
        assert_eq!(n, 10);
        let rs = c.query("SELECT i_price FROM item WHERE i_id = 5", &[]).unwrap();
        assert_eq!(rs.get_f64(0, "i_price"), Some(15.0));
    }

    #[test]
    fn update_by_pk_single_row() {
        let mut c = conn();
        let n = c
            .execute("UPDATE item SET i_name = ? WHERE i_id = ?", &[Value::Str("renamed".into()), Value::Int(3)])
            .unwrap()
            .affected();
        assert_eq!(n, 1);
        assert_eq!(
            c.query("SELECT i_name FROM item WHERE i_id = 3", &[]).unwrap().get_str(0, "i_name"),
            Some("renamed")
        );
    }

    #[test]
    fn delete_rows() {
        let mut c = conn();
        let n = c.execute("DELETE FROM sale WHERE s_qty = 3", &[]).unwrap().affected();
        assert!(n > 0);
        let rs = c.query("SELECT COUNT(*) AS n FROM sale", &[]).unwrap();
        assert_eq!(rs.get_int(0, "n"), Some(100 - n as i64));
    }

    #[test]
    fn select_without_from() {
        let mut c = conn();
        let rs = c.query("SELECT 1 + 1 AS two, 'x' AS s", &[]).unwrap();
        assert_eq!(rs.get_int(0, "two"), Some(2));
        assert_eq!(rs.get_str(0, "s"), Some("x"));
    }

    #[test]
    fn wildcard_projection() {
        let mut c = conn();
        let rs = c.query("SELECT * FROM item WHERE i_id = 1", &[]).unwrap();
        assert_eq!(*rs.columns, ["i_id", "i_name", "i_price", "i_cat"]);
        assert_eq!(rs.rows[0].len(), 4);
    }

    #[test]
    fn in_list_filter() {
        let mut c = conn();
        let rs = c
            .query("SELECT i_id FROM item WHERE i_id IN (1, 2, 99)", &[])
            .unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn composite_index_prefix_used() {
        let db = Database::new(Personality::test());
        let mut c = Connection::open(&db);
        c.execute_batch(
            "CREATE TABLE ol (o INT, n INT, qty INT, PRIMARY KEY (o, n));",
        )
        .unwrap();
        for o in 0..10i64 {
            for n in 0..5i64 {
                c.execute("INSERT INTO ol VALUES (?, ?, ?)", &[Value::Int(o), Value::Int(n), Value::Int(o * n)])
                    .unwrap();
            }
        }
        let rs = c.query("SELECT COUNT(*) AS c FROM ol WHERE o = 3", &[]).unwrap();
        assert_eq!(rs.get_int(0, "c"), Some(5));
        let rs = c.query("SELECT qty FROM ol WHERE o = 3 AND n = 4", &[]).unwrap();
        assert_eq!(rs.get_int(0, "qty"), Some(12));
    }

    #[test]
    fn for_update_locks_rows() {
        let db = Database::new(Personality::test());
        let mut c = Connection::open(&db);
        c.execute_batch("CREATE TABLE t (id INT PRIMARY KEY, v INT);").unwrap();
        c.execute("INSERT INTO t VALUES (1, 0)", &[]).unwrap();
        c.begin().unwrap();
        c.query("SELECT * FROM t WHERE id = 1 FOR UPDATE", &[]).unwrap();
        // A younger writer must fail (wait-die).
        let mut c2 = Connection::open(&db);
        c2.begin().unwrap();
        let err = c2.execute("UPDATE t SET v = 9 WHERE id = 1", &[]).unwrap_err();
        assert!(err.is_retryable());
        c.commit().unwrap();
    }

    #[test]
    fn an_update_meets_each_row_once_though_it_moves_them_along_its_index() {
        let mut c = conn();
        // `sale_item` orders the rows this reads, and every row it writes
        // moves ahead of all that are still to be read.
        let n = c.execute("UPDATE sale SET s_item = s_item + 1000 WHERE s_item >= 0", &[]).unwrap().affected();
        assert_eq!(n, 100);
        let rs = c.query("SELECT MIN(s_item) AS lo, MAX(s_item) AS hi FROM sale", &[]).unwrap();
        assert_eq!((rs.get_int(0, "lo"), rs.get_int(0, "hi")), (Some(1000), Some(1049)));
    }

    #[test]
    fn update_where_no_match() {
        let mut c = conn();
        let n = c.execute("UPDATE item SET i_cat = 9 WHERE i_id = 12345", &[]).unwrap().affected();
        assert_eq!(n, 0);
    }

    #[test]
    fn every_set_sees_the_row_as_it_was_read() {
        let mut c = conn();
        c.execute("UPDATE sale SET s_item = s_qty, s_qty = s_item WHERE s_id = 7", &[]).unwrap();
        let rs = c.query("SELECT s_item, s_qty FROM sale WHERE s_id = 7", &[]).unwrap();
        // Was s_item 7, s_qty 2.
        assert_eq!((rs.get_int(0, "s_item"), rs.get_int(0, "s_qty")), (Some(2), Some(7)));
    }

    #[test]
    fn a_column_set_twice_takes_the_last_value_and_rolls_back_to_the_first() {
        let mut c = conn();
        c.begin().unwrap();
        c.execute("UPDATE sale SET s_qty = 10, s_qty = 20 WHERE s_id = 7", &[]).unwrap();
        let qty = |c: &mut Connection| c.query("SELECT s_qty FROM sale WHERE s_id = 7", &[]).unwrap().get_int(0, "s_qty");
        assert_eq!(qty(&mut c), Some(20));
        c.rollback().unwrap();
        assert_eq!(qty(&mut c), Some(2));
    }

    #[test]
    fn a_row_a_select_still_holds_is_copied_and_rollback_puts_it_back() {
        let mut c = conn();
        let table = c.database().table("item").unwrap();
        let rowid = table.lookup_pk(&[Value::Int(3)]).unwrap();
        c.begin().unwrap();
        let read = c.query("SELECT * FROM item WHERE i_id = 3", &[]).unwrap();
        c.execute("UPDATE item SET i_name = 'x', i_price = 0.5 WHERE i_id = 3", &[]).unwrap();
        assert_eq!((read.get_str(0, "i_name"), read.get_f64(0, "i_price")), (Some("item3"), Some(4.5)));
        assert!(!Arc::ptr_eq(&table.get(rowid).unwrap(), &read.rows[0]));
        c.rollback().unwrap();
        assert!(Arc::ptr_eq(&table.get(rowid).unwrap(), &read.rows[0]));
        assert_eq!(read.get_str(0, "i_name"), Some("item3"));
    }

    /// `a (id, v)` and `b (id, w)` with one row each, `v` and `w` of the
    /// given types and values: whether `a.v = b.w`, and how many rows each
    /// way of joining on it returns.
    fn joined_on(types: (&str, &str), v: Value, w: Value) -> (Value, [usize; 3]) {
        let db = Database::new(Personality::test());
        let mut c = Connection::open(&db);
        c.execute_batch(&format!(
            "CREATE TABLE a (id INT PRIMARY KEY, v {}); CREATE TABLE b (id INT PRIMARY KEY, w {});",
            types.0, types.1
        ))
        .unwrap();
        c.execute("INSERT INTO a VALUES (1, ?)", &[v]).unwrap();
        c.execute("INSERT INTO b VALUES (1, ?)", &[w]).unwrap();
        let equal = c.query("SELECT a.v = b.w AS eq FROM a, b", &[]).unwrap().get(0, "eq").cloned().unwrap();
        let joins = [
            "SELECT a.id FROM a JOIN b ON a.v = b.w",
            "SELECT a.id FROM a, b WHERE a.v = b.w",
            "SELECT a.id FROM a JOIN b ON b.w = a.v WHERE a.id = 1 AND b.id = 1",
        ];
        (equal, joins.map(|sql| c.query(sql, &[]).unwrap().len()))
    }

    #[test]
    fn a_join_matches_an_int_with_the_float_equal_to_it() {
        assert_eq!(joined_on(("INT", "FLOAT"), Value::Int(1), Value::Float(1.0)), (Value::Bool(true), [1; 3]));
        assert_eq!(joined_on(("FLOAT", "INT"), Value::Float(2.0), Value::Int(2)), (Value::Bool(true), [1; 3]));
    }

    #[test]
    fn a_join_matches_nan_with_nan_as_equals_does() {
        let nan = || Value::Float(f64::NAN);
        assert_eq!(joined_on(("FLOAT", "FLOAT"), nan(), nan()), (Value::Bool(true), [1; 3]));
    }

    #[test]
    fn a_join_keeps_negative_zero_from_zero_as_equals_does() {
        let zeros = (Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(joined_on(("FLOAT", "FLOAT"), zeros.0, zeros.1), (Value::Bool(false), [0; 3]));
    }

    /// A name both tables have is the first one's: it pins neither the
    /// second table's path nor its rows.
    #[test]
    fn an_unqualified_column_constrains_only_the_first_table_that_has_it() {
        let db = Database::new(Personality::test());
        let mut c = Connection::open(&db);
        c.execute_batch(
            "CREATE TABLE a (id INT PRIMARY KEY, k INT); CREATE TABLE b (k INT PRIMARY KEY, id INT);
             CREATE INDEX b_id ON b (id);
             INSERT INTO a VALUES (1, 7); INSERT INTO b VALUES (7, 2); INSERT INTO b VALUES (1, 1);",
        )
        .unwrap();
        let rs = c.query("SELECT b.k AS bk FROM a JOIN b ON a.id = b.id WHERE k = 7", &[]).unwrap();
        assert_eq!(rs.get_int(0, "bk"), Some(1), "`k` is `a.k`, not `b.k`");
        let rs = c.query("SELECT b.k AS bk FROM a, b WHERE id = 1", &[]).unwrap();
        assert_eq!(rs.len(), 2, "`id` is `a.id`, not `b.id`");
    }

    /// A conjunct pushed below the join runs on every row its table
    /// fetches: one that fails, fails the statement, whether or not the row
    /// would have found a partner.
    #[test]
    fn a_pushed_conjunct_that_fails_fails_the_join() {
        let mut c = conn();
        let sql = "SELECT s.s_id FROM sale s JOIN item i ON s.s_item = i.i_id WHERE i.i_id = 1000 AND s.s_qty LIKE 1";
        let err = c.query(sql, &[]).unwrap_err();
        assert!(err.to_string().contains("LIKE requires strings"), "{err}");
        // Over the joined tuple, as before, it is never reached.
        let sql = "SELECT s.s_id FROM sale s JOIN item i ON s.s_item = i.i_id WHERE i.i_id = 1000 AND s.s_qty + i.i_cat LIKE 1";
        assert!(c.query(sql, &[]).unwrap().is_empty());
    }

    /// An UPDATE with no usable path scans under the table's S lock and then
    /// X-locks the rows it writes. It must hold the table as X (S + IX), or
    /// another transaction's scan reads its uncommitted rows.
    #[test]
    fn a_scan_driven_update_keeps_other_scans_out_until_it_ends() {
        let db = Database::new(Personality::test());
        let mut c = Connection::open(&db);
        c.execute_batch("CREATE TABLE t (id INT PRIMARY KEY, v INT);").unwrap();
        c.execute_batch("INSERT INTO t VALUES (1, 0); INSERT INTO t VALUES (2, 0);").unwrap();
        c.begin().unwrap();
        assert_eq!(c.execute("UPDATE t SET v = 9 WHERE v = 0", &[]).unwrap().affected(), 2);
        let mut reader = Connection::open(&db);
        reader.begin().unwrap();
        match reader.query("SELECT id, v FROM t WHERE v = 9", &[]) {
            Err(err) => assert!(err.is_retryable(), "{err}"),
            Ok(rs) => panic!("read {} uncommitted rows", rs.len()),
        }
        c.rollback().unwrap();
        let rs = reader.query("SELECT id, v FROM t WHERE v = 9", &[]).unwrap();
        assert!(rs.is_empty());
    }
}
