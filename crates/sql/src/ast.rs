//! Abstract syntax tree for the supported SQL subset.

use bp_storage::{DataType, Value};

/// A full statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    CreateTable(CreateTable),
    CreateIndex(CreateIndex),
    DropTable { name: String, if_exists: bool },
    Insert(Insert),
    Select(Select),
    Update(Update),
    Delete(Delete),
    Begin,
    Commit,
    Rollback,
}

impl Statement {
    /// INSERT, SELECT, UPDATE or DELETE: the statements that run inside a
    /// transaction and are worth planning.
    pub fn is_dml(&self) -> bool {
        matches!(
            self,
            Statement::Insert(_) | Statement::Select(_) | Statement::Update(_) | Statement::Delete(_)
        )
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: DataType,
    /// Original type text (e.g. `VARCHAR(32)`), kept for dialect rendering.
    pub type_text: String,
    pub not_null: bool,
    pub primary_key: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    pub name: String,
    pub columns: Vec<ColumnDef>,
    /// Table-level PRIMARY KEY (a, b) clause, if present.
    pub primary_key: Vec<String>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct CreateIndex {
    pub name: String,
    pub table: String,
    pub columns: Vec<String>,
    pub unique: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    pub table: String,
    /// Empty means "all columns in table order".
    pub columns: Vec<String>,
    /// One or more rows of value expressions.
    pub rows: Vec<Vec<Expr>>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub items: Vec<SelectItem>,
    pub from: Option<TableRef>,
    pub joins: Vec<Join>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub order_by: Vec<OrderBy>,
    pub limit: Option<Expr>,
    pub for_update: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub name: String,
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table is referred to by in expressions.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub table: TableRef,
    pub on: Expr,
}

#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// Expression with optional alias.
    Expr { expr: Expr, alias: Option<String> },
}

#[derive(Debug, Clone, PartialEq)]
pub struct OrderBy {
    pub expr: Expr,
    pub desc: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    pub table: String,
    pub sets: Vec<(String, Expr)>,
    pub where_clause: Option<Expr>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    pub table: String,
    pub where_clause: Option<Expr>,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Like,
    Concat,
}

impl BinOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Lit(Value),
    /// `?` placeholder with its ordinal (0-based).
    Param(usize),
    /// Column reference, optionally qualified.
    Column { table: Option<String>, name: String },
    /// A column reference (or lifted aggregate) resolved to its position in
    /// the row the expression is evaluated against. Produced by the binder
    /// ([`crate::plan`]), never by the parser.
    Slot(usize),
    Binary { op: BinOp, left: Box<Expr>, right: Box<Expr> },
    Neg(Box<Expr>),
    Not(Box<Expr>),
    IsNull { expr: Box<Expr>, negated: bool },
    InList { expr: Box<Expr>, list: Vec<Expr>, negated: bool },
    Between { expr: Box<Expr>, low: Box<Expr>, high: Box<Expr>, negated: bool },
    /// Aggregate call. `None` argument means `COUNT(*)`.
    Agg { func: AggFunc, arg: Option<Box<Expr>>, distinct: bool },
    /// Scalar function call.
    Func { name: String, args: Vec<Expr> },
}

impl Expr {
    pub fn col(name: &str) -> Expr {
        Expr::Column { table: None, name: name.to_string() }
    }

    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(l), right: Box::new(r) }
    }

    /// Split a conjunction into its top-level AND-ed terms.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::Binary { op: BinOp::And, left, right } => {
                    walk(left, out);
                    walk(right, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Count `?` placeholders in this expression.
    pub fn param_count(&self) -> usize {
        let mut max: Option<usize> = None;
        self.visit_params(&mut |i| {
            max = Some(max.map_or(i, |m: usize| m.max(i)));
        });
        max.map_or(0, |m| m + 1)
    }

    /// Call `f` on each direct sub-expression, in source order.
    fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match self {
            Expr::Lit(_) | Expr::Param(_) | Expr::Column { .. } | Expr::Slot(_) => {}
            Expr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::Neg(e) | Expr::Not(e) | Expr::IsNull { expr: e, .. } => f(e),
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            Expr::Between { expr, low, high, .. } => {
                f(expr);
                f(low);
                f(high);
            }
            Expr::Agg { arg, .. } => arg.iter().for_each(|a| f(a)),
            Expr::Func { args, .. } => args.iter().for_each(f),
        }
    }

    /// True if `pred` holds for this node or any node below it.
    pub fn any(&self, pred: &mut impl FnMut(&Expr) -> bool) -> bool {
        let mut found = pred(self);
        self.for_each_child(&mut |c| found = found || c.any(pred));
        found
    }

    pub fn visit_params(&self, f: &mut impl FnMut(usize)) {
        self.any(&mut |e| {
            if let Expr::Param(i) = e {
                f(*i);
            }
            false
        });
    }

    /// Does the expression contain any aggregate call?
    pub fn has_aggregate(&self) -> bool {
        self.any(&mut |e| matches!(e, Expr::Agg { .. }))
    }

    /// A copy of the tree in which every node `f` returns a replacement for
    /// is replaced by it (without descending into it); all other nodes are
    /// rebuilt over their rewritten children.
    pub fn rewrite(&self, f: &mut impl FnMut(&Expr) -> Option<Expr>) -> Expr {
        if let Some(replacement) = f(self) {
            return replacement;
        }
        let mut sub = |e: &Expr| Box::new(e.rewrite(f));
        match self {
            Expr::Lit(_) | Expr::Param(_) | Expr::Column { .. } | Expr::Slot(_) => self.clone(),
            Expr::Binary { op, left, right } => {
                Expr::Binary { op: *op, left: sub(left), right: sub(right) }
            }
            Expr::Neg(e) => Expr::Neg(sub(e)),
            Expr::Not(e) => Expr::Not(sub(e)),
            Expr::IsNull { expr, negated } => Expr::IsNull { expr: sub(expr), negated: *negated },
            Expr::InList { expr, list, negated } => Expr::InList {
                expr: sub(expr),
                list: list.iter().map(|e| *sub(e)).collect(),
                negated: *negated,
            },
            Expr::Between { expr, low, high, negated } => Expr::Between {
                expr: sub(expr),
                low: sub(low),
                high: sub(high),
                negated: *negated,
            },
            Expr::Agg { func, arg, distinct } => {
                Expr::Agg { func: *func, arg: arg.as_deref().map(sub), distinct: *distinct }
            }
            Expr::Func { name, args } => {
                Expr::Func { name: name.clone(), args: args.iter().map(|e| *sub(e)).collect() }
            }
        }
    }
}

/// Count parameters across a whole statement.
pub fn statement_param_count(stmt: &Statement) -> usize {
    let mut max: Option<usize> = None;
    let mut f = |i: usize| {
        max = Some(max.map_or(i, |m: usize| m.max(i)));
    };
    let mut visit = |e: &Expr| e.visit_params(&mut f);
    match stmt {
        Statement::Insert(ins) => {
            for row in &ins.rows {
                for e in row {
                    visit(e);
                }
            }
        }
        Statement::Select(sel) => visit_select(sel, &mut visit),
        Statement::Update(u) => {
            for (_, e) in &u.sets {
                visit(e);
            }
            if let Some(w) = &u.where_clause {
                visit(w);
            }
        }
        Statement::Delete(d) => {
            if let Some(w) = &d.where_clause {
                visit(w);
            }
        }
        _ => {}
    }
    max.map_or(0, |m| m + 1)
}

fn visit_select(sel: &Select, visit: &mut impl FnMut(&Expr)) {
    for item in &sel.items {
        if let SelectItem::Expr { expr, .. } = item {
            visit(expr);
        }
    }
    for j in &sel.joins {
        visit(&j.on);
    }
    if let Some(w) = &sel.where_clause {
        visit(w);
    }
    for g in &sel.group_by {
        visit(g);
    }
    for o in &sel.order_by {
        visit(&o.expr);
    }
    if let Some(l) = &sel.limit {
        visit(l);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_split() {
        let e = Expr::bin(
            BinOp::And,
            Expr::bin(BinOp::Eq, Expr::col("a"), Expr::Lit(Value::Int(1))),
            Expr::bin(
                BinOp::And,
                Expr::bin(BinOp::Gt, Expr::col("b"), Expr::Lit(Value::Int(2))),
                Expr::bin(BinOp::Lt, Expr::col("c"), Expr::Lit(Value::Int(3))),
            ),
        );
        assert_eq!(e.conjuncts().len(), 3);
    }

    #[test]
    fn or_is_single_conjunct() {
        let e = Expr::bin(
            BinOp::Or,
            Expr::bin(BinOp::Eq, Expr::col("a"), Expr::Lit(Value::Int(1))),
            Expr::bin(BinOp::Eq, Expr::col("b"), Expr::Lit(Value::Int(2))),
        );
        assert_eq!(e.conjuncts().len(), 1);
    }

    #[test]
    fn param_count() {
        let e = Expr::bin(
            BinOp::And,
            Expr::bin(BinOp::Eq, Expr::col("a"), Expr::Param(0)),
            Expr::bin(BinOp::Eq, Expr::col("b"), Expr::Param(2)),
        );
        assert_eq!(e.param_count(), 3);
    }

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Agg { func: AggFunc::Count, arg: None, distinct: false };
        assert!(agg.has_aggregate());
        assert!(!Expr::col("x").has_aggregate());
        assert!(Expr::bin(BinOp::Add, agg, Expr::Lit(Value::Int(1))).has_aggregate());
    }
}
