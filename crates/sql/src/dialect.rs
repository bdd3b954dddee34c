//! SQL-dialect management.
//!
//! OLTP-Bench ports benchmarks across DBMSs by letting experts provide
//! *human-written dialect translations* for DDL and DML rather than relying
//! on automatic rewriting (§2.1). This module reproduces that mechanism:
//!
//! 1. [`Dialect`] renders a canonical [`Statement`] into a target system's
//!    SQL text (type names, LIMIT vs FETCH FIRST, identifier quoting).
//! 2. [`StatementCatalog`] stores named statements and resolves each one
//!    for a dialect by rendering it. OLTP-Bench also lets an expert replace
//!    the rendering with a hand-written variant; no bundled statement needs
//!    one, so the catalog keeps none.
//!
//! Every rendered statement parses back through our front end, which the
//! dialect tests verify for the whole benchmark suite.

use bp_storage::{DataType, Value};

use crate::ast::*;

/// A target SQL dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dialect {
    MySql,
    Postgres,
    Derby,
    Oracle,
}

impl Dialect {
    pub fn name(self) -> &'static str {
        match self {
            Dialect::MySql => "mysql",
            Dialect::Postgres => "postgres",
            Dialect::Derby => "derby",
            Dialect::Oracle => "oracle",
        }
    }

    pub fn by_name(name: &str) -> Option<Dialect> {
        match name.to_ascii_lowercase().as_str() {
            "mysql" => Some(Dialect::MySql),
            "postgres" | "postgresql" => Some(Dialect::Postgres),
            "derby" => Some(Dialect::Derby),
            "oracle" => Some(Dialect::Oracle),
            _ => None,
        }
    }

    pub fn all() -> [Dialect; 4] {
        [Dialect::MySql, Dialect::Postgres, Dialect::Derby, Dialect::Oracle]
    }

    fn quote(self, ident: &str) -> String {
        // Only quote when necessary (reserved-ish or mixed case).
        let simple = ident
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
        if simple {
            return ident.to_string();
        }
        match self {
            Dialect::MySql => format!("`{ident}`"),
            _ => format!("\"{ident}\""),
        }
    }

    fn type_name(self, ty: DataType, original: &str) -> String {
        // Preserve length info like VARCHAR(32) where the target supports it.
        let up = original.to_uppercase();
        match (self, ty) {
            (Dialect::MySql, DataType::Int) => "BIGINT".into(),
            (Dialect::MySql, DataType::Float) => "DOUBLE".into(),
            (Dialect::MySql, DataType::Str) if up.starts_with("VARCHAR") || up.starts_with("CHAR") => up,
            (Dialect::MySql, DataType::Str) => "TEXT".into(),
            (Dialect::MySql, DataType::Bool) => "BOOLEAN".into(),
            (Dialect::MySql, DataType::Bytes) => "BLOB".into(),

            (Dialect::Postgres, DataType::Int) => "BIGINT".into(),
            (Dialect::Postgres, DataType::Float) => "DOUBLE PRECISION".into(),
            (Dialect::Postgres, DataType::Str) if up.starts_with("VARCHAR") => up,
            (Dialect::Postgres, DataType::Str) => "TEXT".into(),
            (Dialect::Postgres, DataType::Bool) => "BOOLEAN".into(),
            (Dialect::Postgres, DataType::Bytes) => "BYTEA".into(),

            (Dialect::Derby, DataType::Int) => "BIGINT".into(),
            (Dialect::Derby, DataType::Float) => "DOUBLE".into(),
            (Dialect::Derby, DataType::Str) if up.starts_with("VARCHAR") || up.starts_with("CHAR") => up,
            (Dialect::Derby, DataType::Str) => "VARCHAR(32672)".into(),
            (Dialect::Derby, DataType::Bool) => "BOOLEAN".into(),
            (Dialect::Derby, DataType::Bytes) => "BLOB".into(),

            (Dialect::Oracle, DataType::Int) => "NUMBER(19)".into(),
            (Dialect::Oracle, DataType::Float) => "BINARY_DOUBLE".into(),
            (Dialect::Oracle, DataType::Str) if up.starts_with("VARCHAR") => {
                up.replacen("VARCHAR", "VARCHAR2", 1)
            }
            (Dialect::Oracle, DataType::Str) => "VARCHAR2(4000)".into(),
            (Dialect::Oracle, DataType::Bool) => "NUMBER(1)".into(),
            (Dialect::Oracle, DataType::Bytes) => "BLOB".into(),
        }
    }

    fn uses_fetch_first(self) -> bool {
        matches!(self, Dialect::Derby | Dialect::Oracle)
    }

    /// Render a canonical statement in this dialect.
    pub fn render(self, stmt: &Statement) -> String {
        match stmt {
            Statement::CreateTable(ct) => self.render_create_table(ct),
            Statement::CreateIndex(ci) => format!(
                "CREATE {}INDEX {} ON {} ({})",
                if ci.unique { "UNIQUE " } else { "" },
                self.quote(&ci.name),
                self.quote(&ci.table),
                ci.columns.iter().map(|c| self.quote(c)).collect::<Vec<_>>().join(", ")
            ),
            Statement::DropTable { name, if_exists } => {
                // Derby/Oracle have no IF EXISTS; experts drop unconditionally.
                if *if_exists && matches!(self, Dialect::MySql | Dialect::Postgres) {
                    format!("DROP TABLE IF EXISTS {}", self.quote(name))
                } else {
                    format!("DROP TABLE {}", self.quote(name))
                }
            }
            Statement::Insert(ins) => self.render_insert(ins),
            Statement::Select(sel) => self.render_select(sel),
            Statement::Update(u) => {
                let sets = u
                    .sets
                    .iter()
                    .map(|(c, e)| format!("{} = {}", self.quote(c), self.render_expr(e)))
                    .collect::<Vec<_>>()
                    .join(", ");
                let mut s = format!("UPDATE {} SET {sets}", self.quote(&u.table));
                if let Some(w) = &u.where_clause {
                    s.push_str(&format!(" WHERE {}", self.render_expr(w)));
                }
                s
            }
            Statement::Delete(d) => {
                let mut s = format!("DELETE FROM {}", self.quote(&d.table));
                if let Some(w) = &d.where_clause {
                    s.push_str(&format!(" WHERE {}", self.render_expr(w)));
                }
                s
            }
            Statement::Begin => match self {
                Dialect::MySql => "START TRANSACTION".into(),
                _ => "BEGIN".into(),
            },
            Statement::Commit => "COMMIT".into(),
            Statement::Rollback => "ROLLBACK".into(),
        }
    }

    fn render_create_table(self, ct: &CreateTable) -> String {
        let mut parts = Vec::new();
        for c in &ct.columns {
            let mut s = format!("{} {}", self.quote(&c.name), self.type_name(c.ty, &c.type_text));
            if c.not_null || c.primary_key {
                s.push_str(" NOT NULL");
            }
            if c.primary_key {
                s.push_str(" PRIMARY KEY");
            }
            parts.push(s);
        }
        if !ct.primary_key.is_empty() {
            parts.push(format!(
                "PRIMARY KEY ({})",
                ct.primary_key.iter().map(|c| self.quote(c)).collect::<Vec<_>>().join(", ")
            ));
        }
        format!("CREATE TABLE {} ({})", self.quote(&ct.name), parts.join(", "))
    }

    fn render_insert(self, ins: &Insert) -> String {
        let cols = if ins.columns.is_empty() {
            String::new()
        } else {
            format!(
                " ({})",
                ins.columns.iter().map(|c| self.quote(c)).collect::<Vec<_>>().join(", ")
            )
        };
        let rows = ins
            .rows
            .iter()
            .map(|r| {
                format!(
                    "({})",
                    r.iter().map(|e| self.render_expr(e)).collect::<Vec<_>>().join(", ")
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!("INSERT INTO {}{cols} VALUES {rows}", self.quote(&ins.table))
    }

    fn render_select(self, sel: &Select) -> String {
        let items = sel
            .items
            .iter()
            .map(|i| match i {
                SelectItem::Wildcard => "*".to_string(),
                SelectItem::Expr { expr, alias } => {
                    let e = self.render_expr(expr);
                    match alias {
                        Some(a) => format!("{e} AS {}", self.quote(a)),
                        None => e,
                    }
                }
            })
            .collect::<Vec<_>>()
            .join(", ");
        let mut s = format!("SELECT {items}");
        if let Some(from) = &sel.from {
            s.push_str(&format!(" FROM {}", self.render_table_ref(from)));
            for j in &sel.joins {
                s.push_str(&format!(
                    " JOIN {} ON {}",
                    self.render_table_ref(&j.table),
                    self.render_expr(&j.on)
                ));
            }
        }
        if let Some(w) = &sel.where_clause {
            s.push_str(&format!(" WHERE {}", self.render_expr(w)));
        }
        if !sel.group_by.is_empty() {
            let g = sel.group_by.iter().map(|e| self.render_expr(e)).collect::<Vec<_>>().join(", ");
            s.push_str(&format!(" GROUP BY {g}"));
        }
        if !sel.order_by.is_empty() {
            let o = sel
                .order_by
                .iter()
                .map(|ob| {
                    format!(
                        "{}{}",
                        self.render_expr(&ob.expr),
                        if ob.desc { " DESC" } else { "" }
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            s.push_str(&format!(" ORDER BY {o}"));
        }
        if let Some(l) = &sel.limit {
            if self.uses_fetch_first() {
                s.push_str(&format!(" FETCH FIRST {} ROWS ONLY", self.render_expr(l)));
            } else {
                s.push_str(&format!(" LIMIT {}", self.render_expr(l)));
            }
        }
        if sel.for_update {
            s.push_str(" FOR UPDATE");
        }
        s
    }

    fn render_table_ref(self, t: &TableRef) -> String {
        match &t.alias {
            Some(a) => format!("{} {}", self.quote(&t.name), self.quote(a)),
            None => self.quote(&t.name),
        }
    }

    fn render_expr(self, e: &Expr) -> String {
        match e {
            Expr::Lit(v) => render_value(v),
            Expr::Param(_) => "?".to_string(),
            Expr::Column { table, name } => match table {
                Some(t) => format!("{}.{}", self.quote(t), self.quote(name)),
                None => self.quote(name),
            },
            Expr::Slot(i) => format!("${i}"),
            Expr::Binary { op, left, right } => {
                format!("({} {} {})", self.render_expr(left), render_op(*op), self.render_expr(right))
            }
            Expr::Neg(x) => format!("(-{})", self.render_expr(x)),
            Expr::Not(x) => format!("(NOT {})", self.render_expr(x)),
            Expr::IsNull { expr, negated } => format!(
                "({} IS {}NULL)",
                self.render_expr(expr),
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList { expr, list, negated } => format!(
                "({} {}IN ({}))",
                self.render_expr(expr),
                if *negated { "NOT " } else { "" },
                list.iter().map(|e| self.render_expr(e)).collect::<Vec<_>>().join(", ")
            ),
            Expr::Between { expr, low, high, negated } => format!(
                "({} {}BETWEEN {} AND {})",
                self.render_expr(expr),
                if *negated { "NOT " } else { "" },
                self.render_expr(low),
                self.render_expr(high)
            ),
            Expr::Agg { func, arg, distinct } => {
                let f = match func {
                    AggFunc::Count => "COUNT",
                    AggFunc::Sum => "SUM",
                    AggFunc::Avg => "AVG",
                    AggFunc::Min => "MIN",
                    AggFunc::Max => "MAX",
                };
                match arg {
                    None => format!("{f}(*)"),
                    Some(a) => format!(
                        "{f}({}{})",
                        if *distinct { "DISTINCT " } else { "" },
                        self.render_expr(a)
                    ),
                }
            }
            Expr::Func { name, args } => format!(
                "{}({})",
                name.to_uppercase(),
                args.iter().map(|a| self.render_expr(a)).collect::<Vec<_>>().join(", ")
            ),
        }
    }
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        // `Debug` keeps the `.0` or exponent `Display` drops from an integral
        // value, without which the text reads back as an integer.
        Value::Float(x) => format!("{x:?}"),
        other => other.to_string(),
    }
}

fn render_op(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Mod => "%",
        BinOp::Eq => "=",
        BinOp::NotEq => "<>",
        BinOp::Lt => "<",
        BinOp::LtEq => "<=",
        BinOp::Gt => ">",
        BinOp::GtEq => ">=",
        BinOp::And => "AND",
        BinOp::Or => "OR",
        BinOp::Like => "LIKE",
        BinOp::Concat => "||",
    }
}

/// A catalog of named statements rendered per dialect — OLTP-Bench's
/// dialect files, in code.
#[derive(Debug, Default, Clone)]
pub struct StatementCatalog {
    /// `(name, canonical SQL)`, in the order defined: a schema's tables
    /// before the indexes on them.
    canonical: Vec<(String, String)>,
}

impl StatementCatalog {
    pub fn new() -> StatementCatalog {
        StatementCatalog::default()
    }

    /// Register a statement by name with its canonical SQL.
    pub fn define(&mut self, name: &str, sql: &str) -> &mut Self {
        match self.canonical.iter_mut().find(|(n, _)| n == name) {
            Some((_, text)) => *text = sql.to_string(),
            None => self.canonical.push((name.to_string(), sql.to_string())),
        }
        self
    }

    /// Resolve the SQL text for a statement under a dialect: the canonical
    /// text rendered through the dialect's rules. `None` for a name not
    /// defined or a canonical text that does not parse: there is nothing to
    /// render.
    pub fn resolve(&self, name: &str, dialect: Dialect) -> Option<String> {
        crate::parser::parse(self.canonical(name)?).ok().map(|stmt| dialect.render(&stmt))
    }

    /// The canonical text of a statement, as defined.
    pub fn canonical(&self, name: &str) -> Option<&str> {
        self.canonical.iter().find(|(n, _)| n == name).map(|(_, sql)| sql.as_str())
    }

    /// The names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.declared().collect();
        v.sort_unstable();
        v
    }

    /// The names in the order defined (the order a schema is created in).
    pub fn declared(&self) -> impl Iterator<Item = &str> {
        self.canonical.iter().map(|(name, _)| name.as_str())
    }

    pub fn len(&self) -> usize {
        self.canonical.len()
    }

    pub fn is_empty(&self) -> bool {
        self.canonical.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn limit_rendering_differs() {
        let stmt = parse("SELECT a FROM t ORDER BY a LIMIT 5").unwrap();
        let mysql = Dialect::MySql.render(&stmt);
        let derby = Dialect::Derby.render(&stmt);
        assert!(mysql.contains("LIMIT 5"), "{mysql}");
        assert!(derby.contains("FETCH FIRST 5 ROWS ONLY"), "{derby}");
    }

    #[test]
    fn type_mapping_differs() {
        let stmt = parse("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(32), f FLOAT)").unwrap();
        let pg = Dialect::Postgres.render(&stmt);
        let ora = Dialect::Oracle.render(&stmt);
        assert!(pg.contains("DOUBLE PRECISION"), "{pg}");
        assert!(ora.contains("NUMBER(19)"), "{ora}");
        assert!(ora.contains("VARCHAR2(32)"), "{ora}");
    }

    #[test]
    fn rendered_sql_reparses_in_every_dialect() {
        let samples = [
            "SELECT a, b AS x FROM t WHERE a = ? AND b > 3 ORDER BY x DESC LIMIT 2",
            "CREATE TABLE t (id INT NOT NULL, name VARCHAR(16), PRIMARY KEY (id))",
            "INSERT INTO t (id, name) VALUES (?, ?)",
            "UPDATE t SET name = ? WHERE id = ?",
            "DELETE FROM t WHERE id BETWEEN 1 AND 10",
            "SELECT COUNT(*) AS n, grp FROM t GROUP BY grp ORDER BY n DESC",
            "SELECT o.id FROM orders o JOIN lines l ON o.id = l.oid WHERE l.qty > 0 FOR UPDATE",
        ];
        for sql in samples {
            let stmt = parse(sql).unwrap();
            for d in Dialect::all() {
                let rendered = d.render(&stmt);
                parse(&rendered).unwrap_or_else(|e| panic!("{d:?}: {rendered}: {e}"));
            }
        }
    }

    #[test]
    fn string_literal_escaped() {
        let stmt = parse("INSERT INTO t (a) VALUES ('it''s')").unwrap();
        let out = Dialect::MySql.render(&stmt);
        assert!(out.contains("'it''s'"), "{out}");
        parse(&out).unwrap();
    }

    #[test]
    fn catalog_renders_canonical_per_dialect() {
        let mut cat = StatementCatalog::new();
        cat.define("top", "SELECT a FROM t ORDER BY a LIMIT 3");
        let derby = cat.resolve("top", Dialect::Derby).unwrap();
        assert!(derby.contains("FETCH FIRST"), "{derby}");
        assert!(cat.resolve("missing", Dialect::MySql).is_none());
    }

    #[test]
    fn catalog_keeps_declaration_order_and_refuses_what_does_not_parse() {
        let mut cat = StatementCatalog::new();
        cat.define("create_t", "CREATE TABLE t (a INT PRIMARY KEY)");
        cat.define("create_a_idx", "CREATE INDEX a_idx ON t (a)");
        cat.define("broken", "SELEC a FROM t");
        cat.define("create_t", "CREATE TABLE t (a INT PRIMARY KEY, b INT)");
        assert_eq!(cat.declared().collect::<Vec<_>>(), ["create_t", "create_a_idx", "broken"]);
        assert_eq!(cat.names(), ["broken", "create_a_idx", "create_t"]);
        assert_eq!(cat.len(), 3);
        assert!(cat.resolve("create_t", Dialect::MySql).unwrap().contains("b BIGINT"));
        for d in Dialect::all() {
            assert_eq!(cat.resolve("broken", d), None, "{d:?}");
        }
    }

    #[test]
    fn float_literals_stay_floats() {
        for sql in [
            "SELECT (a / 2.0) FROM t",
            "UPDATE t SET f = 1.0 WHERE a = 1",
            "SELECT a FROM t WHERE f < 1e10",
            "SELECT a FROM t WHERE f > 0.1 AND f < 2.5",
            "UPDATE t SET f = -1.5",
        ] {
            let stmt = parse(sql).unwrap();
            for d in Dialect::all() {
                let rendered = d.render(&stmt);
                assert_eq!(parse(&rendered).unwrap(), stmt, "{d:?}: {sql} -> {rendered}");
            }
        }
        let two = Dialect::MySql.render(&parse("SELECT (a / 2.0) FROM t").unwrap());
        assert!(two.contains("(a / 2.0)"), "{two}");
    }

    #[test]
    fn dialect_name_roundtrip() {
        for d in Dialect::all() {
            assert_eq!(Dialect::by_name(d.name()), Some(d));
        }
        assert_eq!(Dialect::by_name("postgresql"), Some(Dialect::Postgres));
        assert!(Dialect::by_name("db2").is_none());
    }

    #[test]
    fn identifier_quoting() {
        let stmt = parse("SELECT \"Weird Col\" FROM t").unwrap();
        let my = Dialect::MySql.render(&stmt);
        let pg = Dialect::Postgres.render(&stmt);
        assert!(my.contains("`Weird Col`"), "{my}");
        assert!(pg.contains("\"Weird Col\""), "{pg}");
    }
}
