//! Concrete execution of CCL transactions against the causal-store
//! simulator (the workload driver of the dynamic-analysis baseline).

use std::collections::HashMap;
use std::fmt;

use c4_store::op::OpKind;
use c4_store::sim::{CausalSim, SimSession};
use c4_store::Value;

use crate::ast::*;

/// An error raised during concrete execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// Message.
    pub message: String,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "execution error: {}", self.message)
    }
}

impl std::error::Error for ExecError {}

/// Executes transactions of a program concretely on a [`CausalSim`].
///
/// Session-local and global constants receive the values supplied at
/// construction; loops are bounded by `loop_fuel` to guarantee
/// termination. A run borrows the transaction body and the object
/// declarations from the program; it clones no syntax.
#[derive(Debug)]
pub struct TxnRunner<'p> {
    program: &'p Program,
    /// Values of the session-local constants: `locals[session][name]`.
    locals: Vec<HashMap<String, Value>>,
    /// Values of the global constants.
    globals: HashMap<String, Value>,
    /// Maximum loop iterations before the loop exits early.
    pub loop_fuel: u32,
}

/// The bindings of one run. A name resolves to its `let` binding, else
/// the global constant, else the session's local constant, else the
/// parameter.
struct Env<'p, 'r> {
    lets: Vec<(&'p str, Value)>,
    globals: &'r HashMap<String, Value>,
    locals: Option<&'r HashMap<String, Value>>,
    params: &'p [String],
    args: &'r [Value],
}

impl<'p> Env<'p, '_> {
    fn get(&self, name: &str) -> Option<&Value> {
        self.lets
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .or_else(|| self.globals.get(name))
            .or_else(|| self.locals.and_then(|l| l.get(name)))
            .or_else(|| self.params.iter().rposition(|p| p == name).map(|i| &self.args[i]))
    }

    fn bind(&mut self, name: &'p str, v: Value) {
        match self.lets.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = v,
            None => self.lets.push((name, v)),
        }
    }
}

impl<'p> TxnRunner<'p> {
    /// Creates a runner.
    pub fn new(program: &'p Program) -> Self {
        TxnRunner { program, locals: Vec::new(), globals: HashMap::new(), loop_fuel: 16 }
    }

    /// Sets the value of a session-local constant for one session.
    pub fn set_local(&mut self, session: usize, name: impl Into<String>, value: Value) {
        if self.locals.len() <= session {
            self.locals.resize_with(session + 1, HashMap::new);
        }
        self.locals[session].insert(name.into(), value);
    }

    /// Sets the value of a global constant.
    pub fn set_global(&mut self, name: impl Into<String>, value: Value) {
        self.globals.insert(name.into(), value);
    }

    /// Runs one transaction (begin…commit) in the simulator session.
    ///
    /// `session_id` selects which session-local constant values apply.
    ///
    /// # Errors
    ///
    /// Fails on arity mismatch or unknown names (consistent with the
    /// abstract interpreter's checks).
    pub fn run(
        &self,
        sim: &mut CausalSim,
        sess: SimSession,
        session_id: usize,
        txn_name: &str,
        args: &[Value],
    ) -> Result<(), ExecError> {
        let Some(txn) = self.program.txn(txn_name) else {
            return Err(ExecError { message: format!("unknown txn `{txn_name}`") });
        };
        if args.len() != txn.params.len() {
            return Err(ExecError { message: format!("arity mismatch calling `{txn_name}`") });
        }
        let mut env = Env {
            lets: Vec::new(),
            globals: &self.globals,
            locals: self.locals.get(session_id),
            params: &txn.params,
            args,
        };
        sim.begin(sess);
        let result = self.stmts(sim, sess, &mut env, &txn.body);
        sim.commit(sess);
        result
    }

    fn stmts(
        &self,
        sim: &mut CausalSim,
        sess: SimSession,
        env: &mut Env<'p, '_>,
        stmts: &'p [Stmt],
    ) -> Result<(), ExecError> {
        for s in stmts {
            self.stmt(sim, sess, env, s)?;
        }
        Ok(())
    }

    fn stmt(
        &self,
        sim: &mut CausalSim,
        sess: SimSession,
        env: &mut Env<'p, '_>,
        s: &'p Stmt,
    ) -> Result<(), ExecError> {
        match s {
            Stmt::Call(c) | Stmt::Display(c) => {
                self.call(sim, sess, env, c)?;
                Ok(())
            }
            Stmt::Let(name, e) => {
                let v = self.eval(sim, sess, env, e)?;
                env.bind(name, v);
                Ok(())
            }
            Stmt::If(cond, then, els) => {
                if self.cond(sim, sess, env, cond)? {
                    self.stmts(sim, sess, env, then)
                } else {
                    self.stmts(sim, sess, env, els)
                }
            }
            Stmt::Repeat(n, body) => {
                for _ in 0..*n {
                    self.stmts(sim, sess, env, body)?;
                }
                Ok(())
            }
            Stmt::While(cond, body) => {
                let mut fuel = self.loop_fuel;
                while fuel > 0 && self.cond(sim, sess, env, cond)? {
                    self.stmts(sim, sess, env, body)?;
                    fuel -= 1;
                }
                Ok(())
            }
        }
    }

    fn cond(
        &self,
        sim: &mut CausalSim,
        sess: SimSession,
        env: &mut Env<'p, '_>,
        c: &'p Condition,
    ) -> Result<bool, ExecError> {
        for (l, op, r) in &c.atoms {
            let lv = self.eval(sim, sess, env, l)?;
            let rv = self.eval(sim, sess, env, r)?;
            let holds = match op {
                CmpOp::Eq => lv == rv,
                CmpOp::Ne => lv != rv,
                _ => {
                    let (Some(a), Some(b)) = (lv.as_int(), rv.as_int()) else {
                        return Err(ExecError { message: "non-numeric comparison".into() });
                    };
                    match op {
                        CmpOp::Lt => a < b,
                        CmpOp::Le => a <= b,
                        CmpOp::Gt => a > b,
                        CmpOp::Ge => a >= b,
                        _ => unreachable!(),
                    }
                }
            };
            if !holds {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn eval(
        &self,
        sim: &mut CausalSim,
        sess: SimSession,
        env: &mut Env<'p, '_>,
        e: &'p Expr,
    ) -> Result<Value, ExecError> {
        match e {
            Expr::Int(v) => Ok(Value::int(*v)),
            Expr::Str(s) => Ok(Value::str(s.clone())),
            Expr::Bool(b) => Ok(Value::bool(*b)),
            Expr::Var(name) => env
                .get(name)
                .cloned()
                .ok_or_else(|| ExecError { message: format!("unbound identifier `{name}`") }),
            Expr::Call(c) => self.call(sim, sess, env, c),
        }
    }

    fn call(
        &self,
        sim: &mut CausalSim,
        sess: SimSession,
        env: &mut Env<'p, '_>,
        c: &'p CallExpr,
    ) -> Result<Value, ExecError> {
        let Some(decl) = self.program.object(&c.object) else {
            return Err(ExecError { message: format!("unknown object `{}`", c.object) });
        };
        let (kind, args): (OpKind, Vec<Value>) = match (decl, &c.row_field) {
            (ObjectDecl::Table(fields), Some((row, field))) => {
                let Some((_, fk)) = fields.iter().find(|(f, _)| f == field) else {
                    return Err(ExecError { message: format!("unknown field `{field}`") });
                };
                let fk = *fk;
                let rv = self.eval(sim, sess, env, row)?;
                let mut vals = vec![rv];
                for a in &c.args {
                    vals.push(self.eval(sim, sess, env, a)?);
                }
                let kind = match (fk, c.method.as_str()) {
                    (FieldKind::Reg, "set") => OpKind::FldSet(field.clone()),
                    (FieldKind::Reg, "get") => OpKind::FldGet(field.clone()),
                    (FieldKind::Set, "add") => OpKind::FldAdd(field.clone()),
                    (FieldKind::Set, "remove") => OpKind::FldRemove(field.clone()),
                    (FieldKind::Set, "contains") => OpKind::FldContains(field.clone()),
                    (FieldKind::Set, "size") => OpKind::FldSize(field.clone()),
                    _ => return Err(ExecError { message: format!("bad method `{}`", c.method) }),
                };
                (kind, vals)
            }
            (_, Some(_)) => {
                return Err(ExecError { message: format!("`{}` is not a table", c.object) })
            }
            (decl, None) => {
                let kind = match (decl, c.method.as_str()) {
                    (ObjectDecl::Register, "put") => OpKind::RegPut,
                    (ObjectDecl::Register, "get") => OpKind::RegGet,
                    (ObjectDecl::Counter, "inc") => OpKind::CtrInc,
                    (ObjectDecl::Counter, "get") => OpKind::CtrGet,
                    (ObjectDecl::Set, "add") => OpKind::SetAdd,
                    (ObjectDecl::Set, "remove") => OpKind::SetRemove,
                    (ObjectDecl::Set, "contains") => OpKind::SetContains,
                    (ObjectDecl::Set, "size") => OpKind::SetSize,
                    (ObjectDecl::Map, "put") => OpKind::MapPut,
                    (ObjectDecl::Map, "get") => OpKind::MapGet,
                    (ObjectDecl::Map, "remove") => OpKind::MapRemove,
                    (ObjectDecl::Map, "contains") => OpKind::MapContains,
                    (ObjectDecl::Map, "size") => OpKind::MapSize,
                    (ObjectDecl::Map, "copy") => OpKind::MapCopy,
                    (ObjectDecl::Log, "append") => OpKind::LogAppend,
                    (ObjectDecl::Log, "last") => OpKind::LogLast,
                    (ObjectDecl::Log, "count") => OpKind::LogCount,
                    (ObjectDecl::Log, "has") => OpKind::LogHas,
                    (ObjectDecl::Table(_), "add_row") => OpKind::TblAddRow,
                    (ObjectDecl::Table(_), "delete_row") => OpKind::TblDeleteRow,
                    (ObjectDecl::Table(_), "contains") => OpKind::TblContains,
                    _ => return Err(ExecError { message: format!("bad method `{}`", c.method) }),
                };
                let mut vals = Vec::new();
                for a in &c.args {
                    vals.push(self.eval(sim, sess, env, a)?);
                }
                (kind, vals)
            }
        };
        if kind == OpKind::TblAddRow {
            let row = Value::from(sim.fresh_row());
            sim.update(sess, c.object.clone(), kind, vec![row.clone()]);
            return Ok(row);
        }
        if kind.is_update() {
            sim.update(sess, c.object.clone(), kind, args);
            Ok(Value::Unit)
        } else {
            Ok(sim.query(sess, c.object.clone(), kind, args))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn executes_figure1a_scenario() {
        let p = parse(
            r#"
            store { map M; }
            txn P(x, y) { M.put(x, y); }
            txn G(z)    { display M.get(z); }
        "#,
        )
        .unwrap();
        let mut sim = CausalSim::new(2);
        let s0 = sim.session(0);
        let s1 = sim.session(1);
        let runner = TxnRunner::new(&p);
        runner.run(&mut sim, s0, 0, "P", &[Value::str("A"), Value::int(1)]).unwrap();
        runner.run(&mut sim, s1, 1, "P", &[Value::str("B"), Value::int(2)]).unwrap();
        runner.run(&mut sim, s0, 0, "G", &[Value::str("B")]).unwrap();
        runner.run(&mut sim, s1, 1, "G", &[Value::str("A")]).unwrap();
        sim.deliver_all();
        let (h, sched) = sim.into_history();
        sched.check(&h).unwrap();
        assert_eq!(h.transactions().count(), 4);
        // The classic non-serializable run: no cross-delivery happened.
        assert!(!c4_store::schedule::serializable_by_enumeration(&h));
    }

    #[test]
    fn control_flow_and_bindings() {
        let p = parse(
            r#"
            store { counter C; table T { f: reg } }
            txn t() {
                if (C.get() < 2) { C.inc(5); } else { C.inc(1); }
                let r = T.add_row();
                T[r].f.set(C.get());
            }
        "#,
        )
        .unwrap();
        let mut sim = CausalSim::new(1);
        let s = sim.session(0);
        let runner = TxnRunner::new(&p);
        runner.run(&mut sim, s, 0, "t", &[]).unwrap();
        runner.run(&mut sim, s, 0, "t", &[]).unwrap();
        let (h, sched) = sim.into_history();
        sched.check(&h).unwrap();
        // First run increments by 5 (counter 0 < 2), second by 1.
        let incs: Vec<_> = h
            .events()
            .filter(|e| e.op.kind == OpKind::CtrInc)
            .map(|e| e.op.args[0].clone())
            .collect();
        assert_eq!(incs, vec![Value::int(5), Value::int(1)]);
        // Fresh rows differ between the two runs.
        let rows: Vec<_> = h
            .events()
            .filter(|e| e.op.kind == OpKind::TblAddRow)
            .map(|e| e.op.args[0].clone())
            .collect();
        assert_ne!(rows[0], rows[1]);
    }

    #[test]
    fn loops_are_fueled() {
        let p = parse(
            r#"
            store { set S; counter C; }
            txn spin() {
                S.add(1);
                while (S.contains(1)) { C.inc(1); }
            }
        "#,
        )
        .unwrap();
        let mut sim = CausalSim::new(1);
        let s = sim.session(0);
        let mut runner = TxnRunner::new(&p);
        runner.loop_fuel = 3;
        runner.run(&mut sim, s, 0, "spin", &[]).unwrap();
        let (h, _) = sim.into_history();
        let incs = h.events().filter(|e| e.op.kind == OpKind::CtrInc).count();
        assert_eq!(incs, 3);
    }

    #[test]
    fn locals_and_globals_substitute() {
        let p = parse(
            r#"
            store { map M; }
            local u;
            txn w(v) { M.put(u, v); }
        "#,
        )
        .unwrap();
        let mut sim = CausalSim::new(1);
        let s = sim.session(0);
        let mut runner = TxnRunner::new(&p);
        runner.set_local(0, "u", Value::str("k0"));
        runner.run(&mut sim, s, 0, "w", &[Value::int(9)]).unwrap();
        let (h, _) = sim.into_history();
        let put = h.events().next().unwrap();
        assert_eq!(put.op.args[0], Value::str("k0"));
    }
}
