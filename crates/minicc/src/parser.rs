use crate::ast::*;
use crate::error::CompileError;
use crate::token::{Keyword, Punct, Token, TokenKind};
use crate::types::{StructDef, StructId, Type};

/// Whether `ty` embeds the struct with id `sid` by value (directly or
/// through arrays), which would make its size infinite.
fn contains_struct_by_value(ty: &Type, sid: usize) -> bool {
    match ty {
        Type::Struct(id) => id.0 == sid,
        Type::Array(elem, _) => contains_struct_by_value(elem, sid),
        _ => false,
    }
}

/// How deeply a program may nest, in levels. The parser and every later
/// pass recurse along this nesting, so the bound keeps client source
/// from overflowing the compiling thread's stack. One level each:
///
/// * the statements of a block, an `if`/`else` branch or a loop body;
/// * a parenthesized expression, a subscript and a call argument;
/// * the operand of a unary operator, and the operands of a binary,
///   assignment or postfix operator, so a chain `1+1+…` of N operators
///   is N levels deep (it is parsed in a loop but walked recursively
///   afterwards);
/// * each `*` of a type, and each `[N]` of an array declarator.
///
/// A program exactly at the limit compiles on a 2 MiB stack in a debug
/// build with over a quarter of it to spare; the in-tree workloads nest
/// at most 14 levels.
pub(crate) const MAX_NESTING: usize = 100;

/// Parses a token stream into a [`Program`].
///
/// Struct definitions must precede their first use; functions and
/// globals may appear in any order relative to their uses (name
/// resolution happens in sema).
pub fn parse(tokens: Vec<Token>) -> Result<Program, CompileError> {
    Parser { tokens, pos: 0, program: Program::default(), depth: 0, peak: 0 }.parse_program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    program: Program,
    /// Nesting level of the construct being parsed (see [`MAX_NESTING`]).
    depth: usize,
    /// Deepest level the expression being built reaches. An operator
    /// that wraps what was parsed before it (`a + b`, `a[i]`, `a = b`)
    /// moves all of that one level down, which `depth` alone cannot see.
    /// Each such operator's parse function tracks its own subtree (it
    /// restarts `peak` at `depth`) and merges the result back on return.
    peak: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> CompileError {
        CompileError::new(self.line(), msg)
    }

    /// Records that the tree being built reaches `level`, refusing to
    /// pass [`MAX_NESTING`].
    fn reach(&mut self, level: usize) -> Result<(), CompileError> {
        if level > MAX_NESTING {
            return Err(self.too_deep());
        }
        self.peak = self.peak.max(level);
        Ok(())
    }

    /// The error past [`MAX_NESTING`], kept out of line because `reach`
    /// runs for every operator and nesting level of every program.
    #[cold]
    fn too_deep(&self) -> CompileError {
        self.err(format!("nesting exceeds the limit of {MAX_NESTING} levels"))
    }

    /// Parses one construct a nesting level down. An error ends the
    /// parse, so the level it leaves open is moot.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        self.depth += 1;
        self.reach(self.depth)?;
        let v = parse(self)?;
        self.depth -= 1;
        Ok(v)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if *self.peek() == TokenKind::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), CompileError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`, found {}", p.as_str(), self.peek())))
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if *self.peek() == TokenKind::Keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, CompileError> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            other => Err(CompileError::new(
                self.tokens[self.pos.saturating_sub(1)].line,
                format!("expected identifier, found {other}"),
            )),
        }
    }

    fn expect_int(&mut self) -> Result<i64, CompileError> {
        match self.bump() {
            TokenKind::Int(v) => Ok(v),
            other => Err(CompileError::new(
                self.tokens[self.pos.saturating_sub(1)].line,
                format!("expected integer, found {other}"),
            )),
        }
    }

    // -----------------------------------------------------------------
    // Types
    // -----------------------------------------------------------------

    /// Whether the current token begins a type.
    fn at_type(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Keyword(Keyword::Int | Keyword::Char | Keyword::Void | Keyword::Struct)
        )
    }

    /// Parses a base type plus any `*` suffixes.
    fn parse_type(&mut self) -> Result<Type, CompileError> {
        let base = match self.bump() {
            TokenKind::Keyword(Keyword::Int) => Type::Int,
            TokenKind::Keyword(Keyword::Char) => Type::Char,
            TokenKind::Keyword(Keyword::Void) => Type::Void,
            TokenKind::Keyword(Keyword::Struct) => {
                let name = self.expect_ident()?;
                let (id, _) = self
                    .program
                    .struct_by_name(&name)
                    .ok_or_else(|| self.err(format!("unknown struct `{name}`")))?;
                Type::Struct(StructId(id))
            }
            other => {
                return Err(CompileError::new(
                    self.tokens[self.pos.saturating_sub(1)].line,
                    format!("expected type, found {other}"),
                ))
            }
        };
        let mut ty = base;
        let mut levels = 0;
        while self.eat_punct(Punct::Star) {
            levels += 1;
            self.reach(self.depth + levels)?;
            ty = ty.ptr_to();
        }
        Ok(ty)
    }

    /// Parses optional `[N]` array suffixes onto `ty`.
    fn parse_array_suffix(&mut self, mut ty: Type) -> Result<Type, CompileError> {
        let mut dims = Vec::new();
        while self.eat_punct(Punct::LBracket) {
            let n = self.expect_int()?;
            if !(1..=(1 << 24)).contains(&n) {
                return Err(self.err(format!("array size {n} out of range")));
            }
            self.expect_punct(Punct::RBracket)?;
            dims.push(n as u32);
            self.reach(self.depth + dims.len())?;
        }
        for &n in dims.iter().rev() {
            ty = Type::Array(Box::new(ty), n);
        }
        Ok(ty)
    }

    // -----------------------------------------------------------------
    // Top level
    // -----------------------------------------------------------------

    fn parse_program(mut self) -> Result<Program, CompileError> {
        while *self.peek() != TokenKind::Eof {
            // `struct Name { ... };` definition vs `struct Name ...` use.
            if *self.peek() == TokenKind::Keyword(Keyword::Struct)
                && matches!(self.peek2(), TokenKind::Ident(_))
                && self.tokens.get(self.pos + 2).map(|t| &t.kind)
                    == Some(&TokenKind::Punct(Punct::LBrace))
            {
                self.parse_struct_def()?;
                continue;
            }
            self.parse_global_or_func()?;
        }
        Ok(self.program)
    }

    fn parse_struct_def(&mut self) -> Result<(), CompileError> {
        let line = self.line();
        self.bump(); // struct
        let name = self.expect_ident()?;
        if self.program.struct_by_name(&name).is_some() {
            return Err(CompileError::new(line, format!("duplicate struct `{name}`")));
        }
        // Register a placeholder so fields can refer to the struct through
        // pointers (`struct node* next`). Self-reference by value is
        // rejected below.
        let self_id = self.program.structs.len();
        self.program.structs.push(StructDef {
            name: name.clone(),
            fields: Vec::new(),
            size: 0,
            align: 1,
        });
        self.expect_punct(Punct::LBrace)?;
        let mut fields = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            let ty = self.parse_type()?;
            let fname = self.expect_ident()?;
            let ty = self.parse_array_suffix(ty)?;
            if ty == Type::Void {
                return Err(self.err("struct field cannot be void"));
            }
            if contains_struct_by_value(&ty, self_id) {
                return Err(self.err(format!("struct `{name}` cannot contain itself by value")));
            }
            if fields.iter().any(|(n, _)| *n == fname) {
                return Err(self.err(format!("duplicate field `{fname}`")));
            }
            fields.push((fname, ty));
            self.expect_punct(Punct::Semi)?;
        }
        self.expect_punct(Punct::Semi)?;
        let def = StructDef::layout(name, fields, &self.program.structs);
        self.program.structs[self_id] = def;
        Ok(())
    }

    fn parse_global_or_func(&mut self) -> Result<(), CompileError> {
        let line = self.line();
        let ty = self.parse_type()?;
        let name = self.expect_ident()?;
        if *self.peek() == TokenKind::Punct(Punct::LParen) {
            return self.parse_func(ty, name, line);
        }
        // Global variable(s); `int a = 1, b;` style lists allowed.
        let gty = self.parse_array_suffix(ty.clone())?;
        if gty == Type::Void {
            return Err(self.err("global cannot be void"));
        }
        let init = if self.eat_punct(Punct::Assign) {
            self.parse_global_init(&gty)?
        } else {
            GlobalInit::None
        };
        self.program.globals.push(Global { name, ty: gty, init, line });
        if self.eat_punct(Punct::Comma) {
            let next = self.expect_ident()?;
            return self.parse_global_rest(ty, next, line);
        }
        self.expect_punct(Punct::Semi)?;
        Ok(())
    }

    /// Continues a comma-separated global declarator list.
    fn parse_global_rest(
        &mut self,
        base: Type,
        mut name: String,
        line: u32,
    ) -> Result<(), CompileError> {
        loop {
            let gty = self.parse_array_suffix(base.clone())?;
            let init = if self.eat_punct(Punct::Assign) {
                self.parse_global_init(&gty)?
            } else {
                GlobalInit::None
            };
            self.program.globals.push(Global { name, ty: gty, init, line });
            if self.eat_punct(Punct::Comma) {
                name = self.expect_ident()?;
            } else {
                break;
            }
        }
        self.expect_punct(Punct::Semi)?;
        Ok(())
    }

    fn parse_global_init(&mut self, ty: &Type) -> Result<GlobalInit, CompileError> {
        match self.peek().clone() {
            TokenKind::Punct(Punct::LBrace) => {
                self.bump();
                let mut vals = Vec::new();
                if !self.eat_punct(Punct::RBrace) {
                    loop {
                        vals.push(self.parse_const_expr()?);
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                        // Trailing comma allowed.
                        if *self.peek() == TokenKind::Punct(Punct::RBrace) {
                            break;
                        }
                    }
                    self.expect_punct(Punct::RBrace)?;
                }
                if !matches!(ty, Type::Array(..)) {
                    return Err(self.err("brace initializer requires an array type"));
                }
                Ok(GlobalInit::List(vals))
            }
            TokenKind::Str(_) => {
                let TokenKind::Str(bytes) = self.bump() else { unreachable!() };
                if !matches!(ty, Type::Array(elem, _) if **elem == Type::Char) {
                    return Err(self.err("string initializer requires a char array"));
                }
                let mut b = bytes;
                b.push(0);
                Ok(GlobalInit::Str(b))
            }
            _ => Ok(GlobalInit::Scalar(self.parse_const_expr()?)),
        }
    }

    /// Constant expressions in global initializers: integers, unary minus,
    /// and char literals (already folded by the lexer).
    fn parse_const_expr(&mut self) -> Result<i64, CompileError> {
        let neg = self.eat_punct(Punct::Minus);
        let v = self.expect_int()?;
        Ok(if neg { -v } else { v })
    }

    fn parse_func(&mut self, ret: Type, name: String, line: u32) -> Result<(), CompileError> {
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.eat_punct(Punct::RParen) {
            if self.eat_keyword(Keyword::Void) && *self.peek() == TokenKind::Punct(Punct::RParen) {
                // `f(void)` empty parameter list.
                self.bump();
            } else {
                loop {
                    let pty = self.parse_type()?;
                    let pname = self.expect_ident()?;
                    // Array parameters decay to pointers.
                    let pty = self.parse_array_suffix(pty)?.decayed();
                    if !pty.is_scalar() {
                        return Err(self.err(format!("parameter `{pname}` must be scalar")));
                    }
                    params.push((pname, pty));
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                self.expect_punct(Punct::RParen)?;
            }
        }
        if params.len() > 8 {
            return Err(CompileError::new(line, format!("too many parameters ({})", params.len())));
        }
        if self.program.func(&name).is_some() {
            return Err(CompileError::new(line, format!("duplicate function `{name}`")));
        }
        self.expect_punct(Punct::LBrace)?;
        let body = self.parse_block_stmts()?;
        let arity = params.len();
        let locals = params
            .into_iter()
            .map(|(pname, pty)| LocalVar { name: pname, ty: pty, addressed: false, is_param: true })
            .collect();
        self.program.funcs.push(Func { name, ret, arity, locals, body, line });
        Ok(())
    }

    // -----------------------------------------------------------------
    // Statements
    // -----------------------------------------------------------------

    /// Parses statements until the closing `}` (which is consumed).
    fn parse_block_stmts(&mut self) -> Result<Vec<Stmt>, CompileError> {
        let mut stmts = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            if *self.peek() == TokenKind::Eof {
                return Err(self.err("unexpected end of input inside block"));
            }
            stmts.push(self.parse_stmt()?);
        }
        Ok(stmts)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        match self.peek().clone() {
            TokenKind::Punct(Punct::LBrace) => {
                self.bump();
                Ok(Stmt::Block(self.nested(Self::parse_block_stmts)?))
            }
            TokenKind::Punct(Punct::Semi) => {
                self.bump();
                Ok(Stmt::Empty)
            }
            TokenKind::Keyword(Keyword::If) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let then = Box::new(self.nested(Self::parse_stmt)?);
                let els = if self.eat_keyword(Keyword::Else) {
                    Some(Box::new(self.nested(Self::parse_stmt)?))
                } else {
                    None
                };
                Ok(Stmt::If { cond, then, els })
            }
            TokenKind::Keyword(Keyword::While) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(Stmt::While { cond, body: Box::new(self.nested(Self::parse_stmt)?) })
            }
            TokenKind::Keyword(Keyword::For) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let init = if *self.peek() == TokenKind::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                let cond = if *self.peek() == TokenKind::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                let step = if *self.peek() == TokenKind::Punct(Punct::RParen) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::RParen)?;
                Ok(Stmt::For { init, cond, step, body: Box::new(self.nested(Self::parse_stmt)?) })
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value = if *self.peek() == TokenKind::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Return { value, line })
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Break { line })
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Continue { line })
            }
            _ if self.at_type() => {
                let ty = self.parse_type()?;
                let name = self.expect_ident()?;
                let ty = self.parse_array_suffix(ty)?;
                if ty == Type::Void {
                    return Err(self.err("local cannot be void"));
                }
                let init =
                    if self.eat_punct(Punct::Assign) { Some(self.parse_expr()?) } else { None };
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Decl { name, ty, init, local: usize::MAX, line })
            }
            _ => {
                let e = self.parse_expr()?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    // -----------------------------------------------------------------
    // Expressions
    // -----------------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, CompileError> {
        self.parse_assign()
    }

    fn parse_assign(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        let outer = std::mem::replace(&mut self.peak, self.depth);
        let lhs = self.parse_binary(0)?;
        let op = match self.peek() {
            TokenKind::Punct(Punct::Assign) => Some(None),
            TokenKind::Punct(Punct::PlusEq) => Some(Some(BinOp::Add)),
            TokenKind::Punct(Punct::MinusEq) => Some(Some(BinOp::Sub)),
            TokenKind::Punct(Punct::StarEq) => Some(Some(BinOp::Mul)),
            TokenKind::Punct(Punct::SlashEq) => Some(Some(BinOp::Div)),
            TokenKind::Punct(Punct::PercentEq) => Some(Some(BinOp::Rem)),
            TokenKind::Punct(Punct::AmpEq) => Some(Some(BinOp::And)),
            TokenKind::Punct(Punct::PipeEq) => Some(Some(BinOp::Or)),
            TokenKind::Punct(Punct::CaretEq) => Some(Some(BinOp::Xor)),
            TokenKind::Punct(Punct::ShlEq) => Some(Some(BinOp::Shl)),
            TokenKind::Punct(Punct::ShrEq) => Some(Some(BinOp::Shr)),
            _ => None,
        };
        let e = match op {
            Some(op) => {
                self.bump();
                self.reach(self.peak + 1)?;
                let rhs = self.nested(Self::parse_assign)?; // right-associative
                Expr::new(ExprKind::Assign { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }, line)
            }
            None => lhs,
        };
        self.peak = self.peak.max(outer);
        Ok(e)
    }

    /// Precedence-climbing binary expression parser.
    fn parse_binary(&mut self, min_prec: u8) -> Result<Expr, CompileError> {
        let outer = std::mem::replace(&mut self.peak, self.depth);
        let mut lhs = self.parse_unary()?;
        loop {
            let (op, prec) = match self.peek() {
                TokenKind::Punct(Punct::OrOr) => (BinOp::LogOr, 1),
                TokenKind::Punct(Punct::AndAnd) => (BinOp::LogAnd, 2),
                TokenKind::Punct(Punct::Pipe) => (BinOp::Or, 3),
                TokenKind::Punct(Punct::Caret) => (BinOp::Xor, 4),
                TokenKind::Punct(Punct::Amp) => (BinOp::And, 5),
                TokenKind::Punct(Punct::EqEq) => (BinOp::Eq, 6),
                TokenKind::Punct(Punct::Ne) => (BinOp::Ne, 6),
                TokenKind::Punct(Punct::Lt) => (BinOp::Lt, 7),
                TokenKind::Punct(Punct::Le) => (BinOp::Le, 7),
                TokenKind::Punct(Punct::Gt) => (BinOp::Gt, 7),
                TokenKind::Punct(Punct::Ge) => (BinOp::Ge, 7),
                TokenKind::Punct(Punct::Shl) => (BinOp::Shl, 8),
                TokenKind::Punct(Punct::Shr) => (BinOp::Shr, 8),
                TokenKind::Punct(Punct::Plus) => (BinOp::Add, 9),
                TokenKind::Punct(Punct::Minus) => (BinOp::Sub, 9),
                TokenKind::Punct(Punct::Star) => (BinOp::Mul, 10),
                TokenKind::Punct(Punct::Slash) => (BinOp::Div, 10),
                TokenKind::Punct(Punct::Percent) => (BinOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let line = self.line();
            self.bump();
            self.reach(self.peak + 1)?;
            let rhs = self.nested(|p| p.parse_binary(prec + 1))?;
            lhs = Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), line);
        }
        self.peak = self.peak.max(outer);
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        let op = match self.peek() {
            TokenKind::Punct(Punct::Minus) => Some(UnOp::Neg),
            TokenKind::Punct(Punct::Tilde) => Some(UnOp::BitNot),
            TokenKind::Punct(Punct::Bang) => Some(UnOp::Not),
            TokenKind::Punct(Punct::Star) => Some(UnOp::Deref),
            TokenKind::Punct(Punct::Amp) => Some(UnOp::Addr),
            TokenKind::Punct(Punct::PlusPlus) => {
                self.bump();
                let target = self.nested(Self::parse_unary)?;
                return Ok(Expr::new(
                    ExprKind::IncDec { pre: true, inc: true, target: Box::new(target) },
                    line,
                ));
            }
            TokenKind::Punct(Punct::MinusMinus) => {
                self.bump();
                let target = self.nested(Self::parse_unary)?;
                return Ok(Expr::new(
                    ExprKind::IncDec { pre: true, inc: false, target: Box::new(target) },
                    line,
                ));
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = self.nested(Self::parse_unary)?;
            return Ok(Expr::new(ExprKind::Unary(op, Box::new(operand)), line));
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr, CompileError> {
        let outer = std::mem::replace(&mut self.peak, self.depth);
        let mut e = self.parse_primary()?;
        loop {
            let line = self.line();
            if matches!(
                self.peek(),
                TokenKind::Punct(
                    Punct::LBracket
                        | Punct::Dot
                        | Punct::Arrow
                        | Punct::PlusPlus
                        | Punct::MinusMinus
                )
            ) {
                self.reach(self.peak + 1)?;
            }
            match self.peek() {
                TokenKind::Punct(Punct::LBracket) => {
                    self.bump();
                    let idx = self.nested(Self::parse_expr)?;
                    self.expect_punct(Punct::RBracket)?;
                    e = Expr::new(ExprKind::Index(Box::new(e), Box::new(idx)), line);
                }
                TokenKind::Punct(Punct::Dot) => {
                    self.bump();
                    let field = self.expect_ident()?;
                    e = Expr::new(
                        ExprKind::Member { base: Box::new(e), field, arrow: false },
                        line,
                    );
                }
                TokenKind::Punct(Punct::Arrow) => {
                    self.bump();
                    let field = self.expect_ident()?;
                    e = Expr::new(ExprKind::Member { base: Box::new(e), field, arrow: true }, line);
                }
                TokenKind::Punct(Punct::PlusPlus) => {
                    self.bump();
                    e = Expr::new(
                        ExprKind::IncDec { pre: false, inc: true, target: Box::new(e) },
                        line,
                    );
                }
                TokenKind::Punct(Punct::MinusMinus) => {
                    self.bump();
                    e = Expr::new(
                        ExprKind::IncDec { pre: false, inc: false, target: Box::new(e) },
                        line,
                    );
                }
                _ => break,
            }
        }
        self.peak = self.peak.max(outer);
        Ok(e)
    }

    fn parse_primary(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        match self.bump() {
            TokenKind::Int(v) => Ok(Expr::new(ExprKind::Num(v), line)),
            TokenKind::Str(bytes) => {
                let mut b = bytes;
                b.push(0);
                let idx = self.program.strings.len();
                self.program.strings.push(b);
                Ok(Expr::new(ExprKind::Str(idx), line))
            }
            TokenKind::Keyword(Keyword::Sizeof) => {
                self.expect_punct(Punct::LParen)?;
                let ty = self.parse_type()?;
                let ty = self.parse_array_suffix(ty)?;
                self.expect_punct(Punct::RParen)?;
                Ok(Expr::new(ExprKind::Sizeof(ty), line))
            }
            TokenKind::Ident(name) => {
                if *self.peek() == TokenKind::Punct(Punct::LParen) {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat_punct(Punct::RParen) {
                        loop {
                            args.push(self.nested(Self::parse_expr)?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                        self.expect_punct(Punct::RParen)?;
                    }
                    Ok(Expr::new(ExprKind::Call { name, args }, line))
                } else {
                    Ok(Expr::new(ExprKind::Ident { name, storage: None }, line))
                }
            }
            TokenKind::Punct(Punct::LParen) => {
                let e = self.nested(Self::parse_expr)?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            other => Err(CompileError::new(line, format!("expected expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Result<Program, CompileError> {
        parse(lex(src)?)
    }

    #[test]
    fn minimal_program() {
        let p = parse_src("int main() { return 0; }").unwrap();
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.funcs[0].name, "main");
        assert_eq!(p.funcs[0].arity, 0);
        assert!(matches!(p.funcs[0].body[0], Stmt::Return { .. }));
    }

    #[test]
    fn globals_with_inits() {
        let p = parse_src(
            r#"
            int a = 5;
            int b;
            int tab[4] = {1, 2, 3, 4};
            char msg[6] = "hello";
            int x = -3, y = 7;
            "#,
        )
        .unwrap();
        assert_eq!(p.globals.len(), 6);
        assert_eq!(p.globals[0].init, GlobalInit::Scalar(5));
        assert_eq!(p.globals[1].init, GlobalInit::None);
        assert_eq!(p.globals[2].init, GlobalInit::List(vec![1, 2, 3, 4]));
        assert_eq!(p.globals[3].init, GlobalInit::Str(b"hello\0".to_vec()));
        assert_eq!(p.globals[4].init, GlobalInit::Scalar(-3));
        assert_eq!(p.globals[5].init, GlobalInit::Scalar(7));
    }

    #[test]
    fn struct_definitions() {
        let p = parse_src(
            r#"
            struct point { int x; int y; };
            struct node { int val; struct node* next; };
            struct point origin;
            "#,
        )
        .unwrap();
        assert_eq!(p.structs.len(), 2);
        assert_eq!(p.structs[0].size, 8);
        assert_eq!(p.structs[1].size, 8);
        assert!(matches!(p.globals[0].ty, Type::Struct(_)));
    }

    #[test]
    fn precedence() {
        let p = parse_src("int f() { return 1 + 2 * 3 == 7 && 4 < 5; }").unwrap();
        let Stmt::Return { value: Some(e), .. } = &p.funcs[0].body[0] else { panic!() };
        // Top node must be &&.
        let ExprKind::Binary(BinOp::LogAnd, lhs, _) = &e.kind else {
            panic!("expected &&, got {:?}", e.kind)
        };
        let ExprKind::Binary(BinOp::Eq, add, _) = &lhs.kind else { panic!() };
        let ExprKind::Binary(BinOp::Add, _, mul) = &add.kind else { panic!() };
        assert!(matches!(mul.kind, ExprKind::Binary(BinOp::Mul, ..)));
    }

    #[test]
    fn postfix_chains() {
        let p = parse_src("int f(int* p) { return p[1] + p[2]; }").unwrap();
        assert_eq!(p.funcs[0].arity, 1);
        let p2 = parse_src("struct s { int v; }; int f(struct s* q) { return q->v; }").unwrap();
        let Stmt::Return { value: Some(e), .. } = &p2.funcs[0].body[0] else { panic!() };
        assert!(matches!(&e.kind, ExprKind::Member { arrow: true, .. }));
    }

    #[test]
    fn inc_dec_forms() {
        let p = parse_src("int f(int x) { ++x; x--; return x++; }").unwrap();
        let body = &p.funcs[0].body;
        assert!(matches!(
            &body[0],
            Stmt::Expr(Expr { kind: ExprKind::IncDec { pre: true, inc: true, .. }, .. })
        ));
        assert!(matches!(
            &body[1],
            Stmt::Expr(Expr { kind: ExprKind::IncDec { pre: false, inc: false, .. }, .. })
        ));
    }

    #[test]
    fn control_flow() {
        let p = parse_src(
            r#"
            int f(int n) {
                int s = 0;
                for (; n > 0; n = n - 1) {
                    if (n % 2 == 0) continue;
                    s += n;
                }
                while (s > 100) { s = s / 2; break; }
                return s;
            }
            "#,
        )
        .unwrap();
        assert!(matches!(p.funcs[0].body[1], Stmt::For { .. }));
        assert!(matches!(p.funcs[0].body[2], Stmt::While { .. }));
    }

    #[test]
    fn sizeof_and_arrays() {
        let p = parse_src("int f() { int a[10]; return sizeof(int) + sizeof(int[4]); }").unwrap();
        let Stmt::Decl { ty, .. } = &p.funcs[0].body[0] else { panic!() };
        assert_eq!(*ty, Type::Array(Box::new(Type::Int), 10));
    }

    #[test]
    fn error_cases() {
        assert!(parse_src("int main() { return 0 }").is_err()); // missing ;
        assert!(parse_src("int f(struct nope x) {}").is_err()); // unknown struct
        assert!(parse_src("struct s { int x; }; struct s { int y; };").is_err());
        assert!(parse_src("int f() { 1 +; }").is_err());
        assert!(parse_src("void x;").is_err());
        assert!(parse_src("int f() {").is_err()); // unterminated block
        assert!(parse_src(
            "int f(int a, int b, int c, int d, int e, int g, int h, int i, int j) { return 0; }"
        )
        .is_err());
        assert!(parse_src("int t[0];").is_err());
        assert!(parse_src("int g = {1};").is_err()); // brace init on scalar
        assert!(parse_src("int f() { return x(1,; }").is_err());
    }

    /// A program in each shape whose deepest point is exactly `n` levels
    /// down. `wrapped` reaches its depth only because operators after
    /// the deep operand wrap it. `ladder` is an if/else-if chain of `n`
    /// arms, the way MiniC (which has no `switch`) dispatches: each
    /// `else` is a level.
    fn nested_programs(n: usize) -> [(&'static str, String); 7] {
        let (left, right) = ("{".repeat(n), "}".repeat(n));
        let arms: String = (1..n).map(|k| format!(" else if (x == {k}) return {k};")).collect();
        [
            ("blocks", format!("int main() {{ {left}{right} return 0; }}")),
            (
                "ladder",
                format!("int main() {{ int x = 0; if (x == 0) return 0;{arms} return 0; }}"),
            ),
            ("parens", format!("int main() {{ return {}1{}; }}", "(".repeat(n), ")".repeat(n))),
            ("chain", format!("int main() {{ return 1{}; }}", "+1".repeat(n))),
            (
                "wrapped",
                format!(
                    "int main() {{ return 1+{}1{}; }}",
                    "~".repeat(n / 2),
                    "+1".repeat(n - n / 2 - 1)
                ),
            ),
            ("pointer", format!("int main() {{ int {}p; return 0; }}", "*".repeat(n))),
            ("array", format!("int main() {{ int a{}; return 0; }}", "[1]".repeat(n))),
        ]
    }

    #[test]
    fn nesting_is_bounded() {
        // A daemon worker compiles client source on a 2 MiB stack, and
        // the tests may run in a debug build, whose frames are largest.
        let limit = format!("nesting exceeds the limit of {MAX_NESTING} levels");
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                for (shape, src) in nested_programs(MAX_NESTING) {
                    if let Err(e) = crate::build(&src) {
                        panic!("{shape} at the limit: {e}");
                    }
                }
                for (shape, src) in nested_programs(MAX_NESTING + 1) {
                    match parse_src(&src) {
                        Ok(_) => panic!("{shape} past the limit was accepted"),
                        Err(e) => assert_eq!(e.message(), limit, "{shape}"),
                    }
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn void_param_list() {
        let p = parse_src("int f(void) { return 1; }").unwrap();
        assert_eq!(p.funcs[0].arity, 0);
    }

    #[test]
    fn string_interning() {
        let p = parse_src(r#"int f(char* s) { return f("a") + f("b"); }"#).unwrap();
        assert_eq!(p.strings.len(), 2);
        assert_eq!(p.strings[0], b"a\0");
    }
}
