//! MiniC abstract syntax tree and types.

/// A MiniC type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    /// Signed 64-bit integer (`int`).
    Int,
    /// Unsigned 64-bit integer (`uint`) — `size_t`-like; comparisons are
    /// unsigned, which is what makes the Appendix A.2 `-1` sentinel gadget
    /// expressible.
    Uint,
    /// Unsigned 8-bit byte (`char`). MiniC `char` is unsigned.
    Char,
    /// Pointer to `T`.
    Ptr(Box<Type>),
    /// Function pointer (`fnptr`), callable with up to five `int` args.
    FnPtr,
    /// No value (`void`), only as a return type.
    Void,
}

impl Type {
    /// Byte width of a value of this type when loaded/stored.
    pub fn size(&self) -> u64 {
        match self {
            Type::Char => 1,
            Type::Void => 0,
            _ => 8,
        }
    }

    /// Element size for pointer arithmetic / indexing.
    pub fn elem_size(&self) -> u64 {
        match self {
            Type::Ptr(inner) => inner.size(),
            _ => 8,
        }
    }

    /// Whether comparisons on this type are unsigned.
    pub fn is_unsigned(&self) -> bool {
        matches!(self, Type::Uint | Type::Char | Type::Ptr(_) | Type::FnPtr)
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    LogAnd,
    LogOr,
}

impl BinOp {
    /// Whether this operator yields a boolean (0/1) result.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Bitwise complement.
    BitNot,
    /// Logical not (yields 0/1).
    Not,
}

/// An expression, annotated with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Expression kind.
    pub kind: ExprKind,
    /// Source line.
    pub line: u32,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    Num(i64),
    /// String literal (lowered to a `.rodata` byte array; value is a
    /// `char*`).
    Str(Vec<u8>),
    /// Variable reference.
    Var(String),
    /// `base[index]`.
    Index(Box<Expr>, Box<Expr>),
    /// `*ptr`.
    Deref(Box<Expr>),
    /// `&lvalue` (variable, index or deref).
    AddrOf(Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Direct call `f(args)` — to a named function or builtin.
    Call(String, Vec<Expr>),
    /// Indirect call through a `fnptr` expression.
    CallPtr(Box<Expr>, Vec<Expr>),
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Local declaration with optional initializer. Arrays (`len > 0`)
    /// cannot have initializers.
    Decl {
        name: String,
        ty: Type,
        array_len: Option<u64>,
        init: Option<Expr>,
    },
    /// Assignment to an lvalue.
    Assign { target: Expr, value: Expr },
    /// Compound assignment `target op= value`.
    OpAssign {
        target: Expr,
        op: BinOp,
        value: Expr,
    },
    /// Expression for side effects.
    Expr(Expr),
    /// `if`/`else`.
    If {
        cond: Expr,
        then: Vec<Stmt>,
        els: Vec<Stmt>,
    },
    /// `while` loop.
    While { cond: Expr, body: Vec<Stmt> },
    /// `switch` over an expression (paper Fig. 2 lowers this two ways).
    Switch {
        scrutinee: Expr,
        cases: Vec<(i64, Vec<Stmt>)>,
        default: Option<Vec<Stmt>>,
    },
    /// `break` (loops and switches).
    Break,
    /// `continue` (loops).
    Continue,
    /// `return` with optional value.
    Return(Option<Expr>),
    /// Nested block scope.
    Block(Vec<Stmt>),
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Func {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// Parameters (name, type); at most five.
    pub params: Vec<(String, Type)>,
    /// Body.
    pub body: Vec<Stmt>,
}

/// A global variable definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Name.
    pub name: String,
    /// Element type.
    pub ty: Type,
    /// Array length (`None` for scalars).
    pub array_len: Option<u64>,
    /// Constant initializer bytes (zero-filled `.bss` when `None`).
    pub init: Option<Vec<u8>>,
}

/// A parsed MiniC translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Global variables.
    pub globals: Vec<Global>,
    /// Function definitions.
    pub funcs: Vec<Func>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_sizes() {
        assert_eq!(Type::Int.size(), 8);
        assert_eq!(Type::Char.size(), 1);
        assert_eq!(Type::Ptr(Box::new(Type::Char)).size(), 8);
        assert_eq!(Type::Ptr(Box::new(Type::Char)).elem_size(), 1);
        assert_eq!(Type::Ptr(Box::new(Type::Int)).elem_size(), 8);
    }

    #[test]
    fn signedness() {
        assert!(!Type::Int.is_unsigned());
        assert!(Type::Uint.is_unsigned());
        assert!(Type::Char.is_unsigned());
        assert!(Type::Ptr(Box::new(Type::Int)).is_unsigned());
    }

    #[test]
    fn comparison_ops() {
        assert!(BinOp::Lt.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }
}
