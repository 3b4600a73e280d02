//! # dsm-ir
//!
//! The loop-nest intermediate representation shared by the frontend, the
//! directive compiler and the executor of this PLDI'97 reproduction.
//!
//! The IR models explicitly-parallel Fortran programs the way the MIPSpro
//! compiler of the paper sees them:
//!
//! * counted `do` loops, optionally carrying a `c$doacross` annotation
//!   ([`Doacross`]) with `local`/`shared` lists, a [`SchedType`], an
//!   [`Affinity`] clause and a `nest` depth;
//! * array declarations ([`ArrayDecl`]) with optional [`Distribution`]s of
//!   kind [`DistKind::Regular`] (`c$distribute`) or
//!   [`DistKind::Reshaped`] (`c$distribute_reshape`);
//! * assignments and loads over arrays with an explicit
//!   [`AddrMode`] describing how much address arithmetic the generated code
//!   performs per reference — the quantity the paper's Section 7
//!   optimizations reduce;
//! * subroutine calls with whole-array and array-element actuals, the cases
//!   the paper's propagation/cloning and runtime checks distinguish.
//!
//! Compiler passes (crate `dsm-compile`) rewrite this IR in place: the
//! affinity-scheduling pass produces processor-tile loops
//! ([`SchedType::ProcTile`]) with Figure-2 bounds built from runtime
//! queries ([`Expr::Rt`]); the reshape optimizations of Section 7 upgrade
//! reference [`AddrMode`]s and emit explicit [`Stmt::Overhead`] statements
//! for hoisted computations, keeping every cycle visible in IR dumps.

pub mod dist;
pub mod expr;
pub mod printer;
pub mod program;
pub mod stmt;
pub mod validate;

pub use dist::{Dist, DistKind, Distribution, OntoSpec, MAX_RANK};
pub use expr::{BinOp, Expr, Intrinsic, RtExpr, UnOp};
pub use program::{
    ArrayDecl, ArrayId, CommonBlockDecl, Extent, Param, Program, ScalarDecl, ScalarTy, Storage,
    SubId, Subroutine, VarId,
};
pub use stmt::{ActualArg, AddrMode, AffIdx, Affinity, Doacross, LoopStmt, SchedType, Stmt};
pub use validate::{validate_program, ValidateError};
