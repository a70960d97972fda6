//! IR interpreter and branch profiler — the reproduction's stand-in for the
//! ATOM binary-instrumentation runs of the paper (§4).
//!
//! Executing a [`esp_ir::Program`] with [`run`] yields an [`Outcome`] whose
//! [`Profile`] records, for every static conditional-branch site, how many
//! times it executed and how many times it was taken — exactly the two pieces
//! of dynamic information the paper associates with each branch (§3.1), plus
//! per-block execution counts (used for the Figure 2 case study) and total
//! dynamic instruction counts (used for Table 3).
//!
//! # Example
//!
//! ```
//! use esp_ir::{FunctionBuilder, BranchOp, CmpOp, AluOp, Lang, Isa, Program, FuncId};
//! use esp_exec::{run, ExecLimits};
//!
//! // main() { i = 0; while (i < 10) i = i + 1; return i; }
//! let mut b = FunctionBuilder::new("main", 0, Lang::C);
//! let i = b.fresh_reg();
//! let c = b.fresh_reg();
//! let e = b.entry_block();
//! let head = b.new_block();
//! let body = b.new_block();
//! let exit = b.new_block();
//! b.push_load_imm(e, i, 0);
//! b.set_fallthrough(e, head);
//! b.push_cmp_imm(head, CmpOp::Lt, c, i, 10);
//! b.set_cond_branch(head, BranchOp::Bne, c, None, body, exit);
//! b.push_alu_imm(body, AluOp::Add, i, i, 1);
//! b.set_jump(body, head);
//! b.set_return(exit, Some(i));
//! let prog = Program { name: "ten".into(), funcs: vec![b.finish()], main: FuncId(0), isa: Isa::Alpha };
//!
//! let out = run(&prog, &ExecLimits::default())?;
//! assert_eq!(out.ret, Some(esp_exec::Value::Int(10)));
//! let site = prog.branch_sites()[0];
//! let counts = out.profile.counts(site).unwrap();
//! assert_eq!(counts.executed, 11);
//! assert_eq!(counts.taken, 10);
//! # Ok::<(), esp_exec::ExecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod machine;
mod profile;
mod sink;
mod value;

pub use error::ExecError;
pub use machine::{run, run_with_sink, ExecLimits, Outcome};
pub use profile::{BranchCounts, Profile};
pub use sink::{BranchSink, NullSink};
pub use value::Value;
