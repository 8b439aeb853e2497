//! Facade crate for the Teapot reproduction: re-exports the pipeline's
//! crates. `ROADMAP.md` at the repository root describes the pipeline.
pub use teapot_asm as asm;
pub use teapot_baselines as baselines;
pub use teapot_campaign as campaign;
pub use teapot_cc as cc;
pub use teapot_core as core;
pub use teapot_dis as dis;
pub use teapot_fabric as fabric;
pub use teapot_fuzz as fuzz;
pub use teapot_isa as isa;
pub use teapot_obj as obj;
pub use teapot_rt as rt;
pub use teapot_specmodel as specmodel;
pub use teapot_triage as triage;
pub use teapot_vm as vm;
pub use teapot_workloads as workloads;
