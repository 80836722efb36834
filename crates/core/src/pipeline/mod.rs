//! The transfer pipeline: one parameterized migration loop.
//!
//! Every migration the engine offers — static, gang, live, faulted,
//! post-copy — is a thin driver over [`rounds::TransferLoop`], so fault
//! handling, wire accounting and observability exist exactly once:
//!
//! * [`wire_costs`] — per-message byte costs, shared with `estimate.rs`.
//! * [`rounds`] — the [`rounds::TransferLoop`] itself: the first-round
//!   scan (one walk in page order), resend rounds and the stop-and-copy
//!   flush, all emitting through one per-message step; abort assembly.
//! * [`sink`] — [`sink::MsgSink`], where that step hands each message:
//!   count-only, record, link-cut walk (the daemon adds its socket).
//! * [`obs`] — metrics/span emission, fused with ledger recording.
//!
//! One invariant holds by construction. *Clean is faulted*: the clean
//! path is the faulted path with [`vecycle_faults::AttemptFaults::none`],
//! every fault check a no-op — pinned by the golden suite and
//! `tests/parallel_props.rs`.

pub(crate) mod obs;
pub(crate) mod rounds;
pub(crate) mod sink;
pub(crate) mod wire_costs;
