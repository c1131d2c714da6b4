//! Library half of the `experiments` crate: the panic-isolated task
//! step that the binary's target runner (`scenarios::run`) wraps
//! around every figure and table.

pub mod scenario;
